"""Smoke tests of the scripts, which drive the CLI and the protocols directly."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, env):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], capture_output=True,
                          text=True, env=env, timeout=600)


def data_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return len(lines) - 1  # minus the header row


def test_reproduce_results_fast(child_env):
    proc = run_script("reproduce_results.py", "--fast", env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert "ladder doubling chain" in proc.stdout


def test_make_figure_data(child_env, tmp_path):
    proc = run_script("make_figure_data.py", "--outdir", str(tmp_path), env=child_env)
    assert proc.returncode == 0, proc.stderr
    expected = {"map_ideal.csv": 33 * 65, "map_ladder.csv": 33 * 65,
                "amplification_sweep.csv": 51, "truncation.csv": 51}
    assert {name: data_rows(tmp_path / name) for name in expected} == expected


# The engine's exact outputs, bit for bit.  A change that moves them follows
# the golden-file rule of ROADMAP.md: CHANGES.md names the moved outputs and
# shows the new ones are closer to an independent reference.
OUTPUT_DIGEST = """\
teleport 192 9d61c0e852ca596a6819ed2137e25eb570dbdc83f442ce5dfe3204d2a0415a02
ideal_teleport 36 ed29baa710827078a516e791fe349ac2bd242cdda100aeb51f06d8a824447fca
channel 76 43683547a012e0b9409da438ae29df46fa96c3b2b2691f3dac174e4e5ddcbbe6
ideal_chain 190 7967eea4e318a21fe2cbb507cf139f78eefc6fa467cdd3584695932f8371c3eb
ladder_chain 14 337e667821899d8039ffee5545e282959c9271bad4ffc9ce5d201a9357da8147
operations 174 f39c9ae9aa66411d452107d92115fcadaaa8a9faf156c70a0400c17ddccff19c
"""


def test_output_digest(child_env):
    proc = run_script("output_digest.py", env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == OUTPUT_DIGEST
