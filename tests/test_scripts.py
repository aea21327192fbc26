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
teleport 192 0c6dd2cafadfc0a3ae22e17ce77f4eb186edf6d698997549a911dd6d5aa0ac59
ideal_teleport 36 b87e94aa4fa6014ba34eef1eaba238fca16977c90a4a8e9579622d85d22ea678
channel 76 90a57f04d790a5459c1da25388d8bd01152d9ec19ffbad5365339eb457a839e7
ideal_chain 190 4605b67ca945c64b00f1d7e062c68f6665071cf6af24b85fab98feb192943e7f
ladder_chain 14 0fae019c55c144474ac4879dee171619d148d1f46dc472763066e91bc203765e
operations 174 5082ca9c893c68fa8c8949d5381f1f925870ade54fe9b1a8d9cd1a36f5e80b5c
"""


def test_output_digest(child_env):
    proc = run_script("output_digest.py", env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == OUTPUT_DIGEST
