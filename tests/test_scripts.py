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


def test_output_digest(child_env):
    proc = run_script("output_digest.py", env=child_env)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [(family, count) for family, count, _ in lines] == [
        ("teleport", "192"), ("ideal_chain", "190"), ("ladder_chain", "14"),
        ("operations", "174")]
    assert all(len(sha) == 64 for _, _, sha in lines)
