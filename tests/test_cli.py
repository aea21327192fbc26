import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from cvcat import fock, oracle, validate
from cvcat.cli import main

DATA = Path(__file__).parent / "data"
CONFIG_TEXT = "alpha-range = 0,1,2\nformat = json\n# comment\n"

#: Default outputs pinned byte for byte; "{config}" stands for a file holding
#: CONFIG_TEXT.  Regenerate a file only for a deliberate output change.
GOLDEN = {
    "truncation_r03.csv": ["truncation", "--alpha-range", "0,2.5,26", "--r", "0.3"],
    "truncation.json": ["truncation", "--alpha-range", "0,1.5,4", "--format", "json"],
    "fidelity_map_9x9.json": ["fidelity-map", "--grid", "9x9", "--format", "json"],
    "fidelity_map_approx_n3.csv": ["fidelity-map", "--resource", "approx", "--n", "3",
                                   "--grid", "5x5", "--alpha", "1.1"],
    "avg_fidelity_ideal.json": ["avg-fidelity", "--resource", "ideal"],
    "amplify_ideal_oracle.csv": ["amplify", "--kind", "ideal", "--alpha-range", "0,2.5,26",
                                 "--r", "0.4", "--steps", "2", "--oracle"],
    "amplify_approx.csv": ["amplify", "--kind", "approx", "--n", "1", "--steps", "3"],
    "truncation_config.json": ["truncation", "--config", "{config}"],
}


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def _scipy_modules_after(code, env):
    """The scipy modules a fresh interpreter has loaded after running ``code``."""
    code += "; import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return proc.stdout.strip()


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestTruncation:
    def test_values(self, runner):
        res = invoke(runner, ["truncation", "--alpha-range", "0,1.5,4"])
        assert res.exit_code == 0
        header, rows = parse_csv(res.output)
        assert header[:4] == ["alpha", "F_formula", "F_fock", "F_squeezed"]
        assert float(rows[0]["F_formula"]) == 1.0
        assert abs(float(rows[2]["F_formula"]) - 0.97) < 0.005
        # formula and Fock routes agree to 1e-10 on every row
        for row in rows:
            assert abs(float(row["F_formula"]) - float(row["F_fock"])) < 1e-10

    def test_large_cats_match_the_closed_form(self, runner):
        # from alpha = 3.5 the squeezed-cat expansion outgrows its first 40 levels
        res = invoke(runner, ["truncation", "--alpha-range", "0,5,11"])
        assert res.exit_code == 0, res.output
        for row in parse_csv(res.output)[1]:
            closed = fock.squeezed_trunc02_closed_form(float(row["alpha"]), 1.0)
            assert float(row["F_squeezed"]) == pytest.approx(closed, rel=1e-12)

    def test_metadata_header(self, runner):
        res = invoke(runner, ["truncation", "--alpha-range", "0,1,2"])
        assert "# conventions.quadrature" in res.output
        assert "# engine_version = 0.1.0" in res.output

    def test_oracle_column(self, runner):
        res = invoke(runner, ["truncation", "--alpha-range", "0.5,1,2", "--oracle"])
        header, rows = parse_csv(res.output)
        assert "F_squeezed_oracle" in header
        for row in rows:
            assert abs(float(row["F_squeezed"]) - float(row["F_squeezed_oracle"])) < 1e-7

    def test_json_format(self, runner):
        res = invoke(runner, ["truncation", "--alpha-range", "0,1,2", "--format", "json"])
        payload = json.loads(res.output)
        assert payload["meta"]["command"] == "truncation"
        assert len(payload["rows"]) == 2


class TestFidelityMap:
    def test_benchmark_extremes(self, runner):
        res = invoke(runner, ["fidelity-map", "--grid", "5x5", "--format", "json"])
        payload = json.loads(res.output)
        rows = {(round(r["theta"], 9), round(r["phi"], 9)): r["fidelity"]
                for r in payload["rows"]}
        q = round(math.pi / 4, 9)
        assert abs(rows[(q, 0.0)] - 0.9996) < 0.0003
        assert abs(rows[(q, round(math.pi, 9))] - 0.9974) < 0.0005

    def test_ideal_max_is_unity(self, runner):
        res = invoke(runner, ["fidelity-map", "--resource", "ideal", "--grid", "5x5",
                              "--format", "json"])
        payload = json.loads(res.output)
        assert max(r["fidelity"] for r in payload["rows"]) == pytest.approx(1.0, abs=1e-9)

    def test_phi_period_columns_equal(self, runner):
        res = invoke(runner, ["fidelity-map", "--grid", "3x9", "--format", "json"])
        rows = json.loads(res.output)["rows"]
        by_theta = {}
        for r in rows:
            by_theta.setdefault(r["theta"], []).append(r["fidelity"])
        for vals in by_theta.values():
            assert vals[0] == pytest.approx(vals[-1], rel=1e-12)

    def test_theta_major_order(self, runner):
        res = invoke(runner, ["fidelity-map", "--grid", "3x3", "--format", "json"])
        rows = json.loads(res.output)["rows"]
        thetas = [r["theta"] for r in rows]
        assert thetas == sorted(thetas)

    def test_oracle_spot_check(self, runner):
        res = invoke(runner, ["fidelity-map", "--grid", "3x3", "--oracle",
                              "--format", "json"])
        spot = json.loads(res.output)["meta"]["oracle_spot_check"]
        assert spot["difference"] < 1e-7


class TestAvgFidelity:
    def test_benchmark(self, runner):
        res = invoke(runner, ["avg-fidelity", "--resource", "approx"])
        payload = json.loads(res.output)
        assert payload["meta"]["within_band"] is True
        assert payload["meta"]["selected_parametrization"] == "half-angle"
        values = {r["parametrization"]: r["value"] for r in payload["rows"]}
        assert abs(values["half-angle"] - 0.9963) < 0.002

    def test_identity_sanity(self, runner):
        res = invoke(runner, ["avg-fidelity", "--resource", "identity"])
        payload = json.loads(res.output)
        for row in payload["rows"]:
            assert row["value"] == pytest.approx(1.0, abs=1e-9)


class TestAmplify:
    def test_ladder_doubling_rows(self, runner):
        res = invoke(runner, ["amplify", "--kind", "approx", "--n", "1",
                              "--steps", "3", "--format", "json"])
        rows = json.loads(res.output)["rows"]
        assert [r["excitation_out"] for r in rows] == [2, 4, 8]
        for r in rows:
            assert r["ladder_match"] == pytest.approx(1.0, abs=1e-10)

    def test_ideal_sweep_with_spurious_flag(self, runner):
        res = invoke(runner, ["amplify", "--kind", "ideal",
                              "--alpha-range", "0,2.5,6", "--format", "json"])
        rows = json.loads(res.output)["rows"]
        assert len(rows) == 6
        assert rows[0]["spurious"] is True
        assert rows[0]["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert rows[-1]["spurious"] is False
        assert rows[-1]["fidelity"] > 0.99

    def test_capacity_exit_code(self, runner):
        res = runner.invoke(main, ["amplify", "--kind", "approx", "--n", "32"])
        assert res.exit_code == 3

    def test_pair_cap_exit_code(self, runner):
        res = runner.invoke(main, ["amplify", "--kind", "ideal", "--alpha-range", "1,1,1",
                                   "--steps", "11"])
        assert res.exit_code == 3
        assert "term-pair cap 1048576 exceeded: 1025 x 1025 terms at step 11" in res.output

    def test_oracle_spot_check(self, runner):
        res = invoke(runner, ["amplify", "--kind", "ideal", "--alpha-range",
                              "0.5,1.5,3", "--oracle", "--format", "json"])
        spot = json.loads(res.output)["meta"]["oracle_spot_check"]
        assert spot["difference"] < 1e-7

    @pytest.mark.parametrize("args", [["--alpha-range", "6,6,1"],
                                      ["--alpha-range", "3,3,1", "--r", "-0.5"]],
                             ids=["alpha-6", "alpha-3-antisqueezed"])
    def test_oracle_spot_check_widens_its_grid(self, runner, args):
        # the targets reach past the default +-12 grid (to 12.03 and 19.78)
        res = runner.invoke(main, ["amplify", "--kind", "ideal", "--oracle",
                                   "--format", "json", *args])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["meta"]["oracle_spot_check"]["difference"] < 1e-7

    def test_oracle_spot_check_beyond_widest_grid_exits_three(self, runner):
        res = runner.invoke(main, ["amplify", "--kind", "ideal", "--oracle",
                                   "--alpha-range", "40,40,1"])
        assert res.exit_code == 3, res.output
        assert "spot check needs a grid" in res.output


class TestValidate:
    def test_clean_run_exits_zero(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["validate", "--trials", "4", "--out", str(out)])
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        names = {c["name"] for c in payload["checks"]}
        assert {"closed-form-vs-pipeline", "oracle-quadrature-convergence"} <= names
        notes = {n["id"] for n in payload["reference_notes"]}
        assert {"squeezed-trunc02-prefactor", "resource-normalisation",
                "post-splitter-expansion-sign", "closed-form-beta-terms"} <= notes

    def test_perturbed_engine_fails(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["validate", "--trials", "4",
                                   "--perturb", "1e-6", "--out", str(out)])
        assert res.exit_code == 1
        payload = json.loads(out.read_text())
        assert payload["ok"] is False

    def test_truncation_note_lies_in_the_criterion_1_interval(self):
        notes = validate._reference_notes()
        assert not any("band" in n for n in notes)
        note = next(n for n in notes if n["id"] == "trunc02-value-at-1.5")
        lo, hi = note["interval"]
        assert (lo, hi) == (0.73, 0.74)
        assert lo <= note["exact"] < hi

    def test_quadrature_convergence_check_bites_on_coarse_grids(self, monkeypatch):
        checks = {c.name: c for c in validate._oracle_corpus_checks(seed=5, trials=2)}
        assert checks["oracle-quadrature-convergence"].passed
        monkeypatch.setattr(oracle, "DEFAULT_POINTS_1D", 64)
        monkeypatch.setattr(oracle, "DEFAULT_POINTS_2D", 64)
        checks = {c.name: c for c in validate._oracle_corpus_checks(seed=5, trials=2)}
        assert not checks["oracle-quadrature-convergence"].passed


class TestCliPlumbing:
    def test_usage_error_exit_two(self, runner):
        res = runner.invoke(main, ["truncation", "--alpha-range", "nonsense"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["truncation", "--alpha-range", "0,1,0"],
        ["amplify", "--alpha-range", "0,1,0"],
        ["avg-fidelity", "--grid", "0x4"],
        ["avg-fidelity", "--grid", "-2x4"],
        ["avg-fidelity", "--grid", "4x0"],
        ["validate", "--trials", "0"],
        ["validate", "--trials", "-1"],
        ["avg-fidelity", "--tol", "0"],
        ["avg-fidelity", "--tol", "-1"],
        ["avg-fidelity", "--tol", "nan"],
        ["fidelity-map", "--alpha", "nan", "--grid", "2x2"],
        ["fidelity-map", "--r", "nan", "--grid", "2x2"],
        ["fidelity-map", "--beta", "nan", "--grid", "2x2"],
        ["fidelity-map", "--beta", "inf", "--grid", "2x2"],
        ["amplify", "--alpha-range", "-1,-1,1", "--steps", "2"],
        ["truncation", "--r", "inf"],
        ["truncation", "--r", "400"],
        ["truncation", "--r", "-400"],
        ["truncation", "--r", "nan"],
        ["truncation", "--alpha-range", "nan,nan,1"],
        ["fidelity-map", "--r", "400", "--grid", "2x2"],
        ["fidelity-map", "--r", "-400", "--grid", "2x2"],
        ["amplify", "--r", "400", "--alpha-range", "1,1,1"],
        ["amplify", "--r", "-400", "--alpha-range", "1,1,1"],
        ["avg-fidelity", "--r", "400"],
        ["avg-fidelity", "--r", "-400"],
        ["truncation", "--alpha-range", "0,40,2"],
        ["validate", "--seed", "-1", "--trials", "1"],
        ["validate", "--perturb", "nan"],
        ["validate", "--perturb", "inf"],
    ], ids=["truncation-count-0", "amplify-count-0", "avg-grid-0x4", "avg-grid--2x4",
            "avg-grid-4x0", "validate-trials-0", "validate-trials--1", "avg-tol-0",
            "avg-tol--1", "avg-tol-nan", "map-alpha-nan", "map-r-nan", "map-beta-nan",
            "map-beta-inf", "amplify-alpha--1",
            "truncation-r-inf", "truncation-r-400", "truncation-r--400", "truncation-r-nan",
            "truncation-alpha-nan", "map-r-400", "map-r--400", "amplify-r-400",
            "amplify-r--400", "avg-r-400", "avg-r--400", "truncation-alpha-40",
            "validate-seed--1", "validate-perturb-nan", "validate-perturb-inf"])
    def test_vacuous_input_exit_two(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)

    def test_overflowing_contraction_exit_three(self, runner):
        # g = exp(-400) is a valid float, but the channel's overlaps overflow
        res = runner.invoke(main, ["fidelity-map", "--r", "200", "--grid", "2x2"])
        assert res.exit_code == 3, res.output
        assert "not finite" in res.output

    def test_vanishing_herald_exit_three(self, runner):
        # both branch outputs underflow to zero, so the fidelity is 0 / 0
        res = runner.invoke(main, ["fidelity-map", "--alpha", "1e6", "--grid", "2x2"])
        assert res.exit_code == 3, res.output
        assert "herald weight" in res.output
        assert "nan" not in res.output

    @pytest.mark.parametrize("command, text", [
        ("truncation", "format = xml\n"),
        ("validate", "trials = abc\n"),
        ("truncation", None),
    ], ids=["bad-choice", "bad-integer", "missing-file"])
    def test_bad_config_exit_two(self, runner, tmp_path, command, text):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        res = runner.invoke(main, [command, "--config", str(cfg)])
        assert res.exit_code == 2

    def test_byte_identical_reruns(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            res = runner.invoke(main, ["truncation", "--alpha-range", "0,1.5,4",
                                       "--out", str(path)])
            assert res.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_and_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT)
        res = invoke(runner, ["truncation", "--config", str(cfg)])
        assert len(json.loads(res.output)["rows"]) == 2
        res = invoke(runner, ["truncation", "--config", str(cfg),
                              "--alpha-range", "0,1,3"])
        assert len(json.loads(res.output)["rows"]) == 3

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_default_outputs_match_golden(self, runner, tmp_path, name):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT)
        args = [str(cfg) if a == "{config}" else a for a in GOLDEN[name]]
        res = invoke(runner, args)
        assert res.exit_code == 0
        assert res.stdout_bytes == (DATA / name).read_bytes()

    def test_version(self, runner):
        res = invoke(runner, ["--version"])
        assert "0.1.0" in res.output

    def test_import_loads_no_scipy(self, child_env):
        assert _scipy_modules_after("import cvcat.cli", child_env) == "[]"

    def test_ladder_amplification_loads_no_scipy(self, child_env):
        # the effective-cat fit behind every ladder row needs no optimiser
        code = ("from cvcat import protocols, states; "
                "protocols.amplify_iterate(protocols.ApproxResource(1), 3); "
                "states.fit_effective_params(1)")
        assert _scipy_modules_after(code, child_env) == "[]"

    def test_moment_checks_load_no_scipy(self, child_env):
        # the moment integrals are checked against the oracle's trapezoid
        code = ("from cvcat import validate; "
                "assert all(c.passed for c in validate._moment_checks())")
        assert _scipy_modules_after(code, child_env) == "[]"
