"""CLI tests: validation exits, CSV shape and determinism, golden regression.

main() is driven in process; one subprocess test covers the module entry
point.  Numeric cells are checked by exact float round trip against the
library, which the 17-significant-digit rendering guarantees.
"""

import collections
import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mzhomodyne import cli, metrics, simulate
from mzhomodyne.cli import build_parser, main
from mzhomodyne.interferometer import (
    BinningScheme,
    InterferometerConfig,
    outcome_distribution,
)
from mzhomodyne.metrics import (
    Observable,
    crb,
    error_propagation_sensitivity,
    fwhm,
    signal,
    sweep,
    visibility,
)
from mzhomodyne.numerics import RandomStream
from mzhomodyne.simulate import calibration_curve, estimate

GOLDEN = Path(__file__).parent / "golden"
# the message of a seed outside the uint64 key range of a Philox stream
SEED_RANGE = "seed must be an integer in [0, 18446744073709551616)"


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# Configuration validation (exit code 2, message on stderr).


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["probs", "--nbar", "100", "--alpha0", "5"], "mutually exclusive"),
        (["probs", "--nbar", "-5"], "nbar must be positive"),
        (["probs", "--alpha0", "0"], "alpha0 must be positive"),
        (["probs", "--a", "2", "--b", "3"], "spacing"),
        (["probs", "--a", "-1"], "half_width"),
        # explicit ids keep these node ids stable when a message is edited
        pytest.param(["probs", "--kf", "-2"], "kf must be an integer in [0, inf)",
                     id="argv5-kf must be a non-negative integer"),
        pytest.param(["probs", "--steps", "0"], "steps must be an integer in [1, inf)",
                     id="argv6-steps must be at least 1"),
        (["probs", "--phi-min", "1", "--phi-max", "0"], "phi_max must exceed"),
        pytest.param(["simulate", "--shots", "0", "--out", "x"],
                     "shots must be an integer in [1, inf)",
                     id="argv8-shots must be at least 1"),
        pytest.param(["simulate", "--replicas", "0", "--out", "x"],
                     "replicas must be an integer in [1, inf)",
                     id="argv9-replicas must be at least 1"),
        (["simulate"], "needs --out"),
        (["signal", "--eigenvalues", "1,2"], "eigenvalue list needs 5 entries"),
        (["signal", "--eigenvalues", "bogus"], "eigenvalues must be"),
        (["sweep", "--nbar-axis", "5,1"], "ascending"),
        (["sweep", "--a-axis", ""], "nonempty"),
        # each subcommand takes only the flags it reads, and no abbreviations
        (["sweep", "--nbar", "5"], "unrecognized arguments"),
        (["probs", "--shots", "7"], "unrecognized arguments"),
        (["probs", "--alp", "5"], "unrecognized arguments"),
        (["probs", "--nbar", "inf"], "finite"),
        (["probs", "--b", "inf"], "finite"),
        (["signal", "--mu-minus", "nan"], "finite"),
        (["probs", "--phi-min=-inf", "--phi-max=inf"], "finite"),
        (["signal", "--kf", "1", "--eigenvalues=1,nan,1"], "finite"),
        (["sweep", "--nbar-axis", "inf"], "finite"),
        pytest.param(["simulate", "--seed", "-1", "--out", "x"], SEED_RANGE,
                     id="argv24-seed must be in"),
        pytest.param(["simulate", "--seed", "18446744073709551616", "--out", "x"],
                     SEED_RANGE, id="argv25-seed must be in"),
        pytest.param(["reproduce", "fig2", "--seed", "-1"], SEED_RANGE,
                     id="argv26-seed must be in"),
        # an output that cannot be written
        (["probs", "--steps", "3", "--out", str(GOLDEN / "missing" / "x.csv")],
         "No such file or directory"),
        (["reproduce", "fig2", "--out", str(GOLDEN / "sweep_default.csv" / "d")],
         "Not a directory"),
    ],
)
def test_invalid_configs_exit_2(capsys, argv, fragment):
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert main(["probs", "--bogus", "1"]) == 2


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"nbaar": 100}))
    assert main(["probs", "--config", str(bad_key)]) == 2
    assert "unknown config key" in capsys.readouterr().err

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["probs", "--config", str(not_object)]) == 2
    assert "JSON object" in capsys.readouterr().err

    assert main(["probs", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err

    boolean = tmp_path / "bool.json"
    boolean.write_text(json.dumps({"nbar": True}))
    assert main(["probs", "--config", str(boolean)]) == 2
    assert "nbar must be a number" in capsys.readouterr().err

    negative_seed = tmp_path / "seed.json"
    negative_seed.write_text(json.dumps({"seed": -1}))
    assert main(["simulate", "--config", str(negative_seed)]) == 2
    assert SEED_RANGE in capsys.readouterr().err


# ---------------------------------------------------------------------------
# probs


def test_probs_matches_library_exactly(tmp_path):
    out = tmp_path / "probs.csv"
    assert main(["probs", "--steps", "5", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["phi", "P(-2)", "P(-1)", "P(0)", "P(1)", "P(2)",
                       "P(leftover)"]
    assert len(rows) == 6
    cfg = InterferometerConfig.from_nbar(200.0)
    scheme = BinningScheme(half_width=0.5, spacing=3.8, cutoff=2)
    for row in rows[1:]:
        phi = float(row[0])
        want = outcome_distribution(cfg, scheme, phi).all_probs()
        got = [float(cell) for cell in row[1:]]
        assert got == list(want)  # 17g round trip is exact
        assert math.fsum(got) == pytest.approx(1.0, abs=1e-12)


def test_probs_writes_to_stdout_by_default(capsys):
    assert main(["probs", "--steps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("phi,P(-2)")
    assert len(lines) == 3


def test_probs_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["probs", "--steps", "7", "--nbar", "150"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    content = first.read_bytes()
    assert b"\r" not in content
    assert content.endswith(b"\n")


def test_probs_respects_kf_and_alpha0(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["probs", "--alpha0", "4", "--kf", "1", "--b", "2.5",
                 "--steps", "2", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["phi", "P(-1)", "P(0)", "P(1)", "P(leftover)"]


# ---------------------------------------------------------------------------
# signal


def test_signal_columns_and_inf_sentinel(tmp_path):
    out = tmp_path / "sig.csv"
    assert main(["signal", "--steps", "5", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["phi", "signal_mean", "delta_phi", "crb"]
    middle = rows[3]  # phi = 0 exactly, an extremum of the ones signal
    assert float(middle[0]) == 0.0
    assert middle[2] == "inf"
    assert math.isfinite(float(middle[3]))


def test_signal_values_match_library(tmp_path):
    out = tmp_path / "sig.csv"
    assert main(["signal", "--steps", "9", "--eigenvalues", "alternating",
                 "--out", str(out)]) == 0
    cfg = InterferometerConfig.from_nbar(200.0)
    scheme = BinningScheme(half_width=0.5, spacing=3.8, cutoff=2)
    obs = Observable.alternating(scheme)
    for row in read_rows(out)[1:]:
        phi = float(row[0])
        assert float(row[1]) == signal(cfg, scheme, obs, phi).mean
        want = error_propagation_sensitivity(cfg, scheme, obs, phi)
        got = float(row[2])
        assert got == want or (math.isinf(got) and math.isinf(want))
        assert float(row[3]) == crb(cfg, scheme, phi)


def test_signal_golden_regression(tmp_path):
    out = tmp_path / "fixed.csv"
    argv = ["signal", "--steps", "41",
            "--eigenvalues=-0.715,0.068,0.839,-0.102,0.392",
            "--mu-minus", "0", "--out", str(out)]
    assert main(argv) == 0
    golden = GOLDEN / "signal_fixed_41.csv"
    assert out.read_bytes() == golden.read_bytes()
    # spot check one interior row against the library
    cfg = InterferometerConfig.from_nbar(200.0)
    scheme = BinningScheme(half_width=0.5, spacing=3.8, cutoff=2)
    obs = Observable((-0.715, 0.068, 0.839, -0.102, 0.392), 0.0)
    row = read_rows(out)[11]
    phi = float(row[0])
    assert float(row[1]) == signal(cfg, scheme, obs, phi).mean
    assert float(row[2]) == error_propagation_sensitivity(cfg, scheme, obs, phi)


# ---------------------------------------------------------------------------
# config file merging


def test_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"nbar": 100, "steps": 3, "a": 0.5}))
    via_file = tmp_path / "file.csv"
    direct = tmp_path / "direct.csv"
    assert main(["probs", "--config", str(cfg_file), "--nbar", "200",
                 "--out", str(via_file)]) == 0
    assert main(["probs", "--nbar", "200", "--steps", "3",
                 "--out", str(direct)]) == 0
    assert via_file.read_bytes() == direct.read_bytes()


def test_flag_brightness_displaces_config_file_choice(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"alpha0": 5.0, "steps": 2}))
    out = tmp_path / "out.csv"
    # file sets alpha0, flag sets nbar: the flag wins without a conflict
    assert main(["probs", "--config", str(cfg_file), "--nbar", "200",
                 "--out", str(out)]) == 0
    direct = tmp_path / "direct.csv"
    assert main(["probs", "--nbar", "200", "--steps", "2",
                 "--out", str(direct)]) == 0
    assert out.read_bytes() == direct.read_bytes()


def _readme_section(title):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split(f"\n{title}\n", 1)[1].split("\n#", 1)[0]


def test_readme_config_file_serves_every_subcommand(tmp_path):
    # README's example file carries keys that probs and sweep do not read
    example = _readme_section("### Config files").split("```json\n")[1]
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(example.split("```")[0])
    runs = {
        "probs": (["probs", "--config", str(cfg_file)],
                  ["probs", "--nbar", "1000", "--b", "3.2", "--kf", "5",
                   "--steps", "9"]),
        "sweep": (["sweep", "--config", str(cfg_file), "--nbar-axis", "200",
                   "--a-axis", "0.5"],
                  ["sweep", "--nbar-axis", "200", "--a-axis", "0.5"]),
    }
    for name, (with_file, without) in runs.items():
        assert main(with_file + ["--out", str(tmp_path / f"{name}_a.csv")]) == 0
        assert main(without + ["--out", str(tmp_path / f"{name}_b.csv")]) == 0
        assert ((tmp_path / f"{name}_a.csv").read_bytes()
                == (tmp_path / f"{name}_b.csv").read_bytes())


def test_config_file_null_keeps_default(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"steps": None, "kf": None, "nbar": None}))
    assert main(["probs", "--config", str(cfg_file),
                 "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["probs", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_readme_command_line_examples_parse():
    block = _readme_section("## Command line").split("```sh\n")[1]
    lines = block.split("```")[0].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip()]
    assert commands and all(c[0] == "mzhomodyne" for c in commands)
    for argv in commands:
        build_parser().parse_args(argv[1:])  # exits on an unknown flag


def test_config_file_axes_as_json_list(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"nbar_axis": [100.0], "a_axis": [0.5]}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert len(read_rows(out)) == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_cell_matches_direct_calls(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--nbar-axis", "200", "--a-axis", "0.5",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["nbar", "a", "resolution_ratio", "sensitivity_ratio",
                       "visibility"]
    grid = sweep((200.0,), (0.5,))
    got = [float(cell) for cell in rows[1]]
    assert got[0] == 200.0 and got[1] == 0.5
    assert got[2] == grid.resolution_ratio[0, 0]
    assert got[3] == grid.sensitivity_ratio[0, 0]
    assert got[4] == grid.visibility[0, 0]
    # anchor against the metric definitions themselves
    cfg = InterferometerConfig.from_nbar(200.0)
    scheme = BinningScheme.binary(0.5)
    obs = Observable((1.0,), 0.0)
    assert got[2] == pytest.approx(
        (2.0 * math.pi / 3.0) / fwhm(cfg, scheme, obs), rel=1e-12)
    assert got[4] == pytest.approx(visibility(cfg, scheme, obs), rel=1e-12)


def test_sweep_nan_cells_render_as_nan(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--nbar-axis", "1e-30,200", "--a-axis", "0.5",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[1][2] == "nan"  # no fringe at vanishing light
    assert rows[2][2] != "nan"


@pytest.mark.parametrize("name, axes", [
    ("sweep_default.csv", []),
    # bright cells: fringes 2.4e-3 to 4.1e-2 rad wide
    ("sweep_bright.csv", ["--nbar-axis", "1e4,1e6", "--a-axis", "0.1,1.0"]),
])
def test_sweep_golden_regression(tmp_path, name, axes):
    out = tmp_path / name
    assert main(["sweep", *axes, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


BRIGHT_SIMULATE = ["--nbar", "1e8", "--b", "3.2", "--kf", "3", "--eigenvalues", "alternating",
                   "--phi-min", "0.0002", "--phi-max", "0.0012", "--steps", "6",
                   "--replicas", "20", "--seed", "2"]


# README's example
README_SIMULATE = ["--nbar", "1000", "--b", "3.2", "--kf", "5", "--eigenvalues", "alternating",
                   "--phi-min", "0.02", "--phi-max", "0.18", "--steps", "9", "--seed", "1"]


@pytest.mark.parametrize("name, args", [
    ("simulate_readme", README_SIMULATE),
    # nbar=1e8, whose branches are 6.4e-4 rad wide
    ("simulate_bright", BRIGHT_SIMULATE),
])
def test_simulate_golden_regression(tmp_path, name, args):
    assert main(["simulate", *args, "--out", str(tmp_path / name)]) == 0
    for part in ("calibration", "estimation"):
        csv = f"{name}_{part}.csv"
        assert (tmp_path / csv).read_bytes() == (GOLDEN / csv).read_bytes()


def test_simulate_estimates_every_bright_row_near_the_bound(tmp_path):
    assert main(["simulate", *BRIGHT_SIMULATE, "--out", str(tmp_path / "bright")]) == 0
    rows = read_rows(tmp_path / "bright_estimation.csv")[1:]
    assert len(rows) == 6
    for phi, _, sigma, bound, _, _, error in rows:
        assert error == "", phi
        assert 0.5 <= float(sigma) / float(bound) <= 2.0, phi


# ---------------------------------------------------------------------------
# simulate


SIM_ARGS = ["simulate", "--nbar", "1000", "--b", "3.2", "--kf", "5",
            "--eigenvalues", "alternating", "--phi-min", "0.02",
            "--phi-max", "0.18", "--steps", "3", "--shots", "100",
            "--replicas", "5", "--seed", "7"]


def test_simulate_writes_deterministic_pair(tmp_path):
    assert main(SIM_ARGS + ["--out", str(tmp_path / "one")]) == 0
    assert main(SIM_ARGS + ["--out", str(tmp_path / "two")]) == 0
    for name in ("calibration", "estimation"):
        a = (tmp_path / f"one_{name}.csv").read_bytes()
        b = (tmp_path / f"two_{name}.csv").read_bytes()
        assert a == b


def test_simulate_calibration_matches_replica_stream(tmp_path):
    assert main(SIM_ARGS + ["--out", str(tmp_path / "run")]) == 0
    rows = read_rows(tmp_path / "run_calibration.csv")
    assert rows[0][0] == "phi" and rows[0][1] == "freq(-5)"
    assert len(rows) == 4
    # point 0 uses stream offset 0, so it equals a one-point calibration
    cfg = InterferometerConfig.from_nbar(1000.0)
    scheme = BinningScheme(half_width=0.5, spacing=3.2, cutoff=5)
    (rs,) = calibration_curve(cfg, scheme, [0.02], 100, 5, master_seed=7)
    freqs = np.array(rs.records) / rs.shots
    got = [float(cell) for cell in rows[1]]
    assert got[1:13] == list(freqs.mean(axis=0))
    assert got[13:] == list(freqs.std(axis=0, ddof=0))


def test_simulate_estimation_matches_estimate(tmp_path):
    assert main(SIM_ARGS + ["--out", str(tmp_path / "run")]) == 0
    rows = read_rows(tmp_path / "run_estimation.csv")
    assert rows[0] == ["phi", "mean_signal", "sigma", "crb", "bias",
                       "std_dev", "error"]
    cfg = InterferometerConfig.from_nbar(1000.0)
    scheme = BinningScheme(half_width=0.5, spacing=3.2, cutoff=5)
    obs = Observable.alternating(scheme)
    (rs,) = calibration_curve(cfg, scheme, [0.02], 100, 5, master_seed=7)
    report = estimate(cfg, scheme, obs, rs)
    row = [float(cell) for cell in rows[1][:6]]
    assert row[2] == report.sigma
    assert row[4] == report.bias
    assert row[5] == report.std_dev
    assert rows[1][6] == ""


def test_simulate_flags_flat_signal_rows(tmp_path):
    argv = ["simulate", "--nbar", "200", "--kf", "0", "--eigenvalues", "1",
            "--mu-minus", "1", "--phi-min", "0.1", "--phi-max", "0.2",
            "--steps", "2", "--shots", "20", "--replicas", "2",
            "--out", str(tmp_path / "flat")]
    assert main(argv) == 0
    rows = read_rows(tmp_path / "flat_estimation.csv")
    for row in rows[1:]:
        assert row[6] == "NonMonotoneBranch"
        assert row[2] == "nan" and row[4] == "nan" and row[5] == "nan"
        assert math.isfinite(float(row[1]))


def test_simulate_accepts_out_with_csv_suffix(tmp_path):
    argv = SIM_ARGS[:-2] + ["--steps", "1", "--replicas", "2",
                            "--out", str(tmp_path / "named.csv")]
    assert main(argv) == 0
    assert (tmp_path / "named_calibration.csv").exists()
    assert (tmp_path / "named_estimation.csv").exists()


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_fig2_passes(tmp_path, capsys):
    assert main(["reproduce", "fig2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out
    for name in ("fig2_probs.csv", "fig2_calibration.csv", "fig2_summary.txt"):
        assert (tmp_path / name).exists()
    probs = read_rows(tmp_path / "fig2_probs.csv")
    assert len(probs) == 2002 and all(len(row) == 7 for row in probs)
    summary = (tmp_path / "fig2_summary.txt").read_text()
    assert "calibration within three standard errors" in summary


def test_reproduce_fig1_passes(tmp_path, capsys):
    assert main(["reproduce", "fig1", "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "fig1_summary.txt").read_text()
    lines = summary.strip().splitlines()
    assert len(lines) == 5
    assert sum(line.startswith("PASS") for line in lines) == 5
    assert any(line.startswith("PASS  narrow bin fringe width") for line in lines)
    assert any(line.startswith("PASS  visibility threshold") for line in lines)
    assert (tmp_path / "fig1_sweep.csv").exists()


def test_reproduce_fig4_passes(tmp_path, capsys):
    assert main(["reproduce", "fig4", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 and "FAIL" not in out
    assert "PASS  sigma tracks the bound" in out
    assert "PASS  unbiased estimates" in out
    for name in ("fig4_calibration.csv", "fig4_estimation.csv"):
        assert len(read_rows(tmp_path / name)[1:]) == 21  # past the header


def test_reproduce_fig4_golden_regression(tmp_path):
    # fig4's phase grid is derived from the branch monotone_branch returns
    assert main(["reproduce", "fig4", "--seed", "0", "--out", str(tmp_path)]) == 0
    for name in ("fig4_calibration.csv", "fig4_estimation.csv", "fig4_summary.txt"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def _search_counts(monkeypatch):
    """Counts of a run's table calls (outcome_probs, outcome_derivs and
    outcome_table, wherever the package binds them), branch searches and
    find_roots batches."""
    counts = collections.Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, metrics, simulate):
        for name in ("outcome_probs", "outcome_derivs", "outcome_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted("table", getattr(module, name)))
    monkeypatch.setattr(simulate, "_branch_search", counted("branch", simulate._branch_search))
    monkeypatch.setattr(simulate, "find_roots", counted("find_roots", simulate.find_roots))
    return counts


def test_reproduce_fig4_searches_each_branch_once_and_inverts_in_one_batch(
        tmp_path, monkeypatch):
    counts = _search_counts(monkeypatch)
    assert main(["reproduce", "fig4", "--seed", "0", "--out", str(tmp_path)]) == 0
    # the branch that sets fig4's grid, then one for the 21 points on it;
    # 23 table calls in all, where estimating point by point made 308
    assert counts["branch"] == 2
    assert counts["find_roots"] == 1
    assert counts["table"] <= 40


def test_simulate_readme_example_inverts_in_one_batch(tmp_path, monkeypatch):
    counts = _search_counts(monkeypatch)
    assert main(["simulate", *README_SIMULATE, "--out", str(tmp_path / "run")]) == 0
    assert counts["find_roots"] == 1


def test_reproduce_rejects_unknown_figure(capsys):
    assert main(["reproduce", "fig9"]) == 2


# ---------------------------------------------------------------------------
# one parser per process


def _fresh_interpreter(argv, cwd):
    """Run the CLI on argv in a new interpreter; (exit status, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-m", "mzhomodyne", *argv],
                          capture_output=True, text=True, cwd=cwd, env=env)
    return proc.returncode, proc.stderr


def test_main_reuses_its_parser_like_fresh_runs(tmp_path, capsys, monkeypatch):
    runs = [["probs", "--steps", "5", "--out", "p.csv"],
            ["signal", "--steps", "5", "--eigenvalues", "alternating",
             "--out", "s.csv"]]
    rejected = ["probs", "--steps", "5", "--bogus", "1"]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    for argv in runs:
        assert _fresh_interpreter(argv, fresh) == (0, "")
    want = _fresh_interpreter(rejected, fresh)

    monkeypatch.chdir(reused)
    assert [main(argv) for argv in runs] == [0, 0]
    capsys.readouterr()
    assert main(rejected) == 2
    assert (2, capsys.readouterr().err) == want
    for name in ("p.csv", "s.csv"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()
    assert build_parser() is not build_parser()


# ---------------------------------------------------------------------------
# module entry point


def test_python_dash_m_entry_point(tmp_path):
    out = tmp_path / "p.csv"
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "mzhomodyne", "probs", "--steps", "2",
         "--out", str(out)],
        capture_output=True, text=True, cwd=root, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
