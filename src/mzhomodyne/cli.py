"""Command line front end emitting deterministic CSV datasets.

Subcommands:

  probs      conditional outcome probabilities on a phase grid
  signal     signal mean, propagated sensitivity, and the Cramer-Rao bound
  sweep      resolution, sensitivity, and visibility ratios over (nbar, a)
  simulate   Monte Carlo calibration plus the inversion-estimator report
  reproduce  canonical datasets (fig1..fig4) checked against thresholds

Parameters come from built-in defaults, then an optional JSON config file
(--config) that any subcommand accepts whole, then the subcommand's own
flags; later sources win.  Every number is rendered with 17 significant
digits and LF line endings, so a rerun with the same configuration and seed
is byte identical.

Exit codes: 0 on success, 1 when a reproduce check fails, 2 on an invalid
configuration or an output that cannot be written.
"""

import argparse
import functools
import json
import math
import re
import sys
from collections import namedtuple
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .interferometer import (
    BinningScheme,
    InterferometerConfig,
    default_cutoff,
    outcome_probs,
    outcome_table,
)
from .metrics import (
    FIXED_RANDOM_EIGENVALUES,
    Observable,
    _signal_columns,
    best_sensitivity,
    crb,
    fwhm,
    fwhm_continuous,
    sweep,
    visibility_boundary,
)
from . import numerics
from .numerics import _row_sums
from .simulate import NonMonotoneBranch, _estimates, calibration_curve, monotone_branch

__all__ = ["ConfigError", "build_parser", "main"]


class ConfigError(ValueError):
    """Rejected run configuration; reported on stderr with exit status 2."""


# ---------------------------------------------------------------------------
# Parameters: one parser per value, shared by flags and config files.


def _finite(name: str, x: float) -> float:
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite")
    return x


def _number(name: str, value) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number")
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number")
    return _finite(name, x)


def _integer(lo, hi=math.inf):
    """Parser of an integer in [lo, hi): a flag's text and an integral JSON
    float are read as an int, then the library's integer rule decides."""
    def parse(name: str, value) -> int:
        if isinstance(value, str) or (isinstance(value, float) and value.is_integer()):
            try:
                value = int(value)
            except ValueError:  # text that is no integer; the rule rejects it
                pass
        try:
            return numerics._integer(name, value, lo, hi)
        except ValueError as exc:
            raise ConfigError(str(exc))
    return parse


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string")
    return value


def _axis(name: str, value) -> tuple:
    """A comma separated string or a JSON list of numbers."""
    if isinstance(value, str):
        value = [p.strip() for p in value.split(",") if p.strip()]
    if not isinstance(value, (list, tuple)) or any(
            isinstance(p, bool) for p in value):
        raise ConfigError(f"{name} must be a comma separated list of numbers")
    try:
        axis = tuple(float(p) for p in value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a comma separated list of numbers")
    if not axis:
        raise ConfigError(f"{name} must be nonempty")
    return tuple(_finite(name, x) for x in axis)


_Param = namedtuple("_Param", "parse default help")
_DEFAULT_NBAR = 200.0  # used when neither nbar nor alpha0 is set
_PARAMS = {
    "nbar": _Param(_number, None, "mean photon number (> 0; default 200)"),
    "alpha0": _Param(_number, None, "coherent amplitude; excludes --nbar"),
    "a": _Param(_number, 0.5, "bin half width (default 0.5)"),
    "b": _Param(_number, 3.8, "bin spacing, must exceed 2a (default 3.8)"),
    "kf": _Param(_integer(0), None,
                 "largest bin index (default: cover the signal swing)"),
    "eigenvalues": _Param(_string, "ones",
                          "ones | alternating | comma separated list of "
                          "2*kf+1 values (default ones)"),
    "mu_minus": _Param(_number, 0.0, "leftover outcome eigenvalue (default 0)"),
    "phi_min": _Param(_number, -math.pi, "grid start (default -pi)"),
    "phi_max": _Param(_number, math.pi, "grid end (default pi)"),
    "steps": _Param(_integer(1), 2001,
                    "grid points (default 2001; simulate uses 41)"),
    "shots": _Param(_integer(1), 200, "measurements N per replica (default 200)"),
    "replicas": _Param(_integer(1), 10, "replica count M (default 10)"),
    "seed": _Param(_integer(0, 2 ** 64), 0, "master seed (default 0)"),
    "out": _Param(_string, None, "output CSV path (default: stdout)"),
    "nbar_axis": _Param(_axis, (5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
                                1000.0),
                        "comma separated nbar values, ascending "
                        "(default 5..1000)"),
    "a_axis": _Param(_axis, (0.1, 0.25, 0.5, 1.0),
                     "comma separated half widths, ascending "
                     "(default 0.1,0.25,0.5,1)"),
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    for key in data:
        if key not in _PARAMS:
            raise ConfigError(f"unknown config key: {key}")
    return data


def _observable(choice: str, mu_minus: float,
                scheme: BinningScheme) -> Observable:
    """The eigenvalue assignment named by --eigenvalues: ones, alternating,
    or a comma separated list of 2*kf+1 numbers."""
    choice = choice.strip()
    if choice == "ones":
        return Observable.ones(scheme, mu_minus)
    if choice == "alternating":
        return Observable.alternating(scheme, mu_minus)
    try:
        values = tuple(float(p) for p in choice.split(","))
    except ValueError:
        raise ConfigError(
            "eigenvalues must be 'ones', 'alternating', or a comma "
            "separated list of numbers"
        )
    need = 2 * scheme.cutoff + 1
    if len(values) != need:
        raise ConfigError(
            f"eigenvalue list needs {need} entries for cutoff "
            f"{scheme.cutoff}, got {len(values)}"
        )
    return Observable(values, mu_minus)


def _build_config(ns: argparse.Namespace):
    """The merged, checked parameters, the phase grid (None for a
    subcommand without one), and the interferometer, scheme and observable
    built from them."""
    command = _COMMANDS[ns.command]
    flags = {name: getattr(ns, name) for name in command.names
             if getattr(ns, name) is not None}
    file = _load_config_file(ns.config) if ns.config else {}
    # a brightness flag displaces the file's brightness, either convention;
    # a null in the file leaves the default
    displaced = ("nbar", "alpha0") if flags.keys() & {"nbar", "alpha0"} else ()
    merged = {name: param.default for name, param in _PARAMS.items()}
    merged.update(command.defaults)
    merged.update((k, v) for k, v in file.items()
                  if k not in displaced and v is not None)
    merged.update(flags)

    merged = {name: None if value is None else _PARAMS[name].parse(name, value)
              for name, value in merged.items()}
    if merged["nbar"] is not None and merged["alpha0"] is not None:
        raise ConfigError("nbar and alpha0 are mutually exclusive")
    if merged["nbar"] is None and merged["alpha0"] is None:
        merged["nbar"] = _DEFAULT_NBAR

    if merged["steps"] > 1 and not merged["phi_max"] > merged["phi_min"]:
        raise ConfigError("phi_max must exceed phi_min")

    config = SimpleNamespace(**merged)
    grid = (np.linspace(config.phi_min, config.phi_max, config.steps)
            if "steps" in command.names else None)

    # surface the library's own invariant messages (positivity, b > 2a)
    try:
        cfg = (InterferometerConfig(config.alpha0) if config.nbar is None
               else InterferometerConfig.from_nbar(config.nbar))
        kf = (default_cutoff(cfg, config.a, config.b) if config.kf is None
              else config.kf)
        scheme = BinningScheme(half_width=config.a, spacing=config.b, cutoff=kf)
        obs = _observable(config.eigenvalues, config.mu_minus, scheme)
    except ValueError as exc:  # a ConfigError keeps its message
        raise ConfigError(str(exc))
    return config, grid, cfg, scheme, obs


# a field that csv.writer would quote, in any Python version
_QUOTED = re.compile(r'[,"\r\n]')


def _write_rows(out: Optional[str], header, rows) -> None:
    """Header, then one CSV line per row, each rendered by one template:
    "%.17g" in a number column and "%s" in a column whose first value is a
    string.  The bytes are those of csv.writer over f"{float(x):.17g}"; a
    string that csv.writer would quote raises ValueError instead."""
    rows = list(map(tuple, rows))
    text = [i for i, v in enumerate(rows[0]) if isinstance(v, str)] if rows else []
    for value in [*header, *(row[i] for row in rows for i in text)]:
        if not isinstance(value, str):
            raise ValueError(f"text column holds a non-string {value!r}")
        if _QUOTED.search(value) or (len(header) == 1 and not value):
            raise ValueError(f"CSV field {value!r} would need quoting")
    template = ",".join("%s" if i in text else "%.17g"
                        for i in range(len(header))) + "\n"
    body = "".join(map(template.__mod__, rows))
    with (nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8", newline="")) as fh:
        fh.write(",".join(header) + "\n")
        fh.write(body)


# ---------------------------------------------------------------------------
# Dataset subcommands.


def _write_probs(out: Optional[str], scheme, grid, probs) -> None:
    header = ["phi"] + [f"P({k})" for k in scheme.bin_indices()] + ["P(leftover)"]
    _write_rows(out, header, np.column_stack((grid, probs)).tolist())


def _write_signal(out: Optional[str], obs, grid, table):
    """phi, signal mean, propagated sensitivity and the Cramer-Rao bound,
    reduced from the grid's outcome table; returns the last three columns."""
    columns = _signal_columns(obs, *table)
    _write_rows(out, ["phi", "signal_mean", "delta_phi", "crb"],
                np.column_stack((grid, *columns)).tolist())
    return columns


def _cmd_probs(config, grid, cfg, scheme, obs) -> int:
    _write_probs(config.out, scheme, grid, outcome_probs(cfg, scheme, grid))
    return 0


def _cmd_signal(config, grid, cfg, scheme, obs) -> int:
    _write_signal(config.out, obs, grid, outcome_table(cfg, scheme, grid))
    return 0


def _write_sweep(out: Optional[str], nbar_axis, a_axis) -> None:
    """Long format: one row per (nbar, a) cell, nbar outermost."""
    try:
        grid = sweep(nbar_axis, a_axis)
    except ValueError as exc:
        raise ConfigError(str(exc))
    n, m = grid.visibility.shape
    _write_rows(
        out, ["nbar", "a", "resolution_ratio", "sensitivity_ratio", "visibility"],
        zip(np.repeat(grid.nbar_axis, m), np.tile(grid.a_axis, n),
            grid.resolution_ratio.ravel(), grid.sensitivity_ratio.ravel(),
            grid.visibility.ravel()),
    )


def _cmd_sweep(config, grid, cfg, scheme, obs) -> int:
    _write_sweep(config.out, config.nbar_axis, config.a_axis)
    return 0


def _estimation_rows(cfg, scheme, obs, points):
    """Inversion-estimator row of each grid point's replica set."""
    bounds = crb(cfg, scheme, [pt.phi for pt in points]).tolist()
    rows = []
    for pt, bound, r in zip(points, bounds, _estimates(cfg, scheme, obs, points)):
        if isinstance(r, NonMonotoneBranch):
            measured = pt.measured_signals(obs)
            rows.append([pt.phi, math.fsum(measured) / len(measured), math.nan, bound,
                         math.nan, math.nan, "NonMonotoneBranch"])
        else:
            rows.append([pt.phi, r.mean_signal, r.sigma, bound, r.bias, r.std_dev, ""])
    return rows


def _write_simulation(out_base, scheme, points, est_rows=None):
    labels = [str(k) for k in scheme.bin_indices()] + ["leftover"]
    cal_path = f"{out_base}_calibration.csv"
    _write_rows(
        cal_path,
        ["phi"] + [f"freq({s})" for s in labels] + [f"std({s})" for s in labels],
        ([pt.phi, *pt.mean_freqs, *pt.std_freqs] for pt in points),
    )
    if est_rows is None:
        return cal_path, None
    est_path = f"{out_base}_estimation.csv"
    _write_rows(
        est_path,
        ["phi", "mean_signal", "sigma", "crb", "bias", "std_dev", "error"],
        est_rows,
    )
    return cal_path, est_path


def _cmd_simulate(config, grid, cfg, scheme, obs) -> int:
    if config.out is None:
        raise ConfigError("simulate writes two files and needs --out")
    out_base = config.out
    if out_base.endswith(".csv"):
        out_base = out_base[:-4]
    points = calibration_curve(cfg, scheme, grid, config.shots,
                               config.replicas, config.seed)
    cal_path, est_path = _write_simulation(
        out_base, scheme, points, _estimation_rows(cfg, scheme, obs, points)
    )
    print(f"wrote {cal_path}", file=sys.stderr)
    print(f"wrote {est_path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Canonical datasets with threshold checks.


class _Checks:
    def __init__(self):
        self.lines = []
        self.failed = False

    def add(self, ok: bool, name: str, detail: str) -> None:
        self.lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            self.failed = True


def _reproduce_fig1(out_dir: Path, seed: int, checks: _Checks) -> None:
    _write_sweep(str(out_dir / "fig1_sweep.csv"), _PARAMS["nbar_axis"].default,
                 _PARAMS["a_axis"].default)

    width = fwhm_continuous(InterferometerConfig.from_nbar(_DEFAULT_NBAR))
    target = 2.0 * math.pi / 3.0
    checks.add(
        abs(width - target) <= 1e-9,
        "reference fringe width",
        f"got {width:.12f}, want {target:.12f} within 1e-9",
    )

    unit = Observable((1.0,), 0.0)
    for nbar in (200.0, 1000.0):
        cfg = InterferometerConfig.from_nbar(nbar)
        _, best = best_sensitivity(cfg, BinningScheme.binary(0.5), unit)
        target = 1.37 / math.sqrt(nbar)
        checks.add(
            abs(best - target) <= 0.05 * target,
            f"best sensitivity at nbar={nbar:g}",
            f"got {best:.6f}, want {target:.6f} within 5%",
        )

    # Narrow-bin limit: P(bin 0) ~ exp(-(nbar/2) sin^2 phi), so the FWHM
    # tends to 2*sqrt(2 ln2)/sqrt(nbar) and the visibility to tanh(nbar/4),
    # which reaches 0.9 at nbar = 4*atanh(0.9) = 5.889.
    narrow_scheme = BinningScheme.binary(0.05)
    narrow = fwhm(InterferometerConfig.from_nbar(200.0), narrow_scheme, unit)
    target = 2.0 * math.sqrt(2.0 * math.log(2.0)) / math.sqrt(200.0)
    checks.add(
        abs(narrow - target) <= 0.10 * target,
        "narrow bin fringe width",
        f"got {narrow:.6f}, want {target:.6f} within 10%",
    )

    boundary = visibility_boundary(narrow_scheme.half_width, 0.9)
    checks.add(
        5.6 <= boundary <= 6.0,
        "visibility threshold",
        f"got nbar={boundary:.4f} at a={narrow_scheme.half_width:g}, "
        f"want within [5.6, 6.0]",
    )


def _fig2_system():
    cfg = InterferometerConfig.from_nbar(200.0)
    scheme = BinningScheme(half_width=0.5, spacing=3.8, cutoff=2)
    return cfg, scheme


def _reproduce_fig2(out_dir: Path, seed: int, checks: _Checks) -> None:
    cfg, scheme = _fig2_system()
    grid = np.linspace(-math.pi, math.pi, 2001)
    probs = outcome_probs(cfg, scheme, grid)
    _write_probs(str(out_dir / "fig2_probs.csv"), scheme, grid, probs)
    worst_row_sum = np.abs(_row_sums(probs) - 1.0).max()
    checks.add(
        scheme.n_outcomes == 6,
        "probability column count",
        f"got {scheme.n_outcomes} outcome columns, want 6",
    )
    checks.add(
        worst_row_sum <= 1e-12,
        "probability row sums",
        f"worst |sum - 1| = {worst_row_sum:.3e}, want <= 1e-12",
    )

    shots, replicas = 200, 10
    cal_grid = np.linspace(-math.pi, math.pi, 41)
    points = calibration_curve(cfg, scheme, cal_grid, shots, replicas, seed)
    _write_simulation(str(out_dir / "fig2"), scheme, points)

    cells = ok = 0
    cal_probs = outcome_probs(cfg, scheme, [pt.phi for pt in points])
    for pt, probs in zip(points, cal_probs.tolist()):
        for freq, p in zip(pt.mean_freqs, probs):
            se = math.sqrt(max(p * (1.0 - p), 0.0) / (shots * replicas))
            cells += 1
            ok += abs(freq - p) <= max(3.0 * se, 1e-12)
    checks.add(
        ok / cells >= 0.95,
        "calibration within three standard errors",
        f"{ok}/{cells} cells inside, want >= 95%",
    )


def _reproduce_fig3(out_dir: Path, seed: int, checks: _Checks) -> None:
    cfg, scheme = _fig2_system()
    variants = {
        "ones": Observable.ones(scheme),
        "fixed": Observable(FIXED_RANDOM_EIGENVALUES, 0.0),
        "alternating": Observable.alternating(scheme),
    }
    grid = np.linspace(-math.pi, math.pi, 2001)
    table = outcome_table(cfg, scheme, grid)
    columns = {name: _write_signal(str(out_dir / f"fig3_signal_{name}.csv"),
                                   obs, grid, table)
               for name, obs in variants.items()}

    # first divergence of delta_phi at positive phase: the slope zero that
    # ends the all-ones signal's branch through b/(2 alpha0), expected near b/alpha0
    target = scheme.spacing / cfg.alpha0
    dark = monotone_branch(cfg, scheme, variants["ones"], 0.5 * target).hi
    checks.add(
        abs(dark - target) <= 0.10 * target,
        "dark point location",
        f"got {dark:.5f}, want {target:.5f} within 10%",
    )

    # the ratio check reads the rows written to fig3_signal_alternating.csv
    cap = 10.0 * 1.37 / math.sqrt(cfg.nbar)
    included = ok = 0
    _, deltas, bounds = columns["alternating"]
    for bound, delta in zip(bounds, deltas):
        if not math.isfinite(bound) or bound > cap:
            continue
        included += 1
        ok += math.isfinite(delta) and delta / bound <= 1.25
    checks.add(
        included > 0 and ok / included >= 0.90,
        "alternating ratio within 1.25",
        f"{ok}/{included} usable grid points inside, want >= 90%",
    )


def _reproduce_fig4(out_dir: Path, seed: int, checks: _Checks) -> None:
    cfg = InterferometerConfig.from_nbar(1000.0)
    scheme = BinningScheme(half_width=0.5, spacing=3.2, cutoff=5)
    obs = Observable.alternating(scheme)
    branch = monotone_branch(cfg, scheme, obs, 0.1)
    width = branch.hi - branch.lo
    grid = branch.lo + width * np.linspace(0.05, 0.95, 21)
    shots, replicas = 200, 400
    points = calibration_curve(cfg, scheme, grid, shots, replicas, seed)
    est_rows = _estimation_rows(cfg, scheme, obs, points)
    _write_simulation(str(out_dir / "fig4"), scheme, points, est_rows)

    clean = [row for row in est_rows if row[6] == ""]
    tracked = sum(
        1 for row in clean
        if math.isfinite(row[3]) and abs(row[2] - row[3]) <= 0.25 * row[3]
    )
    checks.add(
        len(clean) == len(est_rows) and tracked >= math.ceil(0.8 * len(est_rows)),
        "sigma tracks the bound",
        f"{tracked}/{len(est_rows)} points within 25%, want >= 80%",
    )
    unbiased = sum(1 for row in clean if abs(row[4]) < row[5])
    checks.add(
        unbiased == len(clean),
        "unbiased estimates",
        f"|bias| < replica std dev at {unbiased}/{len(clean)} points",
    )


_FIGURES = {
    "fig1": _reproduce_fig1,
    "fig2": _reproduce_fig2,
    "fig3": _reproduce_fig3,
    "fig4": _reproduce_fig4,
}


def _cmd_reproduce(ns: argparse.Namespace) -> int:
    seed = _PARAMS["seed"].parse("seed", ns.seed)
    out_dir = Path(ns.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = _Checks()
    _FIGURES[ns.figure](out_dir, seed, checks)
    summary = "\n".join(checks.lines) + "\n"
    summary_path = out_dir / f"{ns.figure}_summary.txt"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(summary)
    sys.stdout.write(summary)
    return 1 if checks.failed else 0


# ---------------------------------------------------------------------------
# Argument parsing.


# Each dataset subcommand: handler, help, the parameters it reads (its
# flags), and its own defaults.
_Command = namedtuple("_Command", "run help names defaults")
_GRID = ("nbar", "alpha0", "a", "b", "kf", "phi_min", "phi_max", "steps", "out")
_SIGNAL = _GRID + ("eigenvalues", "mu_minus")
_COMMANDS = {
    "probs": _Command(_cmd_probs, "outcome probabilities on a phase grid", _GRID, {}),
    "signal": _Command(_cmd_signal,
                       "signal mean, sensitivity, and the Cramer-Rao bound",
                       _SIGNAL, {}),
    "sweep": _Command(_cmd_sweep,
                      "merit ratios for the binary scheme over (nbar, a)",
                      ("nbar_axis", "a_axis", "out"), {}),
    # a smaller default grid: every row runs a full replica set
    "simulate": _Command(_cmd_simulate,
                         "sampled calibration and inversion-estimator CSV pair",
                         _SIGNAL + ("shots", "replicas", "seed"), {"steps": 41}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzhomodyne",
        description="Phase estimation datasets for a coherent-light "
                    "interferometer with binned homodyne readout.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for command, spec in _COMMANDS.items():
        sub = commands.add_parser(command, help=spec.help, allow_abbrev=False)
        for name, param in _PARAMS.items():
            if name in spec.names:
                sub.add_argument("--" + name.replace("_", "-"), dest=name,
                                 help=param.help)
        sub.add_argument("--config", help="JSON config file; flags override it")

    rep = commands.add_parser(
        "reproduce", allow_abbrev=False,
        help="canonical dataset for one figure id plus threshold checks")
    rep.add_argument("figure", choices=sorted(_FIGURES),
                     help="fig1: merit sweep; fig2: six-outcome calibration; "
                          "fig3: signal and sensitivity triplet; "
                          "fig4: estimator versus the bound")
    rep.add_argument("--out", help="output directory (default: current)")
    rep.add_argument("--seed", default=0, help=_PARAMS["seed"].help)

    return parser


# built on the first main() call, not at import, and reused after it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if ns.command == "reproduce":
            return _cmd_reproduce(ns)
        return _COMMANDS[ns.command].run(*_build_config(ns))
    except (ConfigError, OSError) as exc:  # OSError: an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
