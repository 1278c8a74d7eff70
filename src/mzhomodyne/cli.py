"""Command line front end emitting deterministic CSV datasets.

Subcommands:

  probs      conditional outcome probabilities on a phase grid
  signal     signal mean, propagated sensitivity, and the Cramer-Rao bound
  sweep      resolution, sensitivity, and visibility ratios over (nbar, a)
  simulate   Monte Carlo calibration plus the inversion-estimator report
  reproduce  canonical datasets (fig1..fig4) checked against thresholds

Parameters come from built-in defaults, then an optional JSON config file
(--config), then flags; later sources win.  Every number is rendered with
17 significant digits and LF line endings, so a rerun with the same
configuration and seed is byte identical.

Exit codes: 0 on success, 1 when a reproduce check fails, 2 on an invalid
configuration.
"""

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .interferometer import (
    BinningScheme,
    InterferometerConfig,
    default_cutoff,
    outcome_table,
)
from .metrics import (
    FIXED_RANDOM_EIGENVALUES,
    Observable,
    best_sensitivity,
    crb,
    error_propagation_sensitivity,
    fwhm,
    fwhm_continuous,
    signal,
    sweep,
    visibility_boundary,
)
from .numerics import find_root
from .simulate import NonMonotoneBranch, calibration_curve, estimate, monotone_branch

__all__ = ["ConfigError", "RunConfig", "build_parser", "main"]


class ConfigError(ValueError):
    """Rejected run configuration; reported on stderr with exit status 2."""


_DEFAULT_NBAR = 200.0
_DEFAULTS = {
    "nbar": None,
    "alpha0": None,
    "a": 0.5,
    "b": 3.8,
    "kf": None,
    "eigenvalues": "ones",
    "mu_minus": 0.0,
    "phi_min": -math.pi,
    "phi_max": math.pi,
    "steps": 2001,
    "shots": 200,
    "replicas": 10,
    "seed": 0,
    "out": None,
    "nbar_axis": None,
    "a_axis": None,
}
# smaller default grid for simulate: every row runs M full replica sets
_SIMULATE_DEFAULT_STEPS = 41

_FLOAT_KEYS = ("nbar", "alpha0", "a", "b", "mu_minus", "phi_min", "phi_max")
_INT_KEYS = ("kf", "steps", "shots", "replicas", "seed")
_STR_KEYS = ("eigenvalues", "out")
_AXIS_KEYS = ("nbar_axis", "a_axis")


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _parse_axis(value, name: str):
    """Accept a comma separated string or a JSON list of numbers."""
    if value is None:
        return None
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise ConfigError(f"{name} must be a comma separated list of numbers")
    try:
        axis = tuple(float(p) for p in parts)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a comma separated list of numbers")
    if not axis:
        raise ConfigError(f"{name} must be nonempty")
    return axis


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
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
    return data


@dataclass(frozen=True)
class RunConfig:
    """Validated parameter set shared by the dataset subcommands."""

    nbar: Optional[float]
    alpha0: Optional[float]
    a: float
    b: float
    kf: Optional[int]
    eigenvalues: str
    mu_minus: float
    phi_min: float
    phi_max: float
    steps: int
    shots: int
    replicas: int
    seed: int
    out: Optional[str]
    nbar_axis: Optional[tuple]
    a_axis: Optional[tuple]

    def interferometer(self) -> InterferometerConfig:
        if self.nbar is not None:
            return InterferometerConfig.from_nbar(self.nbar)
        return InterferometerConfig(self.alpha0)

    def scheme(self, cfg: InterferometerConfig) -> BinningScheme:
        kf = self.kf
        if kf is None:
            kf = default_cutoff(cfg, self.a, self.b)
        return BinningScheme(half_width=self.a, spacing=self.b, cutoff=kf)

    def observable(self, scheme: BinningScheme) -> Observable:
        choice = self.eigenvalues.strip()
        if choice == "ones":
            return Observable.ones(scheme, self.mu_minus)
        if choice == "alternating":
            return Observable.alternating(scheme, self.mu_minus)
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
        return Observable(values, self.mu_minus)

    def phi_grid(self) -> np.ndarray:
        return np.linspace(self.phi_min, self.phi_max, self.steps)


def _coerce(merged: dict) -> dict:
    out = dict(merged)
    for key in _FLOAT_KEYS:
        if out.get(key) is not None:
            try:
                out[key] = float(out[key])
            except (TypeError, ValueError):
                raise ConfigError(f"{key} must be a number")
    for key in _INT_KEYS:
        if out.get(key) is not None:
            value = out[key]
            if isinstance(value, float) and not value.is_integer():
                raise ConfigError(f"{key} must be an integer")
            try:
                out[key] = int(value)
            except (TypeError, ValueError):
                raise ConfigError(f"{key} must be an integer")
    for key in _STR_KEYS:
        if out.get(key) is not None and not isinstance(out[key], str):
            raise ConfigError(f"{key} must be a string")
    for key in _AXIS_KEYS:
        out[key] = _parse_axis(out.get(key), key)
    return out


def _build_config(ns: argparse.Namespace) -> RunConfig:
    merged = dict(_DEFAULTS)
    if ns.command == "simulate":
        merged["steps"] = _SIMULATE_DEFAULT_STEPS
    if getattr(ns, "config", None):
        merged.update(_load_config_file(ns.config))

    flag_nbar = ns.nbar is not None
    flag_alpha0 = ns.alpha0 is not None
    if flag_nbar and flag_alpha0:
        raise ConfigError("nbar and alpha0 are mutually exclusive")
    for key in _DEFAULTS:
        value = getattr(ns, key, None)
        if value is not None:
            merged[key] = value
    # a flag choosing one brightness convention displaces the other
    if flag_nbar:
        merged["alpha0"] = None
    if flag_alpha0:
        merged["nbar"] = None

    merged = _coerce(merged)
    if merged["nbar"] is not None and merged["alpha0"] is not None:
        raise ConfigError("nbar and alpha0 are mutually exclusive")
    if merged["nbar"] is None and merged["alpha0"] is None:
        merged["nbar"] = _DEFAULT_NBAR

    if merged["steps"] < 1:
        raise ConfigError("steps must be at least 1")
    if merged["steps"] > 1 and not merged["phi_max"] > merged["phi_min"]:
        raise ConfigError("phi_max must exceed phi_min")
    if merged["shots"] < 1:
        raise ConfigError("shots must be at least 1")
    if merged["replicas"] < 1:
        raise ConfigError("replicas must be at least 1")
    if merged["kf"] is not None and merged["kf"] < 0:
        raise ConfigError("kf must be a non-negative integer")

    config = RunConfig(**merged)
    # surface the library's own invariant messages (positivity, b > 2a)
    try:
        cfg = config.interferometer()
        scheme = config.scheme(cfg)
        config.observable(scheme)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc))
    return config


@contextmanager
def _csv_writer(out: Optional[str]):
    if out is None:
        yield csv.writer(sys.stdout, lineterminator="\n")
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield csv.writer(fh, lineterminator="\n")


# ---------------------------------------------------------------------------
# Dataset subcommands.


def _probs_header(scheme: BinningScheme):
    return ["phi"] + [f"P({k})" for k in scheme.bin_indices()] + ["P(leftover)"]


def _write_rows(out: Optional[str], header, columns) -> None:
    """One CSV row per phase; columns are equal-length sequences."""
    with _csv_writer(out) as writer:
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_fmt(v) for v in row])


def _write_signal(out: Optional[str], cfg, scheme, obs, grid) -> None:
    """phi, signal mean, propagated sensitivity and the Cramer-Rao bound."""
    _write_rows(out, ["phi", "signal_mean", "delta_phi", "crb"], [
        grid,
        signal(cfg, scheme, obs, grid).mean,
        error_propagation_sensitivity(cfg, scheme, obs, grid),
        crb(cfg, scheme, grid),
    ])


def _cmd_probs(config: RunConfig) -> int:
    cfg = config.interferometer()
    scheme = config.scheme(cfg)
    grid = config.phi_grid()
    probs, _ = outcome_table(cfg, scheme, grid)
    _write_rows(config.out, _probs_header(scheme), [grid, *probs.T])
    return 0


def _cmd_signal(config: RunConfig) -> int:
    cfg = config.interferometer()
    scheme = config.scheme(cfg)
    _write_signal(config.out, cfg, scheme, config.observable(scheme),
                  config.phi_grid())
    return 0


def _write_sweep(out: Optional[str], nbar_axis, a_axis) -> None:
    try:
        grid = sweep(nbar_axis, a_axis)
    except ValueError as exc:
        raise ConfigError(str(exc))
    with _csv_writer(out) as writer:
        writer.writerow(
            ["nbar", "a", "resolution_ratio", "sensitivity_ratio", "visibility"]
        )
        for i, nbar in enumerate(grid.nbar_axis):
            for j, a in enumerate(grid.a_axis):
                writer.writerow(
                    [
                        _fmt(nbar),
                        _fmt(a),
                        _fmt(grid.resolution_ratio[i, j]),
                        _fmt(grid.sensitivity_ratio[i, j]),
                        _fmt(grid.visibility[i, j]),
                    ]
                )


_SWEEP_DEFAULT_NBAR = (5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
_SWEEP_DEFAULT_A = (0.1, 0.25, 0.5, 1.0)


def _cmd_sweep(config: RunConfig) -> int:
    nbar_axis = config.nbar_axis or _SWEEP_DEFAULT_NBAR
    a_axis = config.a_axis or _SWEEP_DEFAULT_A
    _write_sweep(config.out, nbar_axis, a_axis)
    return 0


def _estimation_rows(cfg, scheme, obs, points):
    """Inversion-estimator row of each calibration point's replica set."""
    mu = obs.all_values()
    bounds = crb(cfg, scheme, [pt.phi for pt in points]).tolist()
    rows = []
    for pt, bound in zip(points, bounds):
        rs = pt.replicas
        measured = [
            math.fsum(mu * r.all_counts()) / rs.shots for r in rs.records
        ]
        mean_signal = math.fsum(measured) / len(measured)
        try:
            report = estimate(cfg, scheme, obs, rs)
            rows.append(
                [pt.phi, mean_signal, report.sigma, bound, report.bias,
                 report.std_dev, ""]
            )
        except NonMonotoneBranch:
            rows.append(
                [pt.phi, mean_signal, math.nan, bound, math.nan, math.nan,
                 "NonMonotoneBranch"]
            )
    return rows


def _write_simulation(out_base, scheme, points, est_rows=None):
    labels = [str(k) for k in scheme.bin_indices()] + ["leftover"]
    cal_path = f"{out_base}_calibration.csv"
    with _csv_writer(cal_path) as writer:
        writer.writerow(
            ["phi"]
            + [f"freq({s})" for s in labels]
            + [f"std({s})" for s in labels]
        )
        for pt in points:
            writer.writerow(
                [_fmt(v) for v in [pt.phi, *pt.mean_freqs, *pt.std_freqs]]
            )
    if est_rows is None:
        return cal_path, None
    est_path = f"{out_base}_estimation.csv"
    with _csv_writer(est_path) as writer:
        writer.writerow(
            ["phi", "mean_signal", "sigma", "crb", "bias", "std_dev", "error"]
        )
        for row in est_rows:
            writer.writerow([_fmt(v) for v in row[:-1]] + [row[-1]])
    return cal_path, est_path


def _cmd_simulate(config: RunConfig) -> int:
    if config.out is None:
        raise ConfigError("simulate writes two files and needs --out")
    out_base = config.out
    if out_base.endswith(".csv"):
        out_base = out_base[:-4]
    cfg = config.interferometer()
    scheme = config.scheme(cfg)
    obs = config.observable(scheme)
    points = calibration_curve(cfg, scheme, config.phi_grid(), config.shots,
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
    _write_sweep(str(out_dir / "fig1_sweep.csv"), _SWEEP_DEFAULT_NBAR,
                 _SWEEP_DEFAULT_A)

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
    probs, _ = outcome_table(cfg, scheme, grid)
    _write_rows(str(out_dir / "fig2_probs.csv"), _probs_header(scheme),
                [grid, *probs.T])
    worst_row_sum = max(abs(math.fsum(row) - 1.0) for row in probs.tolist())
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
    cal_probs, _ = outcome_table(cfg, scheme, [pt.phi for pt in points])
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
    variants = (
        ("ones", Observable.ones(scheme)),
        ("fixed", Observable(FIXED_RANDOM_EIGENVALUES, 0.0)),
        ("alternating", Observable.alternating(scheme)),
    )
    grid = np.linspace(-math.pi, math.pi, 2001)
    for name, obs in variants:
        _write_signal(str(out_dir / f"fig3_signal_{name}.csv"), cfg, scheme,
                      obs, grid)

    # first divergence of delta_phi at positive phase: the slope zero of the
    # all-ones signal, expected near b/alpha0
    ones = Observable.ones(scheme)
    dark = find_root(
        lambda x: signal(cfg, scheme, ones, x).slope, (0.15, 0.4)
    )
    target = scheme.spacing / cfg.alpha0
    checks.add(
        abs(dark - target) <= 0.10 * target,
        "dark point location",
        f"got {dark:.5f}, want {target:.5f} within 10%",
    )

    alternating = Observable.alternating(scheme)
    cap = 10.0 * 1.37 / math.sqrt(cfg.nbar)
    included = ok = 0
    ratio_grid = np.linspace(-math.pi + 0.05, math.pi - 0.05, 2000)
    bounds = crb(cfg, scheme, ratio_grid).tolist()
    deltas = error_propagation_sensitivity(cfg, scheme, alternating,
                                           ratio_grid).tolist()
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
    out_dir = Path(ns.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = _Checks()
    _FIGURES[ns.figure](out_dir, ns.seed, checks)
    summary = "\n".join(checks.lines) + "\n"
    summary_path = out_dir / f"{ns.figure}_summary.txt"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(summary)
    sys.stdout.write(summary)
    return 1 if checks.failed else 0


# ---------------------------------------------------------------------------
# Argument parsing.


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nbar", type=float, help="mean photon number (> 0)")
    parser.add_argument("--alpha0", type=float,
                        help="coherent amplitude; excludes --nbar")
    parser.add_argument("--a", type=float, help="bin half width (default 0.5)")
    parser.add_argument("--b", type=float,
                        help="bin spacing, must exceed 2a (default 3.8)")
    parser.add_argument("--kf", type=int,
                        help="largest bin index (default: cover the signal swing)")
    parser.add_argument("--eigenvalues",
                        help="ones | alternating | comma separated list "
                             "of 2*kf+1 values (default ones)")
    parser.add_argument("--mu-minus", dest="mu_minus", type=float,
                        help="leftover outcome eigenvalue (default 0)")
    parser.add_argument("--phi-min", dest="phi_min", type=float,
                        help="grid start (default -pi)")
    parser.add_argument("--phi-max", dest="phi_max", type=float,
                        help="grid end (default pi)")
    parser.add_argument("--steps", type=int,
                        help="grid points (default 2001; simulate uses 41)")
    parser.add_argument("--shots", type=int,
                        help="measurements N per replica (default 200)")
    parser.add_argument("--replicas", type=int,
                        help="replica count M (default 10)")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--config", help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzhomodyne",
        description="Phase estimation datasets for a coherent-light "
                    "interferometer with binned homodyne readout.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    probs = commands.add_parser(
        "probs", help="outcome probabilities on a phase grid")
    _add_common_flags(probs)

    sig = commands.add_parser(
        "signal", help="signal mean, sensitivity, and the Cramer-Rao bound")
    _add_common_flags(sig)

    swp = commands.add_parser(
        "sweep", help="merit ratios for the binary scheme over (nbar, a)")
    _add_common_flags(swp)
    swp.add_argument("--nbar-axis", dest="nbar_axis",
                     help="comma separated nbar values, ascending")
    swp.add_argument("--a-axis", dest="a_axis",
                     help="comma separated half widths, ascending")

    sim = commands.add_parser(
        "simulate",
        help="sampled calibration and inversion-estimator CSV pair")
    _add_common_flags(sim)

    rep = commands.add_parser(
        "reproduce",
        help="canonical dataset for one figure id plus threshold checks")
    rep.add_argument("figure", choices=sorted(_FIGURES),
                     help="fig1: merit sweep; fig2: six-outcome calibration; "
                          "fig3: signal and sensitivity triplet; "
                          "fig4: estimator versus the bound")
    rep.add_argument("--out", help="output directory (default: current)")
    rep.add_argument("--seed", type=int, default=0,
                     help="master seed (default 0)")

    return parser


_HANDLERS = {
    "probs": _cmd_probs,
    "signal": _cmd_signal,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if ns.command == "reproduce":
            return _cmd_reproduce(ns)
        config = _build_config(ns)
        return _HANDLERS[ns.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
