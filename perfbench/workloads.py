"""The four benchmark workloads.

Each workload turns a seed into inputs (`build`), splits one pass over
those inputs into timed steps (`steps`), and checks what the pass produced
(`check`).  The inputs are plain data: argument lists for
`mzhomodyne.cli.main`, or the arguments of library calls.  The seed never
reaches the program except as part of those inputs.

Why these four: they use the five modules in very different ways, so a
change that helps one can be seen to leave, or to hurt, another.

* fringe_scan  - closed-form rows, no search, no random numbers: per-call
                 overhead in the interferometer, erf kernel and metric sums.
* merit_sweep  - chains of dependent scalar searches on a two-outcome
                 alphabet: the same core used one phase at a time.
* estimator    - one branch walk per phase, then one Brent inversion per
                 replica; carries the bright-system NonMonotoneBranch defect.
* calibration  - few phases, 1e5 shots: sampling with the largest draw
                 arrays and no estimation.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mzhomodyne as mz
from mzhomodyne import cli

# The seed whose outputs were recorded as reference values (reference.json).
REFERENCE_SEED = 0

# Tolerances of the correctness check.
CLOSED_FORM_RTOL = 1e-10  # closed-form probabilities, signals, bounds
SEARCH_RTOL = 1e-8        # values located by find_root / minimize_scalar
SOLVER_TOL = 1e-12        # find_root's default tolerance on a phase
ROW_SUM_TOL = 1e-12       # |sum of a probability row - 1|
CRB_SLACK = 1e-9          # CRB <= propagated sensitivity * (1 + slack)
CALIBRATION_Z = 6.0       # sampled frequency vs probability, in std errors
# A recorded table keeps one row in this many, plus its column sums.
REFERENCE_ROW_STRIDE = 10

SIX_OUTCOME = {"nbar": 200.0, "a": 0.5, "b": 3.8, "kf": 2}


@dataclass
class PassOutput:
    """What one pass produced: written files, returned values, job errors."""

    files: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in self.files:
            h.update(Path(path).read_bytes())
        h.update(repr(sorted(self.values.items())).encode())
        h.update(repr(sorted(self.errors)).encode())
        return h.hexdigest()


@dataclass
class CheckResult:
    """Outcome of checking one pass: failed items, and why."""

    failed_items: int = 0
    messages: list = field(default_factory=list)  # failed correctness checks
    notes: list = field(default_factory=list)     # known defects, baselines
    summary: dict = field(default_factory=dict)   # values a result reports

    @property
    def correct(self) -> bool:
        return not self.messages

    def fail(self, items: int, message: str) -> None:
        self.failed_items += items
        self.messages.append(message)


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _flags(**kw) -> list:
    return [f"--{k.replace('_', '-')}={v!r}" if isinstance(v, float)
            else f"--{k.replace('_', '-')}={v}" for k, v in kw.items()]


def _close(x: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return x == ref or (math.isnan(x) and math.isnan(ref))
    return abs(x - ref) <= atol + rtol * abs(ref)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _cli_step(job, workdir: Path, out: PassOutput):
    """A step running one job's argv through cli.main, writing under workdir.

    A job that raises or exits nonzero is recorded, not propagated, so the
    remaining steps still run and its items count as failed.
    """
    def step():
        argv = job["argv"] + [f"--out={workdir / job['name']}"]
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception:
            out.errors[job["name"]] = traceback.format_exc(limit=3)
            return
        if code != 0:
            out.errors[job["name"]] = f"exit {code}: {stderr.getvalue().strip()}"
            return
        out.files.extend(str(workdir / f) for f in job["files"])
    return step


class Workload:
    name = ""
    probe = "small_arrays"  # the speed probe run.py brackets each step with

    def build(self, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def items(self, spec: dict) -> int:
        raise NotImplementedError

    def steps(self, spec: dict, workdir: Path, out: PassOutput) -> list:
        """The calls that make up one pass, in order; each records into out."""
        return [_cli_step(job, workdir, out) for job in spec["jobs"]]

    def run(self, spec: dict, workdir: Path) -> PassOutput:
        out = PassOutput()
        for step in self.steps(spec, workdir, out):
            step()
        return out

    def check(self, spec: dict, out: PassOutput, workdir: Path,
              reference: dict | None) -> CheckResult:
        raise NotImplementedError

    def reference_values(self, spec: dict, out: PassOutput,
                         workdir: Path) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# fringe_scan


_FRINGE_SYSTEMS = (
    ("binary", {"nbar": 200.0, "a": 0.5, "b": 3.8, "kf": 0}, ("ones",)),
    ("six", SIX_OUTCOME,
     ("ones", ",".join(map(repr, mz.FIXED_RANDOM_EIGENVALUES)), "alternating")),
    ("wide", {"nbar": 1e4, "a": 0.5, "b": 3.2, "kf": 16}, ("alternating",)),
)


class FringeScan(Workload):
    name = "fringe_scan"
    grid_points = 161

    def build(self, seed, smoke):
        rng = random.Random(f"{self.name}:{seed}")
        steps = 5 if smoke else self.grid_points
        jobs = []
        for label, system, eigen_sets in _FRINGE_SYSTEMS:
            grid = _flags(phi_min=_uniform(rng, -math.pi, -math.pi + 0.05),
                          phi_max=_uniform(rng, math.pi - 0.05, math.pi),
                          steps=steps)
            base = _flags(**system) + grid
            jobs.append({"name": f"{label}_probs.csv", "kind": "probs",
                         "system": system, "argv": ["probs"] + base,
                         "files": [f"{label}_probs.csv"]})
            for eigen in eigen_sets:
                tag = eigen if eigen in ("ones", "alternating") else "fixed"
                jobs.append({"name": f"{label}_signal_{tag}.csv",
                             "kind": "signal", "system": system,
                             "argv": ["signal"] + base + [f"--eigenvalues={eigen}"],
                             "files": [f"{label}_signal_{tag}.csv"]})
        return {"steps": steps, "jobs": jobs}

    def items(self, spec):
        return spec["steps"] * len(spec["jobs"])

    def _tables(self, spec, out, workdir):
        tables = {}
        for job in spec["jobs"]:
            if job["name"] in out.errors:
                continue
            header, rows = _read_csv(workdir / job["name"])
            tables[job["name"]] = (header, [[float(v) for v in r] for r in rows])
        return tables

    def reference_values(self, spec, out, workdir):
        ref = {}
        for name, (header, rows) in self._tables(spec, out, workdir).items():
            cols = list(zip(*rows))
            ref[name] = {
                "header": header,
                "rows": {str(i): rows[i] for i in range(0, len(rows),
                                                        REFERENCE_ROW_STRIDE)},
                "column_fsum": [math.fsum(v for v in c if math.isfinite(v))
                                for c in cols],
                "column_finite": [sum(map(math.isfinite, c)) for c in cols],
            }
        return ref

    def check(self, spec, out, workdir, reference):
        res = CheckResult()
        steps = spec["steps"]
        tables = self._tables(spec, out, workdir)
        for job in spec["jobs"]:
            name = job["name"]
            if name in out.errors:
                res.fail(steps, f"{name}: {out.errors[name]}")
                continue
            header, rows = tables[name]
            if len(rows) != steps:
                res.fail(steps, f"{name}: {len(rows)} rows, want {steps}")
                continue
            system = job["system"]
            bad = (self._check_probs(system, header, rows)
                   if job["kind"] == "probs" else self._check_signal(rows))
            for msg in bad:
                res.fail(1, f"{name}: {msg}")
            if reference is not None:
                for msg in _compare_table(reference[name], header, rows):
                    res.fail(1, f"{name}: reference: {msg}")
        return res

    @staticmethod
    def _check_probs(system, header, rows):
        cfg = mz.InterferometerConfig.from_nbar(system["nbar"])
        scheme = mz.BinningScheme(system["a"], system["b"], system["kf"])
        if len(header) != scheme.n_outcomes + 1:
            return [f"{len(header)} columns, want {scheme.n_outcomes + 1}"]
        bad = []
        # every outcome eigenvalue equal: the signal slope is the sum of the
        # outcome derivatives, which must vanish
        constant = mz.Observable((1.0,) * (2 * scheme.cutoff + 1), 1.0)
        for i, row in enumerate(rows):
            probs = row[1:]
            err = abs(math.fsum(probs) - 1.0)
            if err > ROW_SUM_TOL or min(probs) < 0.0:
                bad.append(f"row {i}: probabilities sum to 1 + {err:.3e}, "
                           f"smallest {min(probs)!r}")
            if i % REFERENCE_ROW_STRIDE == 0:
                slope = mz.signal(cfg, scheme, constant, row[0]).slope
                if abs(slope) > ROW_SUM_TOL * (1.0 + cfg.alpha0):
                    bad.append(f"row {i}: derivatives sum to {slope:.3e}")
        return bad

    @staticmethod
    def _check_signal(rows):
        bad = []
        for i, (phi, _, delta, bound) in enumerate(rows):
            if (math.isfinite(delta) and math.isfinite(bound)
                    and bound > delta * (1.0 + CRB_SLACK)):
                bad.append(f"row {i}: CRB {bound!r} exceeds propagated "
                           f"sensitivity {delta!r} at phi={phi!r}")
        return bad


def _compare_table(ref, header, rows):
    """Differences between a CSV table and its recorded reference."""
    if header != ref["header"]:
        return [f"header {header} != {ref['header']}"]
    bad = []
    for i, ref_row in ref["rows"].items():
        row = rows[int(i)]
        for col, (x, r) in enumerate(zip(row, ref_row)):
            if not _close(x, r, CLOSED_FORM_RTOL, 1e-300):
                bad.append(f"row {i} {header[col]}: {x!r} != {r!r}")
    cols = list(zip(*rows))
    for col, c in enumerate(cols):
        finite = [v for v in c if math.isfinite(v)]
        if len(finite) != ref["column_finite"][col]:
            bad.append(f"{header[col]}: {len(finite)} finite values, "
                       f"want {ref['column_finite'][col]}")
        elif not _close(math.fsum(finite), ref["column_fsum"][col],
                        CLOSED_FORM_RTOL, 1e-300):
            bad.append(f"{header[col]}: column sum {math.fsum(finite)!r} != "
                       f"{ref['column_fsum'][col]!r}")
    return bad


# ---------------------------------------------------------------------------
# merit_sweep


class MeritSweep(Workload):
    name = "merit_sweep"
    target_visibility = 0.9
    # cells at or above this nbar carry the fixed-step search defect; their
    # seed-commit values are a baseline, not a gate
    defect_nbar = 1e4

    def build(self, seed, smoke):
        rng = random.Random(f"{self.name}:{seed}")
        nbar_axis = [5.0 * 10 ** _uniform(rng, 0.0, 0.1),
                     1e6 * 10 ** _uniform(rng, -0.1, 0.0)]
        a_axis = [_uniform(rng, 0.1, 0.15), _uniform(rng, 0.9, 1.0)]
        if smoke:
            nbar_axis, a_axis = nbar_axis[:1], a_axis[:1]
        # one sweep call per cell, so the speed probe brackets each cell
        jobs = [{"name": f"cell_{i}_{j}.csv",
                 "argv": ["sweep", f"--nbar-axis={nbar!r}", f"--a-axis={a!r}"],
                 "files": [f"cell_{i}_{j}.csv"]}
                for i, nbar in enumerate(nbar_axis)
                for j, a in enumerate(a_axis)]
        return {
            "nbar_axis": nbar_axis,
            "a_axis": a_axis,
            "boundary_half_width": _uniform(rng, 0.45, 0.55),
            "jobs": jobs,
        }

    def items(self, spec):
        return len(spec["nbar_axis"]) * len(spec["a_axis"])

    def steps(self, spec, workdir, out):
        def boundary():
            try:
                out.values["visibility_boundary"] = mz.visibility_boundary(
                    spec["boundary_half_width"], self.target_visibility)
            except Exception:
                out.errors["visibility_boundary"] = traceback.format_exc(limit=3)
        return super().steps(spec, workdir, out) + [boundary]

    @staticmethod
    def _cells(spec, out, workdir):
        """{cell index: CSV row} of the cells whose sweep call succeeded."""
        cells = {}
        for i, job in enumerate(spec["jobs"]):
            if job["name"] not in out.errors:
                header, rows = _read_csv(workdir / job["name"])
                cells[i] = (header, [float(v) for v in rows[0]] if len(rows) == 1
                            else None)
        return cells

    def reference_values(self, spec, out, workdir):
        cells = self._cells(spec, out, workdir)
        return {"header": cells[0][0],
                "cells": [cells[i][1] for i in range(len(cells))],
                "visibility_boundary": out.values["visibility_boundary"]}

    def check(self, spec, out, workdir, reference):
        res = CheckResult()
        cells = self._cells(spec, out, workdir)
        for i, job in enumerate(spec["jobs"]):
            if i not in cells:
                res.fail(1, f"{job['name']}: {out.errors[job['name']]}")
            elif cells[i][1] is None:
                res.fail(1, f"{job['name']}: want exactly one cell row")
            else:
                self._check_cell(i, cells[i][1], reference, res)
        if "visibility_boundary" in out.errors:
            res.fail(0, f"visibility_boundary: {out.errors['visibility_boundary']}")
        else:
            self._check_boundary(spec, out.values["visibility_boundary"],
                                 reference, res)
        return res

    def _check_cell(self, i, row, reference, res):
        nbar, a, resolution, sensitivity, vis = row
        where = f"cell nbar={nbar:.6g} a={a:.4g}"
        values = (resolution, sensitivity, vis)
        if not all(math.isfinite(v) for v in values):
            # a nan cell yields no value where one was requested
            res.failed_items += 1
            res.notes.append(f"{where}: nan in {values}")
            return
        if not (resolution > 0 and 0 < sensitivity <= 1 + CRB_SLACK
                and 0 <= vis <= 1 + ROW_SUM_TOL):
            # sensitivity_ratio > 1 would beat the shot-noise limit
            res.fail(1, f"{where}: ratios out of range {values}")
            return
        if reference is None:
            return
        ref = reference["cells"][i]
        if ref[:2] != [nbar, a]:
            res.fail(1, f"{where}: reference axes {ref[:2]}")
            return
        close = all(_close(x, r, SEARCH_RTOL) for x, r in zip(values, ref[2:]))
        if nbar >= self.defect_nbar:
            if not close:
                res.notes.append(f"{where}: known-defect cell moved from "
                                 f"baseline {ref[2:]} to {list(values)}")
        elif not close:
            res.fail(1, f"{where}: reference: {list(values)} != {ref[2:]}")

    def _check_boundary(self, spec, boundary, reference, res):
        scheme = mz.BinningScheme.binary(spec["boundary_half_width"])
        obs = mz.Observable((1.0,), 0.0)

        def vis(nbar):
            return mz.visibility(mz.InterferometerConfig.from_nbar(nbar),
                                 scheme, obs)

        lo, hi = vis(boundary * (1 - 1e-6)), vis(boundary * (1 + 1e-6))
        if not lo <= self.target_visibility <= hi:
            res.fail(0, f"visibility_boundary {boundary!r}: visibility "
                        f"{lo!r}..{hi!r} does not straddle the target")
        if reference is not None and not _close(
                boundary, reference["visibility_boundary"], SEARCH_RTOL):
            res.fail(0, f"visibility_boundary: reference: {boundary!r} != "
                        f"{reference['visibility_boundary']!r}")


# ---------------------------------------------------------------------------
# estimator


_FIG4 = {"nbar": 1e3, "a": 0.5, "b": 3.2, "kf": 5}
_BRIGHT = {"nbar": 1e8, "a": 0.5, "b": 3.2, "kf": 3}


class Estimator(Workload):
    name = "estimator"
    shots = 200
    fig4_replicas, bright_replicas = 100, 25

    def build(self, seed, smoke):
        rng = random.Random(f"{self.name}:{seed}")
        scale = 0.1 if smoke else 1.0
        lo, hi = _uniform(rng, 0.02, 0.04), _uniform(rng, 0.16, 0.18)
        fig4 = [lo, hi] if smoke else [lo, 0.5 * (lo + hi), hi]
        # the bright system's phases are fixed: two of these four hit the
        # NonMonotoneBranch defect, whatever the draws
        bright = [float(p) for p in np.linspace(0.0003, 0.0012, 4)]
        jobs = []
        # one simulate call per phase, so the speed probe brackets each phase
        for label, system, phases, replicas in (
                ("fig4", _FIG4, fig4, self.fig4_replicas),
                ("bright", _BRIGHT, bright, self.bright_replicas)):
            replicas = max(2, int(replicas * scale))
            for k, phi in enumerate(phases):
                name = f"{label}_{k}"
                argv = (["simulate"] + _flags(**system)
                        + ["--eigenvalues=alternating"]
                        + _flags(phi_min=phi, phi_max=phi, steps=1,
                                 shots=self.shots, replicas=replicas,
                                 seed=rng.randrange(2 ** 32)))
                jobs.append({"name": name, "label": label, "system": system,
                             "steps": 1, "replicas": replicas, "argv": argv,
                             "files": [f"{name}_calibration.csv",
                                       f"{name}_estimation.csv"]})
        return {"shots": self.shots, "jobs": jobs}

    def items(self, spec):
        return sum(j["steps"] * j["replicas"] for j in spec["jobs"])

    def _rows(self, workdir, job):
        _, cal = _read_csv(workdir / f"{job['name']}_calibration.csv")
        _, est = _read_csv(workdir / f"{job['name']}_estimation.csv")
        return ([[float(v) for v in r] for r in cal],
                [[float(v) for v in r[:-1]] + [r[-1]] for r in est])

    def reference_values(self, spec, out, workdir):
        ref = {}
        for job in spec["jobs"]:
            cal, est = self._rows(workdir, job)
            ref[job["name"]] = {"calibration": cal, "estimation": est}
        return ref

    def check(self, spec, out, workdir, reference):
        res = CheckResult()
        ratios = []
        for job in spec["jobs"]:
            n_items = job["steps"] * job["replicas"]
            if job["name"] in out.errors:
                res.fail(n_items, f"{job['name']}: {out.errors[job['name']]}")
                continue
            cal, est = self._rows(workdir, job)
            if len(est) != job["steps"] or len(cal) != job["steps"]:
                res.fail(n_items, f"{job['name']}: {len(est)} rows, "
                                  f"want {job['steps']}")
                continue
            ref = reference[job["name"]] if reference is not None else None
            self._check_job(job, spec["shots"], cal, est, ref, res, ratios)
        res.summary["sigma_over_crb"] = (float(np.median(ratios))
                                         if ratios else 0.0)
        return res

    def _check_job(self, job, shots, cal, est, ref, res, ratios):
        system = job["system"]
        cfg = mz.InterferometerConfig.from_nbar(system["nbar"])
        scheme = mz.BinningScheme(system["a"], system["b"], system["kf"])
        obs = mz.Observable.alternating(scheme)
        known_defect = job["label"] == "bright"
        n_out = scheme.n_outcomes
        for i, (phi, mean_signal, sigma, bound, bias, std, error) in enumerate(est):
            where = f"{job['name']} phi={phi!r}"
            err = abs(math.fsum(cal[i][1:1 + n_out]) - 1.0)
            if err > ROW_SUM_TOL:
                res.fail(job["replicas"], f"{where}: frequencies sum to 1 + {err:.3e}")
                continue
            if error or not math.isfinite(sigma):
                # no estimate where one was requested
                res.failed_items += job["replicas"]
                res.notes.append(f"{where}: {error or 'nan'}"
                                 + (" (known defect)" if known_defect else ""))
                continue
            try:
                branch = mz.monotone_branch(cfg, scheme, obs, phi)
            except mz.NonMonotoneBranch as exc:
                res.fail(job["replicas"], f"{where}: estimate without a branch: {exc}")
                continue
            # every estimate e inside the branch implies the mean lies inside
            # it and the rms error about phi is at most the branch width
            rms = math.sqrt(bias * bias + std * std)
            slack = SOLVER_TOL + 1e-12 * branch.width
            if not (branch.lo - slack <= phi + bias <= branch.hi + slack
                    and rms <= branch.width + slack):
                res.fail(job["replicas"], f"{where}: estimates leave the branch "
                                          f"[{branch.lo!r}, {branch.hi!r}]")
                continue
            if not _close(sigma, math.sqrt(shots) * rms, 1e-9):
                res.fail(job["replicas"], f"{where}: sigma {sigma!r} != "
                                          f"sqrt(shots)*rms {rms!r}")
                continue
            if not known_defect and math.isfinite(bound) and bound > 0:
                ratios.append(sigma / bound)
            if ref is not None:
                self._compare(where, job, i, cal, est, ref, known_defect,
                              shots, res)

    @staticmethod
    def _compare(where, job, i, cal, est, ref, known_defect, shots, res):
        ref_est, ref_cal = ref["estimation"][i], ref["calibration"][i]
        bad = [f"calibration column {c}" for c, (x, r)
               in enumerate(zip(cal[i], ref_cal))
               if not _close(x, r, CLOSED_FORM_RTOL, 1e-300)]
        # phi, mean_signal, sigma, crb, bias, std_dev: Brent-inverted
        # estimates agree to the solver tolerance, the rest in closed form
        atol = (0.0, 0.0, math.sqrt(shots) * 2 * SOLVER_TOL, 0.0,
                2 * SOLVER_TOL, 2 * SOLVER_TOL)
        rtol = (CLOSED_FORM_RTOL, CLOSED_FORM_RTOL, 0.0, CLOSED_FORM_RTOL,
                0.0, 0.0)
        names = ("phi", "mean_signal", "sigma", "crb", "bias", "std_dev")
        bad += [f"{names[c]} {est[i][c]!r} != {ref_est[c]!r}" for c in range(6)
                if not _close(est[i][c], ref_est[c], rtol[c], atol[c])]
        if ref_est[6] != est[i][6]:
            bad.append(f"error {est[i][6]!r} != {ref_est[6]!r}")
        if not bad:
            return
        if known_defect:
            res.notes.append(f"{where}: known-defect row moved from baseline: "
                             + "; ".join(bad))
        else:
            res.fail(job["replicas"], f"{where}: reference: " + "; ".join(bad))


# ---------------------------------------------------------------------------
# calibration


class Calibration(Workload):
    name = "calibration"
    shots = 100_000
    phases, replicas = 4, 50
    probe = "large_arrays"

    def build(self, seed, smoke):
        rng = random.Random(f"{self.name}:{seed}")
        phases = sorted(_uniform(rng, -math.pi, math.pi)
                        for _ in range(2 if smoke else self.phases))
        # one calibration_curve call per phase, each with its own master
        # seed, so the speed probe brackets each phase
        return {
            "system": SIX_OUTCOME,
            "calls": [{"phi": phi, "master_seed": rng.randrange(2 ** 32)}
                      for phi in phases],
            "shots": 1000 if smoke else self.shots,
            "replicas": 3 if smoke else self.replicas,
        }

    def items(self, spec):
        return len(spec["calls"]) * spec["replicas"]

    @staticmethod
    def _config(spec):
        system = spec["system"]
        return (mz.InterferometerConfig.from_nbar(system["nbar"]),
                mz.BinningScheme(system["a"], system["b"], system["kf"]))

    def steps(self, spec, workdir, out):
        cfg, scheme = self._config(spec)
        points = out.values.setdefault("points", {})

        def curve(k, call):
            try:
                (p,) = mz.calibration_curve(cfg, scheme, [call["phi"]],
                                            spec["shots"], spec["replicas"],
                                            call["master_seed"])
            except Exception:
                out.errors[f"phase {k}"] = traceback.format_exc(limit=3)
                return
            points[k] = (p.phi, tuple(p.mean_freqs.tolist()),
                         tuple(p.std_freqs.tolist()))
        return [functools.partial(curve, k, call)
                for k, call in enumerate(spec["calls"])]

    def reference_values(self, spec, out, workdir):
        points = out.values["points"]
        return {"points": [list(points[k]) for k in sorted(points)]}

    def check(self, spec, out, workdir, reference):
        res = CheckResult()
        cfg, scheme = self._config(spec)
        n = spec["shots"] * spec["replicas"]
        for k, call in enumerate(spec["calls"]):
            where = f"phi={call['phi']!r}"
            if f"phase {k}" in out.errors:
                res.fail(spec["replicas"], f"{where}: {out.errors[f'phase {k}']}")
                continue
            phi, mean, std = out.values["points"][k]
            bad = []
            if phi != call["phi"]:
                bad.append(f"calibration point at phi={phi!r}")
            err = abs(math.fsum(mean) - 1.0)
            if err > ROW_SUM_TOL or min(std) < 0.0:
                bad.append(f"frequencies sum to 1 + {err:.3e}")
            probs = mz.outcome_distribution(cfg, scheme, phi).all_probs()
            for j, (f, p) in enumerate(zip(mean, probs)):
                se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
                if abs(f - p) > CALIBRATION_Z * se + 1e-12:
                    bad.append(f"outcome {j}: frequency {f!r} vs probability "
                               f"{p!r} beyond {CALIBRATION_Z} std errors")
            if reference is not None:
                ref_phi, ref_mean, ref_std = reference["points"][k]
                if not all(_close(x, r, CLOSED_FORM_RTOL, 1e-300)
                           for x, r in zip((phi,) + mean + std,
                                           [ref_phi] + ref_mean + ref_std)):
                    bad.append("reference: frequencies differ")
            if bad:
                res.fail(spec["replicas"], f"{where}: " + "; ".join(bad))
        return res


WORKLOADS = {w.name: w for w in (FringeScan(), MeritSweep(), Estimator(),
                                 Calibration())}


def spec_digest(spec: dict) -> str:
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()
