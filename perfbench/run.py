"""Benchmark of mzhomodyne: one workload, one seed, one run.

    python3 perfbench/run.py --workload fringe_scan --seed 3 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's own `src/`, never from an installed copy.  With `--trace 0` the
run repeats untimed-tracing passes of the workload for `--seconds` and
reports the end-to-end metrics; with `--trace 1` it alternates untraced and
traced passes and reports the per-layer metrics.  Both check the outputs.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it (prefixed `#`) give the environment, the pass count, the
failed fraction and any failed check.  A fuller report, and the spans of a
traced pass, are written under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("fringe_scan", "merit_sweep", "estimator", "calibration")

# The load comes from one single-threaded process; keep numpy's native
# libraries on one thread as well.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# Per-layer metrics of a traced run, with their units.  A time is the
# median over traced passes; a count is per pass and repeats exactly.
PER_LAYER_UNITS = {
    "interferometer.calls": "count",
    "interferometer.phase_evals": "count",
    "interferometer.us_per_phase": "us",
    "interferometer.self_s": "s",
    "numerics.erf_diff.calls": "count",
    "numerics.erf_diff.elements": "count",
    "numerics.erf_diff.ns_per_element": "ns",
    "numerics.erf_diff.bytes_computed": "bytes",
    "numerics.minimize_scalar.calls": "count",
    "numerics.minimize_scalar.f_evals": "count",
    "numerics.find_root.calls": "count",
    "numerics.find_root.f_evals": "count",
    "numerics.find_root.cap_hits": "count",
    "numerics.random.draws": "count",
    "numerics.self_s": "s",
    "metrics.calls": "count",
    "metrics.self_s": "s",
    "simulate.sample_outcomes.calls": "count",
    "simulate.monotone_branch.s": "s",
    "simulate.estimate.s": "s",
    "simulate.signal_evals_per_replica": "count",
    "simulate.clamp_frac": "ratio",
    "simulate.sigma_over_crb": "ratio",
    "simulate.self_s": "s",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "bench.trace_overhead_frac": "ratio",
}
# The speed probes: fixed work of the kind a workload does, using no
# mzhomodyne code.  On a shared VM the CPU's speed can move by ~2x within
# seconds.  A time multiplied by PROBE_NOMINAL_S / (mean of the probes run
# just before and just after it) is that time at the nominal speed, where
# the probe takes PROBE_NOMINAL_S.  Pass and set-up times are reported that
# way, and raw.  Each probe's loop count makes it take about PROBE_NOMINAL_S on the
# VM's fast state.
PROBE_NOMINAL_S = 0.02
SETUP_REPEATS = 9
SUBPROCESS_TIMEOUT_S = 60
MIN_PASSES = 2  # untraced passes of a --trace 0 run, for a median
MIN_TRACED_PASSES = 2  # traced counts are compared between passes
MAX_PRINTED_FAILURES = 20

_SETUP_CODE = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import mzhomodyne.cli
import workloads
workloads.WORKLOADS[{name!r}].build({seed!r}, {smoke!r})
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _env():
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def small_array_probe():
    """Python arithmetic and numpy calls on 8-element arrays: the kind of
    work of the closed-form core and the searches."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 8)
    start = time.perf_counter()
    total = 0.0
    for _ in range(4000):
        total += math.fsum(np.exp(-x * x).tolist())
        total += sum(j * 0.5 for j in range(30))
    return time.perf_counter() - start


def large_array_probe():
    """Philox draws, searchsorted and bincount on 2e4-element arrays: the
    kind of work of the sampler."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    edges = np.cumsum(np.full(5, 0.19))
    start = time.perf_counter()
    for _ in range(25):
        np.bincount(np.searchsorted(edges, gen.random(20000)), minlength=6)
    return time.perf_counter() - start


PROBES = {"small_arrays": small_array_probe, "large_arrays": large_array_probe}


class ProbedClock:
    """Times calls, each between two speed probes; sums raw and nominal
    seconds and keeps the probe times."""

    def __init__(self, probe):
        self.probe = probe
        self.probes = [probe()]
        self.raw = self.nominal = 0.0

    def time(self, call):
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        self.probes.append(self.probe())
        self.raw += elapsed
        self.nominal += (elapsed * 2.0 * PROBE_NOMINAL_S
                         / (self.probes[-2] + self.probes[-1]))


def measure_setup(name, seed, smoke):
    """Median (raw, nominal) seconds for a fresh interpreter to import the
    package and build the workload's inputs."""
    code = _SETUP_CODE.format(src=str(SRC), bench=str(BENCH_DIR), name=name,
                              seed=seed, smoke=smoke)
    raw, nominal = [], []
    for _ in range(SETUP_REPEATS):
        clock = ProbedClock(small_array_probe)
        clock.time(lambda: subprocess.run(
            [sys.executable, "-c", code], env=_env(), cwd=ROOT, check=True,
            capture_output=True, timeout=SUBPROCESS_TIMEOUT_S))
        raw.append(clock.raw)
        nominal.append(clock.nominal)
    return statistics.median(raw), statistics.median(nominal)


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args):
    import numpy as np
    import mzhomodyne

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "mzhomodyne").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mzhomodyne": mzhomodyne.__version__,
        "commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def _written(files):
    """(rows, bytes) of CSV files: every line but the header is a row."""
    rows = size = 0
    for path in files:
        data = Path(path).read_bytes()
        rows += data.count(b"\n") - 1
        size += len(data)
    return rows, size


def run_pass(workload, spec, workdir):
    """One pass, each of its steps timed between speed probes."""
    from workloads import PassOutput

    out = PassOutput()
    clock = ProbedClock(PROBES[workload.probe])
    for step in workload.steps(spec, workdir, out):
        clock.time(step)
    return out, clock


def run_passes(workload, spec, workdir, seconds, tracer):
    """Repeat passes until the next one would end after `seconds`.

    Without a tracer every pass is untraced and at least MIN_PASSES run.
    With one, untraced and traced passes alternate, and at least
    MIN_TRACED_PASSES traced passes run.  Returns the last pass's output,
    the clocks of the untraced and of the traced passes, every pass's
    output digest, the traced passes' layer metrics and the first traced
    pass's spans.
    """
    from tracer import layer_metrics

    untraced, traced, digests, layers = [], [], [], []
    first_spans = None
    modes = (False, True) if tracer else (False,)
    min_cycles = MIN_TRACED_PASSES if tracer else MIN_PASSES
    deadline = time.perf_counter() + seconds
    cycles = 0
    while True:
        cycle_start = time.perf_counter()
        for traced_pass in modes:
            if traced_pass:
                tracer.start()
            out, clock = run_pass(workload, spec, workdir)
            if traced_pass:
                spans = tracer.stop()
                counts, times = layer_metrics(tracer.names, spans)
                counts["cli.rows_written"], counts["cli.bytes_written"] = \
                    _written(out.files)
                layers.append((counts, times))
                traced.append(clock)
                first_spans = first_spans or spans
            else:
                untraced.append(clock)
            digests.append(out.digest())
        cycles += 1
        cycle = time.perf_counter() - cycle_start
        if cycles >= min_cycles and time.perf_counter() + cycle > deadline:
            break
    return out, untraced, traced, digests, layers, first_spans


def _load_reference(name, seed, spec, smoke):
    from workloads import REFERENCE_SEED, spec_digest

    if smoke or seed != REFERENCE_SEED:
        return None, None
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        recorded = json.load(fh)[name]
    if recorded["spec_digest"] != spec_digest(spec):
        return None, "reference inputs differ from this run's inputs"
    return recorded["values"], None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = _parse_args(argv)
    os.environ.update(THREAD_PINS)  # before numpy is first imported
    # one CPU for the whole run, so each speed probe sees the CPU that ran
    # the step next to it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "mzhomodyne" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'mzhomodyne'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import mzhomodyne
    if SRC not in Path(mzhomodyne.__file__).resolve().parents:
        print(f"error: imported {mzhomodyne.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    spec = workload.build(args.seed, args.smoke)
    reference, reference_error = _load_reference(args.workload, args.seed,
                                                 spec, args.smoke)
    workdir = OUT_DIR / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(args)

    setup_raw_s = setup_s = None
    if not args.trace:
        setup_raw_s, setup_s = measure_setup(args.workload, args.seed,
                                             args.smoke)
    tracer = Tracer() if args.trace else None
    out, untraced, traced, digests, layers, spans = run_passes(
        workload, spec, workdir, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check = workload.check(spec, out, workdir, reference)
    if reference_error:
        check.fail(0, reference_error)
    items = workload.items(spec)
    passes = len(digests)
    mismatched = sum(d != digests[0] for d in digests)
    if mismatched:
        check.messages.append(f"{mismatched} of {passes} passes wrote "
                              "different outputs from the first")
    for k, (counts, _) in enumerate(layers[1:], start=2):
        if counts != layers[0][0]:
            diff = sorted(key for key in counts if counts[key] != layers[0][0][key])
            check.messages.append(f"traced pass {k} counts differ: {diff}")
    attempted = items * passes
    failed = check.failed_items * (passes - mismatched) + items * mismatched

    wall_s = statistics.median(c.raw for c in untraced)
    wall_norm_s = statistics.median(c.nominal for c in untraced)
    probes = [p for c in untraced + traced for p in c.probes]
    if args.trace:
        values = dict(layers[0][0])
        values.update({name: statistics.median(t[name] for _, t in layers)
                       for name in layers[0][1]})
        values["simulate.sigma_over_crb"] = check.summary.get(
            "sigma_over_crb", 0.0)
        values["bench.trace_overhead_frac"] = statistics.median(
            c.nominal for c in traced) / wall_norm_s - 1.0
        metrics = {name: _metric(values[name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_norm_s": _metric(wall_norm_s, "s"),
            "items_per_norm_s": _metric(items / wall_norm_s, "1/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }

    report = {
        "environment": env,
        "items_per_pass": items,
        "setup_raw_s": setup_raw_s,
        "untraced_pass_s": [c.raw for c in untraced],
        "untraced_pass_norm_s": [c.nominal for c in untraced],
        "traced_pass_s": [c.raw for c in traced],
        "traced_pass_norm_s": [c.nominal for c in traced],
        "probe_s": probes,
        "attempted": attempted,
        "failed": failed,
        "checks_failed": check.messages,
        "notes": check.notes,
        "summary": check.summary,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "work", "extra"],
             "names": tracer.names, "spans": spans}))

    q1, _, q3 = statistics.quantiles([c.raw for c in untraced], n=4,
                                     method="inclusive")
    print("# env " + json.dumps(env))
    print(f"# {args.workload}: {items} items per pass, {len(untraced)} untraced "
          f"and {len(traced)} traced passes")
    print(f"# wall_s {wall_s:.4f} s raw median over {len(untraced)} untraced "
          f"passes (quartiles {q1:.4f} .. {q3:.4f}); "
          f"items_per_s {items / wall_s:.4f} 1/s raw")
    print(f"# speed probe median {statistics.median(probes):.5f} s "
          f"(nominal {PROBE_NOMINAL_S} s)"
          + (f"; setup_s {setup_raw_s:.4f} s raw" if setup_raw_s else ""))
    print(f"# failed_frac {failed / attempted:.6f} = {failed} failed / "
          f"{attempted} attempted items")
    if "sigma_over_crb" in check.summary:
        print(f"# sigma_over_crb {check.summary['sigma_over_crb']:.6f}")
    for note in check.notes:
        print(f"# note: {note}")
    for message in check.messages[:MAX_PRINTED_FAILURES]:
        print(f"# FAILED CHECK: {message}")
    if len(check.messages) > MAX_PRINTED_FAILURES:
        print(f"# ... {len(check.messages) - MAX_PRINTED_FAILURES} more failed "
              f"checks in {OUT_DIR / (stem + '.json')}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": check.correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
