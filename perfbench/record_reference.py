"""Record every workload's outputs at the reference seed.

    python3 perfbench/record_reference.py

Rewrites perfbench/reference.json, against which run.py checks the outputs
of any commit at workloads.REFERENCE_SEED.  The recorded values are those
of the commit that defined the benchmark; re-record only when a change of
output is intended, and say so where the change is described.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402


def main():
    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        spec = workload.build(workloads.REFERENCE_SEED, smoke=False)
        workdir = BENCH_DIR / "out" / "reference" / name
        workdir.mkdir(parents=True, exist_ok=True)
        out = workload.run(spec, workdir)
        if out.errors:
            sys.exit(f"{name}: {out.errors}")
        recorded[name] = {
            "seed": workloads.REFERENCE_SEED,
            "spec_digest": workloads.spec_digest(spec),
            "values": workload.reference_values(spec, out, workdir),
        }
        print(f"recorded {name}", file=sys.stderr)
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
