"""One round of one workload, in a fresh process.

Started by run.py with the BLAS thread count and PYTHONPATH already set.
Imports numpy, scipy and fstchain, builds the seeded inputs, then runs
every operation of the workload once, timing only the calls into
fstchain, and checks each output.  Prints one JSON object on stdout.

Times are reported in reference seconds (see clock.py) and as measured:
the set-up time (process start to inputs ready) is scaled by the median
of three reference samples taken right after it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from checks import Check
from clock import Clock
from tracing import Tracer
from workloads import WORKLOADS, Ctx

ROOT = Path(__file__).resolve().parent.parent


def run_round(workload: str, seed: int, traced: bool, spawned: float,
              setup_only: bool = False) -> dict:
    wl = WORKLOADS[workload]
    inputs = wl.make_inputs(seed)
    ready = time.time()

    clock = Clock(wl.kernel)
    setup_ref = statistics.median(clock.reference() for _ in range(3))
    setup = {"setup_s": (ready - spawned) * clock.nominal / setup_ref,
             "raw_setup_s": ready - spawned}
    if setup_only:
        return setup
    out_dir = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tr = Tracer(workload, traced)
    ctx = Ctx(tr=tr, out=out_dir, state={})
    times = {}
    failed = 0
    lines = []
    try:
        with clock, tr:
            for op in wl.ops:
                with clock.op() as rec:
                    try:
                        with tr.op(op.name):
                            out = op.run(inputs, ctx)
                    except Exception as exc:  # an operation that raises has failed
                        out, error = None, f"{type(exc).__name__}: {exc}"
                    else:
                        error = None
                times[op.name] = {k: rec[k] for k in ("wall", "cpu", "raw_wall", "raw_cpu")}
                if error is None:
                    try:
                        checks = op.check(inputs, out)
                    except Exception as exc:  # so has one whose output cannot be checked
                        checks = [Check(f"{op.name} check", False, f"{type(exc).__name__}: {exc}")]
                else:
                    checks = [Check(op.name, False, f"raised {error}")]
                failed += not all(c.ok for c in checks)
                lines += [c.line() for c in checks]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    return {
        **setup,
        "ops": times,
        "ref_s": clock.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(wl.ops),
        "failed": failed,
        "lines": lines,
        "traced": traced,
        "layers": tr.layer_summary() if traced else {},
        "counters": tr.extra,
        "eval_times": ctx.state.get("eval_times", []),
        "spans": tr.spans,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--setup-only", action="store_true", help="stop once the inputs are ready")
    args = p.parse_args(argv)
    result = run_round(args.workload, args.seed, bool(args.trace), args.spawned,
                       args.setup_only)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
