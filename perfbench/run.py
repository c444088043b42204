"""fstchain benchmark: end-to-end and per-layer figures for three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload chain_dynamics --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1                 # every workload
    python3 perfbench/run.py --workload device_pulse --repeat 10     # seeds 0..9
    python3 perfbench/run.py --workload gate_algebra --trace 1       # per-layer figures

A run repeats rounds of the workload, each in a fresh worker process, for
``--seconds`` seconds: a round is started only while it is expected to end
within that time (at least one round; two with tracing).  When the rounds
give fewer than five set-up times, set-up-only workers add the rest.  Every round
imports fstchain anew, so the caches of the program start cold, as they do
for each ``fstchain`` command.  The worker runs single-threaded BLAS.

Wall and CPU times are in reference seconds (see clock.py): the speed of
the box is sampled while each operation runs and the operation's time is
rescaled to a nominal speed, which removes the drift of this kind of
shared box.  The times as measured are printed too.

Output: one ``[PASS]/[FAIL]`` line per check (first round, plus any later
failure), one line per metric, and as the last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones, from alternate rounds traced; the spans
are written to ``.perfbench_out/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chain_dynamics", "gate_algebra", "device_pulse")
DEADLINE_S = 170  # a run must end within 180 s
BLAS_THREADS = "1"
MIN_SETUPS = 5


class BenchError(Exception):
    pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _round(workload: str, seed: int, traced: bool, timeout: float,
           setup_only: bool = False) -> dict:
    spawned = time.time()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed",
           str(seed), "--trace", str(int(traced)), "--spawned", repr(spawned)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} round did not end within {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    result["duration"] = time.time() - spawned
    return result


def _median(values) -> float:
    return float(statistics.median(values))


def _op_sum(rounds: list, which: str) -> float:
    """Sum over operations of each operation's median over the rounds, of
    the time ``which``: wall, cpu (reference seconds), raw_wall, raw_cpu.
    A slow spell then spoils one operation of one round, not a round."""
    return sum(_median(r["ops"][op][which] for r in rounds) for op in rounds[0]["ops"])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, t_begin: float) -> dict:
    """All rounds of one run; returns the aggregated result and log lines."""
    rounds = []
    t_start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        remaining = DEADLINE_S - (time.perf_counter() - t_begin)
        rounds.append(_round(workload, seed, traced, remaining))
        longest = max(longest, rounds[-1]["duration"])
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= (2 if trace else 1) and elapsed + longest > seconds:
            break
    # rounds of a few seconds give enough set-up samples; long ones get
    # set-up-only workers as well
    setups = [(r["setup_s"], r["raw_setup_s"]) for r in rounds]
    while len(setups) < MIN_SETUPS:
        probe = _round(workload, seed, False, DEADLINE_S - (time.perf_counter() - t_begin),
                       setup_only=True)
        setups.append((probe["setup_s"], probe["raw_setup_s"]))

    lines = list(rounds[0]["lines"])
    for r in rounds[1:]:
        lines += [ln for ln in r["lines"] if ln.startswith("[FAIL]") and ln not in lines]
    plain = [r for r in rounds if not r["traced"]]
    e2e = {
        "setup_s": _median(s for s, _ in setups),
        "wall_s": _op_sum(plain, "wall"),
        "cpu_s": _op_sum(plain, "cpu"),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
    }
    raw = {"setup_s": _median(raw for _, raw in setups),
           "wall_s": _op_sum(plain, "raw_wall"), "cpu_s": _op_sum(plain, "raw_cpu")}
    result = {
        "rounds": len(rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "lines": lines,
        "end_to_end": e2e,
        "raw": raw,
    }
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        layers = {k: _median(r["layers"][k] for r in traced_rounds)
                  for k in traced_rounds[0]["layers"]}
        for name in ("protocols.snapshots", "protocols.parity_runs", "device.pulse_evals",
                     "cli.bytes_written"):
            layers[name] = _median(r["counters"].get(name, 0) for r in traced_rounds)
        evals = [t for r in traced_rounds for t in r["eval_times"]]
        layers["device.eval_s"] = _median(evals) if evals else 0.0
        layers["trace.overhead_s"] = _op_sum(traced_rounds, "wall") - e2e["wall_s"]
        result["per_layer"] = layers
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans = [dict(s, round=i) for i, r in enumerate(rounds) if r["traced"] for s in r["spans"]]
        (out / f"spans-{workload}.json").write_text(json.dumps(spans) + "\n")
    return result


def _metrics(result: dict, defs: list, key: str) -> dict:
    return {d["name"]: {"value": result[key][d["name"]], "unit": d["unit"]} for d in defs}


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    for name, m in metrics.items():
        print(f"   {name:28s} {m['value']:>14.6g} {m['unit']}")


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    t_begin = time.perf_counter()
    p = argparse.ArgumentParser(description="fstchain benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1,
                   help="runs per workload, seeds seed..seed+repeat-1")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "fstchain" / "__init__.py").is_file():
        print(f"error: no fstchain sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    defs, key = ((spec["per_layer"], "per_layer") if args.trace
                 else (spec["end_to_end"], "end_to_end"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    runs = {}
    try:
        for name in names:
            for seed in range(args.seed, args.seed + args.repeat):
                # the 180 s limit is per run; a repeat gets its own clock
                t0 = t_begin if len(names) * args.repeat == 1 else time.perf_counter()
                r = run_workload(name, seed, seconds, bool(args.trace), t0)
                runs.setdefault(name, []).append(r)
                print(f"== {name} seed {seed}: {r['rounds']} rounds, "
                      f"{r['attempted']} operations, {r['failed']} failed")
                if seed == args.seed or r["failed"]:
                    for line in r["lines"]:
                        print("   " + line)
                _print_metrics("metrics", _metrics(r, defs, key))
                print("   as measured: " + ", ".join(f"{k} {v:.4g} s" for k, v in r["raw"].items()))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, rs in runs.items():
        prefix = "" if len(names) == 1 else f"{name}."
        if len(rs) > 1:
            print(f"== {name}: {len(rs)} runs, median [q1, q3] and (q3-q1)/median")
        for d in defs:
            values = [r[key][d["name"]] for r in rs]
            q1, med, q3 = _quartiles(values)
            if len(rs) > 1:
                spread = (q3 - q1) / med if med else float("nan")
                print(f"   {d['name']:28s} {med:>12.6g} [{q1:.6g}, {q3:.6g}] {d['unit']}"
                      f"  spread {spread:.3f}")
            metrics[prefix + d["name"]] = {"value": med, "unit": d["unit"]}
    attempted = sum(r["attempted"] for rs in runs.values() for r in rs)
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
