"""Cold start of every fstchain command: each run is a fresh Python process
at a fixed small size, so it pays the imports and the first-call set-up
that a user of the command line pays.

    python tools/cold_cli.py                       # 7 runs of each command
    python tools/cold_cli.py --src /path/to/other/checkout/src

Prints, for each command, the median wall time of its runs (process start
to exit, seconds) and the largest peak RSS of a run (MB, from os.wait4 of
that one child), with its exit code.  Uses the standard library only; the
package comes from ``--src`` (default: the ``src`` next to this file).
Each run writes into its own temporary directory, removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REPEAT = 7  # runs of each command

# a 15-site Fig. 2(b)-style scenario: one excitation, one x-flip at tau
SCENARIO = {"n_sites": 15, "theta": 3.141592653589793, "excitations": [1],
            "events": [{"t": 1.0, "kind": "xflip", "site": 8}]}

# command -> (arguments, exit code it should give)
COMMANDS = {
    "synthesize": (["--n", "9", "--theta", "0.5pi", "--tau", "1"], 0),
    "spectrum": (["--n", "9", "--theta", "0.5pi", "--tau", "1"], 0),
    "evolve": (["--n", "9", "--theta", "0.5pi", "--tau", "1", "--excite", "1,3",
                "--time", "1", "--time-in-tau"], 0),
    "verify-mapping": (["--n", "9", "--theta", "0.5pi", "--tau", "1"], 0),
    "decompose": (["--n", "64", "--theta", "0.5pi", "--j-max", "1e6"], 0),
    "speed-sweep": (["--n", "5..40", "--theta", "0.1pi,pi"], 0),
    "parity": (["--basis", "0101"], 0),
    "scenario": (["{scenario}", "--steps", "200"], 0),
    # one evaluation of the 212 ns seed, whose metrics the result reports;
    # a budget of 1 stops short of the 1e-3 target, hence exit 3
    "device-optimize": (["--theta", "pi", "--budget", "1"], 3),
    "device-zz-scan": (["--points", "5"], 0),
}


def run_once(src: Path, command: str, args: list, work: Path) -> tuple:
    """(wall seconds, peak RSS in MB, exit code) of one fresh process."""
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    argv = [sys.executable, "-m", "fstchain.cli", "--out", str(work / "out"), command]
    argv += [a.format(scenario=scenario) for a in args]
    env = {**os.environ, "PYTHONPATH": str(src)}
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, child.returncode


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, default=SRC, help="directory holding fstchain/")
    args = p.parse_args(argv)

    print(f"{'command':<16} {'median s':>9} {'peak MB':>8} exit  ({REPEAT} runs, {args.src})")
    failed = False
    for name, (cmd_args, want) in COMMANDS.items():
        runs = []
        for _ in range(REPEAT):
            with tempfile.TemporaryDirectory(prefix="cold_cli-") as work:
                runs.append(run_once(args.src, name, cmd_args, Path(work)))
        codes = sorted({code for _, _, code in runs})
        failed |= codes != [want]
        print(f"{name:<16} {statistics.median(w for w, _, _ in runs):9.3f} "
              f"{max(m for _, m, _ in runs):8.1f} {','.join(map(str, codes))}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
