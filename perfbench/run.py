"""quantloss benchmark: times one workload end to end, or traces its layers.

    python3 perfbench/run.py --workload banknote_lalr --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports quantloss from ``src/`` and
builds nothing.  Each workload runs in fresh child processes with BLAS pinned
to one thread.

``--trace 0`` times the workload closed-loop (each run starts when the
previous one has finished) with ``QUANTLOSS_THREADS`` = nproc for about
``--seconds`` seconds, split over a few fresh processes, and reports the
end-to-end metrics: the median wall time and steps per second over the runs,
the median set-up time over the processes, and the peak resident set.
``--trace 1`` makes one separate traced run with one trainer thread and
reports the per-layer metrics (see ``layers.py``).

Every run is checked: its output gate must pass (tier-1 acceptance criteria
6 to 8) and its quality numbers must be bit-identical across runs, trainer
thread counts and tracing.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
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
WORKLOADS = ("banknote_lalr", "wine_lbfgs", "pima_quantiles")

#: measuring processes per run; each is preceded by a set-up-only process, so
#: set-up is sampled twice per round and both samples spread over the run
ROUNDS = 3
#: the whole benchmark run must end within this many seconds
BUDGET_S = 175.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, args, nproc: int):
        self.args = args
        self.nproc = nproc
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        self.env.update({v: "1" for v in BLAS_VARS})
        self.env["QUANTLOSS_THREADS"] = str(nproc)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def child(self, mode: str, **extra) -> dict:
        """Run child.py in a fresh process and return its JSON result."""
        a = self.args
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", a.workload, "--seed", str(a.seed),
               "--mode", mode, "--threads", str(self.nproc)]
        for k, v in extra.items():
            cmd += [f"--{k}", str(v)]
        if a.tiny:
            cmd.append("--tiny")
        env = dict(self.env, PERFBENCH_T0=repr(time.monotonic()))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{mode} process for {a.workload} did not finish within the time budget") from e
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} process for {a.workload} exited with code {proc.returncode}")
        return json.loads(lines[-1])

    def environment(self, child_env: dict) -> dict:
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "nproc": self.nproc,
            **child_env,
            "threads": {v: self.env[v] for v in (*BLAS_VARS, "QUANTLOSS_THREADS")},
            "git_commit": git_commit(ROOT),
        }

    def measure(self) -> dict:
        rounds = 1 if self.args.tiny else ROUNDS
        setup, walls, rates, signatures = [], [], [], set()
        attempted = failed = 0
        peak_rss = 0.0
        for _ in range(rounds):
            setup.append(self.child("setup")["setup_s"])
            res = self.child("measure", seconds=self.args.seconds / rounds)
            setup.append(res["setup_s"])
            walls += res["walls"]
            rates += [s / w for s, w in zip(res["steps"], res["walls"])]
            signatures.update(res["signatures"])
            attempted += res["attempted"]
            failed += res["failed"]
            peak_rss = max(peak_rss, res["peak_rss_mb"])
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "steps_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss,
        }
        repeatable = len(signatures) == 1
        print(json.dumps({"env": self.environment(res["env"])}))
        print(f"{self.args.workload}: {len(walls)} runs in a closed loop over {rounds} processes, "
              f"{self.nproc} trainer threads; {len(setup)} set-up samples")
        print(f"  wall per run: median {metrics['wall_s']:.4f} s, min {min(walls):.4f}, max {max(walls):.4f}")
        print(f"  set-up: median {metrics['setup_s']:.4f} s, min {min(setup):.4f}, max {max(setup):.4f}")
        for name, value in metrics.items():
            print(f"  {name:<18} {value:.6g} {END_TO_END_UNITS[name]}")
        print(f"  {'failed_frac':<18} {failed / attempted:.6g} ratio ({failed} of {attempted} runs)")
        units = {"test_accuracy": "ratio", "val_rmse": "rating", "held_out_crossing": "sum"}
        for name, value in sorted(res["quality"].items()):
            print(f"  {name:<18} {value:.6g} {units.get(name, '')}")
        print(f"  gate: {res['gate']}; quality bit-identical across runs and processes: {repeatable}")
        return {
            "correct": failed == 0 and repeatable,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        }

    def trace(self) -> dict:
        res = self.child("trace")
        values, units = res["values"], res["units"]
        print(json.dumps({"env": self.environment(res["env"])}))
        print(json.dumps({"trace": {"missing": res["missing"], "walls_s": res["walls"]}}))
        print(f"{self.args.workload}: traced run, spans by self time")
        spans = sorted(res["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, st in spans[:25]:
            print(f"  {name:<44} calls {st['calls']:>8}  self {st['self_s']:9.4f} s  incl {st['incl_s']:9.4f} s")
        print(f"  gate: {res['gate']}; quality bit-identical across thread counts and tracing: "
              f"{res['repeatable']}")
        return {
            "correct": res["failed"] == 0 and res["repeatable"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": values[k], "unit": u} for k, u in sorted(units.items())},
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test case: two folds, one repeat, two epochs, one round")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    needed = [p for p in ("src/quantloss/__init__.py", "configs") if not (ROOT / p).exists()]
    if needed:
        print(f"error: {ROOT} is not a quantloss checkout (missing {', '.join(needed)})", file=sys.stderr)
        return 2
    runner = Runner(args, nproc=len(os.sched_getaffinity(0)))
    try:
        result = runner.trace() if args.trace else runner.measure()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
