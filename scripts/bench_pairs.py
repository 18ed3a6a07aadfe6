#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and judge a claimed gain.

Usage:
    python scripts/bench_pairs.py --parent DIR_A --change DIR_B --workload banknote_lalr \\
        [--workload wine_lbfgs ...] --seed 0 --seconds 30 [--pairs 10]

DIR_A and DIR_B are two checkouts (say, the parent commit in a ``git clone``
and the working tree).  Each pair runs ``perfbench/run.py`` once in each,
with the same arguments and ``--trace 0``, and the side that runs first
alternates from pair to pair; the workloads run one after another.  For each
workload and each end-to-end metric in ``BENCHMARK.json`` the script prints
every run's value, each side's median and quartiles, how many pairs the
change won (by the metric's ``better`` direction; ties count for neither
side) and two verdicts.  The gain rule holds when the change wins at least
nine tenths of the pairs and its median beats the parent's by more than the
parent's interquartile range.  The no-regression check says whether the
change's median is worse than the parent's by at most the metric's
``bound``, a fraction of the parent's median; it reads "unresolved" when the
parent's interquartile range is wider than the bound, unless every run of
the change beats every run of the parent.  Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, args) -> dict:
    """One ``perfbench/run.py`` run of ``workload`` in ``checkout``: its last output line,
    parsed, whose ``metrics`` map each name to {"value", "unit"}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent: list[float], change: list[float], higher_better: bool) -> dict:
    """Wins, medians, quartiles and the 9-of-10 and IQR rule for one metric's pairs."""
    sign = 1.0 if higher_better else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (cq[1] - pq[1])
    return {"wins": wins, "losses": losses, "pairs": len(parent), "parent": pq, "change": cq,
            "rule": wins >= 0.9 * len(parent) and gain > pq[2] - pq[0]}


def no_worse(parent: list[float], change: list[float], higher_better: bool, bound: float) -> str:
    """"within" when the change's median is worse than the parent's by at most ``bound`` (a
    fraction of the parent's median), else "worse"; "unresolved" when the parent's own
    interquartile range is wider than that, unless every change run beats every parent run."""
    sign = 1.0 if higher_better else -1.0
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "within"
    (q1, med, q3), (_, change_med, _) = quartiles(parent), quartiles(change)
    if q3 - q1 > bound * abs(med):
        return "unresolved"
    return "within" if sign * (med - change_med) <= bound * abs(med) else "worse"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True, help="repeatable")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"] == "higher", m["bound"]) for m in bench["end_to_end"]}

    for workload in args.workload:
        results: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                results[side].append(run_once(getattr(args, side), workload, args))
            print(f"{workload}: pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)

        print(f"{workload} seed {args.seed}, {args.seconds:g} s runs, {args.pairs} alternating pairs")
        for side in SIDES:
            flags = [(r.get("correct"), r.get("failed")) for r in results[side]]
            print(f"  {side}: correct {[c for c, _ in flags]}, failed {[f for _, f in flags]}")
        for name, (higher, bound) in metrics.items():
            values = {side: [float(r["metrics"][name]["value"]) for r in results[side]] for side in SIDES}
            verdict = judge(values["parent"], values["change"], higher)
            print(f"{name} ({'higher' if higher else 'lower'} is better)")
            for side in SIDES:
                q1, med, q3 = verdict[side]
                runs = " ".join(f"{v:.6g}" for v in values[side])
                print(f"  {side:<6} median {med:.6g} [{q1:.6g}, {q3:.6g}]  runs: {runs}")
            print(f"  change wins {verdict['wins']} of {verdict['pairs']} pairs, loses {verdict['losses']}; "
                  f"9-of-10 and IQR rule {'holds' if verdict['rule'] else 'does not hold'}; "
                  f"no worse than bound {bound:g}: "
                  f"{no_worse(values['parent'], values['change'], higher, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
