"""One workload in a fresh process: set it up, then time it or trace it.

``run.py`` starts this file with BLAS pinned to one thread and passes its
clock reading at spawn time in ``PERFBENCH_T0``, so set-up time counts from
process start (interpreter, imports, config validation, data, fold plan).

Modes:

* ``setup``: stop once the inputs are ready and report the set-up time.
* ``measure``: run the workload again and again, each run starting when the
  previous one has finished, until ``--seconds`` would be exceeded (at least
  once); report every run's wall time and steps, the peak resident set and
  the quality.
* ``trace``: one untraced run with one trainer thread, one untraced run with
  ``--threads`` trainer threads, then one traced run with one thread; report
  the per-layer metrics.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

T_SPAWN = float(os.environ.get("PERFBENCH_T0", time.monotonic()))

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_s = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_s = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas_s}


def run_once(wl, inputs, out_dir: Path, threads: int):
    """One closed-loop execution: returns (wall seconds, outcome)."""
    os.environ["QUANTLOSS_THREADS"] = str(threads)
    out_dir.mkdir(parents=True)
    try:
        t = time.perf_counter()
        outcome = wl.run(inputs, out_dir)
        wall = time.perf_counter() - t
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return wall, outcome


def _failed(outcome) -> int:
    """Runs that diverged; all runs when the execution missed its output gate."""
    return outcome.runs if not outcome.gate_ok else outcome.diverged


def _signature(outcome) -> str:
    """What must be bit-identical between runs of one seed."""
    return outcome.fingerprint + json.dumps(outcome.quality, sort_keys=True)


def measure(wl, inputs, out_base: Path, seconds: float, threads: int) -> dict:
    walls, steps, signatures = [], [], set()
    attempted = failed = 0
    outcome = None
    start = time.perf_counter()
    while True:
        try:
            wall, outcome = run_once(wl, inputs, out_base / str(len(walls)), threads)
        except Exception:  # a run that raises is a failed run, not a crash
            traceback.print_exc()
            attempted += wl.jobs(inputs)
            failed += wl.jobs(inputs)
            break
        wl.score(inputs, outcome)
        attempted += outcome.runs
        failed += _failed(outcome)
        walls.append(wall)
        steps.append(outcome.steps)
        signatures.add(_signature(outcome))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    if not walls:
        raise RuntimeError(f"{wl.name}: no run completed")
    return {
        "walls": walls,
        "steps": steps,
        "attempted": attempted,
        "failed": failed,
        "signatures": sorted(signatures),
        "quality": outcome.quality,
        "gate": outcome.gate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(wl, inputs, out_base: Path, threads: int) -> dict:
    import layers

    wall_seq, seq = run_once(wl, inputs, out_base / "seq", 1)
    wall_par, par = run_once(wl, inputs, out_base / "par", threads)
    tracer = layers.make_tracer()
    tracer.install()
    try:
        wall_tr, traced = run_once(wl, inputs, out_base / "traced", 1)
    finally:
        tracer.uninstall()
    outcomes = (seq, par, traced)
    for oc in outcomes:
        wl.score(inputs, oc)
    values, missing = layers.layer_metrics(tracer)
    attempted = sum(oc.runs for oc in outcomes)
    failed = sum(_failed(oc) for oc in outcomes)
    values.update({
        "trainer.parallel_speedup": wall_seq / wall_par,
        "trace.overhead_frac": wall_tr / wall_seq - 1.0,
        "trainer.report_write_s": seq.report_write_s,
        "trainer.report_bytes": seq.report_bytes,
        "trainer.diverged": traced.diverged,
        "quality.test_accuracy": traced.quality["test_accuracy"],
        "quality.val_rmse": traced.quality.get("val_rmse", 0.0),
        "quality.held_out_crossing": traced.quality.get("held_out_crossing", 0.0),
        "quality.failed_frac": failed / attempted,
    })
    signatures = {_signature(oc) for oc in outcomes}
    units = layers.metric_units()
    return {
        "attempted": attempted,
        "failed": failed,
        "repeatable": len(signatures) == 1,
        "quality": traced.quality,
        "gate": traced.gate,
        "walls": {"threads_1": wall_seq, f"threads_{threads}": wall_par, "traced_threads_1": wall_tr},
        "values": values,
        "units": units,
        "missing": missing,
        "spans": tracer.aggregate(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    import workloads  # imports numpy and quantloss

    import_s = time.monotonic() - T_SPAWN
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(ROOT, args.seed, args.tiny)
    setup_s = time.monotonic() - T_SPAWN
    result: dict = {"setup_s": setup_s}
    if args.mode != "setup":
        out_base = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
        try:
            if args.mode == "measure":
                result.update(measure(wl, inputs, out_base, args.seconds, args.threads))
            else:
                result.update(trace(wl, inputs, out_base, args.threads))
                result["values"].update(inputs.phases)
                result["values"]["setup.import_s"] = import_s
        finally:
            shutil.rmtree(out_base, ignore_errors=True)
            try:
                out_base.parent.rmdir()
            except OSError:  # another benchmark process still writes there
                pass
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
