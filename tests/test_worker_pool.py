"""One worker pool per process: reused across `train()` calls while its worker
count and start method hold, rebuilt when one changes or a reused pool lost a
worker, shut down when a call raises, never inherited by a forked child, and
its workers end with the process that owns it."""

import concurrent.futures.process
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from quantloss import trainer
from quantloss.data import stratified_kfold
from quantloss.synthetic import pima_like
from quantloss.trainer import OptimizerSpec, TrainConfig


def _twice(x: int) -> list[int]:
    return [2 * x]


def _worker_pid(x: int) -> list[int]:
    return [os.getpid()]


def _fail_on_one(x: int) -> list[int]:
    if x == 1:
        raise ValueError("bin 1 fails")
    return [x]


@pytest.fixture
def pools(monkeypatch):
    """Every pool built from here on, in order; each records the keyword
    arguments of its ``shutdown`` calls.  Three usable CPUs and two workers."""
    built = []

    class Counting(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shutdowns = []
            built.append(self)

        def shutdown(self, *args, **kwargs):
            self.shutdowns.append(kwargs)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Counting)
    monkeypatch.setattr(trainer, "_usable_cpus", lambda: 3)
    monkeypatch.setenv("QUANTLOSS_THREADS", "2")
    return built


def _problem():
    ds = pima_like(n=120)
    plan = stratified_kfold(ds, k=3, val_fraction=0.2, seed=0)
    cfg = TrainConfig(task="classification", hidden_sizes=(4,), optimizer=OptimizerSpec(kind="lalr-adam"),
                      lr_policy="lalr", epochs=2, batch_size=32, repeats=1)
    return cfg, plan, ds


def test_parallel_calls_share_one_pool_and_match_sequential(pools, monkeypatch):
    cfg, plan, ds = _problem()
    monkeypatch.setenv("QUANTLOSS_THREADS", "1")
    seq = trainer.train(cfg, plan, ds).to_dict()
    assert pools == []
    monkeypatch.setenv("QUANTLOSS_THREADS", "2")
    first = trainer.train(cfg, plan, ds).to_dict()
    second = trainer.train(cfg, plan, ds).to_dict()
    assert len(pools) == 1 and pools[0].shutdowns == []
    assert first == seq and second == seq


def test_a_new_worker_count_replaces_the_pool(pools, monkeypatch):
    cfg, plan, ds = _problem()
    trainer.train(cfg, plan, ds)
    monkeypatch.setenv("QUANTLOSS_THREADS", "3")
    trainer.train(cfg, plan, ds)
    assert [pool._max_workers for pool in pools] == [2, 3]
    assert len(pools[0].shutdowns) == 1 and pools[1].shutdowns == []
    assert trainer._pool[1] is pools[1]


def test_a_failing_task_shuts_the_pool_down_and_the_next_call_starts_afresh(pools, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with pytest.raises(ValueError, match="bin 1 fails"):
        trainer._run_jobs_in_processes(_fail_on_one, [0, 1, 2, 3], 2)
    assert trainer._pool is None
    assert pools[0].shutdowns == [{"cancel_futures": True}]
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert trainer._run_jobs_in_processes(_twice, [0, 1, 2, 3], 2) == [0, 2, 4, 6]
    assert len(pools) == 2 and trainer._pool[1] is pools[1]


def test_a_forked_child_starts_without_its_parents_pool(pools):
    trainer._run_jobs_in_processes(_twice, [0, 1], 2)
    with warnings.catch_warnings():  # Python 3.12+ warns about forking a process that runs threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        os._exit(0 if trainer._pool is None else 1)
    assert os.waitpid(pid, 0)[1] == 0
    assert trainer._pool[1] is pools[0] and pools[0].shutdowns == []
    assert trainer._run_jobs_in_processes(_twice, [0, 1], 2) == [0, 2] and len(pools) == 1


def test_a_reused_pool_that_lost_an_idle_worker_is_replaced(pools):
    """A worker killed between two calls breaks the pool; the next call builds a new
    one and succeeds instead of failing on the broken pool."""
    cfg, plan, ds = _problem()
    first = trainer.train(cfg, plan, ds).to_dict()
    os.kill(trainer._run_jobs_in_processes(_worker_pid, [0], 2)[0], signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not pools[0]._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pools[0]._broken
    assert trainer.train(cfg, plan, ds).to_dict() == first
    assert len(pools) == 2 and trainer._pool[1] is pools[1]
    assert pools[0].shutdowns == [{"cancel_futures": True}]


def test_the_spawn_fallback_replaces_a_forkserver_pool(pools, monkeypatch):
    if "forkserver" not in multiprocessing.get_all_start_methods():
        pytest.skip("no forkserver on this platform")
    trainer._run_jobs_in_processes(_twice, [0, 1], 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert trainer._run_jobs_in_processes(_twice, [0, 1], 2) == [0, 2]
    assert [pool._mp_context.get_start_method() for pool in pools] == ["forkserver", "spawn"]
    assert len(pools[0].shutdowns) == 1 and pools[1].shutdowns == []


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states from /proc")
def test_idle_workers_end_with_a_killed_owner(tmp_path):
    """SIGKILL runs no exit handler, so only the workers themselves can notice that their owner is gone."""
    here = Path(__file__).parent
    script = ("import os, signal\n"
              "from quantloss import trainer\n"
              "from test_worker_pool import _worker_pid\n"
              "print(*trainer._run_jobs_in_processes(_worker_pid, [0, 1, 2, 3], 2), flush=True)\n"
              "os.kill(os.getpid(), signal.SIGKILL)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    out = tmp_path / "pids.txt"
    with open(out, "w") as f:
        owner = subprocess.run([sys.executable, "-c", script], env=env, stdout=f, timeout=60)
    assert owner.returncode == -signal.SIGKILL
    workers = {int(pid) for pid in out.read_text().split()}
    assert workers
    deadline = time.monotonic() + 30
    while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []
