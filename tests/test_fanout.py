"""``fanout.fan_out`` and its callers: a forked child changes no result and no
output byte, whatever a task or the child does, and no process outlives a
call."""

import contextlib
import importlib.util
import io
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from areaflow import fanout, flow
from areaflow.cli import main
from areaflow.curvature import (
    CurvatureTensor,
    SymBilinear,
    bounds_of,
    constant_curvature_tensor,
    kulkarni_nomizu,
)
from areaflow.flow import FlowConfig, run
from areaflow.spaces import ModelSpace, curvature_at

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def forked(monkeypatch) -> list:
    """The pids of the children ``os.fork`` starts from here on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_sequence(monkeypatch):
    monkeypatch.delattr(os, "fork")


def cli_output(argv) -> tuple:
    """(exit code, stdout, stderr) of ``areaflow`` run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_results_come_back_in_task_order_from_one_child(monkeypatch):
    pids, parent = forked(monkeypatch), os.getpid()
    tasks = [lambda k=k: (k, np.arange(k) / 3.0, os.getpid() == parent) for k in range(7)]
    got = fanout.fan_out(tasks)
    assert len(pids) == 1
    assert [k for k, _, _ in got] == list(range(7))
    assert all(np.array_equal(a, np.arange(k) / 3.0) for k, a, _ in got)
    assert got[0][2] and not got[1][2]  # task 0 ran here, task 1 in the child
    assert_no_child_left()


def test_fewer_than_two_tasks_fork_nothing(monkeypatch):
    pids = forked(monkeypatch)
    assert fanout.fan_out([]) == []
    assert fanout.fan_out([lambda: 1.5]) == [1.5]
    assert pids == []


# the parent sleeps in task 0, so the child claims the victim and dies in it
@pytest.mark.parametrize("victim", [1, 2, 5])
def test_a_child_that_dies_mid_task_leaves_the_same_results(victim, tmp_path, monkeypatch):
    parent, died = os.getpid(), tmp_path / "died"

    def task(k):
        if k == 0:
            time.sleep(0.3)
        if k == victim and os.getpid() != parent:
            died.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return [k * 0.1, np.sqrt(np.arange(k + 1.0))]

    expected = [task(k) for k in range(7)]
    pids = forked(monkeypatch)
    got = fanout.fan_out([lambda k=k: task(k) for k in range(7)])
    assert len(pids) == 1 and died.exists()
    assert [g[0] for g in got] == [e[0] for e in expected]
    assert all(np.array_equal(g[1], e[1]) for g, e in zip(got, expected))
    assert_no_child_left()


def test_a_child_ignores_sigint(monkeypatch):
    pids, parent = forked(monkeypatch), os.getpid()

    def interrupt():
        time.sleep(0.05)  # the child is in task 1
        os.kill(pids[0], signal.SIGINT)
        time.sleep(0.05)
        return "parent"

    # task 1 finishes in the child, not run again here
    got = fanout.fan_out([interrupt, lambda: (time.sleep(0.2), os.getpid() != parent)[1]])
    assert got == ["parent", True]
    assert_no_child_left()


class Failure(Exception):
    pass


# raised in the parent (task 0), in the child (task 1) or by whoever claims it
@pytest.mark.parametrize("failing", [(0,), (1,), (3,), (1, 4), (5, 2)])
def test_the_first_failing_task_raises_as_in_sequence(failing, monkeypatch):
    def task(k):
        if k in failing:
            raise Failure(f"task {k}")
        return k

    with pytest.raises(Failure, match=f"task {min(failing)}"):
        [task(k) for k in range(6)]
    pids = forked(monkeypatch)
    with pytest.raises(Failure, match=f"task {min(failing)}$"):
        fanout.fan_out([lambda k=k: task(k) for k in range(6)])
    assert len(pids) == 1
    assert_no_child_left()


def test_a_task_that_fails_only_in_the_child_is_run_again_here(monkeypatch):
    parent = os.getpid()

    def task(k):
        if os.getpid() != parent:
            raise Failure("in the child")
        return k

    pids = forked(monkeypatch)
    assert fanout.fan_out([lambda k=k: task(k) for k in range(4)]) == [0, 1, 2, 3]
    assert len(pids) == 1
    assert_no_child_left()


@pytest.mark.parametrize("error", [KeyboardInterrupt, SystemExit])
def test_an_interrupted_parent_kills_and_reaps_the_child(error, monkeypatch):
    pids = forked(monkeypatch)

    def interrupted():
        time.sleep(0.05)
        raise error()

    start = time.perf_counter()
    with pytest.raises(error):
        fanout.fan_out([interrupted, lambda: time.sleep(30)])
    assert time.perf_counter() - start < 5.0
    assert len(pids) == 1
    assert_no_child_left()


def test_a_second_thread_keeps_the_tasks_in_process(monkeypatch):
    pids = forked(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert fanout.fan_out([lambda k=k: k * k for k in range(5)]) == [0, 1, 4, 9, 16]
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive() and pids == []


def test_a_single_cpu_keeps_the_tasks_in_process(monkeypatch):
    pids = forked(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert fanout.fan_out([lambda k=k: k + 0.5 for k in range(5)]) == [0.5, 1.5, 2.5, 3.5, 4.5]
    assert pids == []


# where ``os.sched_getaffinity`` is missing (macOS has ``os.fork`` but no
# affinity mask), the machine's CPU count decides
@pytest.mark.parametrize("cpus, forks", [(2, 1), (1, 0), (None, 0)])
def test_without_an_affinity_mask_the_cpu_count_decides(cpus, forks, monkeypatch):
    pids = forked(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert fanout.fan_out([lambda k=k: k + 0.5 for k in range(5)]) == [0.5, 1.5, 2.5, 3.5, 4.5]
    assert len(pids) == forks
    assert_no_child_left()


@pytest.mark.parametrize("argv", [["--sweep", "1000", "--seed", "77"],
                                  ["--sweep", "100000", "--seed", "7"]])
def test_verify_identities_prints_the_same_bytes(argv, monkeypatch):
    pids = forked(monkeypatch)
    shared = cli_output(["verify-identities", *argv])
    assert len(pids) == 1 and shared[0] == 0
    in_sequence(monkeypatch)
    assert cli_output(["verify-identities", *argv]) == shared
    assert_no_child_left()


def test_verify_identities_reports_the_same_error(monkeypatch):
    pids = forked(monkeypatch)
    shared = cli_output(["verify-identities", "--sweep", "0"])
    assert len(pids) == 1
    assert shared == (1, "", '{\n  "error": "samples must be at least 1, got 0"\n}\n')
    in_sequence(monkeypatch)
    assert cli_output(["verify-identities", "--sweep", "0"]) == shared
    assert_no_child_left()


def test_report_writes_the_same_files(tmp_path, monkeypatch):
    def report(name) -> dict:
        out = tmp_path / name
        assert cli_output(["report", "--out", str(out), "--sweep", "3000"])[0] == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    pids = forked(monkeypatch)
    shared = report("shared")
    assert len(pids) == 1 and len(shared) == 5
    in_sequence(monkeypatch)
    assert report("in_sequence") == shared
    assert_no_child_left()


def _benchmark_tensor(tmp_path) -> CurvatureTensor:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_inputs("algebra", 0, tmp_path)["tensors"][0]


def _dim5_tensor() -> CurvatureTensor:
    rng = np.random.default_rng(5)
    comp = constant_curvature_tensor(5, 1.0).comp.copy()
    for _ in range(2):
        a, b = rng.normal(0.0, 0.15, (2, 5, 5))
        comp += kulkarni_nomizu(SymBilinear(a + a.T), SymBilinear(b + b.T)).comp
    return CurvatureTensor(comp)


@pytest.mark.parametrize("tensor", ["benchmark", "cp2", "s4", "dim5"])
def test_bounds_of_are_the_same(tensor, tmp_path, monkeypatch):
    r = {"benchmark": lambda: _benchmark_tensor(tmp_path),
         "cp2": lambda: curvature_at(ModelSpace("fubini", 4, scale=4.0))[0],
         "s4": lambda: curvature_at(ModelSpace("sphere", 4))[0],
         "dim5": _dim5_tensor}[tensor]()
    pids = forked(monkeypatch)
    shared = bounds_of(r, seed=3)
    assert len(pids) == 1
    in_sequence(monkeypatch)
    assert bounds_of(r, seed=3) == shared
    assert_no_child_left()


def test_a_pair_swaps_bytes_in_step(monkeypatch):
    pids = forked(monkeypatch)
    shared = fanout.shared_zeros((4,))[0]

    def work(pair):
        for k in range(4):
            shared[k] = 10.0 + k  # written before the swap, read after it
            assert pair.swap(k) == 2 * k
        # the parent's third byte is its last: it leaves the block

    with fanout.Pair(work) as pair:
        assert pair.pid == pids[0]
        for k in range(3):
            assert pair.swap(2 * k) == k and shared[k] == 10.0 + k
    assert len(pids) == 1
    assert_no_child_left()


# the parent holds the read end of the worker's inbox, so a swap with a dead
# worker does not raise EPIPE; the death shows up as EOF, and the answer as None
@pytest.mark.skipif(not hasattr(os, "waitid"), reason="waits for the death without reaping")
def test_a_request_to_a_dead_worker_is_answered_none(monkeypatch):
    pids = forked(monkeypatch)

    def work(pair):
        while True:
            pair.swap(7)

    with fanout.Pair(work) as pair:
        assert pair.swap(1) == 7
        os.kill(pids[0], signal.SIGKILL)
        os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)
        assert pair.swap(1) in (7, None)  # a byte it sent before it died, or EOF
        assert pair.swap(1) is None and pair.pid is None
        assert pair.swap(1) is None
    assert len(pids) == 1
    assert_no_child_left()


def test_a_swap_without_a_worker_is_answered_none(monkeypatch):
    in_sequence(monkeypatch)
    with fanout.Pair(lambda pair: pair.swap(0)) as pair:
        assert pair.pid is None and pair.swap(1) is None


TORUS = {"case": "torus", "grid": 16, "t_end": 0.1, "preset": "linear_sine",
         "amplitude": 0.1, "monitor_every": 8}


def _killed_worker_run(pids, monkeypatch):
    """A two-slab torus run whose worker is killed mid-run, while the parent
    checks the last stage of its second step, so the parent redoes that step
    and finishes the run alone."""
    monkeypatch.setattr(flow, "_TWO_SLABS", 0)
    parent, stages, positive = os.getpid(), [], flow._positive

    def killing(det):
        if os.getpid() == parent:
            if len(stages) == 3:
                os.kill(pids[0], signal.SIGKILL)
            stages.append(1)
        positive(det)

    monkeypatch.setattr(flow, "_positive", killing)
    assert run(FlowConfig.from_dict(TORUS)).abort_reason is None
    assert len(stages) > 4


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists the open fds in /proc")
@pytest.mark.parametrize("child", ["fan_out", "torus", "aborted", "killed_helper"])
def test_no_file_descriptor_outlives_a_child(child, monkeypatch):
    pids = forked(monkeypatch)
    before = sorted(os.listdir("/proc/self/fd"))
    if child == "fan_out":
        assert fanout.fan_out([lambda k=k: k * 0.5 for k in range(5)]) == [0, 0.5, 1, 1.5, 2]
    elif child == "torus":
        monkeypatch.setattr(flow, "_TWO_SLABS", 0)
        assert run(FlowConfig.from_dict(TORUS)).abort_reason is None
    elif child == "aborted":
        monkeypatch.setattr(flow, "_TWO_SLABS", 0)
        series = run(FlowConfig.from_dict({"case": "torus", "grid": 16, "amplitude": 60.0}))
        assert series.abort_reason.startswith("lambda_max")
    else:
        _killed_worker_run(pids, monkeypatch)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(pids) == 1
    assert_no_child_left()
