"""Independent work on a second core, and every ``os.fork`` of the package.

``fan_out(tasks)`` returns what ``[t() for t in tasks]`` returns.  Where a
second process pays (``can_fork``), it forks one child: the parent runs
task 0 and the child task 1, and whichever is free claims the next index
from a pipe that holds the rest.  The child sends each result back pickled.
A task with no result, because it raised in either process or the child
died, runs again in the parent, in task order, so the first failing task
raises exactly as it would in sequence.  The child is reaped on every way
out of ``fan_out``, after a SIGKILL if the parent is interrupted.

``fork`` starts such a child for any caller (a torus run's residual helper
is the other one): it ignores SIGINT, keeps the GC off and leaves only
through ``os._exit``.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import struct
import threading

_INDEX = struct.Struct("i")
_HEADER = struct.Struct("iQ")  # task index, length of its pickled result
# The indices are written before the fork, so they must fit in the pipe's
# buffer, which holds at least PIPE_BUF >= 512 bytes (POSIX); a longer list
# runs in sequence.
_MOST_TASKS = 2 + 512 // _INDEX.size


def can_fork() -> bool:
    """Whether a forked child would pay: ``os.fork`` exists, only one Python
    thread runs (a fork carries over only the calling thread, and a lock
    another thread holds would stay held in the child), and this process may
    run on more than one CPU (its affinity mask where the platform has one,
    as Linux does, else the machine's CPU count)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def fork(serve) -> int | None:
    """The pid of a forked child that runs ``serve()``, or None where no
    process can be spared.  The child ignores SIGINT (its parent ends it),
    keeps the GC off (a collection could finalize objects the parent owns)
    and leaves only through ``os._exit``, never into the caller's stack,
    stdio buffers or atexit hooks: with 0 once ``serve`` returns, else 1.
    SIGINT stays blocked across the fork, so the child cannot take it before
    it ignores it; one that reached the parent meanwhile raises when the
    mask is restored, after the child is killed and reaped."""
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        status = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
            gc.disable()
            serve()
            status = 0
        finally:
            os._exit(status)
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
    except BaseException:
        if pid:
            reap(pid, kill=True)
        raise
    return pid


def reap(pid: int, *, kill: bool = False) -> None:
    """Waits for the child ``pid``, after a SIGKILL if ``kill``."""
    if kill:
        os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


_MISSING = object()


def fan_out(tasks) -> list:
    """``[t() for t in tasks]``, computed by this process and one forked child
    where ``can_fork`` holds and there are at least two tasks.  A task's
    result is all that comes back: what a task run in the child changes in
    memory, or writes to a buffer it does not flush, is lost with it."""
    tasks = list(tasks)
    results = [_MISSING] * len(tasks)
    if 2 <= len(tasks) <= _MOST_TASKS and can_fork():
        _share(tasks, results)
    return [t() if r is _MISSING else r for t, r in zip(tasks, results)]


def _share(tasks: list, results: list) -> None:
    """Fills ``results`` with what this process and one child computed; a task
    that raised, or that the child left undone, stays ``_MISSING``."""
    queue, replies = os.pipe(), os.pipe()
    unclosed = [*queue, *replies]

    def close(fd):
        unclosed.remove(fd)
        os.close(fd)

    def serve():
        os.close(replies[0])
        for i in _claims(queue[0], 1):
            try:
                data = pickle.dumps(tasks[i](), pickle.HIGHEST_PROTOCOL)
            except Exception:  # the parent runs it again
                continue
            view = memoryview(_HEADER.pack(i, len(data)) + data)
            while view:
                view = view[os.write(replies[1], view):]

    pid = None
    try:
        os.write(queue[1], b"".join(_INDEX.pack(i) for i in range(2, len(tasks))))
        close(queue[1])  # the drained queue reads EOF
        pid = fork(serve)
        close(replies[1])  # the child's results read EOF once it exits
        if pid is None:
            return
        for i in _claims(queue[0], 0):
            try:
                results[i] = tasks[i]()
            except Exception:  # raised again, in order, by ``fan_out``
                pass
        _collect(replies[0], results)
    except BaseException:
        if pid:
            reap(pid, kill=True)
            pid = None
        raise
    finally:
        for fd in list(unclosed):
            close(fd)
        if pid:
            reap(pid)


def _claims(fd: int, first: int):
    """``first``, then the indices read from the queue ``fd`` until EOF.  The
    queue holds whole indices and Linux reads a pipe under its lock, so a
    read of one index takes all of its bytes."""
    yield first
    while raw := os.read(fd, _INDEX.size):
        yield _INDEX.unpack(raw)[0]


def _collect(fd: int, results: list) -> None:
    """The child's results, read from ``fd`` until EOF; a message cut short by
    the child's death is dropped."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    data, pos = b"".join(chunks), 0
    while pos + _HEADER.size <= len(data):
        i, size = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        if pos + size > len(data):
            break
        results[i] = pickle.loads(data[pos:pos + size])
        pos += size
