"""Every child process of the package, its pipes and the memory it shares.

``fan_out(tasks)`` returns what ``[t() for t in tasks]`` returns.  Where a
second process pays (``can_fork``), it forks one child: the parent runs
task 0 and the child task 1, and whichever is free claims the next index
from a pipe that holds the rest.  The child sends each result back pickled.
A task with no result, because it raised in either process or the child
died, runs again in the parent, in task order, so the first failing task
raises exactly as it would in sequence.

``Pair(work)`` forks a child that runs ``work`` in step with the parent:
``swap`` is their barrier, one byte each way; a torus run marches one slab
of its grid in each process and swaps the slabs' edge rows through arrays
made by ``shared_zeros`` before the fork.  Both children live by one
lifecycle, ``_Child``'s.
"""

from __future__ import annotations

import gc
import itertools
import math
import mmap
import os
import pickle
import signal
import struct
import threading

import numpy as np

_INDEX = struct.Struct("i")
_HEADER = struct.Struct("iQ")  # task index, length of its pickled result
# Reads of an empty pipe a barrier makes before it sleeps (``Pair``), about
# 0.2 ms at 1.1 us a read on a 2-core Xeon: longer than 99% of the waits of
# a grid-48 torus run, whose median is 6 us, shorter than waking from sleep.
_SPINS = 200
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


def shared_zeros(*shapes) -> list:
    """Zeroed float arrays of the given shapes, packed into one anonymous
    shared mapping of exactly their size: a child forked after they are made
    and this process read and write the same memory through them."""
    sizes = [math.prod(shape) for shape in shapes]
    buf = mmap.mmap(-1, 8 * sum(sizes))  # anonymous, shared and zero-filled
    return [np.frombuffer(buf, float, size, 8 * start).reshape(shape)
            for shape, size, start in zip(shapes, sizes, itertools.accumulate([0] + sizes))]


class _Child:
    """One forked child, which reads the pipe ``inbox`` and writes ``outbox``.

    Entering ``with`` makes the pipes, writes ``queue`` (if given) into the
    inbox and closes its write end, so the drained queue reads EOF, and
    forks with SIGINT blocked.  The child ignores SIGINT, keeps the GC off
    (a collection could finalize objects the parent owns), runs
    ``serve(inbox, outbox)`` on its ends and leaves only through
    ``os._exit``, never into the caller's stack, stdio buffers or atexit
    hooks.  ``pid`` is None where no child pays (``can_fork``) or none could
    be made.  Leaving ``with`` closes every end the parent holds, which a
    live child reads as EOF, and reaps the child, after a SIGKILL if an
    exception (a SIGINT taken during the fork included) is leaving.
    """

    def __init__(self, serve, queue: bytes | None = None):
        self.serve, self.queue, self.held, self.pid = serve, queue, [], None

    def __enter__(self):
        if not can_fork():
            return self
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            try:
                self.held += os.pipe()
                self.held += os.pipe()
                self.inbox, self.outbox = self.held[:2], self.held[2:]
                if self.queue is not None:
                    os.write(self.inbox[1], self.queue)
                    self._close(self.inbox[1])
                self.pid = os.fork()
                if self.pid == 0:
                    self._run(blocked)
                self._close(self.outbox[1])
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        except OSError:  # no pipe or process to spare
            self.close()
        except BaseException:
            self.close(kill=True)
            raise
        return self

    def __exit__(self, kind, *_) -> None:
        self.close(kill=kind is not None)

    def close(self, kill: bool = False) -> None:
        while self.held:
            os.close(self.held.pop())
        if self.pid:
            pid, self.pid = self.pid, None
            if kill:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def _run(self, blocked) -> None:
        status = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
            gc.disable()
            for fd in set(self.held) - {self.inbox[0], self.outbox[1]}:
                os.close(fd)
            self.serve(self.inbox[0], self.outbox[1])
            status = 0
        finally:
            os._exit(status)

    def _close(self, fd: int) -> None:
        self.held.remove(fd)
        os.close(fd)


class Pair(_Child):
    """A child forked on entering ``with``, where ``can_fork`` holds, that
    runs ``work(pair)`` in step with the parent: ``swap(byte)`` sends one
    byte to the other process and returns the one it sent, so neither passes
    a swap before both have reached it.  Where the child is gone (or none was
    forked: ``pid`` is None) the parent's ``swap`` reaps it and returns None;
    where the parent is gone the child leaves.  The parent's write cannot
    fail: it holds the read end of the child's inbox, so a dead child shows
    up as EOF on the reply.  Each process reads its pipe without blocking
    up to ``_SPINS`` times before it sleeps on it."""

    def __init__(self, work):
        super().__init__(self._serve)
        self.work = work

    def __enter__(self):
        super().__enter__()
        if self.pid:
            self.ends = self.outbox[0], self.inbox[1]
            os.set_blocking(self.outbox[0], False)
        return self

    def swap(self, byte: int) -> int | None:
        if self.pid is None:
            return None
        read, write = self.ends
        try:
            os.write(write, bytes((byte,)))
            reply = _byte(read)
        except BrokenPipeError:  # only the child's write: the parent closed its ends
            reply = b""
        if reply:
            return reply[0]
        if self.pid == 0:
            os._exit(0)
        self.close()
        return None

    def _serve(self, inbox: int, outbox: int) -> None:
        self.ends = inbox, outbox
        os.set_blocking(inbox, False)
        self.work(self)


def _byte(fd: int) -> bytes:
    """One byte read from the nonblocking pipe ``fd``, b"" at EOF; it sleeps
    only after ``_SPINS`` reads found the pipe empty."""
    for _ in range(_SPINS):
        try:
            return os.read(fd, 1)
        except BlockingIOError:
            pass
    os.set_blocking(fd, True)
    try:
        return os.read(fd, 1)
    finally:
        os.set_blocking(fd, False)


_MISSING = object()


def fan_out(tasks) -> list:
    """``[t() for t in tasks]``, computed by this process and one forked child
    where ``can_fork`` holds and there are at least two tasks.  A task's
    result is all that comes back: what a task run in the child changes in
    memory, or writes to a buffer it does not flush, is lost with it."""
    tasks = list(tasks)
    results = [_MISSING] * len(tasks)
    if 2 <= len(tasks) <= _MOST_TASKS:
        _share(tasks, results)
    return [t() if r is _MISSING else r for t, r in zip(tasks, results)]


def _share(tasks: list, results: list) -> None:
    """Fills ``results`` with what this process and one child computed; a task
    that raised, or that the child left undone, stays ``_MISSING``."""

    def serve(queue, replies):
        for i in _claims(queue, 1):
            try:
                data = pickle.dumps(tasks[i](), pickle.HIGHEST_PROTOCOL)
            except Exception:  # the parent runs it again
                continue
            view = memoryview(_HEADER.pack(i, len(data)) + data)
            while view:
                view = view[os.write(replies, view):]

    rest = b"".join(_INDEX.pack(i) for i in range(2, len(tasks)))
    with _Child(serve, rest) as child:
        if child.pid is None:
            return
        for i in _claims(child.inbox[0], 0):
            try:
                results[i] = tasks[i]()
            except Exception:  # raised again, in order, by ``fan_out``
                pass
        _collect(child.outbox[0], results)


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
