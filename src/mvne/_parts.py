"""Work split into contiguous parts, one per usable core.

Printing or parsing a float to 17 digits, or interning a node id, costs
about 1 us in CPython and holds the GIL, so threads do not help text.
``write`` and ``read`` run parts in forked children (``run``). numpy's
gathers and elementwise ufuncs and scipy's sparse products release the
GIL, so for them threads do help (``threads``)."""

from __future__ import annotations

import io
import mmap
import os
import pickle
import shutil
import signal
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager, suppress

import numpy as np


def _usable_cores() -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


# The most parts a range is split into.
_CORES = _usable_cores()
# The fewest values (floats, or edge-list entries) worth a written part of
# their own: formatting 2^16 floats takes about 60 ms, and forking and
# reaping a child of a 150 MB process 5-8 ms.
_PART_VALUES = 1 << 16
# The fewest bytes worth a read part of their own: about 2^16 edge-list
# lines, 0.18 s of parsing, or 2^15-2^16 embedding values.
_PART_BYTES = 1 << 20
# Values formatted per write: 64 embedding rows at d = 64, 512 at d = 8, or
# 4,096 edge-list entries. Blocks of 2^13 wrote a 100k x 8 embedding about
# 10% slower in fresh processes (larger strings to allocate and free).
_BLOCK_VALUES = 1 << 12


def split(count: int, parts: int) -> list:
    """Cuts 0 = c_0 <= c_1 <= ... <= c_k = count of k near-equal parts of range(count);
    they rise strictly unless count is 0, which gives the one empty part [0, 0]."""
    k = max(1, min(_CORES, parts, count))
    return [count * i // k for i in range(k + 1)]


def line_cuts(path, start: int, end: int) -> list:
    """split() of bytes start..end - 1 of path into parts of at least
    _PART_BYTES, each inner cut moved to a line start.

    Every range but the last ends in ``\n``, and an empty range is one empty
    part. A cut after ``\n`` never splits a UTF-8 sequence or a ``\r\n``; a
    file whose lines end in a lone ``\r`` has no cut point and stays one range.
    """
    cuts = [start + c for c in split(end - start, (end - start) // _PART_BYTES)]
    if len(cuts) > 2:
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            # find gives -1, so 0, when no newline follows: the cut goes to end
            cuts[1:-1] = [mm.find(b"\n", c - 1, end) + 1 or end for c in cuts[1:-1]]
    return cuts[:1] + sorted(set(cuts[1:]))


class _ByteSpan(io.FileIO):
    """Bytes lo..hi - 1 of a file as a raw stream.

    A FileIO, not a wrapper of one: a text stream over a wrapper looks up
    its closed attribute through Python once per line. On CPython 3.11 that
    took 20.9 MB of edge-list lines from 119 ms to 93-97 ms to iterate
    (open(): 64 ms; only an exact FileIO is checked in C).
    """

    # read and readall go through readinto, as in io.RawIOBase, so they stop at hi too
    read = io.RawIOBase.read
    readall = io.RawIOBase.readall

    def __init__(self, path, lo: int, hi: int):
        super().__init__(path, "rb")
        self.seek(lo)
        self._left = hi - lo

    def readinto(self, buf):
        got = super().readinto(memoryview(buf)[:self._left])
        self._left -= got
        return got


def _fork() -> int:
    with warnings.catch_warnings():
        # Python >= 3.12 warns on fork() in a process with threads, such as a
        # BLAS pool. The children run no BLAS and take no locks: they only
        # format or parse text and leave through os._exit.
        warnings.filterwarnings("ignore", message=r".*fork\(\) may lead to deadlocks",
                                category=DeprecationWarning)
        return os.fork()


def _serve(part, lo: int, hi: int, fd: int):
    """Child side of run(): send (True, part(lo, hi)) or (False, error) down fd, then exit."""
    code = 1
    try:
        try:
            reply = (True, part(lo, hi))
        except Exception as exc:
            reply = (False, exc)
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)  # so the child flushes none of the parent's buffers


def run(cuts: list, part) -> list:
    """[part(lo, hi) for each pair of adjacent cuts], in order.

    The first part runs in this process, every later one in a forked child
    that pickles its result back through a pipe. A child's exception is
    raised here; a child that exits without a result raises
    ChildProcessError. Every child is reaped before this returns or raises.
    When a pipe or a fork fails (OSError: EAGAIN, ENOMEM, EMFILE), no part
    has run yet: the children made so far are killed, and the whole range
    runs as one part in this process, [part(cuts[0], cuts[-1])].
    """
    pids, fds = [], []
    try:
        try:
            for lo, hi in zip(cuts[1:-1], cuts[2:]):
                r, w = os.pipe()
                fds.append(r)
                try:
                    pid = _fork()
                except BaseException:
                    os.close(w)
                    raise
                if pid == 0:
                    _serve(part, lo, hi, w)
                os.close(w)
                pids.append(pid)
        except OSError:
            _kill(pids)
            return [part(cuts[0], cuts[-1])]
        results = [part(cuts[0], cuts[1])]
        for k in range(len(fds)):
            with open(fds[k], "rb", closefd=False) as pipe:
                reply = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[k], 0)[1])
            pids[k] = None
            if code != 0:
                raise ChildProcessError(f"part {k + 1} of {len(cuts) - 1}: worker process "
                                        f"exited with status {code}")
            ok, value = pickle.loads(reply)  # a whole reply from our own child
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for fd in fds:
            os.close(fd)
        _kill(pids)


def _kill(pids: list) -> None:
    for pid in pids:
        if pid is not None:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    pids.clear()


def write(stream, count: int, values: int, format_block) -> None:
    """Write format_block(lo, hi), the text of items lo..hi - 1, over range(count).

    The items hold ``values`` values, which size the parts and the blocks.
    Every part after the first writes to an anonymous temporary file, copied
    to stream in shutil.copyfileobj's bounded chunks, so no process holds
    more than one block of its part.
    """
    cuts = split(count, values // _PART_VALUES)
    step = max(1, _BLOCK_VALUES * count // max(values, 1))
    temps = []
    try:
        for _ in cuts[2:]:
            temps.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
        sinks = dict(zip(cuts, [stream, *temps]))  # cuts rise strictly

        def part(lo, hi):
            for start in range(lo, hi, step):
                sinks[lo].write(format_block(start, min(start + step, hi)))
            sinks[lo].flush()

        # the parts that ran; after a failed fork, part 0 alone wrote all items
        done = run(cuts, part)
        for temp in temps[:len(done) - 1]:
            temp.seek(0)
            shutil.copyfileobj(temp, stream)
    finally:
        for temp in temps:
            temp.close()


def read(path, start: int, end: int, read_span) -> list:
    """[read_span(text) for each range of line_cuts(...)], in order, where text
    is bytes lo..hi - 1 of path as UTF-8 text, with the line ends of open(path)."""

    def part(lo, hi):
        with io.TextIOWrapper(io.BufferedReader(_ByteSpan(path, lo, hi)),
                              encoding="utf-8") as text:
            return read_span(text)

    return run(line_cuts(path, start, end), part)


@contextmanager
def threads(count: int, parts: int):
    """Yield (cuts, map): the cuts of split(count, parts), and a map over k parts.

    map(fn, items) takes one item per part and returns [fn(item) for item in
    items]. fn(items[0]) runs in the calling thread; every later item in a
    thread of this block, under the caller's numpy error state, which a
    thread does not inherit. map returns or raises only once every part has
    finished, and raises the exception of the first part, in part order, that
    raised. Up to k - 1 threads start with the first map and are joined when
    the block exits; with one part, no thread starts.
    """
    cuts = split(count, parts)
    if len(cuts) == 2:
        yield cuts, lambda fn, items: [fn(items[0])]
        return
    with ThreadPoolExecutor(len(cuts) - 2, thread_name_prefix="mvne-part") as pool:

        def map(fn, items):
            err, call = np.geterr(), np.geterrcall()

            def part(item):
                with np.errstate(call=call, **err):
                    return fn(item)

            futures = [pool.submit(part, item) for item in items[1:]]
            try:
                first = fn(items[0])
            finally:
                wait(futures)
            return [first] + [future.result() for future in futures]

        yield cuts, map
