"""Text formatting and parsing split into contiguous parts, one per usable core.

Printing or parsing a float to 17 digits, or interning a node id, costs
about 1 us in CPython and holds the GIL, so threads do not help. ``write``
formats k contiguous parts of a range of items, and ``read`` parses k
ranges of whole lines of a file; both run part 0 in the calling process and
parts 1..k-1 in children made with ``os.fork`` and join the results in part
order, so output bytes do not depend on k. A child writes only to the pipe
or temporary file made for it and leaves only through ``os._exit``, so it
flushes none of the parent's buffers. The parent reaps every child, and
kills any still running when it fails itself. Where ``os.fork`` or
``os.sched_getaffinity`` is missing, every range is one part."""

from __future__ import annotations

import io
import os
import pickle
import shutil
import signal
import tempfile
import warnings
from contextlib import suppress


def _usable_cores() -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


# The most parts a range is split into.
_CORES = _usable_cores()
# The fewest values (floats, or edge-list entries) worth a part of their own:
# formatting 2^16 floats takes about 60 ms, and forking and reaping a child
# of a 150 MB process 5-8 ms.
_PART_VALUES = 1 << 16
# Values formatted per write: 64 embedding rows at d = 64, 512 at d = 8, or
# 4,096 edge-list entries. Blocks of 2^13 wrote a 100k x 8 embedding about
# 10% slower in fresh processes (larger strings to allocate and free).
_BLOCK_VALUES = 1 << 12
# Bytes scanned at once for a line end.
_READ_BYTES = 1 << 16


def split(count: int, values: int) -> list:
    """Cuts 0 = c_0 < c_1 < ... < c_k = count of k near-equal parts of range(count).

    k = min(_CORES, values // _PART_VALUES, count), and at least 1.
    """
    k = max(1, min(_CORES, values // _PART_VALUES, count))
    return [count * i // k for i in range(k + 1)]


def line_cuts(path, start: int, end: int, values: int) -> list:
    """split() of bytes start..end - 1 of path, each inner cut moved to a line start.

    An inner cut moves to the first offset at or after it that follows a
    ``\n``, and cuts that meet merge, so every range but the last ends in
    ``\n``. A cut after ``\n`` never splits a UTF-8 sequence or a ``\r\n``;
    a file whose lines end in a lone ``\r`` has no cut point and stays one
    range. The file is opened only when there is more than one part.
    """
    cuts = [start + c for c in split(end - start, values)]
    if len(cuts) > 2:
        with open(path, "rb") as fh:
            cuts[1:-1] = [_line_start(fh, c) for c in cuts[1:-1]]
    return sorted(set(cuts))


def _line_start(fh, at: int) -> int:
    """The first offset at or after ``at`` that follows a newline in binary file fh, or its end."""
    fh.seek(at - 1)
    while chunk := fh.read(_READ_BYTES):
        i = chunk.find(b"\n")
        if i >= 0:
            return fh.tell() - len(chunk) + i + 1
    return fh.tell()


class _ByteSpan(io.RawIOBase):
    """Bytes lo..hi - 1 of a file as a raw stream."""

    def __init__(self, path, lo: int, hi: int):
        self._file = open(path, "rb", buffering=0)
        self._file.seek(lo)
        self._left = hi - lo

    def readable(self):
        return True

    def readinto(self, buf):
        got = self._file.readinto(memoryview(buf)[:self._left])
        self._left -= got
        return got

    def close(self):
        self._file.close()
        super().close()


def text_span(path, lo: int, hi: int):
    """Bytes lo..hi - 1 of path as UTF-8 text, with the line ends of open(path)."""
    return io.TextIOWrapper(io.BufferedReader(_ByteSpan(path, lo, hi)), encoding="utf-8")


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
        os._exit(code)


def run(cuts: list, part) -> list:
    """[part(lo, hi) for each pair of adjacent cuts], in order.

    The first part runs in this process, every later one in a forked child
    that pickles its result back through a pipe. A child's exception is
    raised here; a child that exits without a result raises
    ChildProcessError. Every child is reaped before this returns or raises.
    """
    pids, fds = [], []
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
        for pid in pids:
            if pid is not None:
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def write(stream, count: int, values: int, format_block) -> None:
    """Write format_block(lo, hi), the text of items lo..hi - 1, over range(count).

    The items hold ``values`` values, which size the parts (``split``) and
    the blocks of about _BLOCK_VALUES values. Part 0 writes to stream itself;
    every later part to an anonymous temporary file opened before the fork
    and then appended to stream in shutil.copyfileobj's bounded chunks, so no
    process holds more than one block of its part.
    """
    cuts = split(count, values)
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

        run(cuts, part)
        for temp in temps:
            temp.seek(0)
            shutil.copyfileobj(temp, stream)
    finally:
        for temp in temps:
            temp.close()


def read(path, start: int, end: int, values: int, read_span) -> list:
    """[read_span(text_span(path, lo, hi)) for each range of line_cuts(...)], in order."""

    def part(lo, hi):
        with text_span(path, lo, hi) as text:
            return read_span(text)

    return run(line_cuts(path, start, end, values), part)
