"""CLI operations: in-process ``locgenus.cli.main`` with captured output.

``cli.main`` is looked up on the module at every call, so a traced run
that rebinds it is seen here too.
"""

from __future__ import annotations

import hashlib
import io
import sys

import locgenus as lg
from locgenus import cli


def _swap_streams(out, err):
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    return saved


def call(argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    saved = _swap_streams(out, err)
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


class HashSink(io.RawIOBase):
    """Binary sink that hashes everything written and keeps chosen lines.

    It sits under a TextIOWrapper, so the CLI's many small writes reach it
    in large buffered chunks and the output is never held in memory.
    """

    def __init__(self, wanted_lines):
        super().__init__()
        self.digest = hashlib.sha256()
        self.size = 0
        self.lines = 0
        self.tail = b""
        self.captured: dict[int, str] = {}
        self._wanted = sorted(wanted_lines)
        self._next = 0
        self._partial = b""

    def writable(self):
        return True

    def write(self, chunk):
        data = bytes(chunk)
        self.digest.update(data)
        self.size += len(data)
        newlines = data.count(b"\n")
        wanted = self._wanted
        if self._next < len(wanted) and wanted[self._next] < self.lines + newlines:
            parts = (self._partial + data).split(b"\n")
            self._partial = parts.pop()
            while self._next < len(wanted) and wanted[self._next] < self.lines + newlines:
                index = wanted[self._next]
                self.captured[index] = parts[index - self.lines].decode()
                self._next += 1
        elif newlines:
            self._partial = data[data.rfind(b"\n") + 1 :]
        else:
            self._partial += data
        self.lines += newlines
        self.tail = (self.tail + data)[-128:]
        return len(data)


def enumerate_roundtrip(argv, dim, sample):
    """Stream an enumeration into a hashing sink, then round-trip a sample.

    Returns (exit code, stderr, (sha256, lines, bytes, last line),
    {index: line}, [classify(parse(line)) for each sampled line]).
    """
    sink = HashSink(sample)
    out = io.TextIOWrapper(io.BufferedWriter(sink, 1 << 16), encoding="utf-8", newline="\n")
    err = io.StringIO()
    saved = _swap_streams(out, err)
    try:
        code = cli.main(list(argv))
        out.flush()
    finally:
        sys.stdout, sys.stderr = saved
    last = sink.tail.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode()
    roundtrip = [
        str(lg.assemble_global(dim, cli.parse_descriptor(sink.captured[i], dim)).classify())
        for i in sorted(sink.captured)
    ]
    summary = (sink.digest.hexdigest(), sink.lines, sink.size, last)
    return code, err.getvalue(), summary, sink.captured, roundtrip
