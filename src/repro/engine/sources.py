"""Input sources pluggable into `SourceRDD`.

A source exposes ``num_splits()`` and ``read_split(i)``; the engine
turns each split into one RDD partition.  `LocalTextFileSource` is the
plain-filesystem analogue of an HDFS file.
"""

from __future__ import annotations

import os


class LocalTextFileSource:
    """Line-oriented splits of a local text file.

    Splits are computed by byte ranges aligned to line boundaries, the
    same contract HDFS record readers honour: a split starts at the
    first full line at-or-after its byte offset and reads through the
    end of the line spanning its last byte.
    """

    def __init__(self, path: str, num_splits: int):
        if num_splits <= 0:
            raise ValueError(f"num_splits must be positive, got {num_splits}")
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        self.path = path
        self._num_splits = num_splits
        self._size = os.path.getsize(path)

    def num_splits(self) -> int:
        """Number of input splits."""
        return self._num_splits

    def read_split(self, i: int) -> list[str]:
        """Read one split's records."""
        if not 0 <= i < self._num_splits:
            raise IndexError(f"split {i} out of range")
        span = max(1, self._size // self._num_splits)
        start = i * span
        end = self._size if i == self._num_splits - 1 else (i + 1) * span
        if start >= self._size:
            return []
        lines: list[str] = []
        with open(self.path, "rb") as f:
            if start > 0:
                f.seek(start - 1)
                prev = f.read(1)
                if prev != b"\n":
                    f.readline()  # skip the partial line owned by split i-1
            while f.tell() < end:
                line = f.readline()
                if not line:
                    break
                lines.append(line.decode("utf-8").rstrip("\n"))
        return lines

