"""Object-to-partition routing for the federation.

A stable crc32 of the object name modulo the shard count (Python's
salted ``hash`` would shuffle partitions across processes and break
every digest).  The same function routes MVCC snapshot pins, commit-log
externalization and version stamping, so one partition's commit
sequence orders *all* committed state of an object — the property the
commitment-ordering argument in docs/PERFORMANCE.md section 10 rests on.
"""

from __future__ import annotations

import zlib

from repro.errors import GTMError

__all__ = ["ObjectRouter"]


class ObjectRouter:
    """Stable name -> partition-index routing for N federation shards."""

    __slots__ = ("shard_count",)

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise GTMError(
                f"federation shard count must be >= 1, got {shard_count}")
        self.shard_count = shard_count

    def index_of(self, name: str) -> int:
        """The owning partition's index; total and stable per name."""
        return zlib.crc32(name.encode("utf-8")) % self.shard_count
