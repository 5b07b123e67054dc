"""Immutable row versions.

Rows are immutable mappings; an update produces a new :class:`Row` with
the same rid and a bumped version, built with one copy of the values.
A version's values are its read-only ``image``, which nothing writes
after construction.  That is what lets the WAL keep row versions by
reference (:mod:`repro.ldbs.wal`: no copy per record), recovery put
back the exact version a record logged, and a checkpoint or a reader
hold a version without copying it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Iterator, Mapping

from repro.errors import StorageError


class Row(Mapping[str, Any]):
    """One version of a stored row."""

    __slots__ = ("rid", "version", "image")

    def __init__(self, rid: int, values: Mapping[str, Any],
                 version: int = 0) -> None:
        self.rid = rid
        self.version = version
        #: the values, read-only (a proxy over a dict only this row has).
        self.image: MappingProxyType[str, Any] = MappingProxyType(
            dict(values))

    # -- Mapping interface --------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        return self.image[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.image)

    def __len__(self) -> int:
        return len(self.image)

    # -- row operations -----------------------------------------------------

    def replace(self, updates: Mapping[str, Any]) -> "Row":
        """Return a new version of this row with ``updates`` applied."""
        image = self.image
        if not updates.keys() <= image.keys():
            raise StorageError(
                f"row {self.rid} has no columns "
                f"{sorted(set(updates) - set(image))}")
        merged = image.copy()
        merged.update(updates)
        # the one copy is ``merged``: bypass the constructor's own
        row = object.__new__(Row)
        row.rid = self.rid
        row.version = self.version + 1
        row.image = MappingProxyType(merged)
        return row

    def as_dict(self) -> dict[str, Any]:
        """A mutable copy of the row values."""
        return dict(self.image)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return (self.rid == other.rid
                    and self.version == other.version
                    and self.image == other.image)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rid, self.version))

    def __repr__(self) -> str:
        return f"Row(rid={self.rid}, v{self.version}, {dict(self.image)!r})"
