"""Multi-version permanent state: a ring of recent committed versions.

The GTM kernel keeps exactly one ``X_permanent`` image per object;
every READ must therefore take (at least) a semantic lock so the image
cannot change under it.  The MVCC read path (:mod:`repro.core.mvcc`)
instead pins a *commit sequence number* (csn) and reads the newest
committed version at or below the pin — never blocking, never entering
the wait queue ("Rethinking serializable multiversion concurrency
control" is the motivating design; the pin is the read timestamp).

Versions are published only at the manager's single externalization
point (one append per committed transaction per object), so a ring is
always csn-monotonic by construction.  Capacity is deliberately small:
a reader that outlives :data:`RING_CAPACITY` commits on one object gets
:class:`~repro.errors.SnapshotTooOld` and the manager aborts it — the
classic MVCC trade of abort-on-ancient instead of unbounded version
retention.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.errors import GTMError, SnapshotTooOld

__all__ = ["RING_CAPACITY", "Version", "VersionRing", "VersionStore"]

#: Committed versions retained per object.
RING_CAPACITY = 8


class Version:
    """One committed image of an object: csn, member values, existence."""

    __slots__ = ("csn", "values", "exists")

    def __init__(self, csn: int, values: Mapping[str, Any],
                 exists: bool = True) -> None:
        self.csn = csn
        #: a private copy — the live ``X_permanent`` dict keeps mutating.
        self.values: dict[str, Any] = dict(values)
        self.exists = exists

    def __repr__(self) -> str:
        return (f"<Version csn={self.csn} exists={self.exists} "
                f"values={self.values}>")


class VersionRing:
    """A bounded, csn-ordered window of one object's recent versions."""

    __slots__ = ("object_name", "capacity", "_versions")

    def __init__(self, object_name: str,
                 capacity: int = RING_CAPACITY) -> None:
        if capacity < 1:
            raise GTMError(
                f"version ring capacity must be >= 1, got {capacity}")
        self.object_name = object_name
        self.capacity = capacity
        self._versions: list[Version] = []

    def append(self, version: Version) -> Version:
        """Publish a newer version; evicts the oldest past capacity."""
        if self._versions and version.csn <= self._versions[-1].csn:
            raise GTMError(
                f"version ring for {self.object_name!r}: csn must be "
                f"monotonic ({version.csn} after {self._versions[-1].csn})")
        self._versions.append(version)
        if len(self._versions) > self.capacity:
            del self._versions[0]
        return version

    def latest(self) -> Version:
        if not self._versions:
            raise GTMError(
                f"version ring for {self.object_name!r} is empty")
        return self._versions[-1]

    def as_of(self, csn: int) -> Version:
        """The newest version with ``version.csn <= csn``.

        Raises :class:`SnapshotTooOld` when the pin predates the oldest
        retained version — the reader must abort and retry.
        """
        versions = self._versions
        for version in reversed(versions):
            if version.csn <= csn:
                return version
        oldest = versions[0].csn if versions else 0
        raise SnapshotTooOld(self.object_name, csn, oldest)

    def __len__(self) -> int:
        return len(self._versions)

    def __iter__(self) -> Iterator[Version]:
        return iter(self._versions)


class VersionStore:
    """Per-object version rings (csns come from the manager)."""

    __slots__ = ("capacity", "rings")

    def __init__(self, capacity: int = RING_CAPACITY) -> None:
        self.capacity = capacity
        self.rings: dict[str, VersionRing] = {}

    def seed(self, object_name: str, values: Mapping[str, Any],
             exists: bool = True) -> VersionRing:
        """Register an object's initial permanent image at csn 0."""
        if object_name in self.rings:
            raise GTMError(
                f"version ring for {object_name!r} already seeded")
        ring = VersionRing(object_name, self.capacity)
        ring.append(Version(0, values, exists))
        self.rings[object_name] = ring
        return ring

    def publish(self, object_name: str, csn: int,
                values: Mapping[str, Any], exists: bool = True) -> Version:
        """Append the post-commit image of an object at ``csn``."""
        return self.ring(object_name).append(Version(csn, values, exists))

    def ring(self, object_name: str) -> VersionRing:
        try:
            return self.rings[object_name]
        except KeyError:
            raise GTMError(
                f"no version ring for {object_name!r}") from None
