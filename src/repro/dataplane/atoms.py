"""Atom decomposition of the destination address space.

An *atom* is a maximal half-open interval ``[lo, hi)`` of destination
addresses that no FIB prefix and no ACL destination boundary cuts
through: every router forwards every address in an atom identically,
so one forwarding graph per atom captures the whole data plane.

The table reference-counts cut points so incremental FIB/ACL deltas
maintain the decomposition: installing a prefix adds (at most) two cut
points, removing it may merge neighbouring atoms, and only atoms
overlapping the changed interval are reported dirty.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterator

from repro.net.addr import Prefix

SPAN_LO = 0
SPAN_HI = 1 << 32


@dataclass(frozen=True, order=True)
class Atom:
    """One atom: a half-open destination interval."""

    lo: int
    hi: int

    @property
    def representative(self) -> int:
        """Any address inside the atom (its low end)."""
        return self.lo

    @property
    def size(self) -> int:
        return self.hi - self.lo

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi})"


class AtomTable:
    """Reference-counted cut points over the destination space.

    ``register(lo, hi)`` / ``unregister(lo, hi)`` adjust the counts of
    the two boundary points; the live atoms are the intervals between
    points with positive counts (plus the span ends).  Both return the
    structural consequence so callers can maintain per-atom caches:

    - register -> list of (old_atom, [new_subatoms]) splits
    - unregister -> list of (merged_atom, [old_subatoms]) merges
    """

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        self._points: list[int] = [SPAN_LO, SPAN_HI]  # sorted, always ends

    # -- queries ----------------------------------------------------------------

    def atoms(self) -> Iterator[Atom]:
        """All live atoms in ascending order."""
        for index in range(len(self._points) - 1):
            yield Atom(self._points[index], self._points[index + 1])

    def num_atoms(self) -> int:
        return len(self._points) - 1

    def atom_containing(self, address: int) -> Atom:
        """The atom covering ``address``."""
        if not SPAN_LO <= address < SPAN_HI:
            raise ValueError(f"address {address} out of span")
        index = bisect_right(self._points, address) - 1
        return Atom(self._points[index], self._points[index + 1])

    def atoms_overlapping(self, lo: int, hi: int) -> list[Atom]:
        """All atoms intersecting ``[lo, hi)``."""
        if lo >= hi:
            return []
        start = bisect_right(self._points, lo) - 1
        result = []
        for index in range(start, len(self._points) - 1):
            a_lo, a_hi = self._points[index], self._points[index + 1]
            if a_lo >= hi:
                break
            result.append(Atom(a_lo, a_hi))
        return result

    def atoms_overlapping_prefix(self, prefix: Prefix) -> list[Atom]:
        """All atoms intersecting a prefix."""
        lo, hi = prefix.interval()
        return self.atoms_overlapping(lo, hi)

    # -- mutation ----------------------------------------------------------------

    def _add_point(self, point: int) -> Atom | None:
        """Bump a cut point; returns the atom it split (or None)."""
        if point in (SPAN_LO, SPAN_HI):
            return None
        count = self._counts.get(point, 0)
        self._counts[point] = count + 1
        if count > 0:
            return None
        index = bisect_right(self._points, point) - 1
        split = Atom(self._points[index], self._points[index + 1])
        insort(self._points, point)
        return split

    def _remove_point(self, point: int) -> Atom | None:
        """Drop one reference; returns the merged atom if it vanished."""
        if point in (SPAN_LO, SPAN_HI):
            return None
        count = self._counts.get(point, 0)
        if count <= 0:
            raise ValueError(f"cut point {point} not registered")
        if count > 1:
            self._counts[point] = count - 1
            return None
        del self._counts[point]
        index = bisect_left(self._points, point)
        merged = Atom(self._points[index - 1], self._points[index + 1])
        self._points.pop(index)
        return merged

    def register(self, lo: int, hi: int) -> list[tuple[Atom, list[Atom]]]:
        """Add the boundaries of ``[lo, hi)``; returns splits.

        Each split is ``(parent_atom, [sub_atoms])`` — the sub-atoms
        jointly cover the parent.
        """
        if lo >= hi:
            raise ValueError(f"empty interval [{lo}, {hi})")
        splits: list[tuple[Atom, list[Atom]]] = []
        for point in (lo, hi):
            parent = self._add_point(point)
            if parent is not None:
                splits.append(
                    (parent, [Atom(parent.lo, point), Atom(point, parent.hi)])
                )
        return splits

    def unregister(self, lo: int, hi: int) -> list[tuple[Atom, list[Atom]]]:
        """Drop the boundaries of ``[lo, hi)``; returns merges.

        Each merge is ``(merged_atom, [sub_atoms])`` — the sub-atoms it
        replaced.
        """
        if lo >= hi:
            raise ValueError(f"empty interval [{lo}, {hi})")
        merges: list[tuple[Atom, list[Atom]]] = []
        for point in (lo, hi):
            merged = self._remove_point(point)
            if merged is not None:
                merges.append(
                    (merged, [Atom(merged.lo, point), Atom(point, merged.hi)])
                )
        return merges

    def register_prefix(self, prefix: Prefix) -> list[tuple[Atom, list[Atom]]]:
        """Register a prefix's interval."""
        lo, hi = prefix.interval()
        return self.register(lo, hi)

    def unregister_prefix(self, prefix: Prefix) -> list[tuple[Atom, list[Atom]]]:
        """Unregister a prefix's interval."""
        lo, hi = prefix.interval()
        return self.unregister(lo, hi)

    def __str__(self) -> str:
        return f"AtomTable({self.num_atoms()} atoms)"
