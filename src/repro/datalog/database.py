"""Z-set relations and the fact database.

A relation stores tuples with signed integer multiplicities.  The
*set-semantics view* (a tuple is "present" iff its multiplicity is
positive) is what rule evaluation sees; multiplicities exist so the
incremental engine can run the counting algorithm without extra
bookkeeping structures.

Relations keep hash indexes per bound-position pattern, built lazily
and invalidated by a version counter on every write — the join
planner asks for exactly the index it needs.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

Row = tuple[Any, ...]


class Relation:
    """A named relation of fixed arity with Z-set multiplicities."""

    __slots__ = ("name", "arity", "_rows", "_version", "_indexes")

    def __init__(self, name: str, arity: int) -> None:
        self.name = name
        self.arity = arity
        self._rows: dict[Row, int] = {}
        self._version = 0
        self._indexes: dict[tuple[int, ...], tuple[int, dict[Row, list[Row]]]] = {}

    # -- writes ----------------------------------------------------------

    def add(self, row: Row, multiplicity: int = 1) -> int:
        """Adjust a row's multiplicity; returns the set-semantics delta.

        The return value is +1 if the row just became present, -1 if it
        just became absent, 0 otherwise.
        """
        if len(row) != self.arity:
            raise ValueError(
                f"{self.name}: arity mismatch, expected {self.arity}, "
                f"got {len(row)} in {row!r}"
            )
        if multiplicity == 0:
            return 0
        old = self._rows.get(row, 0)
        new = old + multiplicity
        if new == 0:
            self._rows.pop(row, None)
        else:
            self._rows[row] = new
        self._version += 1
        if old <= 0 < new:
            return 1
        if new <= 0 < old:
            return -1
        return 0

    def discard(self, row: Row) -> int:
        """Force a row absent regardless of count; set-semantics delta."""
        old = self._rows.pop(row, 0)
        if old != 0:
            self._version += 1
        return -1 if old > 0 else 0

    def load(self, rows: Iterable[Row]) -> None:
        """Bulk-insert rows with multiplicity one each."""
        for row in rows:
            self.add(row)

    def clear(self) -> None:
        """Remove everything."""
        if self._rows:
            self._rows.clear()
            self._version += 1

    # -- reads -----------------------------------------------------------

    def __contains__(self, row: Row) -> bool:
        return self._rows.get(row, 0) > 0

    def multiplicity(self, row: Row) -> int:
        """The signed multiplicity (0 if never stored)."""
        return self._rows.get(row, 0)

    def rows(self) -> Iterator[Row]:
        """Present rows (multiplicity > 0)."""
        for row, count in self._rows.items():
            if count > 0:
                yield row

    def snapshot(self) -> set[Row]:
        """The present rows as a frozen set copy."""
        return {row for row, count in self._rows.items() if count > 0}

    def __len__(self) -> int:
        return sum(1 for count in self._rows.values() if count > 0)

    @property
    def version(self) -> int:
        """Write counter; bumps on every mutation."""
        return self._version

    def index(self, positions: tuple[int, ...]) -> dict[Row, list[Row]]:
        """Hash index keyed by the values at ``positions``.

        Cached until the next write.  An empty position tuple returns a
        single-entry index keyed by ``()``.
        """
        cached = self._indexes.get(positions)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        built: dict[Row, list[Row]] = {}
        for row in self.rows():
            key = tuple(row[i] for i in positions)
            built.setdefault(key, []).append(row)
        self._indexes[positions] = (self._version, built)
        return built

    def lookup(self, positions: tuple[int, ...], key: Row) -> list[Row]:
        """Rows whose values at ``positions`` equal ``key``."""
        return self.index(positions).get(key, [])

    def __str__(self) -> str:
        return f"{self.name}/{self.arity} ({len(self)} rows)"


class Database:
    """A collection of relations keyed by name."""

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}

    def relation(self, name: str, arity: int | None = None) -> Relation:
        """Fetch (creating if ``arity`` given) a relation.

        Raises KeyError for an unknown relation when no arity is
        supplied, and ValueError on arity conflicts.
        """
        existing = self._relations.get(name)
        if existing is not None:
            if arity is not None and existing.arity != arity:
                raise ValueError(
                    f"relation {name!r} exists with arity {existing.arity}, "
                    f"requested {arity}"
                )
            return existing
        if arity is None:
            raise KeyError(f"unknown relation {name!r}")
        created = Relation(name, arity)
        self._relations[name] = created
        return created

    def has_relation(self, name: str) -> bool:
        """True if the relation exists."""
        return name in self._relations

    def names(self) -> list[str]:
        """All relation names."""
        return list(self._relations)

    def drop(self, name: str) -> None:
        """Delete a relation entirely."""
        self._relations.pop(name, None)

    def clone(self) -> "Database":
        """Deep copy (multiplicities preserved)."""
        copy = Database()
        for name, relation in self._relations.items():
            fresh = copy.relation(name, relation.arity)
            for row, count in relation._rows.items():
                fresh._rows[row] = count
        return copy

    def __str__(self) -> str:
        parts = ", ".join(str(r) for r in self._relations.values())
        return f"Database[{parts}]"
