"""Finite binary relations over dense event ids, stored as bitset rows.

Everything downstream (execution enumeration, model evaluation, the
operational machine) works on relations over a fixed universe
{0, ..., n-1} of event ids, so the representation is a tuple of n ints
where bit j of row i encodes membership of (i, j).  All operations
return fresh relations; instances are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping, Optional, Sequence, Union


# --------------------------------------------------------------------- events


@dataclass(frozen=True)
class MemRead:
    loc: str
    value: Optional[int] = None


@dataclass(frozen=True)
class MemWrite:
    loc: str
    value: int


Action = Union[MemRead, MemWrite]


@dataclass(frozen=True)
class Event:
    """A single labelled node; id doubles as its index in the universe."""

    id: int
    thread: str
    po_index: int
    action: Action


def is_read(event: Event) -> bool:
    return isinstance(event.action, MemRead)


def is_write(event: Event) -> bool:
    return isinstance(event.action, MemWrite)


def is_mem(event: Event) -> bool:
    return isinstance(event.action, (MemRead, MemWrite))


# ------------------------------------------------------------------ relations


class Relation:
    """Immutable binary relation over {0, ..., n-1}."""

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, rows: Sequence[int]):
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        self.n = n
        self._rows = tuple(rows)

    @classmethod
    def empty(cls, n: int) -> "Relation":
        return cls(n, (0,) * n)

    @classmethod
    def identity(cls, n: int) -> "Relation":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        rows = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) outside universe of size {n}")
            rows[i] |= 1 << j
        return cls(n, rows)

    def row(self, i: int) -> int:
        return self._rows[i]

    def pairs(self) -> list[tuple[int, int]]:
        out = []
        for i, row in enumerate(self._rows):
            while row:
                low = row & -row
                out.append((i, low.bit_length() - 1))
                row ^= low
        return out

    def successors(self, i: int) -> list[int]:
        out = []
        row = self._rows[i]
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        return out

    def inverse(self) -> "Relation":
        rows = [0] * self.n
        for i, j in self.pairs():
            rows[j] |= 1 << i
        return Relation(self.n, rows)

    def _zip(self, other: "Relation", op) -> "Relation":
        if not isinstance(other, Relation):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("relations over different universes")
        return Relation(self.n, tuple(op(a, b) for a, b in zip(self._rows, other._rows)))

    def __or__(self, other: "Relation") -> "Relation":
        return self._zip(other, lambda a, b: a | b)

    def __and__(self, other: "Relation") -> "Relation":
        return self._zip(other, lambda a, b: a & b)

    def __sub__(self, other: "Relation") -> "Relation":
        return self._zip(other, lambda a, b: a & ~b)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        return 0 <= i < self.n and 0 <= j < self.n and bool(self._rows[i] >> j & 1)

    def __bool__(self) -> bool:
        return any(self._rows)

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self._rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Relation)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Relation({self.n}, {self.pairs()!r})"


def compose(r1: Relation, r2: Relation) -> Relation:
    """Relational composition r1;r2."""
    if r1.n != r2.n:
        raise ValueError("relations over different universes")
    rows = []
    for i in range(r1.n):
        row, acc = r1.row(i), 0
        while row:
            low = row & -row
            acc |= r2.row(low.bit_length() - 1)
            row ^= low
        rows.append(acc)
    return Relation(r1.n, rows)


def closure(r: Relation, reflexive: bool = False) -> Relation:
    """Transitive closure r+; with reflexive=True, r*."""
    rows = list(r._rows)
    n = r.n
    for k in range(n):
        bit = 1 << k
        rk = rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk
    if reflexive:
        for i in range(n):
            rows[i] |= 1 << i
    return Relation(n, rows)


def check_acyclic(r: Relation) -> Optional[list[int]]:
    """None if r is acyclic, else a cycle as a node list (edges wrap around)."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = [WHITE] * r.n
    for root in range(r.n):
        if color[root] != WHITE:
            continue
        color[root] = GREY
        path = [root]
        iters = [iter(r.successors(root))]
        while iters:
            nxt = next(iters[-1], None)
            if nxt is None:
                color[path.pop()] = BLACK
                iters.pop()
                continue
            if color[nxt] == GREY:
                return path[path.index(nxt):]
            if color[nxt] == WHITE:
                color[nxt] = GREY
                path.append(nxt)
                iters.append(iter(r.successors(nxt)))
    return None


def check_irreflexive(r: Relation) -> Optional[int]:
    """None if no (x, x) is in r, else the least such x."""
    for i in range(r.n):
        if r.row(i) >> i & 1:
            return i
    return None


_SCOPE_KINDS = {
    "R": (MemRead,),
    "W": (MemWrite,),
    "M": (MemRead, MemWrite),
}


def scope_mask(events: Sequence[Event], letter: str) -> int:
    kinds = _SCOPE_KINDS[letter]
    mask = 0
    for e in events:
        if isinstance(e.action, kinds):
            mask |= 1 << e.id
    return mask


def restrict(r: Relation, src: str, tgt: str, events: Sequence[Event]) -> Relation:
    """Keep pairs whose endpoints match the scope letters (R, W or M)."""
    smask = scope_mask(events, src)
    tmask = scope_mask(events, tgt)
    rows = tuple(
        (r.row(i) & tmask) if smask >> i & 1 else 0 for i in range(r.n)
    )
    return Relation(r.n, rows)


def derive_fr(rf: Relation, co: Relation) -> Relation:
    """fr = rf^-1;co : each read before every write co-after its source."""
    return compose(rf.inverse(), co)


def split_scope(r: Relation, events: Sequence[Event]) -> tuple[Relation, Relation]:
    """Split into (internal, external) by thread of the endpoints."""
    thread_ids: dict[str, int] = {}
    for e in events:
        thread_ids[e.thread] = thread_ids.get(e.thread, 0) | (1 << e.id)
    mask_of = [0] * r.n
    for e in events:
        mask_of[e.id] = thread_ids[e.thread]
    internal = Relation(r.n, tuple(r.row(i) & mask_of[i] for i in range(r.n)))
    return internal, r - internal


def same_loc(events: Sequence[Event]) -> Relation:
    """All pairs of distinct memory events on the same location."""
    groups: dict[str, int] = {}
    for e in events:
        if is_mem(e):
            groups.setdefault(e.action.loc, 0)
            groups[e.action.loc] |= 1 << e.id
    rows = [0] * len(events)
    for e in events:
        if is_mem(e):
            rows[e.id] = groups[e.action.loc] & ~(1 << e.id)
    return Relation(len(events), rows)


# ------------------------------------------------------------------ candidate


@dataclass(eq=False)
class Candidate:
    """A candidate execution: events plus po, rf, co and static relations.

    deps maps dependency names (addr, data, ctrl, ctrl+isync, ...) and
    fences maps fence kinds (sync, mfence, ...) to relations over the
    same universe.  Derived relations are cached on first use.
    """

    events: tuple[Event, ...]
    po: Relation
    rf: Relation
    co: Relation
    deps: Mapping[str, Relation]
    fences: Mapping[str, Relation]
    source: Any = None

    @property
    def n(self) -> int:
        return len(self.events)

    @cached_property
    def fr(self) -> Relation:
        return derive_fr(self.rf, self.co)

    @cached_property
    def po_loc(self) -> Relation:
        return self.po & same_loc(self.events)

    @cached_property
    def com(self) -> Relation:
        return self.co | self.rf | self.fr

    @cached_property
    def _rf_split(self) -> tuple[Relation, Relation]:
        return split_scope(self.rf, self.events)

    @cached_property
    def _co_split(self) -> tuple[Relation, Relation]:
        return split_scope(self.co, self.events)

    @cached_property
    def _fr_split(self) -> tuple[Relation, Relation]:
        return split_scope(self.fr, self.events)

    @property
    def rfi(self) -> Relation:
        return self._rf_split[0]

    @property
    def rfe(self) -> Relation:
        return self._rf_split[1]

    @property
    def coi(self) -> Relation:
        return self._co_split[0]

    @property
    def coe(self) -> Relation:
        return self._co_split[1]

    @property
    def fri(self) -> Relation:
        return self._fr_split[0]

    @property
    def fre(self) -> Relation:
        return self._fr_split[1]
