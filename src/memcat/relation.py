"""Finite binary relations over dense event ids, stored as one int.

Everything downstream (execution enumeration, model evaluation, the
operational machine) works on relations over a fixed universe
{0, ..., n-1} of event ids, so a relation is one n*n-bit int whose bit
i*n+j encodes membership of (i, j): row i is bits i*n ... i*n+n-1.  A
bundle packs many such relations into one int, one block each
(Packing), so one int operation acts on all of them; Bundles holds a
chunk of consecutive candidates' bundles by name, and a Candidate is
one block of its chunk.  The layout stays inside this module and
executions.enumerate_candidates, which lays each chunk's rf and co out
itself, as Packing.single(n).size-byte blocks end to end.  All
operations return fresh relations; instances are immutable and hashable.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:
    from .litmus import ProjectedTest


# --------------------------------------------------------------------- events


class Record:
    """Dataclass value semantics, the fields being the __slots__ of a class
    and its bases: equal to a record of its class whose fields but those
    named in uncompared are equal (with eq=False, only to itself), hashed
    by those, shown Class(field=value, ...)."""

    __slots__ = ()

    def __init_subclass__(cls, eq: bool = True, uncompared: tuple = ()):
        super().__init_subclass__()
        slots = (f for c in reversed(cls.__mro__) for f in vars(c).get("__slots__", ()))
        cls._fields = tuple(f for f in slots if f != "__dict__")
        cls._key = attrgetter("__class__", *(f for f in cls._fields if f not in uncompared))
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class MemRead(Record):
    __slots__ = ("loc", "value")

    def __init__(self, loc: str, value: Optional[int] = None):
        self.loc, self.value = loc, value


class MemWrite(Record):
    __slots__ = ("loc", "value")

    def __init__(self, loc: str, value: int):
        self.loc, self.value = loc, value


Action = Union[MemRead, MemWrite]


class Event(Record):
    """A single labelled node; id doubles as its index in the universe."""

    __slots__ = ("id", "thread", "po_index", "action")

    def __init__(self, id: int, thread: str, po_index: int, action: Action):
        self.id, self.thread = id, thread
        self.po_index, self.action = po_index, action


def is_read(event: Event) -> bool:
    return isinstance(event.action, MemRead)


def is_write(event: Event) -> bool:
    return isinstance(event.action, MemWrite)


# ------------------------------------------------------------------ relations


def _universe(r1: "Relation", r2: "Relation") -> int:
    if r1.n != r2.n:
        raise ValueError("relations over different universes")
    return r1.n


class Relation:
    """Immutable binary relation over {0, ..., n-1}."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        if bits < 0 or bits >> n * n:
            raise ValueError(f"bits outside the universe of size {n}")
        self.n = n
        self.bits = bits

    @classmethod
    def empty(cls, n: int) -> "Relation":
        return cls(n, 0)

    @classmethod
    def identity(cls, n: int) -> "Relation":
        return cls(n, Packing.single(n).diag)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        bits = 0
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) outside universe of size {n}")
            bits |= 1 << i * n + j
        return cls(n, bits)

    def row(self, i: int) -> int:
        return self.bits >> i * self.n & (1 << self.n) - 1

    def pairs(self) -> list[tuple[int, int]]:
        out, bits = [], self.bits
        while bits:
            low = bits & -bits
            out.append(divmod(low.bit_length() - 1, self.n))
            bits ^= low
        return out

    def successors(self, i: int) -> list[int]:
        out = []
        row = self.row(i)
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        return out

    def inverse(self) -> "Relation":
        bits = 0
        for i, j in self.pairs():
            bits |= 1 << j * self.n + i
        return Relation(self.n, bits)

    def __or__(self, other: "Relation") -> "Relation":
        if not isinstance(other, Relation):
            return NotImplemented
        return Relation(_universe(self, other), self.bits | other.bits)

    def __and__(self, other: "Relation") -> "Relation":
        if not isinstance(other, Relation):
            return NotImplemented
        return Relation(_universe(self, other), self.bits & other.bits)

    def __sub__(self, other: "Relation") -> "Relation":
        if not isinstance(other, Relation):
            return NotImplemented
        return Relation(_universe(self, other), self.bits & ~other.bits)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        return 0 <= i < self.n and 0 <= j < self.n and bool(self.bits >> i * self.n + j & 1)

    def __bool__(self) -> bool:
        return bool(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relation) and self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"Relation({self.n}, {self.pairs()!r})"


class Packing:
    """The layout of a bundle: m relations over {0, ..., n-1} in one int,
    relation j at bit j*8*size on, size bytes each.  rep has bit 0 of
    every block, so bits * rep repeats one relation in every block.  |, &
    and a & ~b act blockwise on bundles as they are; compose and closure
    act blockwise here, each step ANDing a broadcast column with a
    broadcast row, and skipping a step whose column or row is empty in
    every block.  Packing.single(n) lays out one relation."""

    __slots__ = ("n", "m", "size", "rep", "col0", "cols", "rows", "diag", "low")

    def __init__(self, n: int, m: int):
        self.n, self.m, self.size = n, m, n * n // 8 + 1
        self.rep = int.from_bytes((b"\1" + bytes(self.size - 1)) * m, "little")
        self.col0 = sum(1 << i * n for i in range(n))  # column 0 of one block
        self.cols, self.rows = self.col0 * self.rep, ((1 << n) - 1) * self.rep
        self.diag = sum(1 << i * (n + 1) for i in range(n)) * self.rep
        self.low = (self.rep << n * n) - self.rep  # every block's n*n relation bits

    @staticmethod
    @lru_cache(maxsize=None)
    def single(n: int) -> "Packing":
        return Packing(n, 1)

    def compose(self, a: int, b: int) -> int:
        """Bits of a;b."""
        if not a or not b:
            return 0
        n, cols, rows, acc, full = self.n, self.cols, self.rows, 0, (1 << self.n) - 1
        for k in range(n):  # steps whose column of a or row of b is empty add nothing
            col = a >> k & cols
            if col:
                row = b >> k * n & rows
                if row:  # copy row k of b into every row of a that has bit k
                    acc |= col * full & row * self.col0
        return acc

    def closure(self, bits: int, reflexive: bool = False) -> int:
        """Bits of r+ (with reflexive=True, r*) for r given by its bits."""
        n, cols, rows, full = self.n, self.cols, self.rows, (1 << self.n) - 1
        for k in range(n if bits else 0):  # Warshall: every row with bit k gains row k
            col = bits >> k & cols
            if col:
                row = bits >> k * n & rows
                if row:
                    bits |= col * full & row * self.col0
        return bits | self.diag if reflexive else bits

    def domain(self, bits: int) -> int:
        """Bits of (i, i) for each i that has a pair (i, j)."""
        acc = 0
        for j in range(self.n):  # gather every column into column 0
            acc |= bits >> j & self.cols
        return acc * ((1 << self.n) - 1) & self.diag

    def codomain(self, bits: int) -> int:
        """Bits of (j, j) for each j that has a pair (i, j)."""
        acc = 0
        for i in range(self.n):  # gather every row into row 0
            acc |= bits >> i * self.n & self.rows
        return acc * self.col0 & self.diag

    def loops(self, bits: int) -> bytes:
        """Byte j is nonzero iff relation j has a pair (i, i): adding the
        n*n relation bits to a block's diagonal carries into its spare bit
        n*n exactly when the diagonal is not empty, and never past it (a
        block has 8*size > n*n bits); one shift takes that bit to bit 0."""
        carried = ((bits & self.diag) + self.low) >> self.n * self.n
        return self.to_bytes(carried & self.rep)[::self.size]

    def to_bytes(self, bundle: int) -> bytes:
        return bundle.to_bytes(self.m * self.size, "little")

    def join(self, blocks: Iterable[bytes]) -> int:
        """The bundle of relations given as their bytes, in block order;
        Packing.single(n).to_bytes(bits) gives one relation's bytes."""
        return int.from_bytes(b"".join(blocks), "little")

    def split(self, bundle: int) -> list:
        """Each relation's bits, in block order."""
        buf, size = self.to_bytes(bundle), self.size
        return [int.from_bytes(buf[i:i + size], "little") for i in range(0, len(buf), size)]


def compose(r1: Relation, r2: Relation) -> Relation:
    """Relational composition r1;r2."""
    return Relation(_universe(r1, r2), Packing.single(r1.n).compose(r1.bits, r2.bits))


def closure(r: Relation, reflexive: bool = False) -> Relation:
    """Transitive closure r+; with reflexive=True, r*."""
    return Relation(r.n, Packing.single(r.n).closure(r.bits, reflexive))


def check_acyclic(r: Relation) -> Optional[list[int]]:
    """None if r is acyclic, else a shortest cycle through the least node
    on any cycle, as a node list starting there (edges wrap around)."""
    start = check_irreflexive(closure(r))
    if start is None:
        return None
    n, bits, full = r.n, r.bits, (1 << r.n) - 1
    parent = {start: start}
    frontier, seen = [start], 1 << start
    while True:  # breadth first; start is on a cycle, so a row reaches it
        ahead = []
        for u in frontier:
            row = bits >> u * n & full
            if row >> start & 1:
                cycle = [u]
                while cycle[-1] != start:
                    cycle.append(parent[cycle[-1]])
                return cycle[::-1]
            row &= ~seen
            seen |= row
            while row:
                v = (row & -row).bit_length() - 1
                row &= row - 1
                parent[v] = u
                ahead.append(v)
        frontier = ahead


def check_irreflexive(r: Relation) -> Optional[int]:
    """None if no (x, x) is in r, else the least such x."""
    loops = r.bits & Packing.single(r.n).diag
    if not loops:
        return None
    return ((loops & -loops).bit_length() - 1) // (r.n + 1)


_SCOPE_KINDS = {
    "R": (MemRead,),
    "W": (MemWrite,),
    "M": (MemRead, MemWrite),
}


def direction_mask(n: int, events: Sequence[Event], src: str, tgt: str) -> int:
    """Bits of every pair whose endpoints match the scope letters (R, W or M)."""
    srcs, tgts = _SCOPE_KINDS[src], _SCOPE_KINDS[tgt]
    tmask = sum(1 << e.id for e in events if isinstance(e.action, tgts))
    return sum(tmask << e.id * n for e in events if isinstance(e.action, srcs))


def restrict(r: Relation, src: str, tgt: str, events: Sequence[Event]) -> Relation:
    """Keep pairs whose endpoints match the scope letters (R, W or M)."""
    return Relation(r.n, r.bits & direction_mask(r.n, events, src, tgt))


# ------------------------------------------------------------------ candidate


class Bundles(dict):
    """Bundles by name of consecutive candidates of one test, laid out by
    pack; each is split into its blocks once, when first sliced."""

    def __init__(self, pack: Packing, **bundles: int):
        super().__init__(bundles)
        self.pack, self._blocks = pack, {}

    def blocks(self, name: str) -> list:
        """Each candidate's bits of name, in block order."""
        got = self._blocks.get(name)
        if got is None:
            got = self._blocks[name] = self.pack.split(self[name])
        return got

    def relation(self, name: str, j: int) -> Relation:
        return Relation(self.pack.n, self.blocks(name)[j])


class Candidate(Record, eq=False):
    """A candidate execution: its events, each read's value filled in, and
    block j of chunk, which holds its rf, co and fr.

    source is the projected test; po, po-loc, deps (addr, data, ctrl,
    ctrl+isync, ...), fences (sync, mfence, ...) and the same-thread
    relation that splits rf into internal and external parts are its
    fields, built once per test.
    """

    __slots__ = ("events", "source", "chunk", "j")

    def __init__(self, events: tuple, source: "ProjectedTest", chunk: Bundles, j: int):
        self.events, self.source = events, source
        self.chunk, self.j = chunk, j

    po = property(attrgetter("source.po"))
    po_loc = property(attrgetter("source.po_loc"))
    deps = property(attrgetter("source.deps"))
    fences = property(attrgetter("source.fences"))
    rf = property(lambda self: self.chunk.relation("rf", self.j))
    co = property(lambda self: self.chunk.relation("co", self.j))
    fr = property(lambda self: self.chunk.relation("fr", self.j))

    @property
    def n(self) -> int:
        return len(self.events)

    @property
    def rfe(self) -> Relation:
        return self.rf - self.source.same_thread
