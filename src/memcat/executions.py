"""Candidate execution enumeration.

A candidate pairs the projected events with one coherence order per
location (init write first) and one reads-from choice per read.  The
enumeration is exhaustive and deterministic: locations in sorted order,
write permutations lexicographically, rf sources in ascending event id,
coherence choices in the outer loop.  Candidates come in chunks of
CHUNK consecutive ones: each chunk packs its candidates' rf, co and fr
once, one bundle each (relation.Bundles), and a candidate is a block of
its chunk.  The tables are built once per enumeration (_space): per rf
choice its events and rf bytes, per co order its co bytes; a chunk's rf
and co are slices of those bytes laid end to end, in candidate order.

final_outcome compiles a test's final condition once per call and reads
each candidate's register values from its events and each location's
value from its co-last write, so a walk over the candidates formats each
distinct state and tests the condition on it once.  count_candidates
counts a test's candidates without enumerating them.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, NamedTuple

from .litmus import And, LocEq, Or, ProjectedTest, RegEq, atoms
from .relation import Bundles, Candidate, Event, MemRead, Packing, is_read, is_write


# consecutive candidates enumeration packs together, one bundle per
# relation; a bound model evaluates each chunk once
CHUNK = 256

# the default cap on a test's candidates for run and compare: above every
# bundled and benchmark test, below the factorial blow-up of a few more
# writes per location
MAX_CANDIDATES = 100_000


def count_candidates(t: ProjectedTest) -> int:
    """How many candidates enumerate_candidates(t) yields, counted without
    enumerating: per location the orders of its non-init writes, times per
    read the writes to its location."""
    writes, count = dict.fromkeys(t.locations, 0), 1
    for e in t.events:
        if is_write(e):
            writes[e.action.loc] += 1
    for e in t.events:
        count *= writes[e.action.loc] if is_read(e) else 1
    return count * math.prod(math.factorial(k - 1) for k in writes.values())


def enumerate_candidates(t: ProjectedTest) -> Iterator[Candidate]:
    space, size = _space(t), Packing.single(t.n).size
    width = len(space.rf)
    total = len(space.co) * width
    # candidate k pairs co order k // width with rf choice k % width: the
    # blocks of every candidate's rf and co, in candidate order
    rfs, cos = b"".join(space.rf) * len(space.co), b"".join([co * width for co in space.co])
    events = itertools.cycle(space.events)
    for first in range(0, total, CHUNK):
        pack = Packing(t.n, min(CHUNK, total - first))
        start, end = first * size, (first + pack.m) * size
        rf, co = pack.join([rfs[start:end]]), pack.join([cos[start:end]])
        chunk = Bundles(pack, rf=rf, co=co, fr=_fr(pack, rf, co, space.links))
        yield from map(Candidate, itertools.islice(events, pack.m), itertools.repeat(t),
                       itertools.repeat(chunk), range(pack.m))


def _fr(pack: Packing, rf: int, co: int, links) -> int:
    """fr of packed rf and co: row r of fr is row w of co where r reads w;
    links holds every (w, r) that some candidate's rf has."""
    n, fr, full = pack.n, 0, (1 << pack.n) - 1
    for w, r in links:
        reads_w = (rf >> w * n + r & pack.rep) * full  # row 0 of the blocks where r reads w
        fr |= (co >> w * n & reads_w) << r * n
    return fr


class _Space(NamedTuple):
    """A test's candidates, as tables: per rf choice its events and its rf
    bytes, a relation's block (Packing.join); per co order its co bytes;
    and each (write, read) that some choice's rf holds."""

    events: list
    rf: list
    co: list
    links: list


def _space(t: ProjectedTest) -> _Space:
    """t's candidates as tables, each row built once."""
    n, size = t.n, Packing.single(t.n).size
    writes_by_loc = {loc: [] for loc in t.locations}
    for e in t.events:
        if is_write(e):
            writes_by_loc[e.action.loc].append(e.id)

    # the init write has the smallest id
    orders = [_orders(n, writes_by_loc[loc]) for loc in t.locations]
    # per read, the read reading each write it may read and that rf pair's
    # bit; a choice's events are t's followed by its picks, the reads taken
    # from slot (t has at least two events)
    picks, bits, links, slot = [], [], [], list(range(n))
    for r in t.events:
        if is_read(r):
            loc, ws = r.action.loc, writes_by_loc[r.action.loc]
            picks.append([Event(r.id, r.thread, r.po_index, MemRead(loc, t.events[w].action.value))
                          for w in ws])
            bits.append([1 << w * n + r.id for w in ws])
            links += [(w, r.id) for w in ws]
            slot[r.id] = n + len(picks) - 1
    return _Space(
        list(map(operator.itemgetter(*slot), map(t.events.__add__, itertools.product(*picks)))),
        _to_bytes(map(sum, itertools.product(*bits)), size),
        _to_bytes(map(sum, itertools.product(*orders)), size),
        links,
    )


def _to_bytes(relations, size: int) -> list:
    """Each relation's bytes, size bytes each (a block of a Packing)."""
    return list(map(int.to_bytes, relations, itertools.repeat(size), itertools.repeat("little")))


def _orders(n: int, writes: list) -> list:
    """The bits of each total order of writes, given ascending, that
    starts with writes[0], the others in lexicographic order.  An order's
    bits extend its prefix's, made once per prefix: each write comes
    before all the writes left after it."""
    bits = []

    def place(acc, w, left, later):  # w next, then left, whose bits are later
        acc |= later << w * n
        if len(left) == 2:  # the last two, either way round
            a, b = left
            bits.extend((acc | 1 << a * n + b, acc | 1 << b * n + a))
        elif len(left) < 2:
            bits.append(acc)
        else:
            for i, v in enumerate(left):
                place(acc, v, left[:i] + left[i + 1:], later ^ 1 << v)

    place(0, writes[0], tuple(writes[1:]), sum(1 << v for v in writes[1:]))
    return bits


def final_outcome(t: ProjectedTest):
    """t's final condition as a function giving a candidate's (observed
    state, that state joined by "; ", truth).  The atoms resolve once per
    call.  A register's value is its constant or its read's value in the
    candidate's events, a location's that of its one write with no
    co-successor; the outcome is made once per distinct state."""
    regs = sorted({(a.thread, a.reg) for a in atoms(t.final.cond) if isinstance(a, RegEq)})
    locs = sorted({a.loc for a in atoms(t.final.cond) if isinstance(a, LocEq)})
    sources = [(kind == "const", arg) for kind, arg in map(t.reg_sources.get, regs)]
    writes = [[e.id for e in t.events if is_write(e) and e.action.loc == loc] for loc in locs]
    values = [e.action.value for e in t.events]  # each write's value
    names = [f"{th}:{reg}=" for th, reg in regs] + [f"{loc}=" for loc in locs]
    n, full, memo = t.n, (1 << t.n) - 1, {}  # outcomes by state

    def compile_cond(node):
        if isinstance(node, (And, Or)):
            quant = all if isinstance(node, And) else any
            items = [compile_cond(x) for x in node.items]
            return lambda values: quant(item(values) for item in items)
        i = names.index(f"{node.thread}:{node.reg}=" if isinstance(node, RegEq) else f"{node.loc}=")
        return lambda values: values[i] == node.value

    def make(key):
        state = tuple(map("{}{}".format, names, key))
        return state, "; ".join(state), cond(key)

    def outcome(cand):
        events = cand.events
        key = [arg if const else events[arg].action.value for const, arg in sources]
        if writes:
            co = cand.chunk.blocks("co")[cand.j]
            key += [values[w] for ws in writes for w in ws if not co >> w * n & full]
        key = tuple(key)
        # the memo hits on most passing candidates of wide tests, though on no suite test
        return memo.get(key) or memo.setdefault(key, make(key))

    cond = compile_cond(t.final.cond)
    return outcome


def observed_state(cand: Candidate) -> tuple:
    """Values of the final condition's observables in this candidate.

    Returns assignment strings like ("T1:r2=1", "T1:r3=0"), registers
    sorted before locations, so equal tuples mean equal outcomes as far
    as the test's condition can tell.
    """
    return final_outcome(cand.source)(cand)[0]


def evaluate_final(cand: Candidate) -> bool:
    """Truth of the final condition in this candidate."""
    return final_outcome(cand.source)(cand)[2]
