"""Candidate execution enumeration.

A candidate pairs the projected events with one coherence order per
location (init write first) and one reads-from choice per read.  The
enumeration is exhaustive and deterministic: locations in sorted order,
write permutations lexicographically, rf sources in ascending event id,
coherence choices in the outer loop.  Candidates come in chunks of
CHUNK consecutive ones: each chunk packs its candidates' rf, co and fr
once, one bundle each (relation.Bundles), and a candidate is a block of
its chunk.  Each rf choice and each co order is turned into a block's
bytes once per enumeration, so a chunk's rf and co are joins of bytes.

final_outcome compiles a test's final condition once per call, and a
walk over the candidates calls it once: each atom resolves to a
constant, a read or a location's writes, and each key of read values
and co-last writes is formatted and tested once.  count_candidates
counts a test's candidates without enumerating them.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

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
    n, one, (choices, per_loc, links) = t.n, Packing.single(t.n), _space(t)
    co_orders = (one.to_bytes(sum(orders)) for orders in itertools.product(*per_loc))
    picks = ((co, choice) for co in co_orders for choice in choices)
    while block := list(itertools.islice(picks, CHUNK)):
        pack = Packing(n, len(block))
        rf, co = pack.join(rf for _, (_, rf) in block), pack.join(co for co, _ in block)
        chunk = Bundles(pack, rf=rf, co=co, fr=_fr(pack, rf, co, links))
        for j, (_, (events, _)) in enumerate(block):
            yield Candidate(events, t, chunk, j)


def _fr(pack: Packing, rf: int, co: int, links) -> int:
    """fr of packed rf and co: row r of fr is row w of co where r reads w;
    links holds every (w, r) that some candidate's rf has."""
    n, fr, full = pack.n, 0, (1 << pack.n) - 1
    for w, r in links:
        reads_w = (rf >> w * n + r & pack.rep) * full  # row 0 of the blocks where r reads w
        fr |= (co >> w * n & reads_w) << r * n
    return fr


def _space(t: ProjectedTest) -> tuple:
    """t's candidates as (rf choices, co orders, links): per rf choice its
    events and rf bytes, a relation's block (Packing.join); per location
    the bits of each co order; and each (write, read) that some choice's
    rf holds."""
    n, one = t.n, Packing.single(t.n)
    writes_by_loc = {loc: [] for loc in t.locations}
    for e in t.events:
        if is_write(e):
            writes_by_loc[e.action.loc].append(e.id)

    per_loc = []
    for loc in t.locations:
        init, *rest = writes_by_loc[loc]  # init write has the smallest id
        per_loc.append([_order(n, [init, *p]) for p in itertools.permutations(sorted(rest))])
    # per read, (source, the read reading it) for each write it may read
    sources = [
        [(w, Event(r.id, r.thread, r.po_index, MemRead(r.action.loc, t.events[w].action.value)))
         for w in sorted(writes_by_loc[r.action.loc])]
        for r in t.events if is_read(r)
    ]

    choices = []
    for pick in itertools.product(*sources):
        events, rf = list(t.events), 0
        for src, ev in pick:
            events[ev.id] = ev
            rf |= 1 << src * n + ev.id
        choices.append((tuple(events), one.to_bytes(rf)))
    links = [(w, ev.id) for options in sources for w, ev in options]
    return choices, per_loc, links


def _order(n: int, writes: list) -> int:
    """Bits of the total order writes lists: each before all after it."""
    bits = later = 0
    for w in reversed(writes):
        bits |= later << w * n
        later |= 1 << w
    return bits


def final_outcome(t: ProjectedTest):
    """t's final condition as a function giving a candidate's (observed
    state, that state joined by "; ", truth).  The atoms resolve once per
    call; the outcome depends only on its key, the registers' constants or
    read values and the locations' co-last writes, and is made once per
    key."""
    regs = sorted({(a.thread, a.reg) for a in atoms(t.final.cond) if isinstance(a, RegEq)})
    locs = sorted({a.loc for a in atoms(t.final.cond) if isinstance(a, LocEq)})
    sources = [(kind == "const", arg) for kind, arg in map(t.reg_sources.get, regs)]
    writes = [[e.id for e in t.events if is_write(e) and e.action.loc == loc] for loc in locs]
    names = [f"{th}:{reg}=" for th, reg in regs] + [f"{loc}=" for loc in locs]
    n, full, memo = t.n, (1 << t.n) - 1, {}

    def compile_cond(node):
        if isinstance(node, (And, Or)):
            quant = all if isinstance(node, And) else any
            items = [compile_cond(x) for x in node.items]
            return lambda values: quant(item(values) for item in items)
        i = names.index(f"{node.thread}:{node.reg}=" if isinstance(node, RegEq) else f"{node.loc}=")
        return lambda values: values[i] == node.value

    def make(key):
        values = list(key[:len(regs)])
        if None in values:
            read = sources[values.index(None)][1]
            raise ValueError(f"read {read} has no value; not an enumerated candidate?")
        for loc, top in zip(locs, key[len(regs):]):
            if len(top) != 1:
                raise ValueError(f"co on {loc} is not a total order")
            values.append(t.events[top[0]].action.value)
        state = tuple(map("{}{}".format, names, values))
        return state, "; ".join(state), cond(values)

    def outcome(cand):
        key = tuple([arg if const else cand.events[arg].action.value for const, arg in sources])
        if writes:
            co = cand.chunk.blocks("co")[cand.j]
            key += tuple([tuple([w for w in ws if not co >> w * n & full]) for ws in writes])
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
