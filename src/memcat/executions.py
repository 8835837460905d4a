"""Candidate execution enumeration.

A candidate pairs the projected events with one coherence order per
location (init write first) and one reads-from choice per read.  The
enumeration is exhaustive and deterministic: locations in sorted order,
write permutations lexicographically, rf sources in ascending event id,
coherence choices in the outer loop.  Candidates come in chunks of
CHUNK consecutive ones: each chunk packs its candidates' rf, co and fr
once, one bundle each (relation.Bundles), and a candidate is a block of
its chunk.  Each rf choice is turned into a block's bytes once per test
and each co order once per enumeration, so a chunk's rf and co are joins
of bytes.

A test's final condition is compiled once per test: each atom resolves
to a constant, a read or a location's writes, so a candidate pays only
for its read values and co-last writes.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Iterator

from .litmus import And, LocEq, Or, ProjectedTest, RegEq, atoms
from .relation import Bundles, Candidate, Event, MemRead, Packing, is_read, is_write


# consecutive candidates enumeration packs together, one bundle per
# relation; a bound model evaluates each chunk once
CHUNK = 256


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


def per_test(build):
    """Memoise build(t) on the last test it was called with, by identity.

    Candidates come test by test, so one entry serves every candidate of
    a test; the pair is replaced whole, so a reader never sees a test
    with another test's value.
    """
    last = [(None, None)]

    def cached(t):
        pair = last[0]
        if pair[0] is not t:
            pair = last[0] = (t, build(t))
        return pair[1]

    return cached


@per_test
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


def _read_value(cand: Candidate, eid: int) -> int:
    value = cand.events[eid].action.value
    if value is None:
        raise ValueError(f"read {eid} has no value; not an enumerated candidate?")
    return value


def _co_last_value(cand: Candidate, loc: str, writes: tuple) -> int:
    co = cand.co
    top = [w for w in writes if not co.row(w)]
    if len(top) != 1:
        raise ValueError(f"co on {loc} is not a total order")
    return cand.events[top[0]].action.value


def _atom(t: ProjectedTest, node):
    """A function giving a final atom's register or location value in a
    candidate of t: a constant, a read's value or the co-last write's."""
    if isinstance(node, RegEq):
        kind, arg = t.reg_sources[(node.thread, node.reg)]
        return (lambda cand: arg) if kind == "const" else partial(_read_value, eid=arg)
    if isinstance(node, LocEq):
        writes = tuple(e.id for e in t.events if is_write(e) and e.action.loc == node.loc)
        return partial(_co_last_value, loc=node.loc, writes=writes)
    raise TypeError(f"unexpected final node {node!r}")


@per_test
def final_outcome(t: ProjectedTest):
    """t's final condition as a function giving a candidate's (observed
    state, truth), reading each value once; atoms resolve once per test."""
    regs = {(a.thread, a.reg): a for a in atoms(t.final.cond) if isinstance(a, RegEq)}
    locs = {a.loc: a for a in atoms(t.final.cond) if isinstance(a, LocEq)}
    shown = [(f"{th}:{reg}=", _atom(t, node)) for (th, reg), node in sorted(regs.items())]
    shown += [(f"{loc}=", _atom(t, node)) for loc, node in sorted(locs.items())]

    def compile_cond(node):
        if isinstance(node, (And, Or)):
            quant = all if isinstance(node, And) else any
            items = [compile_cond(x) for x in node.items]
            return lambda values: quant(item(values) for item in items)
        key = f"{node.thread}:{node.reg}=" if isinstance(node, RegEq) else f"{node.loc}="
        return lambda values: values[key] == node.value

    def outcome(cand):
        values = {key: value(cand) for key, value in shown}
        return tuple(f"{key}{value}" for key, value in values.items()), cond(values)

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
    return final_outcome(cand.source)(cand)[1]
