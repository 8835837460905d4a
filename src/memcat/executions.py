"""Candidate execution enumeration.

A candidate pairs the projected events with one coherence order per
location (init write first) and one reads-from choice per read.  The
enumeration is exhaustive and deterministic: locations in sorted order,
write permutations lexicographically, rf sources in ascending event id,
coherence choices in the outer loop.

A test's final condition is compiled once per test: each atom resolves
to a constant, a read or a location's writes, so a candidate pays only
for its read values and co-last writes.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Iterator

from .litmus import And, LocEq, Or, ProjectedTest, RegEq, atoms
from .relation import Candidate, Event, MemRead, Relation, is_read, is_write


def enumerate_candidates(t: ProjectedTest) -> Iterator[Candidate]:
    n = t.n
    writes_by_loc = {loc: [] for loc in t.locations}
    for e in t.events:
        if is_write(e):
            writes_by_loc[e.action.loc].append(e.id)
    reads = [e.id for e in t.events if is_read(e)]

    co_orders_per_loc = []
    for loc in t.locations:
        init, *rest = writes_by_loc[loc]  # init write has the smallest id
        co_orders_per_loc.append([[init, *p] for p in itertools.permutations(sorted(rest))])
    rf_choices_per_read = [sorted(writes_by_loc[t.events[r].action.loc]) for r in reads]

    choices = []  # per rf choice: its events, rf and (source, read) links
    for rf_pick in itertools.product(*rf_choices_per_read):
        events, rf, links = list(t.events), 0, tuple(zip(rf_pick, reads))
        for src, r in links:
            ev, value = t.events[r], t.events[src].action.value
            events[r] = Event(r, ev.thread, ev.po_index, MemRead(ev.action.loc, value))
            rf |= 1 << src * n + r
        choices.append((tuple(events), Relation(n, rf), links))

    for co_pick in itertools.product(*co_orders_per_loc):
        pairs = (p for order in co_pick for p in itertools.combinations(order, 2))
        co = Relation.from_pairs(n, pairs)
        for events, rf, links in choices:
            # row r of fr is row src of co: r reads before every write co-after src
            fr = sum(co.row(src) << r * n for src, r in links)
            yield Candidate(
                events=events,
                po=t.po,
                rf=rf,
                co=co,
                fr=Relation(n, fr),
                deps=t.deps,
                fences=t.fences,
                source=t,
            )


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


def _read_value(cand: Candidate, eid: int) -> int:
    value = cand.events[eid].action.value
    if value is None:
        raise ValueError(f"read {eid} has no value; not an enumerated candidate?")
    return value


def _co_last_value(cand: Candidate, loc: str, writes: tuple) -> int:
    top = [w for w in writes if not cand.co.row(w)]
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
def _final(t: ProjectedTest):
    """(observed state, truth) of t's final condition, as functions of a
    candidate; each atom is resolved once per test."""
    regs, locs = {}, {}
    for node in atoms(t.final.cond):
        if isinstance(node, RegEq):
            regs[(node.thread, node.reg)] = node
        else:
            locs[node.loc] = node
    shown = [(f"{th}:{reg}=", _atom(t, node)) for (th, reg), node in sorted(regs.items())]
    shown += [(f"{loc}=", _atom(t, node)) for loc, node in sorted(locs.items())]

    def compile_cond(node):
        if isinstance(node, (And, Or)):
            quant = all if isinstance(node, And) else any
            items = [compile_cond(x) for x in node.items]
            return lambda cand: quant(item(cand) for item in items)
        value, want = _atom(t, node), node.value
        return lambda cand: value(cand) == want

    return (
        lambda cand: tuple(f"{key}{value(cand)}" for key, value in shown),
        compile_cond(t.final.cond),
    )


def observed_state(cand: Candidate) -> tuple:
    """Values of the final condition's observables in this candidate.

    Returns assignment strings like ("T1:r2=1", "T1:r3=0"), registers
    sorted before locations, so equal tuples mean equal outcomes as far
    as the test's condition can tell.
    """
    return _final(cand.source)[0](cand)


def evaluate_final(cand: Candidate) -> bool:
    """Truth of the final condition in this candidate."""
    return _final(cand.source)[1](cand)
