"""Candidate execution enumeration.

A candidate pairs the projected events with one coherence order per
location (init write first) and one reads-from choice per read.  The
enumeration is exhaustive and deterministic: locations in sorted order,
write permutations lexicographically, rf sources in ascending event id,
coherence choices in the outer loop.
"""

from __future__ import annotations

import itertools
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


def _read_value(cand: Candidate, eid: int) -> int:
    value = cand.events[eid].action.value
    if value is None:
        raise ValueError(f"read {eid} has no value; not an enumerated candidate?")
    return value


def _co_max_value(cand: Candidate, loc: str) -> int:
    writes = [e for e in cand.events if is_write(e) and e.action.loc == loc]
    top = [e for e in writes if not cand.co.successors(e.id)]
    if len(top) != 1:
        raise ValueError(f"co on {loc} is not a total order")
    return top[0].action.value


def _value(cand: Candidate, node) -> int:
    """The value a final-condition atom's register or location has in cand."""
    if isinstance(node, RegEq):
        src = cand.source.reg_sources[(node.thread, node.reg)]
        return src[1] if src[0] == "const" else _read_value(cand, src[1])
    if isinstance(node, LocEq):
        return _co_max_value(cand, node.loc)
    raise TypeError(f"unexpected final node {node!r}")


def observed_state(cand: Candidate) -> tuple:
    """Values of the final condition's observables in this candidate.

    Returns assignment strings like ("T1:r2=1", "T1:r3=0"), registers
    sorted before locations, so equal tuples mean equal outcomes as far
    as the test's condition can tell.
    """
    regs, locs = {}, {}
    for node in atoms(cand.source.final.cond):
        if isinstance(node, RegEq):
            regs[(node.thread, node.reg)] = node
        else:
            locs[node.loc] = node
    return tuple(
        [f"{th}:{reg}={_value(cand, node)}" for (th, reg), node in sorted(regs.items())]
        + [f"{loc}={_value(cand, node)}" for loc, node in sorted(locs.items())]
    )


def evaluate_final(cand: Candidate) -> bool:
    """Truth of the final condition in this candidate."""

    def walk(node) -> bool:
        if isinstance(node, And):
            return all(walk(x) for x in node.items)
        if isinstance(node, Or):
            return any(walk(x) for x in node.items)
        return _value(cand, node) == node.value

    return walk(cand.source.final.cond)
