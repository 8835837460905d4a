"""Candidate execution enumeration.

A candidate pairs the projected events with one coherence order per
location (init write first) and one reads-from choice per read.  The
enumeration is exhaustive and deterministic: locations in sorted order,
write permutations lexicographically, rf sources in ascending event id,
coherence choices in the outer loop.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Iterator

from .litmus import And, Final, LocEq, Or, ProjectedTest, RegEq, atoms
from .relation import Candidate, Relation, check_acyclic, is_read, is_write


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
        orders = [
            [init, *perm] for perm in itertools.permutations(sorted(rest))
        ]
        co_orders_per_loc.append(orders)

    rf_choices_per_read = [
        sorted(writes_by_loc[t.events[r].action.loc]) for r in reads
    ]

    for co_pick in itertools.product(*co_orders_per_loc):
        co_pairs = [
            (order[i], order[j])
            for order in co_pick
            for i in range(len(order))
            for j in range(i + 1, len(order))
        ]
        co = Relation.from_pairs(n, co_pairs)
        for rf_pick in itertools.product(*rf_choices_per_read):
            rf = Relation.from_pairs(n, zip(rf_pick, reads))
            events = list(t.events)
            for src, r in zip(rf_pick, reads):
                ev = events[r]
                events[r] = replace(
                    ev, action=replace(ev.action, value=events[src].action.value)
                )
            yield Candidate(
                events=tuple(events),
                po=t.po,
                rf=rf,
                co=co,
                deps=t.deps,
                fences=t.fences,
                source=t,
            )


def passes_uniproc(cand: Candidate) -> bool:
    """Coherence alone: acyclic(po-loc u com)."""
    return check_acyclic(cand.po_loc | cand.com) is None


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


def observed_state(cand: Candidate, final: Final | None = None) -> tuple:
    """Values of the final condition's observables in this candidate.

    Returns assignment strings like ("T1:r2=1", "T1:r3=0"), registers
    sorted before locations, so equal tuples mean equal outcomes as far
    as the test's condition can tell.
    """
    t: ProjectedTest = cand.source
    if final is None:
        final = t.final
    regs, locs = set(), set()
    for node in atoms(final.cond):
        if isinstance(node, RegEq):
            regs.add((node.thread, node.reg))
        elif isinstance(node, LocEq):
            locs.add(node.loc)
        else:
            raise TypeError(f"unexpected final node {node!r}")
    parts = []
    for thread, reg in sorted(regs):
        src = t.reg_sources[(thread, reg)]
        value = src[1] if src[0] == "const" else _read_value(cand, src[1])
        parts.append(f"{thread}:{reg}={value}")
    for loc in sorted(locs):
        parts.append(f"{loc}={_co_max_value(cand, loc)}")
    return tuple(parts)


def evaluate_final(cand: Candidate, final: Final | None = None) -> bool:
    """Truth of the final condition in this candidate."""
    t: ProjectedTest = cand.source
    if final is None:
        final = t.final

    def atom(node) -> bool:
        if isinstance(node, RegEq):
            src = t.reg_sources[(node.thread, node.reg)]
            if src[0] == "const":
                return src[1] == node.value
            return _read_value(cand, src[1]) == node.value
        if isinstance(node, LocEq):
            return _co_max_value(cand, node.loc) == node.value
        raise TypeError(f"unexpected final node {node!r}")

    def walk(node) -> bool:
        if isinstance(node, And):
            return all(walk(x) for x in node.items)
        if isinstance(node, Or):
            return any(walk(x) for x in node.items)
        return atom(node)

    return walk(final.cond)
