"""Static critical-cycle mining over thread programs.

Works on the program text alone, no enumeration: accesses compete when
they hit the same location from different threads and one of them
writes.  Cycles alternating program order with competing accesses are
mined from the (cmp | po) digraph by a search that stops a path at the
first access breaking either minimality restriction (at most two
accesses per thread, on distinct locations; at most three accesses per
location, from distinct threads), reduced by collapsing communication
chains to their extremities, named by per-thread access digrams, and
attributed to the axiom that would have to fail for the cycle to run.

Competing edges are resolved by their endpoints: write-to-read is a
read-from, read-to-write a from-read, write-to-write a coherence edge.
The five same-location coherence shapes cannot alternate po and cmp
(their po step stays on one location), so they are matched directly on
each thread's same-location access pairs and reported alongside the
critical cycles.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .litmus import ALL_FENCE_KINDS, ProjectedTest
from .relation import is_write


class ThrError(Exception):
    pass


_DEP_KINDS = ("addr", "data", "ctrl", "ctrl+isync", "ctrl+isb")

# preference when several fences separate the same access pair
_FENCE_RANK = (
    "sync", "dmb", "dsb", "mfence",
    "lwsync", "dmb.st", "dsb.st", "eieio",
    "isync", "isb",
)

_PO_FAMILY = ("po", "fence", "dp")


@dataclass(frozen=True)
class StaticAccess:
    uid: int
    thread: str
    po_index: int
    direction: str  # "R" | "W"
    location: str


@dataclass(frozen=True)
class Edge:
    kind: str  # po | fence | dp | rf | fr | co
    detail: Optional[str]  # fence or dependency kind on po-family edges
    external: bool


@dataclass(frozen=True)
class LabeledCycle:
    """edges[i] connects accesses[i] to accesses[(i+1) % n]."""

    accesses: tuple
    edges: tuple
    critical: bool


@dataclass(frozen=True)
class PatternName:
    systematic: str
    classic: Optional[str]
    name: str


@dataclass(frozen=True)
class Program:
    name: str
    accesses: tuple
    fence_between: dict  # (uid, uid) -> strongest fence kind separating them
    dep_between: dict  # (uid, uid) -> dependency kind, exact endpoints


# -------------------------------------------------------------------- inputs


_ACCESS_RE = re.compile(r"^([RW])([a-z]\w*)$")
_LINE_RE = re.compile(r"^(\w+)\s*:\s*(.*)$")


def parse_thr(text: str, name: str = "thr") -> Program:
    accesses = []
    fence_between = {}
    dep_between = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ThrError(f"line {lineno}: expected '<thread>: <accesses>'")
        thread, rest = m.group(1), m.group(2)
        if thread in seen:
            raise ThrError(f"line {lineno}: duplicate thread {thread}")
        seen.add(thread)
        row = []
        gaps = []  # one annotation slot between consecutive accesses
        pending = None
        for tok in rest.split():
            if _ACCESS_RE.match(tok):
                if row:
                    gaps.append(pending)
                    pending = None
                row.append((tok[0], tok[1:]))
            elif tok in ALL_FENCE_KINDS or tok in _DEP_KINDS:
                if not row:
                    raise ThrError(f"line {lineno}: {tok} before any access")
                if pending is not None:
                    raise ThrError(f"line {lineno}: two annotations in a row")
                pending = tok
            else:
                raise ThrError(f"line {lineno}: cannot parse token {tok!r}")
        if pending is not None:
            raise ThrError(f"line {lineno}: trailing annotation on {thread}")
        if not row:
            raise ThrError(f"line {lineno}: thread {thread} has no accesses")
        base = len(accesses)
        for idx, (d, loc) in enumerate(row):
            accesses.append(StaticAccess(base + idx, thread, idx, d, loc))
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                kinds = [
                    g for g in gaps[i:j] if g is not None and g not in _DEP_KINDS
                ]
                if kinds:
                    fence_between[(base + i, base + j)] = min(
                        kinds, key=_FENCE_RANK.index
                    )
        for i, g in enumerate(gaps):
            if g in _DEP_KINDS:
                dep_between[(base + i, base + i + 1)] = g
    if not accesses:
        raise ThrError("no threads declared")
    return Program(name, tuple(accesses), fence_between, dep_between)


def program_from_litmus(t: ProjectedTest) -> Program:
    init = set(t.init_ids)
    uid_of = {}
    accesses = []
    counters = {}
    for e in t.events:
        if e.id in init:
            continue
        idx = counters.get(e.thread, 0)
        counters[e.thread] = idx + 1
        uid_of[e.id] = len(accesses)
        accesses.append(
            StaticAccess(
                len(accesses),
                e.thread,
                idx,
                "W" if is_write(e) else "R",
                e.action.loc,
            )
        )
    fence_between = {}
    for kind in ALL_FENCE_KINDS:
        for a, b in t.fences[kind].pairs():
            pair = (uid_of[a], uid_of[b])
            cur = fence_between.get(pair)
            if cur is None or _FENCE_RANK.index(kind) < _FENCE_RANK.index(cur):
                fence_between[pair] = kind
    dep_between = {}
    for kind in ("addr", "data", "ctrl+isync", "ctrl+isb", "ctrl"):
        for a, b in t.deps[kind].pairs():
            dep_between.setdefault((uid_of[a], uid_of[b]), kind)
    return Program(t.name, tuple(accesses), fence_between, dep_between)


# --------------------------------------------------------------- enumeration


def _edge_between(a: StaticAccess, b: StaticAccess, program: Program) -> Edge:
    if a.thread == b.thread:
        pair = (a.uid, b.uid)
        if pair in program.fence_between:
            return Edge("fence", program.fence_between[pair], False)
        if pair in program.dep_between:
            return Edge("dp", program.dep_between[pair], False)
        return Edge("po", None, False)
    if a.direction == "W" and b.direction == "R":
        return Edge("rf", None, True)
    if a.direction == "R" and b.direction == "W":
        return Edge("fr", None, True)
    return Edge("co", None, True)


def _canonical(accesses: list, edges: list, critical: bool) -> LabeledCycle:
    k = min(range(len(accesses)), key=lambda i: accesses[i].uid)
    return LabeledCycle(
        tuple(accesses[k:]) + tuple(accesses[:k]),
        tuple(edges[k:]) + tuple(edges[:k]),
        critical,
    )


def thread_condition(cycle: LabeledCycle) -> bool:
    """Per thread at most two accesses, on distinct locations."""
    per = {}
    for a in cycle.accesses:
        per.setdefault(a.thread, []).append(a)
    return all(
        len(accs) <= 2 and len({x.location for x in accs}) == len(accs)
        for accs in per.values()
    )


def location_condition(cycle: LabeledCycle) -> bool:
    """Per location at most three accesses, from distinct threads."""
    per = {}
    for a in cycle.accesses:
        per.setdefault(a.location, []).append(a)
    return all(
        len(accs) <= 3 and len({x.thread for x in accs}) == len(accs)
        for accs in per.values()
    )


def _sort_key(cycle: LabeledCycle):
    return (len(cycle.accesses), tuple(a.uid for a in cycle.accesses))


def find_critical_cycles(program: Program) -> list:
    by_uid = {a.uid: a for a in program.accesses}
    threads = {}
    for a in program.accesses:
        threads.setdefault(a.thread, []).append(a)
    by_loc = {}
    for a in program.accesses:
        by_loc.setdefault(a.location, []).append(a)

    succs = {u: [] for u in by_uid}
    for accs in threads.values():
        for i, a in enumerate(accs):
            succs[a.uid] += [b.uid for b in accs[i + 1 :]]
    for accs in by_loc.values():
        for i, a in enumerate(accs):
            for b in accs[i + 1 :]:
                if a.thread != b.thread and "W" in (a.direction, b.direction):
                    succs[a.uid].append(b.uid)
                    succs[b.uid].append(a.uid)

    found = []
    for accs in _simple_cycles(succs, by_uid):
        if len({a.location for a in accs}) < 2:
            continue
        edges = [
            _edge_between(accs[i], accs[(i + 1) % len(accs)], program)
            for i in range(len(accs))
        ]
        # each cycle starts at its least uid, so it is already canonical
        found.append(LabeledCycle(tuple(accs), tuple(edges), True))
    found.sort(key=_sort_key)
    return found + _coherence_shapes(program, threads, by_loc)


def _simple_cycles(succs: dict, by_uid: dict):
    """Each simple cycle that keeps both minimality conditions once.

    A cycle comes out as its accesses, from its least uid.  A path stops
    growing at the first access that breaks the thread or the location
    condition: every prefix of a cycle that keeps them keeps them too,
    so no cycle is lost, and a path holds at most two accesses a thread.
    """
    for start in sorted(succs):
        path, todo = [by_uid[start]], [iter(succs[start])]
        while todo:
            v = next(todo[-1], None)
            if v is None:
                todo.pop()
                path.pop()
            elif v == start:
                yield list(path)
            elif v > start and _extends(path, by_uid[v]):
                path.append(by_uid[v])
                todo.append(iter(succs[v]))


def _extends(path: list, a: StaticAccess) -> bool:
    """path + [a] keeps the thread and the location conditions."""
    same_thread = same_loc = 0
    for x in path:
        if x.thread == a.thread:
            if x.location == a.location:
                return False
            same_thread += 1
        elif x.location == a.location:
            same_loc += 1
    return same_thread < 2 and same_loc < 3


def _coherence_shapes(program: Program, threads: dict, by_loc: dict) -> list:
    shapes = []
    for accs in threads.values():
        for i, a in enumerate(accs):
            for b in accs[i + 1 :]:
                if a.location != b.location:
                    continue
                pair = a.direction + b.direction
                po = _edge_between(a, b, program)
                if pair == "WW":
                    shapes.append(
                        _canonical([a, b], [po, Edge("co", None, False)], False)
                    )
                elif pair == "RW":
                    shapes.append(
                        _canonical([a, b], [po, Edge("rf", None, False)], False)
                    )
                for w in by_loc[a.location]:
                    if w.direction != "W" or w.thread == a.thread:
                        continue
                    if pair == "RW":
                        tail = [Edge("co", None, True), Edge("rf", None, True)]
                    elif pair == "WR":
                        tail = [Edge("fr", None, True), Edge("co", None, True)]
                    elif pair == "RR":
                        tail = [Edge("fr", None, True), Edge("rf", None, True)]
                    else:
                        continue
                    shapes.append(_canonical([a, b, w], [po] + tail, False))
    shapes.sort(key=_sort_key)
    return shapes


# ----------------------------------------------------------------- reduction


_RULES = {
    ("co", "co"): "co",
    ("rf", "fr"): "co",
    ("fr", "co"): "fr",
}


def reduce_cycle(cycle: LabeledCycle, rng=None) -> LabeledCycle:
    """Collapse communication chains until no rule applies.

    The rewrite system is confluent here, so the rule order is free;
    passing an rng picks applicable sites at random, which the tests
    use to exercise that freedom.
    """
    accesses = list(cycle.accesses)
    edges = list(cycle.edges)
    while len(accesses) > 2:
        n = len(accesses)
        sites = [
            i
            for i in range(n)
            if (edges[i].kind, edges[(i + 1) % n].kind) in _RULES
        ]
        if not sites:
            break
        i = sites[0] if rng is None else rng.choice(sites)
        m = (i + 1) % n
        out = _RULES[(edges[i].kind, edges[m].kind)]
        src, dst = accesses[i], accesses[(m + 1) % n]
        edges[i] = Edge(out, None, src.thread != dst.thread)
        del edges[m]
        del accesses[m]
    return _canonical(accesses, edges, cycle.critical)


# -------------------------------------------------------------------- naming


_GLOSSARY = {
    "rw+rw": "lb",
    "ww+rr": "mp",
    "w+rw+rr": "wrc",
    "ww+rw+rr": "isa2",
    "ww+ww": "2+2w",
    "w+rw+ww": "w+rw+2w",
    "wr+wr": "sb",
    "w+rr+wr": "rwc",
    "ww+wr": "r",
    "ww+rw": "s",
    "ww+rr+wr": "w+rwc",
    "w+rr+w+rr": "iriw",
}


def _coherence_classic(cycle: LabeledCycle) -> Optional[str]:
    n = len(cycle.accesses)
    for i in range(n):
        a, b = cycle.accesses[i], cycle.accesses[(i + 1) % n]
        if cycle.edges[i].kind in _PO_FAMILY and a.location == b.location:
            pair = a.direction + b.direction
            if pair == "RW":
                return "coRW1" if n == 2 else "coRW2"
            return "co" + pair
    return None


def _suffix(cycle: LabeledCycle, start: int) -> str:
    n = len(cycle.accesses)
    tokens = []
    for j in range(n):
        e = cycle.edges[(start + j) % n]
        if e.kind == "fence":
            tokens.append(e.detail)
        elif e.kind == "dp":
            tokens.append(e.detail.replace("+", ""))
        elif e.kind == "po":
            tokens.append("po")
    if all(t == "po" for t in tokens):
        return ""
    out = []
    for t in tokens:
        if t != "po" and out and out[-1] == t:
            out[-1] = t + "s"
        elif t != "po" and out and out[-1] == t + "s":
            pass
        else:
            out.append(t)
    return "".join("+" + t for t in out)


def name_pattern(cycle: LabeledCycle) -> PatternName:
    # group the rotation into per-thread runs; a run split by the seam
    # is merged back so rotation never changes the digrams
    runs = []
    for idx, a in enumerate(cycle.accesses):
        if runs and runs[-1][-1][1].thread == a.thread:
            runs[-1].append((idx, a))
        else:
            runs.append([(idx, a)])
    if len(runs) > 1 and runs[0][0][1].thread == runs[-1][0][1].thread:
        runs[0] = runs.pop() + runs[0]
    digrams = tuple(
        "".join(
            x[1].direction.lower()
            for x in sorted(run, key=lambda x: x[1].po_index)
        )
        for run in runs
    )
    rotations = [digrams[k:] + digrams[:k] for k in range(len(digrams))]
    pick = None
    for k, rot in enumerate(rotations):
        if "+".join(rot) in _GLOSSARY:
            pick = k
            break
    if pick is None:
        pick = max(range(len(rotations)), key=lambda k: rotations[k])
    systematic = "+".join(rotations[pick])
    classic = _coherence_classic(cycle) or _GLOSSARY.get(systematic)
    rotated = runs[pick:] + runs[:pick]
    suffix = _suffix(cycle, rotated[0][0][0])
    return PatternName(systematic, classic, (classic or systematic) + suffix)


# ------------------------------------------------------------ classification


def classify(cycle: LabeledCycle) -> str:
    """Attribute the cycle to the weakest axiom able to forbid it.

    Tested in order against the SC instantiation: same-location edges
    only (the coherence check), happens-before edges only (no thin
    air), a from-read followed by one propagation step and a
    happens-before tail (observation), anything else is propagation.
    """
    n = len(cycle.accesses)
    if all(
        cycle.accesses[i].location == cycle.accesses[(i + 1) % n].location
        for i in range(n)
    ):
        return "sc-per-location"

    def in_hb(e: Edge) -> bool:
        return e.kind in _PO_FAMILY or (e.kind == "rf" and e.external)

    if all(in_hb(e) for e in cycle.edges):
        return "no-thin-air"
    for k in range(n):
        first = cycle.edges[k]
        if first.kind != "fr" or not first.external:
            continue
        rest = [cycle.edges[(k + j) % n] for j in range(1, n)]
        if (
            rest
            and rest[0].kind in _PO_FAMILY + ("rf", "fr")
            and all(in_hb(e) for e in rest[1:])
        ):
            return "observation"
    return "propagation"


# ------------------------------------------------------------------ pipeline


def mine(program: Program) -> list:
    records = []
    for cycle in find_critical_cycles(program):
        shaped = reduce_cycle(cycle) if cycle.critical else cycle
        named = name_pattern(shaped)
        records.append(
            {
                "input": program.name,
                "name": named.name,
                "systematic": named.systematic,
                "classic": named.classic,
                "axiom": classify(shaped),
                "accesses": [
                    [a.thread, a.po_index, a.direction, a.location]
                    for a in shaped.accesses
                ],
            }
        )
    return records


def frequency(records: list) -> list:
    counts = Counter(r["name"] for r in records)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
