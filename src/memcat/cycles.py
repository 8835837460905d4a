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
from typing import Optional

from .litmus import ALL_FENCE_KINDS, DEP_KINDS, ProjectedTest
from .relation import Record, is_write


class ThrError(Exception):
    pass


# ctrl+cfence, the union of ctrl+isync and ctrl+isb, labels no pair
_DEP_KINDS = tuple(kind for kind in DEP_KINDS if kind != "ctrl+cfence")

# when several fences, or several dependencies, relate one pair, the kind
# listed first labels it
_RANK = {kind: rank for rank, kind in enumerate((
    "sync", "dmb", "dsb", "mfence",
    "lwsync", "dmb.st", "dsb.st", "eieio",
    "isync", "isb",
    "addr", "data", "ctrl+isync", "ctrl+isb", "ctrl",
))}

_PO_FAMILY = ("po", "fence", "dp")


class StaticAccess(Record):
    __slots__ = ("uid", "thread", "po_index", "direction", "location")  # direction: "R" | "W"

    def __init__(self, uid: int, thread: str, po_index: int, direction: str, location: str):
        self.uid, self.thread, self.po_index = uid, thread, po_index
        self.direction, self.location = direction, location


class Edge(Record):
    """kind: po | fence | dp | rf | fr | co; detail: a po-family edge's fence or dependency."""

    __slots__ = ("kind", "detail", "external")

    def __init__(self, kind: str, detail: Optional[str], external: bool):
        self.kind, self.detail, self.external = kind, detail, external


class LabeledCycle(Record):
    """edges[i] connects accesses[i] to accesses[(i+1) % n]."""

    __slots__ = ("accesses", "edges", "critical")

    def __init__(self, accesses: tuple, edges: tuple, critical: bool):
        self.accesses, self.edges, self.critical = accesses, edges, critical


class PatternName(Record):
    __slots__ = ("systematic", "classic", "name")

    def __init__(self, systematic: str, classic: Optional[str], name: str):
        self.systematic, self.classic, self.name = systematic, classic, name


class Program(Record):
    """(uid, uid) -> the strongest fence separating them, and the dependency kind
    of exact endpoints, in fence_between and dep_between."""

    __slots__ = ("name", "accesses", "fence_between", "dep_between")

    def __init__(self, name: str, accesses: tuple, fence_between: dict, dep_between: dict):
        self.name, self.accesses = name, accesses
        self.fence_between, self.dep_between = fence_between, dep_between


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
        thread, rest = m.groups()
        if thread in seen:
            raise ThrError(f"line {lineno}: duplicate thread {thread}")
        seen.add(thread)
        base = len(accesses)
        gaps = []  # gaps[i]: the annotation after the thread's access i, or None
        for tok in rest.split():
            if _ACCESS_RE.match(tok):
                accesses.append(StaticAccess(len(accesses), thread, len(gaps), tok[0], tok[1:]))
                gaps.append(None)
            elif tok in ALL_FENCE_KINDS or tok in _DEP_KINDS:
                if not gaps:
                    raise ThrError(f"line {lineno}: {tok} before any access")
                if gaps[-1] is not None:
                    raise ThrError(f"line {lineno}: two annotations in a row")
                gaps[-1] = tok
            else:
                raise ThrError(f"line {lineno}: cannot parse token {tok!r}")
        if not gaps:
            raise ThrError(f"line {lineno}: thread {thread} has no accesses")
        if gaps[-1] is not None:
            raise ThrError(f"line {lineno}: trailing annotation on {thread}")
        for k, g in enumerate(gaps, base):
            if g in _DEP_KINDS:
                dep_between[(k, k + 1)] = g
            elif g is not None:  # the fence separates accesses base..k from those after k
                for a in range(base, k + 1):
                    for b in range(k + 1, len(accesses)):
                        _strongest(fence_between, (a, b), g)
    if not accesses:
        raise ThrError("no threads declared")
    return Program(name, tuple(accesses), fence_between, dep_between)


def program_from_litmus(t: ProjectedTest) -> Program:
    # the accesses follow the initial writes, each thread's on consecutive ids
    skip = len(t.init_ids)
    first = {}
    accesses = tuple(
        StaticAccess(uid, e.thread, uid - first.setdefault(e.thread, uid),
                     "W" if is_write(e) else "R", e.action.loc)
        for uid, e in enumerate(t.events[skip:])
    )
    fence_between = {}
    dep_between = {}
    for between, relations, kinds in ((fence_between, t.fences, ALL_FENCE_KINDS),
                                      (dep_between, t.deps, _DEP_KINDS)):
        for kind in kinds:
            for a, b in relations[kind].pairs():
                _strongest(between, (a - skip, b - skip), kind)
    return Program(t.name, accesses, fence_between, dep_between)


def _strongest(between: dict, pair: tuple, kind: str) -> None:
    """Label pair with kind unless a kind listed before it in _RANK labels it."""
    held = between.get(pair)
    if held is None or _RANK[kind] < _RANK[held]:
        between[pair] = kind


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


# a same-location po pair's directions -> the com edge that closes it alone,
# and the two that close it through another thread's write
_COHERENCE = {
    "WW": ("co", ()),
    "RW": ("rf", ("co", "rf")),
    "WR": (None, ("fr", "co")),
    "RR": (None, ("fr", "rf")),
}


def _coherence_shapes(program: Program, threads: dict, by_loc: dict) -> list:
    shapes = []
    for accs in threads.values():
        for i, a in enumerate(accs):
            for b in accs[i + 1 :]:
                if a.location != b.location:
                    continue
                po = _edge_between(a, b, program)
                alone, through = _COHERENCE[a.direction + b.direction]
                if alone:
                    shapes.append(_canonical([a, b], [po, Edge(alone, None, False)], False))
                tail = [Edge(kind, None, True) for kind in through]
                for w in by_loc[a.location]:
                    if tail and w.direction == "W" and w.thread != a.thread:
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
