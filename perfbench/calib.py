"""Host-speed calibration: a fixed pure-Python kernel timed next to every call.

The benchmark is meant for small VMs on shared hosts, whose speed moves
by a third over minutes, and by more within a second, while other
tenants come and go; every time a run measures moves with it.  So each
time is scaled to a reference host speed: it is multiplied by
REFERENCE_S / k, where k is the mean of this kernel's times measured
just before and just after the timed call (or set-up probe), so each
call gets its own factor.  The kernel never changes with memcat, so a
change to memcat moves the scaled figures exactly as it moves the raw
ones, while a slower host moves the kernel and the calls together.  It
does so only in part: over fast swings of the host, memcat's time moved
about 0.8 times as much as the kernel's (in log terms).

The kernel does the kind of work memcat does: it parses a small text
into frozen dataclasses, builds bitset relations over the events
(composition, transitive closure, set algebra), hashes them into sets
and dicts, and serialises a record to json.  It uses nothing of memcat.
"""

from __future__ import annotations

import json
import re
import statistics
from dataclasses import dataclass
from time import perf_counter

# about the kernel's time on the host the bounds were set on (2-vCPU
# Intel Xeon VM, Python 3.11.7, pinned to one CPU) in a quiet stretch
REFERENCE_S = 0.0100
REPS = 2

_PROGRAM = """P0: st x 1 ; sync ; ld y
P1: st y 1 ; lwsync ; ld x ; st z 2
P2: ld x ; addr ; st z 1 ; ld z
P3: st z 3 ; ld y"""
_INSTR = re.compile(r"(st|ld) (\w)(?: (\d+))?")


@dataclass(frozen=True)
class _Event:
    id: int
    thread: int
    kind: str
    loc: str
    value: int


def _compose(a: tuple, b: tuple) -> tuple:
    rows = []
    for row in a:
        acc = 0
        while row:
            low = row & -row
            acc |= b[low.bit_length() - 1]
            row ^= low
        rows.append(acc)
    return tuple(rows)


def _closure(r: tuple) -> tuple:
    rows = list(r)
    n = len(rows)
    for k in range(n):
        bit, rk = 1 << k, rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk
    return tuple(rows)


def _parse() -> list:
    events = []
    for t, line in enumerate(_PROGRAM.splitlines()):
        for ins in line.split(":", 1)[1].split(";"):
            m = _INSTR.match(ins.strip())
            if m:
                events.append(_Event(len(events), t, m.group(1), m.group(2),
                                     int(m.group(3) or 0)))
    return events


def kernel(rounds: int = 24) -> int:
    """Deterministic work of about 10 ms on the reference host; returns a checksum."""
    total = 0
    for r in range(rounds):
        events = _parse()
        n = len(events)
        po = tuple(sum(1 << j for j in range(i + 1, n) if events[j].thread == e.thread)
                   for i, e in enumerate(events))
        loc = tuple(sum(1 << j for j in range(n) if events[j].loc == e.loc) for e in events)
        seen = set()
        env = {"po": po, "loc": loc}
        for s in range(6):
            rf = tuple(1 << ((i * 7 + s + r) % n) if events[i].kind == "ld" else 0
                       for i in range(n))
            co = tuple(1 << ((i * 3 + s) % n) if events[i].kind == "st" else 0
                       for i in range(n))
            fr = _compose(tuple(map(int.__or__, rf, co)), co)
            com = tuple(a | b | c for a, b, c in zip(rf, co, fr))
            env["com"] = com
            hb = _closure(tuple(a | b for a, b in zip(env["po"], com)))
            cyclic = any(hb[i] >> i & 1 for i in range(n))
            seen.add((hb, cyclic))
            seen.add(frozenset(i for i in range(n) if com[i] & env["loc"][i]))
        record = {"test": "calibration", "round": r, "states": sorted(map(str, seen))[:4]}
        total += len(seen) + len(json.dumps(record, sort_keys=True))
    return total


def measure(reps: int = REPS) -> float:
    """Median seconds of `reps` kernel runs."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)
