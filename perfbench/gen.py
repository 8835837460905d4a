"""Seeded litmus test generator for the `wide` and `xcheck` workloads.

The generator never imports memcat: it writes plain `.litmus` text and
computes each test's candidate count from its own program description,
as (product over locations of writes!) x (product over reads of the
writes to the read's location, init included).  A test is kept only
when that count falls inside the band of the slot it fills, so every
seed gives the same amount of work to within the band width.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

ARCHES = ("power", "arm")
FENCES = {
    "power": ("sync", "lwsync", "eieio"),
    "arm": ("dmb", "dsb", "dmb.st"),
}
CTRL_FENCE = {"power": "isync", "arm": "isb"}
LOCS = "xyz"


@dataclass(frozen=True)
class Workload:
    name: str
    threads: tuple  # (min, max) threads per test
    locs: tuple  # (min, max) locations per test
    max_per_thread: int  # memory accesses per thread
    # one (events, lo, hi) slot per generated test: the test has exactly
    # `events` memory events (init writes included) and lo..hi candidates.
    # Fixed sizes and narrow bands keep the work of every seed close to
    # that of every other seed.
    slots: tuple
    # slots of further programs of the same kind that only the cycles
    # stage mines: mining time varies by a fifth between sets of 10
    # programs, and short cycles calls are the noisiest, so the miner
    # gets more of them
    mine_slots: tuple = ()


WORKLOADS = {
    "wide": Workload("wide", (3, 4), (2, 3), 3,
                     tuple((10 + i % 3, 100, 140) for i in range(10)),
                     tuple((10 + i % 3, 100, 140) for i in range(50))),
    # label search time varies twice as much between tests of 9 events
    # as between tests of 8, so most xcheck tests have 8
    "xcheck": Workload("xcheck", (2, 4), (2, 3), 3,
                       tuple((9, 30, 60) if i % 10 == 9 else (8, 50, 90) for i in range(20)),
                       tuple((9, 30, 60) if i % 10 == 9 else (8, 50, 90) for i in range(40))),
}


@dataclass
class Access:
    kind: str  # "R" or "W"
    loc: str
    value: int = 0  # stored value for writes
    link: str = ""  # fence or dependency token linking it to the previous access


@dataclass
class Program:
    arch: str
    threads: list = field(default_factory=list)  # list of lists of Access

    def locations(self) -> list:
        return sorted({a.loc for th in self.threads for a in th})

    def events(self) -> int:
        return len(self.locations()) + sum(len(th) for th in self.threads)

    def candidates(self) -> int:
        writes = {loc: 0 for loc in self.locations()}
        for th in self.threads:
            for a in th:
                if a.kind == "W":
                    writes[a.loc] += 1
        total = 1
        for k in writes.values():
            total *= math.factorial(k)
        for th in self.threads:
            for a in th:
                if a.kind == "R":
                    total *= writes[a.loc] + 1
        return total


def _links(arch: str, prev: Access, cur: Access) -> list:
    """Tokens that may sit between two consecutive accesses of a thread."""
    out = ["", ""] + list(FENCES[arch])
    if prev.kind == "R":
        out += ["addr", "ctrl", "ctrl+" + CTRL_FENCE[arch]]
        if cur.kind == "W":
            out.append("data")
    return out


def random_program(rng: random.Random, arch: str, spec: Workload, events: int) -> Program:
    """A program of exactly `events` memory events, or of fewer if spec cannot hold them."""
    nthreads = rng.randint(*spec.threads)
    nlocs = rng.randint(*spec.locs)
    locs = LOCS[:nlocs]
    sizes = [1] * nthreads
    for _ in range(events - nlocs - nthreads):
        open_ = [i for i, s in enumerate(sizes) if s < spec.max_per_thread]
        if not open_:
            break
        sizes[rng.choice(open_)] += 1
    prog = Program(arch)
    next_value = {loc: 1 for loc in locs}
    for size in sizes:
        thread = []
        for k in range(size):
            acc = Access(rng.choice("RW"), rng.choice(locs))
            if acc.kind == "W":
                acc.value = next_value[acc.loc]
                next_value[acc.loc] += 1
            if k:
                acc.link = rng.choice(_links(arch, thread[-1], acc))
            thread.append(acc)
        prog.threads.append(thread)
    return prog


def _final(rng: random.Random, prog: Program, reads: list) -> str:
    written = {loc: [0] for loc in prog.locations()}
    for th in prog.threads:
        for a in th:
            if a.kind == "W":
                written[a.loc].append(a.value)
    atoms = [f"T{t}:{reg}={rng.choice(written[loc])}" for t, reg, loc in reads]
    if not atoms:
        loc = rng.choice(prog.locations())
        atoms = [f"{loc}={rng.choice(written[loc])}"]
    return " /\\ ".join(atoms)


def render(name: str, prog: Program, rng: random.Random) -> str:
    """Litmus source for prog; rng only picks the final condition."""
    locs = prog.locations()
    init = " ".join(f"{loc}=0;" for loc in locs) + " " + " ".join(
        f"r{loc}=&{loc};" for loc in locs
    )
    lines = [f"{name} {prog.arch}", "", f"init {{ {init} }}", ""]
    reads = []
    for t, thread in enumerate(prog.threads):
        body = []
        reg = 0
        label = 0
        last_load = None

        def fresh():
            nonlocal reg
            reg += 1
            return f"r{reg}"

        for acc in thread:
            addr = f"r{acc.loc}"
            src = None
            if acc.link in FENCES[prog.arch]:
                body.append(acc.link)
            elif acc.link == "addr":
                z, a = fresh(), fresh()
                body += [f"xor {z}, {last_load}, {last_load}", f"add {a}, {z}, {addr}"]
                addr = a
            elif acc.link == "data":
                z, src = fresh(), fresh()
                body += [
                    f"xor {z}, {last_load}, {last_load}",
                    f"add {src}, {z}, #{acc.value}",
                ]
            elif acc.link.startswith("ctrl"):
                body += [f"cmp {last_load}, #0", f"bne L{t}{label}", f"L{t}{label}:"]
                label += 1
                if "+" in acc.link:
                    body.append(CTRL_FENCE[prog.arch])
            if acc.kind == "W":
                if src is None:
                    src = fresh()
                    body.append(f"mov {src}, #{acc.value}")
                body.append(f"st [{addr}], {src}")
            else:
                last_load = fresh()
                body.append(f"ld {last_load}, [{addr}]")
                reads.append((t, last_load, acc.loc))
        lines.append(f"thread T{t} {{")
        lines += [f"  {ins}" if not ins.endswith(":") else ins for ins in body]
        lines += ["}", ""]
    lines.append(f"final exists ({_final(rng, prog, reads)})")
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int, mine_only: bool = False) -> list:
    """[(file name, litmus text, candidates, events)] for one workload and seed.

    With mine_only, the programs of the workload's mine_slots instead,
    from a random stream of their own.  The same (workload, seed,
    mine_only) always gives byte-identical texts.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}" + (":mine" if mine_only else ""))
    slots = spec.mine_slots if mine_only else spec.slots
    tag = "m" if mine_only else ""
    out = []
    for i, (events, lo, hi) in enumerate(slots):
        arch = ARCHES[i % len(ARCHES)]
        for _ in range(100_000):
            prog = random_program(rng, arch, spec, events)
            if prog.events() == events and lo <= prog.candidates() <= hi:
                break
        else:
            raise ValueError(f"{workload} slot {i}: no program fits {events} events, {lo}-{hi}")
        name = f"{workload}{seed}-{tag}{i:02d}-{arch}"
        out.append((name + ".litmus", render(name, prog, rng), prog.candidates(), prog.events()))
    return out
