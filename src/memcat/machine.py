r"""Single-path operational machine cross-validating the axiomatic verdicts.

The machine runs one candidate execution at a time.  Per-thread program
order feeds a global pool of pending labels: each program write w carries
a commit label c(w) and a coherence-point label cp(w); each read r carries
a satisfy label s(w,r) and a commit label c(w,r), where w is the write the
candidate's rf picked for r.

The premises consult Power's ppo, fence, prop, hb and po-loc-sc, taken
from the caller's one evaluation of Power on the candidate; cross_check
checks once per test that the model binds all five, then feeds each
candidate's result to the machine and its verdict to the axiomatic side.

A candidate is accepted when some interleaving fires every label.  Each
label's premises are two label sets over the done set: need, the labels
that must already be done, and block, the labels whose being done wedges
it.  A label fires when it is not done, all of its need is done and none
of its block is.  The premises:

  c(w)    block  cw:coWW      commits of po-loc-later writes
                 cw:prop      commits of prop-later writes
                 cw:fences    satisfactions of fence-later reads
  cp(w)   need   cpw:buff     c(w)
                 cpw:co       coherence points of co-predecessors
                 cpw:prop-rw  satisfactions of prop-earlier reads
          block  cpw:order    coherence points of po-loc- or prop-later writes
  s(w,r)  need   sr:source    c(w), unless w is po-loc-before r
                 sr:prop-wr   coherence points of prop-earlier writes
          block  sr:ppo       satisfactions of ppo/fence-later reads
                 sr:prop-rr   satisfactions of prop-later reads
          never  sr:obs       a co-successor of w propagates to r ahead of it
  c(w,r)  need   cr:satisfied s(w,r)
          block  cr:ppo-write commits of ppo/fence-later writes
                 cr:ppo-read  satisfactions of ppo/fence-later reads
          never  cr:visible   w lies outside r's po-loc neighbours (or a
                              po-loc-sc-earlier read saw a co-later write)

Initial-state writes have no labels: they are committed and past
coherence point from the start, so they drop out of every need.  None
wedges a label either, since no relation a model can write relates an
event to an init write but that write itself: rf and co start at init
writes, fr ends at a co-later write, po, po-loc, the deps and the fences
miss them, only id ends at one, and a pair (x, i) in a;b needs (i, i) in
b.  A label that can never fire, failing sr:obs or cr:visible, needs
itself, which no done set covers while it is pending, so it never fires
and the machine rejects the candidate.

Propagation is enforced over all four quadrants of prop.  Write-to-write
edges constrain the coherence-point order (cpw:order); edges that start
or end at a read (the cumulative fence chains, e.g. both directions of
the store-buffering shape under full fences) instead pin satisfy labels
against coherence points: sr:prop-rr, sr:prop-wr and cpw:prop-rw above.
Any co|prop cycle then maps onto a cycle of label orderings, so no
interleaving discharges it.

Every label fires once, so j in need[i] puts j before i and j in
block[i] puts i before j (a label never wedges itself), and a full path
exists exactly when that precedence graph is acyclic.  Each event e has
a first label a(e), c(w) or s(w,r), and a second b(e), cp(w) or c(w,r).
Each premise is then one relation over events in one quadrant of label
pairs: aa, ab, ba or bb, from first or second label to first or second
label.  models/_machine.cat states the four as lets over the names of the
model the machine runs on (Power's, or any that binds ppo, fence, prop,
hb and po-loc-sc), each term commented with the premises it holds.

A cycle of labels runs through second labels alone, or from first label
to first label, directly or through second labels; so the fragment's two
checks, acyclic bb and acyclic aa | ab;bb*;ba, reject a candidate exactly
when no interleaving fires every label.  machine_context runs the fragment
once per chunk of the model's candidates, at the chunk's first
candidate, with cat's own steps (cat.extend, on the model's chunk), and
machine_accepts reads the candidate's byte.  The fragment is parsed and
compiled once, at import.  What depends on the test alone, label
positions (a read's labels sit at one index whatever its rf source; only
the label tuples name the source), is the layout, kept on the premises.

A candidate's labels and its preds, the labels each label must fire
after, in that label order, are read from its block of the quadrants
only when asked for.  witness_path sorts preds, preferring commits in co
and prop order where the premises allow, so the witness is the machine's
own firing order, and it exists exactly when the machine accepts.
replay_path runs a given path and reports the index of the first step
that fires a label twice or ahead of one of its preds.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

# cat, executions and models are called through their modules, so a binding
# replaced on the module (as by a tracer) is the one called
from . import cat, executions, models
from .cat import CatError
from .executions import final_outcome
from .relation import Candidate, Packing, Relation, is_read, is_write

__all__ = [
    "BoundError",
    "DEFAULT_BOUND",
    "MachineContext",
    "WitnessCycleError",
    "cross_check",
    "derive_from_path",
    "enumerate_accepted",
    "label_str",
    "machine_accepts",
    "machine_context",
    "model_behaviors",
    "replay_path",
    "trace_lines",
    "witness_path",
]


class WitnessCycleError(Exception):
    """The witness ordering for a candidate is cyclic (no linear path)."""


class BoundError(Exception):
    """Test exceeds the event budget for exhaustive machine runs."""


# memory events, init writes included; every bundled test fits
DEFAULT_BOUND = 10


# the machine's premises and verdict, over the names a model must bind;
# parsed and compiled here, once, so no call pays for it
_FRAGMENT_PATH = models.BUNDLED_DIR / "_machine.cat"
_FRAGMENT = cat.parse_cat(_FRAGMENT_PATH.read_text(), _FRAGMENT_PATH, given=("ppo", "fence", "prop", "hb", "po-loc-sc"))
_FRAGMENT.plan


class _Layout(NamedTuple):
    """What the machine takes from a test's events alone."""

    write_labels: tuple  # c(w) and cp(w) of each program write; they come first
    read_ids: tuple  # the reads, in label order
    writes: int  # the program writes' event mask
    slot: list  # slot[e]: the bit of event e's first label


def _layout(t):
    """t's _Layout.

    slot[e] is the bit of event e's first label, c(w) or s(w,r), at the
    same index whatever r's rf source; cp(w) is the next bit, and init
    writes have none.
    """
    writes = [e for e in t.events if is_write(e) and e.id not in t.init_ids]
    reads = [e for e in t.events if is_read(e)]
    slot = [0] * t.n
    for k, e in enumerate(writes + reads):
        slot[e.id] = 1 << 2 * k
    write_labels = tuple(x for e in writes for x in (("cw", e.id), ("cpw", e.id)))
    return _Layout(write_labels, tuple(e.id for e in reads), sum(1 << e.id for e in writes), slot)


def _premises(t, c):
    """The premises of every candidate of c, a chunk of t's candidates as
    a model binding ppo, fence, prop, hb and po-loc-sc evaluated it, and the
    machine's verdict on each: the fragment's chunk on c, its quadrants
    aa, ab, ba and bb, with t's layout, and with rejected, whose byte j is
    nonzero iff the machine rejects candidate j.
    """
    m = cat.extend(_FRAGMENT, t, c)
    m.rejected, m.layout = m.pack.loops(m.loops), _layout(t)
    return m


class MachineContext:
    """One candidate on the machine: block j of its chunk's premises.
    Its labels, preds and rf sources are built when first read."""

    __slots__ = ("cand", "premises", "j", "__dict__")  # __dict__ holds the cached properties

    def __init__(self, cand: Candidate, premises: Bundles, j: int):
        self.cand, self.premises, self.j = cand, premises, j

    def __repr__(self) -> str:
        return f"MachineContext(cand={self.cand!r}, j={self.j!r})"

    @cached_property
    def rf_src(self) -> dict:  # read id -> write id
        return {r: w for (w, r) in self.cand.rf.pairs()}

    @cached_property
    def labels(self) -> tuple:  # all pending labels, index = label id
        lay, src = self.premises.layout, self.rf_src
        return lay.write_labels + tuple(
            x for r in lay.read_ids for x in (("sr", src[r], r), ("cr", src[r], r)))

    @cached_property
    def label_index(self) -> dict:  # label -> id
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def prop(self) -> Relation:
        return self.premises.relation("prop", self.j)

    @cached_property
    def preds(self) -> list:
        """preds[i] holds, by label id, each label that label i must fire
        after: block j of the chunk's quadrants.  A label that can never
        fire holds its own bit."""
        slot = self.premises.layout.slot
        preds = [0] * len(self.labels)
        for quadrant, x, y in (("aa", 0, 0), ("ab", 0, 1), ("ba", 1, 0), ("bb", 1, 1)):
            for e, f in self.premises.relation(quadrant, self.j).pairs():
                preds[slot[f].bit_length() - 1 + y] |= slot[e] << x
        return preds


def machine_context(cand, result):
    """The machine's premises for one candidate.

    result is the caller's evaluation of Power on cand, run_model(power,
    cand), whose chunk binds the ppo/fence/prop/hb/po-loc-sc the machine
    consults.
    The premises and verdicts of all of the chunk's candidates are
    computed at the first of them, by running the fragment on the chunk,
    and kept on the chunk as its machine, with the layout they share:
    write labels and the event-to-label table, built once per chunk.
    """
    chunk = result.chunk
    premises = getattr(chunk, "machine", None)
    if premises is None:
        premises = chunk.machine = _premises(cand.source, chunk)
    return MachineContext(cand, premises, cand.j)


def _fires(ctx, i, done):
    """Label i can fire from the done set: not done, and its preds all done."""
    return not (done >> i & 1 or ctx.preds[i] & ~done)


def _linearise(preds):
    """Fire the lowest-index label whose preds are all done, while one is.

    Returns (order, stuck): the lexicographically least topological order
    and the labels never fired, which hold a cycle of preds.
    """
    done, order, i = 0, [], 0
    while i < len(preds):
        if done >> i & 1 or preds[i] & ~done:
            i += 1
        else:
            done |= 1 << i
            order.append(i)
            i = (~done & done + 1).bit_length() - 1  # every label below it is done
    return order, [i for i in range(len(preds)) if not done >> i & 1]


def machine_accepts(ctx):
    """True when some interleaving fires every label of the candidate."""
    return not ctx.premises.rejected[ctx.j]


def replay_path(ctx, path):
    """Run path label by label.  Returns (accepted, first_blocked_index).

    A step blocks when its label is not the candidate's, is already done
    or fires ahead of one of its preds.  On a path that is not a firing
    order, that is the first label fired ahead of a label it must follow,
    which can come before the step whose label the premises wedge.
    """
    done = 0
    for step, label in enumerate(path):
        i = ctx.label_index.get(label)
        if i is None or not _fires(ctx, i, done):
            return False, step
        done |= 1 << i
    return done == (1 << len(ctx.labels)) - 1, None


def witness_path(ctx):
    """The machine's firing order for a candidate it accepts.

    Sorts ctx.preds, the candidate's part of the graph machine_accepts
    decides, preferring c(w1) before c(w2) for program writes with
    (w1, w2) in co | WW(prop+): that order is kept where the premises
    allow it and dropped where they do not.  Raises
    WitnessCycleError, naming the labels that never fire, exactly when
    machine_accepts rejects the candidate.
    """
    cand, preds = ctx.cand, ctx.preds
    writes, slot = ctx.premises.layout.writes, ctx.premises.layout.slot
    ahead = cand.co.bits | Packing.single(cand.n).closure(ctx.prop.bits)
    prefer = list(preds)
    for w1, w2 in Relation(cand.n, ahead).pairs():
        if writes >> w1 & writes >> w2 & 1:
            prefer[slot[w2].bit_length() - 1] |= slot[w1]
    order, stuck = _linearise(prefer)
    if stuck:
        order, stuck = _linearise(preds)
    if stuck:
        raise WitnessCycleError(
            "witness order is cyclic through: "
            + ", ".join(sorted(label_str(ctx, ctx.labels[i]) for i in stuck))
        )
    return [ctx.labels[i] for i in order]


def derive_from_path(cand, path):
    """Recover (rf, co) pair sets from a completed path."""
    rf = set()
    rcp = list(cand.source.init_ids)
    for label in path:
        if label[0] == "cr":
            rf.add((label[1], label[2]))
        elif label[0] == "cpw":
            rcp.append(label[1])
    loc_of = {e.id: e.action.loc for e in cand.events}
    co = set()
    for i, w1 in enumerate(rcp):
        for w2 in rcp[i + 1 :]:
            if loc_of[w1] == loc_of[w2]:
                co.add((w1, w2))
    return frozenset(rf), frozenset(co)


def label_str(ctx, label):
    """c(w), cp(w), s(w,r) or c(w,r), with the test's event names."""
    names = ctx.cand.source.names
    kind, *ids = label
    args = ",".join(names.get(x, str(x)) for x in ids)
    return f"{'cp' if kind == 'cpw' else kind[0]}({args})"


def trace_lines(ctx, path):
    """Render a path replay, one annotated label per line.

    Stops at the first blocked step; a fully accepted path yields one
    "accepted" line per label.
    """
    _, blocked = replay_path(ctx, path)
    shown = path if blocked is None else path[: blocked + 1]
    return [
        f"{label_str(ctx, label)}  {'blocked' if i == blocked else 'accepted'}"
        for i, label in enumerate(shown)
    ]


def cross_check(t, model, bound: int = DEFAULT_BOUND):
    """Machine and model behaviors of t, evaluating model once per candidate.

    Returns (machine behaviors, model behaviors, context of the first
    machine-accepted candidate or None); each candidate's result feeds the
    machine.  Raises BoundError for a test over bound, else CatError, at
    the model's last statement, if the model leaves a name the machine
    reads unbound: ppo, fence, prop, hb or po-loc-sc.
    """
    if len(t.events) > bound:
        raise BoundError(f"{t.name}: {len(t.events)} memory events exceed bound {bound}")
    if missing := [k for k in _FRAGMENT.given if k not in model.plan[2]]:
        where = f"{model.statements[-1].pos}: " if model.statements else ""
        raise CatError(f"{where}power model binds no {', '.join(missing)}")
    accepted, allowed, first = set(), set(), None
    judge, outcome = cat.bind(model, t), final_outcome(t)
    for cand in executions.enumerate_candidates(t):
        result = cat.run_model(judge, cand)
        ctx = machine_context(cand, result)
        accepts = machine_accepts(ctx)
        if accepts or result.passed:
            seen = frozenset(cand.rf.pairs()), outcome(cand)[1]
            if accepts:
                accepted.add(seen)
                first = first or ctx
            if result.passed:
                allowed.add(seen)
    return accepted, allowed, first


def enumerate_accepted(t, bound: int = DEFAULT_BOUND):
    """Behaviors {(rf pairs, observed state)} with an accepted machine run,
    the state joined by "; "."""
    return cross_check(t, models.load_builtin("power"), bound)[0]


def model_behaviors(t, model):
    """Behaviors the axiomatic model allows; same shape as enumerate_accepted."""
    judge, outcome = cat.bind(model, t), final_outcome(t)
    return {(frozenset(c.rf.pairs()), outcome(c)[1])
            for c in executions.enumerate_candidates(t) if cat.run_model(judge, c).passed}
