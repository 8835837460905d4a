"""Single-path operational machine cross-validating the axiomatic verdicts.

The machine runs one candidate execution at a time.  Per-thread program
order feeds a global pool of pending labels: each program write w carries
a commit label c(w) and a coherence-point label cp(w); each read r carries
a satisfy label s(w,r) and a commit label c(w,r), where w is the write the
candidate's rf picked for r.

The premises consult Power's ppo, fence, prop and hb, taken from the
caller's one evaluation of Power on the candidate; cross_check feeds that
result's env to the machine and its verdict to the axiomatic side.

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
                              po-loc-earlier read saw a co-later write)

Initial-state writes have no labels: they are committed and past
coherence point from the start, so they drop out of every need, and an
init write among those that would wedge a label wedges it for good.  A
label that can never fire, wedged so or failing sr:obs or cr:visible,
gets the need NEVER, which no done set covers, so it never fires and
the machine rejects the candidate.

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
Each premise is then one event relation of the candidate, masked to a
rectangle of program writes W, reads R, init writes I and M = W | R, in
one quadrant of label pairs; a NEVER is a label that needs itself:

  a -> a  need   sr:source                  rf & ~po-loc & WxR
          block  cw:coWW, cw:prop           (po-loc | prop) & WxW
                 cw:fences                  fence & WxR
                 sr:ppo, sr:prop-rr         (ppo | fence | prop) & RxR
  a -> b  need   cpw:buff, cr:satisfied     id over M
                 cpw:prop-rw                prop & RxW
  b -> a  need   sr:prop-wr                 prop & WxR
          block  cr:ppo-write, cr:ppo-read  (ppo | fence) & RxM
  b -> b  need   cpw:co                     co & WxW
          block  cpw:order                  (po-loc | prop) & WxW
  never          sr:obs      a(r) for (r, r) in fr;prop;hb*
                 cr:visible  b(r) for r in the domain of fr & last, of
                             fr;rf & earlier, or of first & ~fr when
                             r's source is not po-loc-before it
                 wedged      both labels of w in the domain of
                             (po-loc | prop) & WxI, b(r) for r in
                             the domain of (ppo | fence) & RxI

where last, first and earlier pair each read with its last po-loc-earlier
write, its first po-loc-later write and its po-loc-earlier reads.  Over a
chunk of Power's candidates each quadrant is one bundle over the n
events: AA = need_aa | block_aa, AB = need_ab, BA = need_ba | block_ba
and BB = need_bb | block_bb, each block off the diagonal.  A cycle of
labels runs through second labels alone, or from first label to first
label, directly or through second labels; so a candidate is rejected
exactly when loops(BB+ | (AA | AB;BB*;BA)+) is set, and two closures and
two compositions decide every candidate of the chunk.  machine_context
computes these verdicts at the chunk's first candidate and
machine_accepts reads the candidate's byte.
What depends on the test alone, the rectangles, label positions (a
read's labels sit at one index whatever its rf source; only the label
tuples name the source) and each read's po-loc neighbours, is fixed once
per test.

A candidate's labels and its need and block bitmasks, in that label
order, are built from its block of the quadrants only when read.
witness_path sorts their graph, _preds, preferring commits in co and
prop order where the premises allow, so the witness is the machine's own
firing order, and it exists exactly when the machine accepts.
replay_path runs a given path and reports the index of the first step
that cannot fire.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import NamedTuple

from .cat import CatError
from .executions import final_outcome, per_test
from .relation import (
    Bundles,
    Candidate,
    Packing,
    Relation,
    is_read,
    is_write,
)

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


# a need no done set covers
NEVER = -1


class _Layout(NamedTuple):
    """What the premises take from a test's events and po-loc alone."""

    write_ids: tuple  # program writes, in label order; their labels come first
    read_ids: tuple
    write_labels: tuple  # c(w) and cp(w) of each program write
    writes: int  # the program writes' event mask
    slot: list  # slot[e]: the bit of event e's first label
    # the bits of WxW, WxR, RxR, RxW, RxM, WxI, RxI and id over M, for
    # program writes W, reads R, init writes I and M = W | R; and of
    # last, first and earlier, which pair each read with its last
    # po-loc-earlier write, its first po-loc-later write and each of its
    # po-loc-earlier reads
    masks: tuple


@per_test
def _layout(t):
    """t's _Layout.

    slot[e] is the bit of event e's first label, c(w) or s(w,r), at the
    same index whatever r's rf source; cp(w) is the next bit, and init
    writes have none.
    """
    events, n, po_loc = t.events, t.n, t.po_loc
    writes = [e for e in events if is_write(e) and e.thread != "init"]
    reads = [e for e in events if is_read(e)]
    slot = [0] * n
    for k, e in enumerate(writes + reads):
        slot[e.id] = 1 << 2 * k
    w, r, i = _mask(writes), _mask(reads), _mask(e for e in events if e.thread == "init")
    last = first = earlier = 0
    for x in reads:
        before = [e for e in events if (e.id, x.id) in po_loc]
        after = [e for e in events if is_write(e) and (x.id, e.id) in po_loc]
        ws = [e for e in before if is_write(e)]
        if ws:
            last |= 1 << x.id * n + max(ws, key=lambda e: e.po_index).id
        if after:
            first |= 1 << x.id * n + min(after, key=lambda e: e.po_index).id
        earlier |= _mask(e for e in before if is_read(e)) << x.id * n

    def rect(rows, cols):
        return sum(cols << e * n for e in range(n) if rows >> e & 1)

    masks = (rect(w, w), rect(w, r), rect(r, r), rect(r, w), rect(r, w | r), rect(w, i),
             rect(r, i), rect(w | r, w | r) & Packing.single(n).diag, last, first, earlier)
    write_labels = tuple(x for e in writes for x in (("cw", e.id), ("cpw", e.id)))
    return _Layout(tuple(e.id for e in writes), tuple(e.id for e in reads), write_labels,
                   w, slot, masks)


def _mask(events):
    return sum(1 << e.id for e in events)


def _firsts(slot, events):
    """The first-label bits of an event bitmask's events."""
    out = 0
    while events:
        low = events & -events
        out |= slot[low.bit_length() - 1]
        events ^= low
    return out


# the bundles of _premises: need_xy holds (e, f) when label y(f) needs
# label x(e), block_xy when label x(e) is wedged by label y(f), where
# a(e) is e's first label and b(e) its second
_NEED = ("need_aa", "need_ab", "need_ba", "need_bb")
_BLOCK = ("block_aa", "block_ba", "block_bb")


def _premises(t, c):
    """The premises of every candidate of c, a chunk of t's candidates as
    Power evaluated it, and the machine's verdict on each.

    Each premise is one of the chunk's event bundles masked to a
    rectangle of events, in one quadrant of labels (see the module
    docstring); a label that can never fire needs itself.  Returns the
    quadrants' Bundles, with prop, and with rejected: byte j is nonzero
    iff the machine rejects candidate j.
    """
    p = c.pack
    ww, wr, rr, rw, rm, wi, ri, ids, last, first, earlier = (m * p.rep for m in _layout(t).masks)
    rf, co, fr, po_loc = c["rf"], c["co"], c["fr"], c["po-loc"]
    ppo, fence, prop, hb = c["ppo"], c["fence"], c["prop"], c["hb"]
    order, ppo_fence, diag = po_loc | prop, ppo | fence, p.diag
    # an init write is done from the start, so it wedges for good
    wedged = p.domain(order & wi)
    # sr:obs: a co-successor of r's source reaches r by prop;hb*
    hidden = p.compose(fr, p.compose(prop, p.closure(hb, True))) & diag
    never_cr = p.domain(ppo_fence & ri) | _invisible(p, rf, fr, po_loc, last, first, earlier)
    b = Bundles(
        p,
        prop=prop,
        need_aa=rf & ~po_loc & wr | hidden | wedged,  # sr:source
        need_ab=ids | prop & rw,  # cpw:buff, cr:satisfied and cpw:prop-rw
        need_ba=prop & wr,  # sr:prop-wr
        need_bb=co & ww | never_cr | wedged,  # cpw:co
        # cw:coWW, cw:prop, cw:fences, sr:ppo and sr:prop-rr
        block_aa=order & ww | fence & wr | (ppo_fence | prop) & rr,
        block_ba=ppo_fence & rm,  # cr:ppo-write and cr:ppo-read
        block_bb=order & ww,  # cpw:order
    )
    # the label graph's quadrants, bb closed to BB+; a label never wedges itself
    aa, ab = b["need_aa"] | b["block_aa"] & ~diag, b["need_ab"]
    ba, bb = b["need_ba"] | b["block_ba"], p.closure(b["need_bb"] | b["block_bb"] & ~diag)
    # a cycle runs through second labels alone, or from first label to first label
    b.rejected = p.loops(bb | p.closure(aa | p.compose(p.compose(ab, bb | diag), ba)))
    return b


def _invisible(p, rf, fr, po_loc, last, first, earlier):
    """cr:visible's failures: (r, r) for each read r whose source w lies
    co-before r's last po-loc-earlier write, or neither po-loc-before r
    nor co-before its first po-loc-later write, or co-before the source
    of a po-loc-earlier read."""
    return (p.domain(fr & last | p.compose(fr, rf) & earlier)
            | p.domain(first & ~fr) & p.codomain(rf & ~po_loc))


class MachineContext:
    """One candidate on the machine: block j of its chunk's premises.
    Its labels, need, block and rf sources are built when first read."""

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
        lay, src = _layout(self.cand.source), self.rf_src
        return lay.write_labels + tuple(
            x for r in lay.read_ids for x in (("sr", src[r], r), ("cr", src[r], r)))

    @cached_property
    def label_index(self) -> dict:  # label -> id
        return {label: i for i, label in enumerate(self.labels)}

    @property
    def need(self) -> tuple:  # labels that must already be done; NEVER if it cannot fire
        return self._bitmasks[0]

    @property
    def block(self) -> tuple:  # labels whose being done wedges it
        return self._bitmasks[1]

    @cached_property
    def prop(self) -> Relation:
        return self.premises.relation("prop", self.j)

    @cached_property
    def _bitmasks(self) -> tuple:
        """(need, block) as label bitmasks, indexed by label id."""
        lay, j, b = _layout(self.cand.source), self.j, self.premises
        aa, ab, ba, bb = (b.relation(k, j).inverse().row for k in _NEED)  # by the label needing
        out_aa, out_ba, out_bb = (b.relation(k, j).row for k in _BLOCK)
        firsts = partial(_firsts, lay.slot)
        need, block = [], []
        for e in lay.write_ids + lay.read_ids:
            need += [NEVER if aa(e) >> e & 1 else firsts(aa(e)) | firsts(ba(e)) << 1,
                     NEVER if bb(e) >> e & 1 else firsts(ab(e)) | firsts(bb(e)) << 1]
            block += [firsts(out_aa(e)), firsts(out_ba(e)) | firsts(out_bb(e)) << 1]
        return tuple(need), tuple(block)


def machine_context(cand, env):
    """The machine's premises for one candidate.

    env supplies the ppo/fence/prop/hb bindings the machine consults: the
    env of the caller's evaluation of Power on cand, run_model(power, cand).env.
    The premises and verdicts of all of the chunk's candidates are
    computed at the first of them, from the chunk's bundles (env.chunk),
    once that env is seen to bind all four, and kept on the chunk as its
    machine; labels, the event-to-label table
    and the po-loc neighbours come from _layout, once per test.
    """
    chunk = env.chunk
    premises = getattr(chunk, "machine", None)
    if premises is None:
        if missing := [k for k in ("ppo", "fence", "prop", "hb") if k not in env]:
            raise CatError(f"power model binds no {', '.join(missing)}")
        premises = chunk.machine = _premises(cand.source, chunk)
    return MachineContext(cand, premises, cand.j)


def _fires(ctx, i, done):
    """Label i can fire from the done set: not done, needs met, unwedged."""
    return not (done >> i & 1 or ctx.need[i] & ~done or ctx.block[i] & done)


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


def _preds(ctx):
    """The precedence graph of ctx's premises: preds[i] holds each label
    that label i needs and each label whose being done label i wedges."""
    preds = list(ctx.need)  # a NEVER keeps bits no done set covers
    for i, block in enumerate(ctx.block):
        block &= ~(1 << i)  # a label never wedges itself
        while block:
            low = block & -block
            preds[low.bit_length() - 1] |= 1 << i
            block ^= low
    return preds


def machine_accepts(ctx):
    """True when some interleaving fires every label of the candidate."""
    return not ctx.premises.rejected[ctx.j]


def replay_path(ctx, path):
    """Run path label by label.  Returns (accepted, first_blocked_index)."""
    done = 0
    for step, label in enumerate(path):
        i = ctx.label_index.get(label)
        if i is None or not _fires(ctx, i, done):
            return False, step
        done |= 1 << i
    return done == (1 << len(ctx.labels)) - 1, None


def witness_path(ctx):
    """The machine's firing order for a candidate it accepts.

    Sorts _preds, the candidate's part of the graph machine_accepts
    decides, preferring c(w1) before c(w2) for program writes with
    (w1, w2) in co | WW(prop+): that order is kept where the premises
    allow it and dropped where they do not.  Raises
    WitnessCycleError, naming the labels that never fire, exactly when
    machine_accepts rejects the candidate.
    """
    cand, preds = ctx.cand, _preds(ctx)
    lay = _layout(cand.source)
    writes, slot = lay.writes, lay.slot
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
    rcp = sorted(e.id for e in cand.events if e.thread == "init")
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


@per_test
def _behavior(t):
    """A function giving a candidate of t's behavior: its rf pairs, made
    once per rf choice, and its observed state joined by "; "."""
    outcome, rfs = final_outcome(t), {}

    def behavior(cand):
        bits = cand.chunk.blocks("rf")[cand.j]
        if bits not in rfs:
            rfs[bits] = frozenset(Relation(t.n, bits).pairs())
        return rfs[bits], outcome(cand)[1]

    return behavior


def cross_check(t, model, bound: int = DEFAULT_BOUND):
    """Machine and model behaviors of t, evaluating model once per candidate.

    Returns (machine behaviors, model behaviors, context of the first
    machine-accepted candidate or None); the model's env feeds the machine.
    """
    from .cat import bind, run_model
    from .executions import enumerate_candidates

    if len(t.events) > bound:
        raise BoundError(f"{t.name}: {len(t.events)} memory events exceed bound {bound}")
    accepted, allowed, first = set(), set(), None
    judge, behavior = bind(model, t), _behavior(t)
    for cand in enumerate_candidates(t):
        result = run_model(judge, cand)
        ctx = machine_context(cand, result.env)
        accepts = machine_accepts(ctx)
        if accepts or result.passed:
            seen = behavior(cand)
            if accepts:
                accepted.add(seen)
                first = first or ctx
            if result.passed:
                allowed.add(seen)
    return accepted, allowed, first


def enumerate_accepted(t, bound: int = DEFAULT_BOUND):
    """Behaviors {(rf pairs, observed state)} with an accepted machine run,
    the state joined by "; "."""
    from .models import load_builtin

    return cross_check(t, load_builtin("power"), bound)[0]


def model_behaviors(t, model):
    """Behaviors the axiomatic model allows; same shape as enumerate_accepted."""
    from .cat import bind, run_model
    from .executions import enumerate_candidates

    judge, behavior = bind(model, t), _behavior(t)
    return {behavior(c) for c in enumerate_candidates(t) if run_model(judge, c).passed}
