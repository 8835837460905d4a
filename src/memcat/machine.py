"""Single-path operational machine cross-validating the axiomatic verdicts.

The machine runs one candidate execution at a time.  Per-thread program
order feeds a global pool of pending labels: each program write w carries
a commit label c(w) and a coherence-point label cp(w); each read r carries
a satisfy label s(w,r) and a commit label c(w,r), where w is the write the
candidate's rf picked for r.

The premises consult Power's ppo, fence, prop and hb, taken from the
caller's one evaluation of Power on the candidate; cross_check feeds that
result's env to the machine and its verdict to the axiomatic side.

A candidate is accepted when some interleaving fires every label.
machine_context turns each label's premises into two label bitmasks over
the done set: need, the labels that must already be done, and block, the
labels whose being done wedges it.  A label fires when it is not done,
all of its need is done and none of its block is.  The premises:

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
machine_accepts rejects the candidate.

What depends on the test alone is fixed once per test: label positions
(a read's labels sit at one index whatever its rf source; only the label
tuples name the source), which label bit each event has, and each read's
po-loc neighbours.  A candidate pays only for its rf, co and Power env.

Propagation is enforced over all four quadrants of prop.  Write-to-write
edges constrain the coherence-point order (cpw:order); edges that start
or end at a read (the cumulative fence chains, e.g. both directions of
the store-buffering shape under full fences) instead pin satisfy labels
against coherence points: sr:prop-rr, sr:prop-wr and cpw:prop-rw above.
Any co|prop cycle then maps onto a cycle of label orderings, so no
interleaving discharges it.

Every label fires once, so j in need[i] puts j before i and j in
block[i] puts i before j.  A full path exists exactly when that
precedence graph, _preds, is acyclic, and machine_accepts sorts it
topologically.  witness_path sorts the same graph, preferring commits in
co and prop order where the premises allow, so the witness is the
machine's own firing order.  replay_path runs a given path and reports
the index of the first step that cannot fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cat import CatError
from .executions import observed_state, per_test
from .relation import (
    Candidate,
    Packing,
    Relation,
    is_read,
    is_write,
)

Label = tuple

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


@dataclass
class MachineContext:
    cand: Candidate
    labels: tuple  # all pending labels, index = label id
    label_index: dict  # label -> id
    rf_src: dict  # read id -> write id
    # label bitmasks, indexed by label id
    need: tuple  # labels that must already be done; NEVER if it cannot fire
    block: tuple  # labels whose being done wedges it
    prop: Relation = field(repr=False, default=None)


# a need no done set covers
NEVER = -1


@per_test
def _layout(t):
    """What the premises take from t's events and po-loc alone: write and
    read ids, write labels, init, write and read event masks, slot and
    each read's po-loc neighbours.

    slot[e] is the bit of event e's first label, c(w) or s(w,r), at the
    same index whatever r's rf source; cp(w) is the next bit, and init
    writes have none.  neighbours[r] is (the mask of r's po-loc-earlier
    events, its last po-loc-earlier write, its first po-loc-later write,
    its po-loc-earlier reads); an absent write is None.
    """
    events, po_loc = t.events, t.po_loc
    writes = [e for e in events if is_write(e) and e.thread != "init"]
    reads = [e for e in events if is_read(e)]
    slot = [0] * t.n
    for k, e in enumerate(writes + reads):
        slot[e.id] = 1 << 2 * k
    neighbours = {}
    for r in reads:
        before = [e for e in events if (e.id, r.id) in po_loc]
        after = [e for e in events if is_write(e) and (r.id, e.id) in po_loc]
        last = max((e for e in before if is_write(e)), key=lambda e: e.po_index, default=None)
        first = min(after, key=lambda e: e.po_index, default=None)
        neighbours[r.id] = (_mask(before), last and last.id, first and first.id,
                            tuple(e.id for e in before if is_read(e)))
    write_labels = tuple(x for e in writes for x in (("cw", e.id), ("cpw", e.id)))
    init = _mask(e for e in events if e.thread == "init")
    return (tuple(e.id for e in writes), tuple(e.id for e in reads), write_labels,
            init, _mask(writes), _mask(reads), slot, neighbours)


def _mask(events):
    return sum(1 << e.id for e in events)


def machine_context(cand, env):
    """Turn every premise of one candidate into label bitmasks.

    env supplies the ppo/fence/prop/hb bindings the machine consults: the
    env of the caller's evaluation of Power on cand, run_model(power, cand).env.
    Label positions, the event-to-label table and each read's po-loc
    neighbours come from _layout, once per test; per candidate it reads
    only rf, co and Power's relations, as ints.
    """
    names = ("ppo", "fence", "prop", "hb")
    if missing := [k for k in names if k not in env]:
        raise CatError(f"power model binds no {', '.join(missing)}")
    ppo, fence, prop, hb = (env[k] for k in names)
    write_ids, read_ids, labels, init, writes, reads, slot, neighbours = _layout(cand.source)
    n, full, co = cand.n, (1 << cand.n) - 1, cand.co
    order, ppo_fence = cand.po_loc.bits | prop.bits, ppo.bits | fence.bits
    # (w, r): a co-successor of w reaches r by prop;hb*, which fails sr:obs
    one = Packing.single(n)
    hidden = one.compose(co.bits, one.compose(prop.bits, one.closure(hb.bits, True)))
    rf_src = {r: w for (w, r) in cand.rf.pairs()}

    def bits(events):
        """The first-label bits of an event bitmask's events."""
        out = 0
        while events:
            low = events & -events
            out |= slot[low.bit_length() - 1]
            events ^= low
        return out

    # cpw:co, cpw:prop-rw and sr:prop-wr: a label's needs along co and prop
    earlier = [0] * n
    for a, b in co.pairs():
        earlier[b] |= slot[a] << 1
    for x, y in prop.pairs():
        if (reads >> x ^ reads >> y) & 1:  # a read and a write
            earlier[y] |= slot[x] << (writes >> x & 1)

    need, block, labels = [], [], list(labels)
    for w in write_ids:
        later = order >> w * n & full  # cw:coWW, cw:prop and cpw:order
        later_writes = bits(later & writes)
        # an init write is done from the start, so it wedges for good
        need += [NEVER, NEVER] if later & init else [0, slot[w] | earlier[w]]  # cpw:buff
        block += [later_writes | bits(fence.bits >> w * n & reads), later_writes << 1]
    for r in read_ids:
        w = rf_src[r]
        labels += [("sr", w, r), ("cr", w, r)]
        later = ppo_fence >> r * n & full  # sr:ppo, cr:ppo-write and cr:ppo-read
        source = 0 if neighbours[r][0] >> w & 1 else slot[w]  # sr:source
        visible = _visible(co, rf_src, w, neighbours[r])
        need += [
            NEVER if hidden >> w * n + r & 1 else source | earlier[r],
            slot[r] if visible and not later & init else NEVER,
        ]
        block += [bits((later | prop.bits >> r * n) & reads), bits(later)]

    label_index = {label: i for i, label in enumerate(labels)}
    return MachineContext(cand, tuple(labels), label_index, rf_src, tuple(need),
                          tuple(block), prop)


def _visible(co, rf_src, w, neighbours):
    """w may service its read: it lies between the read's po-loc write
    neighbours, and no po-loc-earlier read saw a write co-after w."""
    before, last, first, reads = neighbours
    if last is not None and w != last and (last, w) not in co:
        return False
    if first is not None and not before >> w & 1 and (w, first) not in co:
        return False
    return not any((w, rf_src[e]) in co for e in reads)


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
    return not _linearise(_preds(ctx))[1]


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

    Sorts _preds, the graph machine_accepts sorts, preferring c(w1) before
    c(w2) for program writes with (w1, w2) in co | WW(prop+): that order is
    kept where the premises allow it and dropped where they do not.  Raises
    WitnessCycleError, naming the labels that never fire, exactly when
    machine_accepts rejects the candidate.
    """
    cand, preds = ctx.cand, _preds(ctx)
    writes, _, slot = _layout(cand.source)[4:7]
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


def _behavior(cand):
    return frozenset(cand.rf.pairs()), observed_state(cand)


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
    judge = bind(model, t)
    for cand in enumerate_candidates(t):
        result = run_model(judge, cand)
        ctx = machine_context(cand, result.env)
        accepts = machine_accepts(ctx)
        if accepts or result.passed:
            behavior = _behavior(cand)
            if accepts:
                accepted.add(behavior)
                first = first or ctx
            if result.passed:
                allowed.add(behavior)
    return accepted, allowed, first


def enumerate_accepted(t, bound: int = DEFAULT_BOUND):
    """Behaviors {(rf pairs, observed state)} with an accepted machine run."""
    from .models import load_builtin

    return cross_check(t, load_builtin("power"), bound)[0]


def model_behaviors(t, model):
    """Behaviors the axiomatic model allows; same shape as enumerate_accepted."""
    from .cat import bind, run_model
    from .executions import enumerate_candidates

    judge = bind(model, t)
    return {_behavior(c) for c in enumerate_candidates(t) if run_model(judge, c).passed}
