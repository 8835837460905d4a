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

Propagation is enforced over all four quadrants of prop.  Write-to-write
edges constrain the coherence-point order (cpw:order); edges that start
or end at a read (the cumulative fence chains, e.g. both directions of
the store-buffering shape under full fences) instead pin satisfy labels
against coherence points: sr:prop-rr, sr:prop-wr and cpw:prop-rw above.
Any co|prop cycle then maps onto a cycle of label orderings, so no
interleaving discharges it.

Every label fires once, so j in need[i] puts j before i and j in
block[i] puts i before j.  A full path exists exactly when that
precedence graph is acyclic, and machine_accepts sorts it topologically;
witness_path sorts its own, independently built edges the same way.
replay_path runs a given path and reports the index of the first step
that cannot fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cat import CatError
from .relation import (
    Candidate,
    Relation,
    closure,
    compose,
    is_read,
    is_write,
    restrict,
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
    write_ids: tuple
    read_ids: tuple
    rf_src: dict  # read id -> write id
    # label bitmasks, indexed by label id
    need: tuple  # labels that must already be done; NEVER if it cannot fire
    block: tuple  # labels whose being done wedges it
    ppo: Relation = field(repr=False, default=None)
    fence: Relation = field(repr=False, default=None)
    prop: Relation = field(repr=False, default=None)


# a need no done set covers
NEVER = -1


def machine_context(cand, env):
    """Turn every premise of one candidate into label bitmasks.

    env supplies the ppo/fence/prop/hb bindings the machine consults: the
    env of the caller's evaluation of Power on cand, run_model(power, cand).env.
    """
    names = ("ppo", "fence", "prop", "hb")
    if missing := [k for k in names if k not in env]:
        raise CatError(f"power model binds no {', '.join(missing)}")
    ppo, fence, prop, hb = (env[k] for k in names)
    ppo_fence = ppo | fence
    order = cand.po_loc | prop
    prop_hb_star = compose(prop, closure(hb, reflexive=True))
    co, co_before, prop_before = cand.co, cand.co.inverse(), prop.inverse()

    init_mask = sum(1 << e.id for e in cand.events if e.thread == "init")
    write_ids = tuple(
        e.id for e in cand.events if is_write(e) and e.thread != "init"
    )
    read_ids = tuple(e.id for e in cand.events if is_read(e))
    rf_src = {r: w for (w, r) in cand.rf.pairs()}

    labels = []
    for w in write_ids:
        labels.append(("cw", w))
        labels.append(("cpw", w))
    for r in read_ids:
        labels.append(("sr", rf_src[r], r))
        labels.append(("cr", rf_src[r], r))
    labels = tuple(labels)
    label_index = {l: i for i, l in enumerate(labels)}

    # event id -> bit of the label that commits a write (cw), brings it to
    # coherence (cpw) or satisfies a read (sr); init writes have none
    cw = {w: 1 << label_index[("cw", w)] for w in write_ids}
    cpw = {w: 1 << label_index[("cpw", w)] for w in write_ids}
    sr = {r: 1 << label_index[("sr", rf_src[r], r)] for r in read_ids}

    def bits(table, events):
        """The table's label bits for the events of an event bitmask."""
        return sum(b for x, b in table.items() if events >> x & 1)

    events_by_id = {e.id: e for e in cand.events}
    need, block = [], []
    for w in write_ids:
        later = order.row(w)  # cw:coWW, cw:prop and cpw:order
        # cpw:buff, cpw:co and cpw:prop-rw
        wait = cw[w] | bits(cpw, co_before.row(w)) | bits(sr, prop_before.row(w))
        # an init write is done from the start, so it wedges for good
        wedged = later & init_mask
        need += [NEVER if wedged else 0, NEVER if wedged else wait]
        block += [bits(cw, later) | bits(sr, fence.row(w)), bits(cpw, later)]
    for r in read_ids:
        w = rf_src[r]
        later = ppo_fence.row(r)  # sr:ppo, cr:ppo-write and cr:ppo-read
        source = 0 if (w, r) in cand.po_loc else cw.get(w, 0)  # sr:source
        obs = not any((w2, r) in prop_hb_star for w2 in co.successors(w))
        visible = _visible(cand, events_by_id, rf_src, w, r)
        need += [
            source | bits(cpw, prop_before.row(r)) if obs else NEVER,
            sr[r] if visible and not later & init_mask else NEVER,
        ]
        block += [bits(sr, later | prop.row(r)), bits(cw, later) | bits(sr, later)]

    return MachineContext(
        cand=cand,
        labels=labels,
        label_index=label_index,
        write_ids=write_ids,
        read_ids=read_ids,
        rf_src=rf_src,
        need=tuple(need),
        block=tuple(block),
        ppo=ppo,
        fence=fence,
        prop=prop,
    )


def _visible(cand, events_by_id, rf_src, w, r):
    """w may service r: it lies between r's po-loc write neighbours."""
    po_loc, co = cand.po_loc, cand.co
    rev = events_by_id[r]
    loc = rev.action.loc
    before = [
        e
        for e in cand.events
        if is_write(e) and e.action.loc == loc and (e.id, r) in po_loc
    ]
    after = [
        e
        for e in cand.events
        if is_write(e) and e.action.loc == loc and (r, e.id) in po_loc
    ]
    if before:
        wb = max(before, key=lambda e: e.po_index).id
        if w != wb and (wb, w) not in co:
            return False
    if after:
        wa = min(after, key=lambda e: e.po_index).id
        if (w, r) not in po_loc and (w, wa) not in co:
            return False
    for e in cand.events:
        if is_read(e) and e.action.loc == loc and (e.id, r) in po_loc:
            if (w, rf_src[e.id]) in co:
                return False
    return True


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
            i = 0
    return order, [i for i in range(len(preds)) if not done >> i & 1]


def machine_accepts(ctx):
    """True when some interleaving fires every label of the candidate."""
    preds = list(ctx.need)  # a NEVER keeps bits no done set covers
    for i, block in enumerate(ctx.block):
        for j in range(len(preds)):
            if block >> j & 1 and j != i:  # a label never wedges itself
                preds[j] |= 1 << i
    return not _linearise(preds)[1]


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
    """Build one accepted path for a model-passing candidate.

    Orders labels by the constraints the premises will check, then
    linearises.  A cycle means no single-path run exists for this
    candidate, which on passing candidates never happens.
    """
    cand = ctx.cand
    labels = ctx.labels
    index = ctx.label_index
    preds = [0] * len(labels)

    def edge(a, b):
        if a in index and b in index:
            preds[index[b]] |= 1 << index[a]

    for r in ctx.read_ids:
        w = ctx.rf_src[r]
        edge(("sr", w, r), ("cr", w, r))
    for w in ctx.write_ids:
        edge(("cw", w), ("cpw", w))

    write_flag = {e.id: is_write(e) for e in cand.events}
    read_flag = {e.id: is_read(e) for e in cand.events}

    for (w, r) in ctx.fence.pairs():
        if write_flag[w] and read_flag[r]:
            edge(("cw", w), ("sr", ctx.rf_src[r], r))
    for (w, r) in cand.rfe.pairs():
        edge(("cw", w), ("sr", w, r))

    cp_order = set(cand.co.pairs())
    prop_ww = restrict(closure(ctx.prop), "W", "W", cand.events)
    cp_order |= set(prop_ww.pairs())
    for (w1, w2) in cp_order:
        edge(("cpw", w1), ("cpw", w2))
        edge(("cw", w1), ("cw", w2))  # commits stay FIFO with coherence

    for (x, y) in ctx.prop.pairs():
        if read_flag[x] and read_flag[y]:
            edge(("sr", ctx.rf_src[x], x), ("sr", ctx.rf_src[y], y))
        elif write_flag[x] and read_flag[y]:
            edge(("cpw", x), ("sr", ctx.rf_src[y], y))
        elif read_flag[x] and write_flag[y]:
            edge(("sr", ctx.rf_src[x], x), ("cpw", y))

    ppo_fence = ctx.ppo | ctx.fence
    for (r, e) in ppo_fence.pairs():
        if not read_flag[r]:
            continue
        if read_flag[e]:
            edge(("cr", ctx.rf_src[r], r), ("sr", ctx.rf_src[e], e))
        else:
            edge(("cr", ctx.rf_src[r], r), ("cw", e))

    order, stuck = _linearise(preds)
    if stuck:
        raise WitnessCycleError(
            "witness order is cyclic through: "
            + ", ".join(sorted(label_str(ctx, labels[i]) for i in stuck))
        )
    return [labels[i] for i in order]


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
    src = ctx.cand.source
    names = getattr(src, "names", None) or {}
    name = {e.id: names.get(e.id, str(e.id)) for e in ctx.cand.events}
    if label[0] == "cw":
        return f"c({name[label[1]]})"
    if label[0] == "cpw":
        return f"cp({name[label[1]]})"
    if label[0] == "sr":
        return f"s({name[label[1]]},{name[label[2]]})"
    return f"c({name[label[1]]},{name[label[2]]})"


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
    from .executions import observed_state

    return frozenset(cand.rf.pairs()), observed_state(cand)


def cross_check(t, model, bound: int = DEFAULT_BOUND):
    """Machine and model behaviors of t, evaluating model once per candidate.

    Returns (machine behaviors, model behaviors, context of the first
    machine-accepted candidate or None); the model's env feeds the machine.
    """
    from .cat import bind, run_model
    from .executions import enumerate_candidates

    if len(t.events) > bound:
        raise BoundError(
            f"{t.name}: {len(t.events)} memory events exceed bound {bound}"
        )
    accepted, allowed, first = set(), set(), None
    judge = bind(model, t)
    for cand in enumerate_candidates(t):
        result = run_model(judge, cand)
        ctx = machine_context(cand, result.env)
        if machine_accepts(ctx):
            accepted.add(_behavior(cand))
            first = first or ctx
        if result.passed:
            allowed.add(_behavior(cand))
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
