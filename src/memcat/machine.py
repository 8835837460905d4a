"""Single-path operational machine cross-validating the axiomatic verdicts.

The machine runs one candidate execution at a time.  Per-thread program
order feeds a global pool of pending labels: each program write w carries
a commit label c(w) and a coherence-point label cp(w); each read r carries
a satisfy label s(w,r) and a commit label c(w,r), where w is the write the
candidate's rf picked for r.  Initial-state writes are treated as already
committed and already past coherence point.

The premises consult Power's ppo, fence, prop and hb, taken from the
caller's one evaluation of Power on the candidate; cross_check feeds that
result's env to the machine and its verdict to the axiomatic side.

A candidate is accepted when some interleaving of its labels discharges
every premise below.  Premise identifiers (reported by replay_path when a
step is illegal):

  c(w)    cw:coWW     no po-loc-later write already committed
          cw:prop     no prop-later write already committed
          cw:fences   no fence-later read already satisfied
  cp(w)   cpw:buff    w itself committed
          cpw:co      every co-predecessor already at coherence point
          cpw:order   no po-loc- or prop-later write already at coherence
          cpw:prop-rw every prop-earlier read already satisfied
  s(w,r)  sr:source   w is po-loc-before r or already committed
          sr:ppo      no ppo/fence-later read already satisfied
          sr:obs      no co-successor of w propagates to r ahead of it
          sr:prop-rr  no prop-later read already satisfied
          sr:prop-wr  every prop-earlier write has reached coherence
  c(w,r)  cr:satisfied  r was satisfied
          cr:visible    w lies between r's po-loc neighbours (and no
                        po-loc-earlier read saw a co-later write)
          cr:ppo-write  no ppo/fence-later write already committed
          cr:ppo-read   no ppo/fence-later read already satisfied

Propagation is enforced over all four quadrants of prop.  Write-to-write
edges constrain the coherence-point order (cpw:order); edges that start
or end at a read (the cumulative fence chains, e.g. both directions of
the store-buffering shape under full fences) instead pin satisfy labels
against coherence points: sr:prop-rr, sr:prop-wr and cpw:prop-rw above.
Any co|prop cycle then maps onto a cycle of label orderings, so no
interleaving discharges it.

The stuck-style premises never un-block: once violated the path is dead,
so the search simply abandons it.  The wait-style ones (cpw:co,
sr:prop-wr, cpw:prop-rw) merely postpone a label.  State is four monotone
sets (committed writes, coherence-done writes, satisfied reads, committed
reads), which makes the done-label bitmask a complete state key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .relation import (
    Candidate,
    Relation,
    closure,
    compose,
    is_mem,
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
    init_mask: int
    write_ids: tuple
    read_ids: tuple
    rf_src: dict  # read id -> write id
    # event-id bitmasks, indexed by event id
    block_cw_buff: dict  # w -> writes whose early commit wedges c(w)
    block_cw_sr: dict  # w -> reads whose early satisfaction wedges c(w)
    co_preds: dict  # w -> writes that must reach coherence first
    later_reads: dict  # r -> ppo/fence-later reads
    later_writes: dict  # r -> ppo/fence-later writes
    local_fwd: dict  # r -> rf source sits po-loc-before r
    sr_obs_ok: dict  # r -> bool, sr:obs holds
    visible_ok: dict  # r -> bool, cr:visible holds
    prop_rr_later: dict  # r -> prop-later reads
    prop_wr_preds: dict  # r -> prop-earlier writes (must be past coherence)
    prop_rw_preds: dict  # w -> prop-earlier reads (must be satisfied)
    ppo: Relation = field(repr=False, default=None)
    fence: Relation = field(repr=False, default=None)
    prop: Relation = field(repr=False, default=None)


def machine_context(cand, env):
    """Precompute premise tables for one candidate.

    env supplies the ppo/fence/prop/hb bindings the machine consults: the
    env of the caller's evaluation of Power on cand, run_model(power, cand).env.
    """
    ppo, fence, prop, hb = env["ppo"], env["fence"], env["prop"], env["hb"]
    ppo_fence = ppo | fence
    prop_hb_star = compose(prop, closure(hb, reflexive=True))
    po_loc, co, rf = cand.po_loc, cand.co, cand.rf

    init_ids = [e.id for e in cand.events if e.thread == "init"]
    init_mask = 0
    for i in init_ids:
        init_mask |= 1 << i
    write_ids = tuple(
        e.id for e in cand.events if is_write(e) and e.thread != "init"
    )
    read_ids = tuple(e.id for e in cand.events if is_read(e))
    rf_src = {r: w for (w, r) in rf.pairs()}
    write_flag = {e.id: is_write(e) for e in cand.events}
    read_flag = {e.id: is_read(e) for e in cand.events}

    def mask(ids):
        m = 0
        for i in ids:
            m |= 1 << i
        return m

    order_block = po_loc | prop
    prop_preds = {e.id: [] for e in cand.events}
    for (x, y) in prop.pairs():
        prop_preds[y].append(x)
    block_cw_buff = {}
    block_cw_sr = {}
    co_preds = {}
    prop_rw_preds = {}
    for w in write_ids:
        block_cw_buff[w] = mask(x for x in order_block.successors(w) if write_flag[x])
        block_cw_sr[w] = mask(x for x in fence.successors(w) if read_flag[x])
        co_preds[w] = mask(x for (x, y) in co.pairs() if y == w)
        prop_rw_preds[w] = mask(x for x in prop_preds[w] if read_flag[x])

    events_by_id = {e.id: e for e in cand.events}
    later_reads = {}
    later_writes = {}
    local_fwd = {}
    sr_obs_ok = {}
    visible_ok = {}
    prop_rr_later = {}
    prop_wr_preds = {}
    for r in read_ids:
        later_reads[r] = mask(x for x in ppo_fence.successors(r) if read_flag[x])
        later_writes[r] = mask(x for x in ppo_fence.successors(r) if write_flag[x])
        prop_rr_later[r] = mask(x for x in prop.successors(r) if read_flag[x])
        prop_wr_preds[r] = mask(x for x in prop_preds[r] if write_flag[x])
        w = rf_src[r]
        local_fwd[r] = (w, r) in po_loc
        sr_obs_ok[r] = not any(
            (w2, r) in prop_hb_star for w2 in co.successors(w)
        )
        visible_ok[r] = _visible(cand, events_by_id, rf_src, w, r)

    labels = []
    for w in write_ids:
        labels.append(("cw", w))
        labels.append(("cpw", w))
    for r in read_ids:
        labels.append(("sr", rf_src[r], r))
        labels.append(("cr", rf_src[r], r))
    labels = tuple(labels)
    label_index = {l: i for i, l in enumerate(labels)}

    return MachineContext(
        cand=cand,
        labels=labels,
        label_index=label_index,
        init_mask=init_mask,
        write_ids=write_ids,
        read_ids=read_ids,
        rf_src=rf_src,
        block_cw_buff=block_cw_buff,
        block_cw_sr=block_cw_sr,
        co_preds=co_preds,
        later_reads=later_reads,
        later_writes=later_writes,
        local_fwd=local_fwd,
        sr_obs_ok=sr_obs_ok,
        visible_ok=visible_ok,
        prop_rr_later=prop_rr_later,
        prop_wr_preds=prop_wr_preds,
        prop_rw_preds=prop_rw_preds,
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


def _enabled(ctx, label, done, buff, cpd, sr):
    kind = label[0]
    if kind == "cw":
        w = label[1]
        return (
            not buff & ctx.block_cw_buff[w]
            and not sr & ctx.block_cw_sr[w]
        )
    if kind == "cpw":
        w = label[1]
        return (
            bool(buff & (1 << w))
            and ctx.co_preds[w] & ~cpd == 0
            and not cpd & ctx.block_cw_buff[w]
            and ctx.prop_rw_preds[w] & ~sr == 0
        )
    if kind == "sr":
        _, w, r = label
        return (
            (ctx.local_fwd[r] or bool(buff & (1 << w)))
            and not sr & ctx.later_reads[r]
            and ctx.sr_obs_ok[r]
            and not sr & ctx.prop_rr_later[r]
            and ctx.prop_wr_preds[r] & ~cpd == 0
        )
    _, w, r = label
    return (
        bool(sr & (1 << r))
        and ctx.visible_ok[r]
        and not buff & ctx.later_writes[r]
        and not sr & ctx.later_reads[r]
    )


def _apply(label, buff, cpd, sr, cr):
    kind = label[0]
    if kind == "cw":
        buff |= 1 << label[1]
    elif kind == "cpw":
        cpd |= 1 << label[1]
    elif kind == "sr":
        sr |= 1 << label[2]
    else:
        cr |= 1 << label[2]
    return buff, cpd, sr, cr


def machine_accepts(ctx):
    """True when some interleaving discharges every label of the candidate."""
    labels = ctx.labels
    nlab = len(labels)
    full = (1 << nlab) - 1
    dead = set()

    def search(done, buff, cpd, sr, cr):
        if done == full:
            return True
        if done in dead:
            return False
        for i in range(nlab):
            bit = 1 << i
            if done & bit:
                continue
            if not _enabled(ctx, labels[i], done, buff, cpd, sr):
                continue
            if search(done | bit, *_apply(labels[i], buff, cpd, sr, cr)):
                return True
        dead.add(done)
        return False

    return search(0, ctx.init_mask, ctx.init_mask, 0, 0)


def replay_path(ctx, path):
    """Run path label by label.  Returns (accepted, first_blocked_index)."""
    done = 0
    buff, cpd, sr, cr = ctx.init_mask, ctx.init_mask, 0, 0
    for i, label in enumerate(path):
        idx = ctx.label_index.get(label)
        if idx is None or done & (1 << idx):
            return False, i
        if not _enabled(ctx, label, done, buff, cpd, sr):
            return False, i
        done |= 1 << idx
        buff, cpd, sr, cr = _apply(label, buff, cpd, sr, cr)
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
    n = len(labels)
    succs = [set() for _ in range(n)]

    def edge(a, b):
        if a in index and b in index:
            succs[index[a]].add(index[b])

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

    indeg = [0] * n
    for i in range(n):
        for j in succs[i]:
            indeg[j] += 1
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    out = []
    while ready:
        i = ready.pop(0)
        out.append(labels[i])
        opened = []
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                opened.append(j)
        ready = sorted(ready + opened)
    if len(out) != n:
        stuck = sorted(
            label_str(ctx, labels[i]) for i in range(n) if indeg[i] > 0
        )
        raise WitnessCycleError(
            "witness order is cyclic through: " + ", ".join(stuck)
        )
    return out


def derive_from_path(cand, path):
    """Recover (rf, co) pair sets from a completed path."""
    rf = set()
    rcp = sorted(e.id for e in cand.events if e.thread == "init")
    for label in path:
        if label[0] == "cr":
            rf.add((label[1], label[2]))
        elif label[0] == "cpw":
            rcp.append(label[1])
    loc_of = {e.id: e.action.loc for e in cand.events if is_mem(e)}
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
    from .cat import run_model
    from .executions import enumerate_candidates

    if len(t.events) > bound:
        raise BoundError(
            f"{t.name}: {len(t.events)} memory events exceed bound {bound}"
        )
    accepted, allowed, first = set(), set(), None
    for cand in enumerate_candidates(t):
        result = run_model(model, cand)
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
    from .cat import run_model
    from .executions import enumerate_candidates

    behaviors = set()
    for cand in enumerate_candidates(t):
        if run_model(model, cand).passed:
            behaviors.add(_behavior(cand))
    return behaviors
