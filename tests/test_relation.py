"""Relational algebra unit tests. Derived expectations come from oracles.py."""

import importlib
import inspect
import itertools
import operator
import pkgutil
import random
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memcat
from memcat import suite
from memcat.cat import DIRS, Empty, Inter, Let, Name, Union
from memcat.litmus import Xor
from memcat.relation import (
    Candidate,
    Event,
    MemRead,
    MemWrite,
    Packing,
    Relation,
    check_acyclic,
    check_irreflexive,
    closure,
    compose,
    restrict,
)

from oracles import brute_fr, closure_pairs, compose_pairs, is_acyclic_pairs


def same_thread(events):
    """All pairs of events on the same thread, (e, e) included."""
    threads = {}
    for e in events:
        threads[e.thread] = threads.get(e.thread, 0) | 1 << e.id
    n, bits = len(events), 0
    for e in events:
        bits |= threads[e.thread] << e.id * n
    return Relation(n, bits)


def same_loc(events):
    """All pairs of distinct events on the same location."""
    groups = {}
    for e in events:
        groups[e.action.loc] = groups.get(e.action.loc, 0) | 1 << e.id
    n, bits = len(events), 0
    for e in events:
        bits |= (groups[e.action.loc] & ~(1 << e.id)) << e.id * n
    return Relation(n, bits)


def rel(n, *pairs):
    return Relation.from_pairs(n, pairs)


def pair_sets(n):
    return st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n
    )


# up to 14 events, so that rows end past bit 64 and bit 128 of the int
def small_relations(max_n=14):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.builds(lambda ps: Relation.from_pairs(n, ps), pair_sets(n))
    )


def _event(i):
    return st.builds(
        lambda thread, loc, write: Event(
            i, thread, 0, MemWrite(loc, 0) if write else MemRead(loc)
        ),
        st.sampled_from(("init", "T0", "T1")),
        st.sampled_from("xy"),
        st.booleans(),
    )


def events_and_pair_sets(count, max_n=14):
    """(events, pair set, ...) over one universe of 1..max_n random events."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.tuples(*(_event(i) for i in range(n))), *[pair_sets(n)] * count
        )
    )


# ---------------------------------------------------------------- compose

def test_compose_definition_instance():
    a, b, c = 0, 1, 2
    assert set(compose(rel(3, (a, b)), rel(3, (b, c))).pairs()) == {(a, c)}


def test_compose_empty_annihilates():
    r = rel(3, (0, 1), (1, 2))
    assert not compose(r, Relation.empty(3)).pairs()
    assert not compose(Relation.empty(3), r).pairs()


def test_compose_mismatched_universe_rejected():
    with pytest.raises(ValueError):
        compose(rel(3, (0, 1)), rel(4, (0, 1)))


def test_rf_fr_composes_to_co_on_two_write_one_read_cell():
    # One location, two program writes, one read: for every co order and rf
    # choice, rf;fr lands inside co (the rf;fr = co reduction, checked by
    # enumerating all cases by hand).
    init, w1, w2, r = 0, 1, 2, 3
    for order in itertools.permutations([w1, w2]):
        chain = [init, *order]
        co_pairs = {
            (chain[i], chain[j])
            for i in range(3)
            for j in range(i + 1, 3)
        }
        for src in chain:
            rf_pairs = {(src, r)}
            fr_pairs = brute_fr(rf_pairs, co_pairs)
            got = compose_pairs(rf_pairs, fr_pairs)
            assert got <= co_pairs
            # the composition is exactly the co edges leaving the rf source
            assert got == {(a, b) for a, b in co_pairs if a == src}


# ---------------------------------------------------------------- closure

def test_closure_chain():
    r = closure(rel(3, (0, 1), (1, 2)))
    assert set(r.pairs()) == {(0, 1), (1, 2), (0, 2)}


def test_reflexive_closure_of_empty_is_identity():
    r = closure(Relation.empty(3), reflexive=True)
    assert set(r.pairs()) == {(0, 0), (1, 1), (2, 2)}


def test_hb_star_on_message_passing_shape():
    # Hand-built 4-event shape: a,b on T0; c,d on T1; ppo (c,d); rfe (b,c).
    hb = rel(4, (2, 3), (1, 2))
    star = closure(hb, reflexive=True)
    got = set(star.pairs())
    assert (2, 3) in got and (1, 2) in got and (1, 3) in got
    assert all((i, i) in got for i in range(4))


@given(small_relations())
@settings(max_examples=120, deadline=None)
def test_closure_is_least_transitive_and_idempotent(r):
    n = r.n
    plus = closure(r)
    expected = closure_pairs(set(r.pairs()), range(n))
    assert set(plus.pairs()) == expected
    assert set(closure(plus).pairs()) == expected


# ---------------------------------------------------------------- acyclic

def test_single_edge_acyclic():
    assert check_acyclic(rel(2, (0, 1))) is None


def test_two_cycle_detected():
    cyc = check_acyclic(rel(2, (0, 1), (1, 0)))
    assert cyc is not None
    assert set(cyc) == {0, 1}


def test_cycle_witness_is_genuine():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 8)
        pairs = {
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(1, n * n))
        }
        r = Relation.from_pairs(n, pairs)
        cyc = check_acyclic(r)
        if cyc is None:
            assert is_acyclic_pairs(pairs, range(n))
        else:
            assert len(cyc) >= 1
            assert len(set(cyc)) == len(cyc)  # simple: no node repeats
            plus = closure_pairs(pairs, range(n))
            assert cyc[0] == min(x for x in range(n) if (x, x) in plus)
            for i, x in enumerate(cyc):
                assert (x, cyc[(i + 1) % len(cyc)]) in pairs


def test_co_ww_pattern_cycles_through_both_writes():
    # po-loc u com on the write-write coherence shape with co inverted.
    w1, w2 = 0, 1
    r = rel(2, (w1, w2), (w2, w1))  # po-loc edge and the reversed co edge
    cyc = check_acyclic(r)
    assert cyc is not None and set(cyc) == {w1, w2}


# ------------------------------------------------------------ irreflexive

def test_identity_is_reflexive():
    assert check_irreflexive(Relation.identity(3)) is not None


def test_empty_is_irreflexive():
    assert check_irreflexive(Relation.empty(3)) is None


@given(small_relations())
@settings(max_examples=120, deadline=None)
def test_acyclic_iff_closure_irreflexive(r):
    assert (check_acyclic(r) is None) == (check_irreflexive(closure(r)) is None)


# ---------------------------------------------------------------- restrict

def _sb_like_events():
    evs = (
        Event(0, "T0", 0, MemWrite("x", 1)),
        Event(1, "T0", 1, MemRead("y", 0)),
        Event(2, "T1", 0, MemWrite("y", 1)),
        Event(3, "T1", 1, MemRead("x", 0)),
    )
    return evs


def test_restrict_wr_on_store_buffering_po():
    evs = _sb_like_events()
    po = rel(4, (0, 1), (2, 3))
    wr = restrict(po, "W", "R", evs)
    assert set(wr.pairs()) == {(0, 1), (2, 3)}
    assert not restrict(po, "R", "W", evs).pairs()


def test_restrict_implements_lwfence_minus_wr():
    evs = _sb_like_events()
    fence = rel(4, (0, 1), (2, 3))
    lwfence = fence - restrict(fence, "W", "R", evs)
    assert not lwfence.pairs()


def test_restrict_empty_is_empty():
    assert not restrict(Relation.empty(4), "R", "R", _sb_like_events()).pairs()


# ---------------------------------------------------------------- derive_fr

def derive_fr(rf, co):
    """fr = rf^-1;co : each read before every write co-after its source."""
    return compose(rf.inverse(), co)


def test_read_from_init_sees_all_later_writes():
    # init (0) -> co -> w (1); read 2 takes init's value.
    rf = rel(3, (0, 2))
    co = rel(3, (0, 1))
    assert set(derive_fr(rf, co).pairs()) == {(2, 1)}


def test_read_from_co_maximal_write_has_no_fr():
    rf = rel(3, (1, 2))
    co = rel(3, (0, 1))
    assert not derive_fr(rf, co).pairs()


@given(small_relations(6), small_relations(6))
@settings(max_examples=120, deadline=None)
def test_derive_fr_matches_brute_force(rf, co):
    n = max(rf.n, co.n)
    rf = Relation.from_pairs(n, rf.pairs())
    co = Relation.from_pairs(n, co.pairs())
    assert set(derive_fr(rf, co).pairs()) == brute_fr(
        set(rf.pairs()), set(co.pairs())
    )


# --------------------------------------------------------------- split_scope

def split_scope(r, events):
    """Split into (internal, external) by thread of the endpoints."""
    internal = r & same_thread(events)
    return internal, r - internal


def test_split_scope_partitions_and_matches_threads():
    evs = _sb_like_events()
    rf = rel(4, (0, 1), (2, 3), (0, 3))
    internal, external = split_scope(rf, evs)
    assert set(internal.pairs()) == {(0, 1), (2, 3)}
    assert set(external.pairs()) == {(0, 3)}
    assert not (internal & external).pairs()
    assert set((internal | external).pairs()) == set(rf.pairs())


def test_split_scope_of_empty():
    internal, external = split_scope(Relation.empty(4), _sb_like_events())
    assert not internal.pairs() and not external.pairs()


@st.composite
def sparse_bundles(draw):
    """(n, ps, qs): two lists of m sparse pair sets over n <= 12 events;
    in each list, the rows and the columns outside a drawn set are empty
    in every pair set."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 5))

    def blocks():
        rows, cols = (sorted(draw(st.sets(st.integers(0, n - 1)))) for _ in "rc")
        if not rows or not cols:
            return [set()] * m
        pair = st.tuples(st.sampled_from(rows), st.sampled_from(cols))
        return [draw(st.sets(pair, max_size=2 * n)) for _ in range(m)]

    return n, blocks(), blocks()


@given(sparse_bundles())
@settings(max_examples=200, deadline=None)
def test_packing_kernels_match_pair_sets_block_by_block(case):
    n, ps, qs = case
    pack, one, nodes = Packing(n, len(ps)), Packing.single(n), range(n)

    def bundle(sets):
        return pack.join(one.to_bytes(Relation.from_pairs(n, s).bits) for s in sets)

    def blocks(bits):
        return [set(Relation(n, b).pairs()) for b in pack.split(bits)]

    a, b = bundle(ps), bundle(qs)
    plus = [closure_pairs(p, nodes) for p in ps]
    assert blocks(pack.compose(a, b)) == [compose_pairs(p, q) for p, q in zip(ps, qs)]
    assert blocks(pack.closure(a)) == plus
    assert blocks(pack.closure(a, reflexive=True)) == [c | {(i, i) for i in nodes} for c in plus]
    for bits, sets in ((a, ps), (pack.closure(a), plus)):
        assert [bool(x) for x in pack.loops(bits)] == [any(x == y for x, y in s) for s in sets]


def gathered_loops(pack, bits):
    """Packing.loops by gathering each block's diagonal at its bit 0, one
    shift-or pass over the bundle per diagonal bit."""
    bits &= pack.diag
    acc = 0
    for i in range(pack.n):
        acc |= bits >> i * (pack.n + 1)
    return pack.to_bytes(acc & pack.rep)[::pack.size]


@st.composite
def loop_bundles(draw):
    """(n, blocks): up to 300 relations over n <= 16 events, n = 8 and 16
    (n*n a multiple of 8, one spare byte per block) among them, each empty,
    with a full diagonal, with one loop, or any bits."""
    n = draw(st.sampled_from([8, 16]) | st.integers(1, 16))
    full = sum(1 << i * (n + 1) for i in range(n))
    one_loop = st.integers(0, n - 1).map(lambda i: 1 << i * (n + 1))
    block = st.just(0) | st.just(full) | one_loop | st.integers(0, (1 << n * n) - 1)
    return n, draw(st.lists(block, min_size=1, max_size=300))


@given(loop_bundles())
@settings(max_examples=300, deadline=None)
def test_packing_loops_match_gathered_diagonals(case):
    n, blocks = case
    pack, one = Packing(n, len(blocks)), Packing.single(n)
    bits = pack.join(map(one.to_bytes, blocks))
    got = pack.loops(bits)
    assert got == gathered_loops(pack, bits)
    assert [bool(x) for x in got] == [bool(b & one.diag) for b in blocks]


# ------------------------------------------------------------- algebra laws

@given(small_relations(6), small_relations(6), small_relations(6))
@settings(max_examples=80, deadline=None)
def test_compose_associative_union_intersection_laws(a, b, c):
    n = max(a.n, b.n, c.n)
    a = Relation.from_pairs(n, a.pairs())
    b = Relation.from_pairs(n, b.pairs())
    c = Relation.from_pairs(n, c.pairs())
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert (a | b) == (b | a)
    assert (a & b) == (b & a)
    assert ((a | b) | c) == (a | (b | c))
    assert ((a & b) & c) == (a & (b & c))
    assert (a | a) == a
    assert (a & a) == a


# ------------------------------------------- against a pairs-set reference

@given(events_and_pair_sets(2))
@settings(max_examples=120, deadline=None)
def test_operators_match_pair_sets(case):
    events, p, q = case
    n = len(events)
    a, b = Relation.from_pairs(n, p), Relation.from_pairs(n, q)
    assert a.pairs() == sorted(p)
    assert set((a | b).pairs()) == p | q
    assert set((a & b).pairs()) == p & q
    assert set((a - b).pairs()) == p - q
    assert set(compose(a, b).pairs()) == compose_pairs(p, q)
    assert set(a.inverse().pairs()) == {(y, x) for x, y in p}
    assert len(a) == len(p)
    assert bool(a) == bool(p)
    for x in range(-1, n + 1):
        for y in range(-1, n + 1):
            assert ((x, y) in a) == ((x, y) in p)
        if 0 <= x < n:
            assert a.successors(x) == sorted(y for x_, y in p if x_ == x)
    assert (a == b) == (p == q)
    same = Relation.from_pairs(n, sorted(p, reverse=True))
    assert same == a and hash(same) == hash(a)
    assert check_irreflexive(a) == min((x for x, y in p if x == y), default=None)


@given(events_and_pair_sets(1))
@settings(max_examples=120, deadline=None)
def test_restrict_matches_pair_sets_for_every_direction(case):
    events, p = case
    r = Relation.from_pairs(len(events), p)
    kinds = {"R": (MemRead,), "W": (MemWrite,), "M": (MemRead, MemWrite)}
    for src, tgt in DIRS.values():
        assert set(restrict(r, src, tgt, events).pairs()) == {
            (x, y)
            for x, y in p
            if isinstance(events[x].action, kinds[src])
            and isinstance(events[y].action, kinds[tgt])
        }


@given(events_and_pair_sets(1))
@settings(max_examples=120, deadline=None)
def test_split_scope_and_same_loc_match_pair_sets(case):
    events, p = case
    n = len(events)
    internal, external = split_scope(Relation.from_pairs(n, p), events)
    assert set(internal.pairs()) == {
        (x, y) for x, y in p if events[x].thread == events[y].thread
    }
    assert set(external.pairs()) == {
        (x, y) for x, y in p if events[x].thread != events[y].thread
    }
    assert set(same_loc(events).pairs()) == {
        (x, y)
        for x in range(n)
        for y in range(n)
        if x != y and events[x].action.loc == events[y].action.loc
    }


def test_set_operators_reject_mismatched_universes():
    for op in (operator.or_, operator.and_, operator.sub):
        with pytest.raises(ValueError):
            op(rel(3, (0, 1)), rel(4, (0, 1)))


def test_constructor_rejects_bits_outside_universe():
    assert set(Relation(2, 0b1111).pairs()) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for bits in (1 << 4, -1):
        with pytest.raises(ValueError):
            Relation(2, bits)


# (a, b, whether a == b): records compare like the frozen dataclasses they
# replace, pos and line left out
RECORDS = [
    (MemRead("x", 1), MemWrite("x", 1), False),
    (MemRead("x", 1), MemRead("x", 1), True),
    (MemRead("x"), MemRead("x", 1), False),
    (Event(0, "T0", 0, MemRead("x")), Event(0, "T0", 0, MemRead("x")), True),
    (Event(0, "T0", 0, MemRead("x")), Event(0, "T0", 0, MemWrite("x", None)), False),
    (Let("a", Name("po"), "m.cat:1:1"), Let("a", Name("po"), "m.cat:2:5"), True),
    (Let("a", Name("po"), "m.cat:1:1"), Let("a", Name("rf"), "m.cat:1:1"), False),
    (Xor("r1", "r2", "r2", 3), Xor("r1", "r2", "r2", 4), True),
    (Union(Name("po"), Name("rf")), Inter(Name("po"), Name("rf")), False),
    (Empty(), Empty(), True),
]


@pytest.mark.parametrize("a, b, equal", RECORDS, ids=[f"{a!r}-{b!r}" for a, b, _ in RECORDS])
def test_records_have_dataclass_value_semantics(a, b, equal):
    assert (a == b) is equal and (a != b) is not equal
    assert not equal or hash(a) == hash(b)
    for r in (a, b):
        assert r  # Empty() included: no record is falsy
        shadow = make_dataclass(type(r).__name__, r._fields)
        assert repr(r) == repr(shadow(*(getattr(r, f) for f in r._fields)))


def test_no_memcat_class_is_a_dataclass():
    names = [m.name for m in pkgutil.walk_packages(memcat.__path__, "memcat.")]
    classes = [c for name in names for _, c in inspect.getmembers(
        importlib.import_module(name), inspect.isclass) if c.__module__.startswith("memcat.")]
    assert len(classes) > 40
    assert [c for c in classes if hasattr(c, "__dataclass_fields__")] == []
    t = suite.load("mp")  # mutable records stay unhashable, and eq=False ones compare by identity
    with pytest.raises(TypeError):
        hash(t)
    cand = Candidate(t.events, t, None, 0)
    assert cand != Candidate(t.events, t, None, 0) and cand == cand
