"""Model language: lexer, parser, evaluator."""

import itertools
import re
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memcat import cat, executions, machine, models, suite
from memcat.cat import (
    DIRS,
    CatError,
    CheckResult,
    Check,
    Diff,
    DirFilter,
    Domain,
    Empty,
    Inter,
    Let,
    LetRec,
    Model,
    Name,
    Plus,
    Range,
    Seq,
    Star,
    Union,
    bind,
    parse_cat,
    run_model,
)
from memcat.executions import enumerate_candidates
from memcat.litmus import DEP_KINDS, parse_litmus, project
from memcat.relation import (
    Packing,
    Relation,
    check_acyclic,
    check_irreflexive,
    closure,
    compose,
    restrict,
)

from oracles import candidate_pairs, closure_pairs, sc_allowed
from test_executions import CHUNKED


MP = """\
mp power
init { x=0; y=0; rx=&x; ry=&y; r1=1; }
thread T0 {
  st [rx], r1
  st [ry], r1
}
thread T1 {
  ld r2, [ry]
  ld r3, [rx]
}
final exists (T1:r2=1 /\\ T1:r3=0)
"""


def mp_candidates():
    return list(enumerate_candidates(project(parse_litmus(MP))))


def exprs(src):
    return [s.expr for s in parse_cat(src).statements if isinstance(s, Let)]


# ------------------------------------------------------------------ parsing

def test_union_is_looser_than_seq_and_inter():
    (e,) = exprs("let x = a | b ; c & d")
    assert e == Union(Name("a"), Inter(Seq(Name("b"), Name("c")), Name("d")))


def test_postfix_binds_tightest():
    (e,) = exprs("let x = com* ; sync ; hb+")
    assert e == Seq(Seq(Star(Name("com")), Name("sync")), Plus(Name("hb")))


def test_diff_and_inter_share_precedence_left_assoc():
    (e,) = exprs("let x = a & b \\ c")
    assert e == Diff(Inter(Name("a"), Name("b")), Name("c"))


def test_direction_filter_is_a_call():
    (e,) = exprs("let x = WW(prop-base) | RM(lwsync)")
    assert e == Union(
        DirFilter("WW", Name("prop-base")), DirFilter("RM", Name("lwsync"))
    )


def test_domain_and_range_are_calls_only_before_a_parenthesis():
    (e,) = exprs("let x = domain(rf \\ po-loc) & range (fr)")
    assert e == Inter(Domain(Diff(Name("rf"), Name("po-loc"))), Range(Name("fr")))
    # otherwise they are ordinary names, which a model may bind and read
    model = parse_cat("let range = rf\nlet domain = range | co\nacyclic range | domain")
    assert [s.expr for s in model.statements] == [
        Name("rf"), Union(Name("range"), Name("co")), Union(Name("range"), Name("domain"))]
    assert run_model(model, mp_candidates()[0]).passed
    with pytest.raises(CatError, match=r"^<model>:1:16: unexpected '\)' in expression$"):
        parse_cat("let x = domain()")
    # any other name before "(" was and is an error, so no model that
    # parsed before reads differently now
    with pytest.raises(CatError, match=r"^<model>:1:12: unexpected '\(' at statement level$"):
        parse_cat("let x = po (rf)")


def test_domain_and_range_evaluate_to_the_identity_over_either_end():
    model = parse_cat("let d = domain(rf)\nlet r = range(rf)")
    for cand in mp_candidates():
        env = run_model(model, cand).env
        assert env["d"].pairs() == sorted({(w, w) for w, _ in cand.rf.pairs()})
        assert env["r"].pairs() == sorted({(r, r) for _, r in cand.rf.pairs()})


def test_reserved_compound_names_lex_whole():
    (e,) = exprs("let x = (ctrl+isync) | ctrl+isb | prop+")
    assert e == Union(
        Union(Name("ctrl+isync"), Name("ctrl+isb")), Plus(Name("prop"))
    )
    compound = [k for k in DEP_KINDS if "+" in k]
    assert "ctrl+cfence" in compound
    for kind in compound:
        (e,) = exprs(f"let x = {kind} | ({kind})+")
        assert e == Union(Name(kind), Plus(Name(kind)))
        # a longer name is the plain name, +, and the rest
        head, rest = kind.split("+")
        assert [tok[:2] for tok in cat._lex(kind + "x")][:3] == [
            ("name", head), ("op", "+"), ("name", rest + "x")
        ]


def test_zero_literal_and_nested_comments():
    (e,) = exprs("let x = 0 (* outer (* inner *) still out *) | po")
    assert e == Union(Empty(), Name("po"))


def test_let_rec_groups_bindings():
    m = parse_cat("let rec a = c | (a;a) and b = a | (b;c)")
    (stmt,) = m.statements
    assert isinstance(stmt, LetRec)
    assert [n for n, _ in stmt.bindings] == ["a", "b"]


def test_check_takes_whole_expression_and_as_name():
    m = parse_cat("acyclic po-loc | rf | fr | co as uniproc\nirreflexive fre;prop")
    c1, c2 = m.statements
    assert isinstance(c1, Check) and c1.kind == "acyclic" and c1.name == "uniproc"
    assert c1.expr == Union(Union(Union(Name("po-loc"), Name("rf")), Name("fr")), Name("co"))
    assert c2.kind == "irreflexive"


def test_comment_names_following_check_then_clears():
    m = parse_cat("(* SC PER LOCATION *)\nacyclic po\nacyclic rf")
    c1, c2 = m.statements
    assert c1.name == "sc-per-location"
    assert c2.name == "check-2"


def test_a_comment_before_a_let_names_no_later_check():
    m = parse_cat("(* foo *) let a = po\nacyclic a")
    assert m.statements[1].name == "check-1"


def test_a_comment_inside_a_check_names_no_later_check():
    m = parse_cat("acyclic po (* bar *) as x\nacyclic rf")
    assert [c.name for c in m.statements] == ["x", "check-2"]


def test_comment_whitespace_of_any_kind_becomes_one_hyphen():
    comment = "Per\tLocation\n\u00a0 SC\u2003order"
    m = parse_cat(f"(*  {comment} *)\nacyclic po")
    assert m.statements[0].name == "per-location-sc-order"
    assert m.statements[0].name == re.sub(r"\s+", "-", comment.lower())


def test_as_name_wins_over_comment():
    m = parse_cat("(* foo bar *) acyclic po as baz")
    assert m.statements[0].name == "baz"


def test_unknown_token_rejected():
    with pytest.raises(CatError):
        parse_cat("let x = a @ b")


def test_unterminated_comment_rejected():
    with pytest.raises(CatError):
        parse_cat("let x = a (* oops")


def test_parse_errors_name_file_line_and_column():
    with pytest.raises(CatError, match=r"^m\.cat:2:12: unexpected end of input in expression$"):
        parse_cat("let x = po\nacyclic x |", path="m.cat")
    with pytest.raises(CatError, match=r"^<model>:1:11: unexpected character '@'$"):
        parse_cat("let x = a @ b")
    with pytest.raises(CatError, match=r"^<model>:2:5: recursive name"):
        parse_cat("(* a *)\nlet rec a = b \\ a")


# ------------------------------------------------------------------ include

def write(path, text):
    path.write_text(text)
    return path


def test_include_splices_statements_in_place(tmp_path):
    write(tmp_path / "defs.cat", "let y = x | rf\n(* inner *)\nacyclic y\n")
    top = write(tmp_path / "top.cat", 'let x = po\ninclude "defs.cat"\nacyclic x as outer\n')
    m = parse_cat(top.read_text(), top)
    assert [type(s).__name__ for s in m.statements] == ["Let", "Let", "Check", "Check"]
    assert [s.name for s in m.statements if isinstance(s, Check)] == ["inner", "outer"]


def test_include_looks_beside_the_file_then_in_include_dirs(tmp_path):
    lib, here = tmp_path / "lib", tmp_path / "here"
    lib.mkdir()
    here.mkdir()
    write(lib / "frag.cat", "let z = rf\n")
    write(lib / "both.cat", "let w = rf\n")
    write(here / "both.cat", "let w = po\n")
    top = write(here / "top.cat", 'include "frag.cat"\ninclude "both.cat"\n')
    z, w = parse_cat(top.read_text(), top, (lib,)).statements
    assert (z.name, z.expr) == ("z", Name("rf"))
    assert (w.name, w.expr) == ("w", Name("po"))


def test_missing_include_names_the_including_file(tmp_path):
    top = write(tmp_path / "top.cat", 'let x = po\n  include "nope.cat"\n')
    with pytest.raises(CatError, match=r"top\.cat:2:11: cannot find include 'nope\.cat'"):
        parse_cat(top.read_text(), top)


def test_include_cycle_rejected(tmp_path):
    write(tmp_path / "a.cat", 'include "b.cat"\n')
    b = write(tmp_path / "b.cat", 'include "a.cat"\n')
    with pytest.raises(CatError, match="include cycle"):
        parse_cat(b.read_text(), b)
    me = write(tmp_path / "me.cat", 'include "me.cat"\n')
    with pytest.raises(CatError, match="include cycle"):
        parse_cat(me.read_text(), me)


def test_parse_error_in_included_file_names_that_file(tmp_path):
    write(tmp_path / "frag.cat", "let y =\n")
    top = write(tmp_path / "top.cat", 'include "frag.cat"\n')
    with pytest.raises(CatError, match=r"frag\.cat:2:1: unexpected end of input"):
        parse_cat(top.read_text(), top)


def test_include_needs_a_string(tmp_path):
    with pytest.raises(CatError, match="expected string, got 'frag'"):
        parse_cat("include frag")
    with pytest.raises(CatError, match="unterminated string"):
        parse_cat('include "frag.cat\nacyclic po')


# --------------------------------------------------------------- monotonicity

def test_recursive_name_in_subtrahend_rejected():
    with pytest.raises(CatError, match="subtrahend|monotone"):
        parse_cat("let rec a = b \\ a")


def test_the_first_recursive_name_read_in_a_subtrahend_is_reported():
    # a and b are both subtracted in a's binding, b first; a is also
    # subtracted in b's binding
    with pytest.raises(CatError, match="recursive name 'b' in a subtrahend"):
        parse_cat("let rec a = a | (po \\ (b | a)) and b = po \\ a")


def test_recursion_under_closure_and_diff_lhs_allowed():
    parse_cat("let rec a = (a ; b) | c and b = (a \\ c) | b*")


# --------------------------------------------------------------- evaluation

def builtin_env(cand):
    return dict(run_model(Model(()), cand).env)


def test_builtin_env_has_expected_vocabulary():
    cand = mp_candidates()[0]
    env = builtin_env(cand)
    for key in [
        "po", "po-loc", "rf", "rfe", "rfi", "co", "coe", "coi",
        "fr", "fre", "fri", "com", "addr", "data", "ctrl",
        "ctrl+isync", "ctrl+isb", "ctrl+cfence",
        "sync", "lwsync", "eieio", "isync", "mfence",
        "dmb", "dsb", "dmb.st", "dsb.st", "isb", "0", "id",
    ]:
        assert key in env, key
    assert not env["0"]
    assert set(env["id"].pairs()) == {(i, i) for i in range(cand.n)}


def test_rebinding_a_builtin_rejected():
    with pytest.raises(CatError, match="po"):
        run_model(parse_cat("let po = 0"), mp_candidates()[0])


def test_duplicate_let_rejected():
    with pytest.raises(CatError, match="twice|already"):
        run_model(parse_cat("let q = po\nlet q = rf"), mp_candidates()[0])


def test_unbound_name_rejected():
    with pytest.raises(CatError, match="mystery"):
        run_model(parse_cat("acyclic mystery"), mp_candidates()[0])


def test_let_rec_reaches_transitive_closure():
    src = "let rec t = po | (t;t)\nacyclic t"
    for cand in mp_candidates():
        res = run_model(parse_cat(src), cand)
        p = candidate_pairs(cand)
        assert set(res.env["t"].pairs()) == closure_pairs(p["po"], p["nodes"])


def test_star_of_empty_is_identity():
    cand = mp_candidates()[0]
    res = run_model(parse_cat("let s = 0*\nacyclic 0"), cand)
    assert set(res.env["s"].pairs()) == {(i, i) for i in range(cand.n)}


def test_direction_filter_evaluates_by_event_kind():
    src = "let wr = WR(po)\nlet rr = RR(po)\nacyclic po"
    cand = mp_candidates()[0]
    res = run_model(parse_cat(src), cand)
    p = candidate_pairs(cand)
    assert set(res.env["wr"].pairs()) == {
        (a, b) for a, b in p["po"] if a in p["writes"] and b in p["reads"]
    }
    assert set(res.env["rr"].pairs()) == {
        (a, b) for a, b in p["po"] if a in p["reads"] and b in p["reads"]
    }


@pytest.mark.parametrize("src, tgt", [(s, t) for s in "RWM" for t in "RWM"])
def test_every_direction_filter_parses_and_evaluates(src, tgt):
    cand = mp_candidates()[0]
    res = run_model(parse_cat(f"let f = {src}{tgt}(po)\nacyclic po"), cand)
    p = candidate_pairs(cand)
    kinds = {"R": p["reads"], "W": p["writes"], "M": p["reads"] | p["writes"]}
    assert set(res.env["f"].pairs()) == {
        (a, b) for a, b in p["po"] if a in kinds[src] and b in kinds[tgt]
    }


def test_failed_check_reports_name_and_witness():
    res = run_model(parse_cat("irreflexive id as refl"), mp_candidates()[0])
    assert not res.passed
    assert res.failed == "refl"
    (chk,) = res.checks
    assert chk.witness is not None


def test_one_line_sc_model_matches_oracle_on_mp():
    model = parse_cat("(* sc *) acyclic po | rf | fr | co")
    for cand in mp_candidates():
        assert run_model(model, cand).passed == sc_allowed(cand)


# ------------------------------------------------------ reference evaluator
# The tree-walking evaluator run_model replaced: every candidate evaluates
# every node through the Relation algebra.  Kept as the oracle.


def reference_env(cand):
    same, fr = cand.source.same_thread, compose(cand.rf.inverse(), cand.co)
    env = {
        "po": cand.po, "po-loc": cand.po_loc,
        "rf": cand.rf, "rfe": cand.rf - same, "rfi": cand.rf & same,
        "co": cand.co, "coe": cand.co - same, "coi": cand.co & same,
        "fr": fr, "fre": fr - same, "fri": fr & same,
        "com": cand.co | cand.rf | fr,
        "0": Relation.empty(cand.n), "id": Relation.identity(cand.n),
    }
    env.update(cand.deps)
    env.update(cand.fences)
    return env


def reference_eval(node, env, cand):
    if isinstance(node, Name):
        try:
            return env[node.value]
        except KeyError:
            raise CatError(f"unbound name {node.value!r}") from None
    if isinstance(node, Empty):
        return Relation.empty(cand.n)
    if isinstance(node, Union):
        return reference_eval(node.left, env, cand) | reference_eval(node.right, env, cand)
    if isinstance(node, Inter):
        return reference_eval(node.left, env, cand) & reference_eval(node.right, env, cand)
    if isinstance(node, Diff):
        return reference_eval(node.left, env, cand) - reference_eval(node.right, env, cand)
    if isinstance(node, Seq):
        return compose(reference_eval(node.left, env, cand), reference_eval(node.right, env, cand))
    if isinstance(node, (Plus, Star)):
        return closure(reference_eval(node.expr, env, cand), reflexive=isinstance(node, Star))
    if isinstance(node, DirFilter):
        return restrict(reference_eval(node.expr, env, cand), *DIRS[node.dir], cand.events)
    if isinstance(node, (Domain, Range)):
        end = 0 if isinstance(node, Domain) else 1
        pairs = reference_eval(node.expr, env, cand).pairs()
        return Relation.from_pairs(cand.n, ((p[end], p[end]) for p in pairs))
    raise CatError(f"cannot evaluate {node!r}")


def reference_bind(env, name, value):
    if name in env:
        raise CatError(f"name {name!r} is already bound")
    env[name] = value


def reference_execute(stmt, env, cand, checks):
    if isinstance(stmt, Let):
        reference_bind(env, stmt.name, reference_eval(stmt.expr, env, cand))
    elif isinstance(stmt, LetRec):
        for name, _ in stmt.bindings:
            reference_bind(env, name, Relation.empty(cand.n))
        changed = True
        while changed:  # chaotic iteration to the least fixpoint
            changed = False
            for name, expr in stmt.bindings:
                new = reference_eval(expr, env, cand)
                if new != env[name]:
                    env[name] = new
                    changed = True
    else:
        r = reference_eval(stmt.expr, env, cand)
        witness = check_acyclic(r) if stmt.kind == "acyclic" else check_irreflexive(r)
        checks.append(CheckResult(stmt.name, stmt.kind, witness is None, witness))


def reference_run(model, cand):
    env, checks = reference_env(cand), []
    for stmt in model.statements:
        try:
            reference_execute(stmt, env, cand, checks)
        except CatError as exc:
            raise CatError(f"{stmt.pos}: {exc}") from None
        except RecursionError:
            raise CatError(f"{stmt.pos}: expression nested too deeply to evaluate") from None
    return SimpleNamespace(passed=all(c.ok for c in checks), checks=tuple(checks), env=env)


def test_builtin_env_matches_reference_env():
    for name in ("mp", "isa2+lwsync+addrs", "mp+dmb+fri-rfi-ctrlisb"):
        for cand in enumerate_candidates(suite.load(name)):
            assert builtin_env(cand) == reference_env(cand), name


# The names every candidate of a test shares, and those that differ
STATIC = [
    "po", "po-loc", "0", "id", "addr", "data", "ctrl", "ctrl+isync", "ctrl+isb",
    "sync", "lwsync", "eieio", "dmb", "dmb.st", "mfence",
]
DYNAMIC = ["rf", "rfe", "rfi", "co", "coe", "coi", "fr", "fre", "fri", "com"]
POS = "gen.cat:1:1"


def expressions(names, subtrahends=None):
    """Every node type over names; a difference subtracts subtrahends."""
    leaves = st.sampled_from(names).map(Name) | st.just(Empty())

    def extend(sub):
        right = sub if subtrahends is None else subtrahends
        return st.one_of(
            st.builds(Union, sub, sub),
            st.builds(Inter, sub, sub),
            st.builds(Diff, sub, right),
            st.builds(Seq, sub, sub),
            st.builds(Plus, sub),
            st.builds(Star, sub),
            st.builds(DirFilter, st.sampled_from(sorted(DIRS)), sub),
            st.builds(Domain, sub),
            st.builds(Range, sub),
        )

    return st.recursive(leaves, extend, max_leaves=8)


NAMED = STATIC + DYNAMIC + ["s", "d"]
# operands empty on every candidate of ORACLE_TESTS, none of which has a sync or mfence
EMPTY_OPERANDS = st.sampled_from([Empty(), Name("0"), Name("sync"), Name("mfence")])
STATIC_EXPRESSIONS = expressions(STATIC)
MIXED_EXPRESSIONS = expressions(STATIC + DYNAMIC + ["s"])
STATIC_REC_EXPRESSIONS = expressions(STATIC + ["s", "sr"], STATIC_EXPRESSIONS)
REC_EXPRESSIONS = expressions(NAMED + ["a", "b"], expressions(NAMED))
CHECKED_EXPRESSIONS = expressions(NAMED + ["sr", "a", "b"])


@st.composite
def generated_models(draw):
    """A static let, a mixed let, a static and a mixed let rec, two checks.
    One expression is closed in the mixed let rec (where it may read a or
    b), in a let and by a third check, an acyclic one; and a let is a
    sequence or an intersection one of whose operands is empty."""
    reading_a_or_b = st.builds(Seq, st.sampled_from([Name("a"), Name("b")]), REC_EXPRESSIONS)
    closed, close = draw(REC_EXPRESSIONS | reading_a_or_b), st.sampled_from([Plus, Star])
    op, empty, other = draw(st.sampled_from([Seq, Inter])), draw(EMPTY_OPERANDS), draw(CHECKED_EXPRESSIONS)
    return Model((
        Let("s", draw(STATIC_EXPRESSIONS), POS),
        Let("d", draw(MIXED_EXPRESSIONS), POS),
        LetRec((("sr", draw(STATIC_REC_EXPRESSIONS)),), POS),
        LetRec((("a", Union(draw(REC_EXPRESSIONS), draw(close)(closed))),
                ("b", draw(REC_EXPRESSIONS))), POS),
        Check("acyclic", draw(CHECKED_EXPRESSIONS), "first", POS),
        Check("irreflexive", draw(CHECKED_EXPRESSIONS), "second", POS),
        Let("c", draw(close)(closed), POS),
        Let("e", op(empty, other) if draw(st.booleans()) else op(other, empty), POS),
        Check("acyclic", closed, "third", POS),
    ))


ORACLE_TESTS = [suite.load(name) for name in ("mp", "isa2+lwsync+addrs", "w+rw+2w+lwsyncs")]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(generated_models())
def test_run_model_matches_reference_evaluator(model):
    for t in ORACLE_TESTS:
        judge, cands = bind(model, t), list(enumerate_candidates(t))
        # the reverse sweep evaluates the chunks in another order
        for cand in cands + cands[::-1]:
            want, got = reference_run(model, cand), run_model(judge, cand)
            assert got.env == want.env
            assert got.checks == want.checks
            assert got.passed == want.passed


def test_bundled_models_match_reference_evaluator():
    for name in models.BUILTIN_MODELS:
        model = models.load_builtin(name)
        # bind the one compiled model to every test first, then judge their
        # candidates interleaved: a value of one test kept in the model
        # would show in another test's candidates
        runs = []
        for t in ORACLE_TESTS + [suite.load("mp+dmb+fri-rfi-ctrlisb")]:
            judge, cands = bind(model, t), list(enumerate_candidates(t))
            runs.append([(judge, cand) for cand in cands + cands[::-1]])  # then the chunks reversed
        for judge, cand in filter(None, itertools.chain(*itertools.zip_longest(*runs))):
            want, got = reference_run(model, cand), run_model(judge, cand)
            assert (got.env, got.checks) == (want.env, want.checks), (name, cand.source.name)


def test_models_match_reference_evaluator_on_several_chunks():
    cands = list(enumerate_candidates(CHUNKED))
    assert len(cands) > 2 * executions.CHUNK
    for name in models.BUILTIN_MODELS:
        model = models.load_builtin(name)
        judge = bind(model, CHUNKED)
        for cand in cands + cands[::-1]:
            # checks are built from the chunk's bytes when read, and equal the
            # reference's eager tuple, witnesses included
            want, got = reference_run(model, cand), run_model(judge, cand)
            assert (got.env, got.checks) == (want.env, want.checks), (name, cand.j)


@pytest.mark.parametrize("name", ["sc", "power"])
def test_reading_checks_splits_each_failed_check_once_per_chunk(monkeypatch, name):
    # every candidate's checks, read twice over 3 chunks, split each check's
    # bundle only on the chunks where some candidate fails it, once there
    model, cands = models.load_builtin(name), list(enumerate_candidates(CHUNKED))
    judge = bind(model, CHUNKED)
    results = [run_model(judge, cand) for cand in cands]
    split, splits = Packing.split, []

    def counted(self, bits):
        splits.append(bits)
        return split(self, bits)

    monkeypatch.setattr(Packing, "split", counted)
    got = [(r.checks, r.failed) for r in results + results]
    monkeypatch.undo()
    chunks = {id(r.chunk): r.chunk for r in results}.values()
    assert len(chunks) == 3
    assert len(splits) == sum(any(failed) for c in chunks for _, failed, *_ in c.checks) >= 3
    for cand, (checks, failed) in zip(cands + cands, got):
        want = reference_run(model, cand).checks
        assert checks == want
        assert failed == next((c.name for c in want if not c.ok), None)


@pytest.mark.parametrize("chunk", [1, 3])
def test_chunk_boundaries_match_reference_evaluator(monkeypatch, chunk):
    # chunks of 1 and 3 split every oracle test, 3 also inside a co order
    monkeypatch.setattr(executions, "CHUNK", chunk)
    for name in models.BUILTIN_MODELS:
        model = models.load_builtin(name)
        for t in ORACLE_TESTS:
            judge, cands = bind(model, t), list(enumerate_candidates(t))
            for cand in cands + cands[::-1]:
                want, got = reference_run(model, cand), run_model(judge, cand)
                assert (got.env, got.checks) == (want.env, want.checks), (name, t.name)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(generated_models())
def test_generated_models_match_reference_evaluator_across_chunks(model):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executions, "CHUNK", 3)
        for t in ORACLE_TESTS:
            judge, cands = bind(model, t), list(enumerate_candidates(t))
            for cand in cands + cands[::-1]:
                want, got = reference_run(model, cand), run_model(judge, cand)
                assert (got.env, got.checks) == (want.env, want.checks)


def assert_no_pair_ends_at_an_init_write(t, chunk):
    """No name of chunk, a chunk of t's candidates, relates an event to an
    init write but that write itself: the machine's fragment rests on it."""
    n = t.n
    ends = sum(1 << x * n + i for i in t.init_ids for x in range(n) if x != i) * chunk.pack.rep
    assert [name for name, bits in chunk.items() if bits & ends] == [], t.name


def test_no_bundled_model_relates_an_event_to_an_init_write():
    tests = [suite.load(name) for name in suite.names()] + [CHUNKED]
    for name in models.BUILTIN_MODELS:
        model = models.load_builtin(name)
        for t in tests:
            judge, chunks = bind(model, t), {}
            for cand in enumerate_candidates(t):
                result = run_model(judge, cand)
                chunks[id(result.chunk)] = result.chunk, machine.machine_context(cand, result).premises
            for chunk, premises in chunks.values():
                assert_no_pair_ends_at_an_init_write(t, chunk)
                assert_no_pair_ends_at_an_init_write(t, premises)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(generated_models())
def test_no_generated_model_relates_an_event_to_an_init_write(model):
    for t in ORACLE_TESTS:
        judge = bind(model, t)
        for cand in enumerate_candidates(t):
            if not cand.j:
                assert_no_pair_ends_at_an_init_write(t, run_model(judge, cand).chunk)


def test_let_rec_is_solved_once_per_chunk(monkeypatch):
    # power's group reads per-candidate names (ii0, ci0), so it is solved
    # for the whole chunk at once, not per candidate
    solved = []

    def counted(env, group):
        solved.append(tuple(name for name, *_ in group))
        return fixpoint(env, group)

    fixpoint = cat._fixpoint
    monkeypatch.setattr(cat, "_fixpoint", counted)
    t, power = suite.load("isa2+lwsync+addrs"), models.load_builtin("power")
    for chunk in (executions.CHUNK, 3):
        monkeypatch.setattr(executions, "CHUNK", chunk)
        solved.clear()
        cands, judge = list(enumerate_candidates(t)), bind(power, t)
        for cand in cands:
            run_model(judge, cand)
        assert solved == [("ii", "ic", "ci", "cc")] * -(-len(cands) // chunk)
    assert len(cands) > 3


def test_power_closes_hb_once_per_chunk(monkeypatch):
    # power closes hb four times: hb* in prop-base, prop and observation,
    # and acyclic hb (no thin air)
    closed, closure = [], Packing.closure

    def counted(pack, bits, reflexive=False):
        closed.append(bits)
        return closure(pack, bits, reflexive)

    monkeypatch.setattr(Packing, "closure", counted)
    t, power = suite.load("isa2+lwsync+addrs"), models.load_builtin("power")
    cands, judge = list(enumerate_candidates(t)), bind(power, t)
    chunk = run_model(judge, cands[0]).chunk
    assert all(run_model(judge, cand).chunk is chunk for cand in cands)  # one chunk
    assert chunk["hb"] and closed.count(chunk["hb"]) == 1


def test_binding_evaluates_nothing_and_a_chunk_runs_every_statement(monkeypatch):
    # power's lets over names every candidate shares, such as cc0's addr;po,
    # run with the chunk, once, as every other statement does
    t, power = suite.load("mp+lwsync+addr"), models.load_builtin("power")
    cands, calls = list(enumerate_candidates(t)), []
    for name in ("compose", "closure"):
        monkeypatch.setattr(Packing, name, lambda *a, f=getattr(Packing, name): calls.append(a) or f(*a))
    judge = bind(power, t)
    assert not calls
    chunk = run_model(judge, cands[0]).chunk
    lets = {s.name for s in power.statements if isinstance(s, Let)}
    lets |= {name for s in power.statements if isinstance(s, LetRec) for name, _ in s.bindings}
    assert calls and lets <= set(chunk)
    assert len(chunk.checks) == sum(isinstance(s, Check) for s in power.statements)
    made = len(calls)
    assert all(run_model(judge, cand).chunk is chunk for cand in cands)  # one chunk
    assert len(calls) == made


def test_a_closure_reading_its_let_rec_is_taken_at_every_pass():
    # (a;po)+ is closed three times, but inside the let rec it reads a,
    # which changes from pass to pass: the closure shared by the let and
    # the check must not be the one taken on the first pass
    e = Seq(Name("a"), Name("po"))
    model = Model((LetRec((("a", Union(Name("rf"), Plus(e))),), POS),
                   Let("c", Star(e), POS), Check("acyclic", e, "third", POS)))
    cands, grew = mp_candidates(), False
    judge = bind(model, cands[0].source)
    for cand in cands:
        want, got = reference_run(model, cand), run_model(judge, cand)
        assert (got.env, got.checks) == (want.env, want.checks)
        grew |= want.env["a"] != cand.rf  # a took more than one pass
    assert grew


def test_machine_reads_powers_chunk_once_per_chunk(monkeypatch):
    monkeypatch.setattr(executions, "CHUNK", 3)
    t, power = suite.load("mp"), models.load_builtin("power")
    judge = bind(power, t)
    cands = list(enumerate_candidates(t))
    results = [run_model(judge, cand) for cand in cands]
    extended = []

    def counted(model, t, base):
        extended.append(base)
        return extend(model, t, base)

    extend = cat.extend
    monkeypatch.setattr(cat, "extend", counted)
    for cand, result in zip(cands, results):
        machine.machine_context(cand, result)
    # the fragment runs once on each of Power's chunks, none per candidate
    chunks = list({id(r.chunk): r.chunk for r in results}.values())
    assert len(chunks) == -(-len(cands) // 3) == 2
    assert extended == chunks


def test_evaluate_test_and_cross_check_bind_once_per_test(monkeypatch):
    bound = []

    def counted(model, t):
        bound.append(t.name)
        return bind(model, t)

    monkeypatch.setattr(models, "bind", counted)
    monkeypatch.setattr(cat, "bind", counted)
    power, names = models.load_builtin("power"), ["mp", "iriw", "coRR"]
    for name in names:
        models.evaluate_test(suite.load(name), power, prune=True)
        machine.cross_check(suite.load(name), power)
    assert bound == [name for name in names for _ in "ab"]


def test_a_model_compiles_once_whatever_it_is_bound_to(monkeypatch):
    compiled = []

    def counted(model):
        compiled.extend(model.statements)
        return compile_model(model)

    compile_model = cat._compile
    monkeypatch.setattr(cat, "_compile", counted)
    power = models.load_builtin("power")
    for name in ["mp", "iriw", "coRR"]:
        models.evaluate_test(suite.load(name), power)
        machine.cross_check(suite.load(name), power)
    assert compiled == list(power.statements)  # each statement once


def test_bound_model_rejects_a_candidate_of_another_test():
    judge = bind(parse_cat("acyclic po"), suite.load("sb"))
    with pytest.raises(ValueError, match="bound to sb"):
        run_model(judge, mp_candidates()[0])


# each error inside a statement whose names all candidates share, one
# that depends on the candidate, and a let rec
NAME_ERRORS = [
    ("let a = po\nlet b = a | mystery", "m.cat:2:1: unbound name 'mystery'"),
    ("let a = po\nlet b = a | rf | mystery", "m.cat:2:1: unbound name 'mystery'"),
    ("let a = po\nlet rec b = a | (b;rf) | mystery", "m.cat:2:1: unbound name 'mystery'"),
    ("let a = po\nlet a = id", "m.cat:2:1: name 'a' is already bound"),
    ("let a = rf\nlet a = co", "m.cat:2:1: name 'a' is already bound"),
    ("let a = rf\nlet rec a = a | co", "m.cat:2:1: name 'a' is already bound"),
    ("acyclic po\nlet rec id = po", "m.cat:2:1: name 'id' is already bound"),
]


@pytest.mark.parametrize("src, msg", NAME_ERRORS)
def test_name_errors_name_their_statement(src, msg):
    model, t = parse_cat(src, path="m.cat"), suite.load("mp")
    for attempt in (lambda: bind(model, t), lambda: run_model(model, mp_candidates()[0])):
        with pytest.raises(CatError) as exc:
            attempt()
        assert str(exc.value) == msg
        assert str(exc.value) == str(_reference_error(model))


def _reference_error(model):
    try:
        reference_run(model, mp_candidates()[0])
    except CatError as exc:
        return exc
    raise AssertionError("reference evaluator accepted the model")


def _nested(depth, name):
    node = Name(name)
    for _ in range(depth):
        node = Union(node, Name(name))
    return node


def _at_depth(frames, fn):
    """fn() called with frames more Python frames on the stack."""
    return _at_depth(frames - 1, fn) if frames else fn()


TOO_DEEP = "m.cat:1:1: expression nested too deeply to evaluate"
STATEMENTS = {
    "static-let": lambda e: Let("x", e, "m.cat:1:1"),
    "let": lambda e: Let("x", e, "m.cat:1:1"),
    "let-rec": lambda e: LetRec((("x", e),), "m.cat:1:1"),
}


@pytest.mark.parametrize("kind", sorted(STATEMENTS))
def test_too_deep_to_bind_names_its_statement(kind):
    depth = sys.getrecursionlimit() + 100
    expr = _nested(depth, "po" if kind == "static-let" else "rf")
    model = Model((STATEMENTS[kind](expr),))
    with pytest.raises(CatError, match=f"^{TOO_DEEP}$"):
        bind(model, suite.load("mp"))


def test_an_earlier_error_is_reported_before_a_too_deep_statement():
    deep = _nested(sys.getrecursionlimit() + 100, "rf")
    model = Model((Let("a", Name("mystery"), "m.cat:1:1"), Let("b", deep, "m.cat:2:1")))
    with pytest.raises(CatError) as exc:
        bind(model, suite.load("mp"))
    assert str(exc.value) == str(_reference_error(model)) == "m.cat:1:1: unbound name 'mystery'"


@pytest.mark.parametrize("kind", ["let", "let-rec"])
def test_too_deep_to_run_names_its_statement(kind):
    # bound near the bottom of the stack, run near its top: the
    # candidate's functions recurse once per node and overflow
    model, t = Model((STATEMENTS[kind](_nested(300, "rf")),)), suite.load("mp")
    judge, cand = bind(model, t), next(enumerate_candidates(t))
    with pytest.raises(CatError, match=f"^{TOO_DEEP}$"):
        _at_depth(sys.getrecursionlimit() - 250, lambda: run_model(judge, cand))
