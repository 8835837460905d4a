"""Model language: lexer, parser, evaluator."""

import pytest

from memcat.cat import (
    CatError,
    Check,
    Diff,
    DirFilter,
    Empty,
    Inter,
    Let,
    LetRec,
    Name,
    Plus,
    Seq,
    Star,
    Union,
    builtin_env,
    parse_cat,
    run_model,
)
from memcat.executions import enumerate_candidates
from memcat.litmus import parse_litmus, project

from oracles import candidate_pairs, closure_pairs, sc_allowed


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


def test_reserved_compound_names_lex_whole():
    (e,) = exprs("let x = (ctrl+isync) | ctrl+isb | prop+")
    assert e == Union(
        Union(Name("ctrl+isync"), Name("ctrl+isb")), Plus(Name("prop"))
    )


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


def test_recursion_under_closure_and_diff_lhs_allowed():
    parse_cat("let rec a = (a ; b) | c and b = (a \\ c) | b*")


# --------------------------------------------------------------- evaluation

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
