"""Fuzz the three parsers: any text parses or raises the parser's own error.

Inputs are bundled sources with a few random edits (cut, insert, repeat
or overwrite a span, or add a line; the new text drawn from the format's
own vocabulary or made up) and free text.  The runs are derandomized so
every interpreter sees the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from memcat import suite
from memcat.cat import CatError, parse_cat
from memcat.cycles import ThrError, parse_thr
from memcat.litmus import LitmusError, parse_litmus, project
from memcat.models import BUNDLED_DIR

FUZZ = settings(derandomize=True, deadline=None, max_examples=300)

LITMUS_WORDS = [
    "{", "}", ";", "\n", " ", "#", "#1", "init", "thread T9 {", "expect", "final",
    "exists", "forall", "observed", "(", ")", "/\\", "\\/", "=", ":", "T0:", "r1",
    "&x", "x=5", "[rx]", ",", "mov r9, #2", "ld", "st", "xor", "add", "cmp r1, #0",
    "bne L1", "L1:", "lwsync", "sync", "dmb", "mfence", "isync", "power = allowed",
]
CAT_WORDS = [
    "(*", "*)", "let", "rec", "and", "include", '"', '"_common.cat"', "acyclic",
    "irreflexive", "as", "|", "&", "\\", ";", "+", "*", "(", ")", "=", "0", "po",
    "rf", "co", "fr", "po-loc", "ctrl+isync", "RR(", "WW", "id", "\n", " ",
]
THR_WORDS = [
    "T0:", "T1:", "Wx", "Rx", "Ry", "Wz", ":", " ", "\n", "#", "addr", "data",
    "ctrl", "ctrl+isync", "lwsync", "sync", "dmb", "mfence",
]


def _sources(paths):
    return [p.read_text() for p in sorted(paths)]


@st.composite
def edited(draw, sources, words):
    text = draw(st.sampled_from(sources))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 16)))
        piece = draw(st.sampled_from(words) | st.text(max_size=6))
        line = text.rfind("\n", 0, i) + 1
        text = draw(
            st.sampled_from(
                [
                    text[:i] + text[j:],
                    text[:i] + piece + text[i:],
                    text[:j] + text[i:j] + text[j:],
                    text[:i] + piece + text[j:],
                    text[:line] + piece + "\n" + text[line:],
                ]
            )
        )
    return text


def inputs(sources, words):
    return edited(sources, words) | st.text(max_size=200)


@FUZZ
@given(inputs(_sources(suite.suite_dir().glob("*.litmus")), LITMUS_WORDS))
def test_litmus_reader_raises_only_litmus_errors(text):
    try:
        project(parse_litmus(text))
    except LitmusError:
        pass


@FUZZ
@given(inputs(_sources(BUNDLED_DIR.glob("*.cat")), CAT_WORDS))
def test_cat_reader_raises_only_cat_errors(text):
    # includes resolve in the bundled models directory
    try:
        parse_cat(text, BUNDLED_DIR / "fuzzed.cat")
    except CatError:
        pass


@FUZZ
@given(inputs(_sources(suite.suite_dir().glob("*.thr")), THR_WORDS))
def test_thr_reader_raises_only_thr_errors(text):
    try:
        parse_thr(text)
    except ThrError:
        pass
