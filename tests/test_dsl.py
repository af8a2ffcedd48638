import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc.dsl import (
    Compose,
    EvalError,
    NamedAtom,
    ParseError,
    Scale,
    Sum,
    Transpose,
    UnknownAtomError,
    _tokenize,
    eval_expr,
    evaluate,
    parse_expr,
)
from motive_calc.surface import SurfCorr, VERT, build_pi_bars, delta

from flat_threefold import flat_eval
from support import print_expr


def test_parse_compose():
    ast = parse_expr("pi1 . pi2")
    assert ast == Compose(NamedAtom("pi1"), NamedAtom("pi2"))


def test_parse_scale_and_sum():
    ast = parse_expr("1/2 * (Delta - t(G(0,0,-1)))")
    assert isinstance(ast, Scale)
    assert ast.coeff == Fraction(1, 2)
    inner = ast.node
    assert isinstance(inner, Sum)
    assert inner.parts[0] == (1, NamedAtom("Delta"))
    sign, node = inner.parts[1]
    assert sign == -1
    assert node == Transpose(NamedAtom("G", (0, 0, -1)))


def test_parse_left_associative_composition():
    ast = parse_expr("pi0 . pi1 . pi2")
    assert ast == Compose(Compose(NamedAtom("pi0"), NamedAtom("pi1")), NamedAtom("pi2"))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("pi0 . ")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_expr("pi0 pi1")
    with pytest.raises(ParseError):
        parse_expr("1/2 pi0")


@pytest.mark.parametrize(
    "source, char, position",
    [
        ("G(1,2,1) . \u00b2", "\u00b2", 11),  # superscript two
        ("G(\u0661,2,1)", "\u0661", 2),  # Arabic-Indic one
        ("pi\u00e9", "\u00e9", 2),  # a letter outside ASCII
        ("pi0 .\u00a0pi1", "\u00a0", 5),  # a space outside ASCII
        ("pi0 $ pi1", "$", 4),
    ],
)
def test_tokenizer_accepts_ascii_only(source, char, position):
    with pytest.raises(ParseError) as err:
        parse_expr(source)
    assert err.value.position == position
    assert str(err.value) == f"unexpected character {char!r} (at position {position})"


def test_tokens_keep_their_kinds_and_positions():
    assert _tokenize(" 12/3*\tpi_1 . t(G(0,0,-1)) \n") == [
        ("int", 12, 1), ("/", "/", 3), ("int", 3, 4), ("*", "*", 5), ("name", "pi_1", 7),
        (".", ".", 12), ("name", "t", 14), ("(", "(", 15), ("name", "G", 16), ("(", "(", 17),
        ("int", 0, 18), (",", ",", 19), ("int", 0, 20), (",", ",", 21), ("-", "-", 22),
        ("int", 1, 23), (")", ")", 24), (")", ")", 25), ("end", None, 28),
    ]
    # a digit run ends where letters begin: "2pi0" is an integer and a name
    assert _tokenize("2pi0") == [("int", 2, 0), ("name", "pi0", 1), ("end", None, 4)]


def test_round_trip_corpus():
    corpus = [
        ("surface", "pi1 . pi2"),
        ("surface", "pi0 . pi0 - pi0"),
        ("surface", "1/2 * (Delta - t(G(0,0,-1)))"),
        ("surface", "-piC(0) + 2/3 * V . mu0"),
        ("surface", "t(mu0) . mu0"),
        ("surface", "CP(0,1,2) . CP(0,1,1) + piF - piInf"),
        ("threefold", "T(pi0, pi2) - ptilde(0,2)"),
        ("threefold", "sigma . ptilde(1,1) . sigma"),
        ("surface", "pi0 . (pi1 . pi2)"),  # right-nested chains keep their parentheses
        ("surface", "t(pi0 . (V . mu0))"),
    ]
    for mode, source in corpus:
        ast = parse_expr(source, mode)
        assert parse_expr(print_expr(ast), mode) == ast


def test_eval_orthogonality():
    assert evaluate("pi1 . pi2", 3).is_zero()
    assert evaluate("pi0 . pi0 - pi0", 3).is_zero()
    assert evaluate("piC(0) . piC(1)", 4).is_zero()


def test_eval_vertical_class():
    assert evaluate("t(mu0) . mu0", 3) == SurfCorr.of(3, VERT)
    assert evaluate("mu0 . t(mu0)", 3).is_zero()


def test_eval_identity_law():
    for source in ("Delta . pi1", "pi1 . Delta"):
        assert evaluate(source, 3) == build_pi_bars(3)["pi1"]


def test_eval_named_projector_sum():
    assert evaluate("piF + piInf", 3) == delta(3)


def test_eval_threefold():
    assert evaluate("ptilde(1,1) - alt11 - sym11", 3, "threefold").is_zero()
    assert evaluate("ptilde(0,1) . ptilde(1,0)", 3, "threefold").is_zero()
    assert evaluate("T(pi0, pi2) - ptilde(0,2)", 3, "threefold").is_zero()
    assert evaluate("b1 . b2", 3, "threefold").is_zero()
    assert not evaluate("sigma . sigma", 3, "threefold").is_zero()


def test_unknown_atom():
    with pytest.raises(UnknownAtomError):
        evaluate("nope", 3)
    with pytest.raises(UnknownAtomError):
        evaluate("alt11", 3)  # threefold name in surface mode


def test_eval_errors():
    with pytest.raises(EvalError):
        evaluate("G(1,2)", 3)  # wrong arity
    with pytest.raises(ValueError, match=re.escape("inversion part must be +-1")):
        evaluate("G(0,0,2)", 3)  # bad sign, refused where the atom is built
    with pytest.raises(ValueError, match=re.escape("CP(99;1,1) is outside level 3")):
        evaluate("piC(99)", 3)  # refused where the sum is built
    with pytest.raises(EvalError):
        evaluate("T(pi0, pi1) . T(1, 2)", 3, "threefold")
    # a name that takes no arguments rejects them, even ones never evaluated
    for source in ("pi1(5)", "Delta(1,2)", "mu0(x)", "V(0)", "piF(pi0)"):
        with pytest.raises(EvalError, match="takes no arguments"):
            evaluate(source, 3)
    for source in ("sigma(7)", "Delta(0)", "b1(1)", "alt11(0,0)"):
        with pytest.raises(EvalError, match="takes no arguments"):
            evaluate(source, 3, "threefold")


@pytest.mark.parametrize(
    "mode, source, position",
    [
        ("surface", "alt11", 0),
        ("surface", "pi0 . sigma", 6),
        ("surface", "T(pi0, pi2)", 0),
        ("surface", "G(b1,0,1)", 2),
        ("threefold", "pi0", 0),
        ("threefold", "sigma . t(mu0)", 10),
        ("threefold", "T(pi0, sigma)", 7),
        ("threefold", "T(T(pi0, pi0), pi0)", 2),
    ],
)
def test_parse_rejects_names_of_the_other_mode(mode, source, position):
    with pytest.raises(UnknownAtomError) as err:
        parse_expr(source, mode)
    assert err.value.position == position
    assert f"(at position {position})" in str(err.value)


@pytest.mark.parametrize(
    "mode, source, error, message, position",
    [
        ("surface", "pi1 . pi1 + nope", UnknownAtomError, "unknown surface atom 'nope'", 12),
        ("surface", "G(1,2)", EvalError, "G expects 3 integer arguments", 0),
        ("surface", "pi0 . piC(pi0)", EvalError, "piC expects 1 integer arguments", 6),
        ("surface", "Delta + mu0(x)", EvalError, "mu0 takes no arguments", 8),
        ("threefold", "sigma . ptilde(1)", EvalError, "ptilde expects 2 integer arguments", 8),
        ("threefold", "T(pi0, nope) + sigma", UnknownAtomError, "unknown surface atom 'nope'", 7),
        ("threefold", "sym11 . sigma(7)", EvalError, "sigma takes no arguments", 8),
    ],
)
def test_parse_rejects_unknown_names_and_wrong_argument_counts(mode, source, error, message, position):
    with pytest.raises(error) as err:
        parse_expr(source, mode)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_trees_built_by_hand_are_still_checked_when_evaluated():
    with pytest.raises(UnknownAtomError):
        eval_expr(NamedAtom("nope"), 3)
    with pytest.raises(EvalError, match="G expects 3 integer arguments"):
        eval_expr(NamedAtom("G", (1, 2)), 3)


def test_tensor_arguments_are_surface_expressions():
    ast = parse_expr("T(pi0 . V, Delta) . Delta", "threefold")
    assert ast == Compose(
        NamedAtom("T", (Compose(NamedAtom("pi0"), NamedAtom("V")), NamedAtom("Delta"))),
        NamedAtom("Delta"),
    )


def test_scale_binds_whole_chain():
    got = evaluate("1/2 * pi0 . pi0", 3)
    assert got == build_pi_bars(3)["pi0"].scale(Fraction(1, 2))


# -- the factored threefold evaluator against the flat engine --------------------

_SCALARS = st.sampled_from(["2", "1/2", "3/4", "-1"])
_SURFACE_LEAVES = st.one_of(
    st.sampled_from(["Delta", "V", "mu0", "t(mu0)", "pi0", "pi2"]),
    st.builds("G({},{},{})".format, st.integers(0, 2), st.integers(0, 2), st.sampled_from([1, -1])),
)
_SURFACE_FACTORS = st.one_of(
    _SURFACE_LEAVES,
    st.builds("{} {} {}".format, _SURFACE_LEAVES, st.sampled_from("+-"), _SURFACE_LEAVES),
    st.builds("{} . {}".format, _SURFACE_LEAVES, _SURFACE_LEAVES),
    st.builds("{} * ({})".format, _SCALARS, _SURFACE_LEAVES),
)
_THREEFOLD_LEAVES = st.one_of(
    st.sampled_from(["Delta", "sigma", "b1", "b2"]),
    st.builds("ptilde({},{})".format, st.integers(0, 2), st.integers(0, 2)),
    st.builds("T({}, {})".format, _SURFACE_FACTORS, _SURFACE_FACTORS),
)


def _threefold_nodes(children):
    return st.one_of(
        st.builds("({}) {} ({})".format, children, st.sampled_from("+-"), children),
        st.builds("{} * ({})".format, _SCALARS, children),
        st.builds("({}) . ({})".format, children, children),
        st.builds("t({})".format, children),
    )


THREEFOLD_QUERIES = st.recursive(_THREEFOLD_LEAVES, _threefold_nodes, max_leaves=4)


@settings(max_examples=100, deadline=None)
@given(THREEFOLD_QUERIES)
def test_factored_threefold_eval_matches_the_flat_engine(source):
    node = parse_expr(source, "threefold")
    got = eval_expr(node, 3, "threefold")
    want = flat_eval(node, 3)
    assert got == want
    assert got.render() == want.render()


def test_named_threefold_atoms_match_the_flat_engine():
    for source in ("alt11", "sym11", "t(alt11) . sigma - sym11", "t(sigma . b1) . ptilde(2,0)"):
        node = parse_expr(source, "threefold")
        assert eval_expr(node, 3, "threefold") == flat_eval(node, 3)
