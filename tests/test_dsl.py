import random
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motive_calc import dsl, surface
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

from dsl_oracle import parse_by_tokens
from flat_threefold import flat_eval
from support import print_expr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
    # a call on integer arguments, G(0,0,-1), is one token at the position of its name
    assert _tokenize(" 12/3*\tpi_1 . t(G(0,0,-1)) \n") == [
        ("int", 12, 1), ("/", "/", 3), ("int", 3, 4), ("*", "*", 5), ("name", "pi_1", 7),
        (".", ".", 12), ("name", "t", 14), ("(", "(", 15), ("call", "G", 16, (0, 0, -1)),
        (")", ")", 25), ("end", None, 28),
    ]
    # a digit run ends where letters begin: "2pi0" is an integer and a name
    assert _tokenize("2pi0") == [("int", 2, 0), ("name", "pi0", 1), ("end", None, 4)]
    # whitespace may sit around each argument, but not between '-' and its digits; t is never a call
    assert _tokenize("piC ( 3 )+ G(- 1,2,1)")[:4] == [
        ("call", "piC", 0, (3,)), ("+", "+", 9), ("name", "G", 11), ("(", "(", 12)]
    assert _tokenize("t(1)")[:3] == [("name", "t", 0), ("(", "(", 1), ("int", 1, 2)]


# -- the parser against the one-token-per-integer oracle ---------------------------

_NAMES = [*dsl._SURFACE_ATOMS, *dsl._THREEFOLD_ATOMS, "T", "t", "nope", "tt", "t_", "G1", "x"]
_PIECES = _NAMES + ["0", "1", "2", "12", "007", "-", "+", ".", ",", "(", ")", "*", "/", " ", "\t", "\n"]
_STRAYS = ("$", "\u00e9", "\u00a0", "\u00b2")
_SPACES = ("", "", "", " ", "  ", "\t")
_MODE_NAMES = {"surface": list(dsl._SURFACE_ATOMS), "threefold": [*dsl._THREEFOLD_ATOMS, "T"]}
_ARITY = {name: count for table in (dsl._SURFACE_ATOMS, dsl._THREEFOLD_ATOMS) for name, (count, _) in table.items()}


def _call(rng: random.Random, name: str) -> str:
    """name, applied to signed integers with random spacing when it takes them, now and then malformed."""
    count = _ARITY.get(name, 2) if rng.random() < 0.8 else rng.randint(0, 3)
    if not count and rng.random() < 0.8:
        return name
    args = [rng.choice(("", "", "", "", "-", "- ", "+")) + rng.choice(("0", "1", "2", "12")) for _ in range(count)]
    inner = "".join((rng.choice(_SPACES) + "," + rng.choice(_SPACES) if i else "") + a for i, a in enumerate(args))
    text = name + rng.choice(_SPACES) + "(" + rng.choice(_SPACES) + inner + rng.choice(_SPACES)
    return text + rng.choice((")", ")", ")", ")", ")", ")", "", ",)", " x)", "$)"))


def _expression(rng: random.Random, mode: str, depth: int = 1) -> str:
    """A source by the grammar in mode, with random spacing, one name in twenty from anywhere."""

    def factor() -> str:
        r = rng.random()
        if depth and r < 0.2:
            if mode == "threefold" and r < 0.1:
                return f"T({_expression(rng, 'surface', depth - 1)},{_expression(rng, 'surface', depth - 1)})"
            return rng.choice(("t(", "(")) + _expression(rng, mode, depth - 1) + ")"
        return _call(rng, rng.choice(_NAMES if r > 0.95 else _MODE_NAMES[mode]))

    def term() -> str:
        scalar = rng.choice(("", "", "", "", "2*", "1/2 * ", "3 /4*", "1/0*"))
        return scalar + (rng.choice(_SPACES) + "." + rng.choice(_SPACES)).join(factor() for _ in range(rng.randint(1, 2)))

    parts = [term() for _ in range(rng.randint(1, 2))]
    return rng.choice(("", "", "-", "- ")) + rng.choice((" + ", "-", " - ")).join(parts)


def _source(rng: random.Random) -> str:
    """Random pieces of the alphabet, or a source by the grammar with one character put in or taken out."""
    if rng.random() < 0.4:
        return "".join(
            rng.choice(_STRAYS) if r < 0.02 else _call(rng, rng.choice(_NAMES)) if r < 0.3 else rng.choice(_PIECES)
            for r in (rng.random() for _ in range(rng.randint(1, 8))))
    source = _expression(rng, rng.choice(("surface", "threefold")))
    if rng.random() < 0.3:
        i = rng.randrange(len(source) + 1)
        source = source[:i] + (rng.choice(_PIECES + list(_STRAYS)) if rng.random() < 0.5 else "") + source[i + 1:]
    return source


def _outcome(parse, source: str, mode: str):
    """The tree parse gives, or the type, message and position of what it raises."""
    try:
        return parse(source, mode)
    except Exception as exc:  # compared with the oracle's: any difference fails
        return type(exc), str(exc), getattr(exc, "position", None)


def _safe_tokens(source: str) -> list:
    try:
        return _tokenize(source)
    except ParseError:
        return []


def test_the_parser_matches_the_oracle_on_random_sources():
    rng = random.Random(22)
    calls = 0
    parsed = {"surface": 0, "threefold": 0}
    for _ in range(100_000):
        source = _source(rng)
        calls += any(tok[0] == "call" for tok in _safe_tokens(source))
        for mode in parsed:
            got = _outcome(parse_expr, source, mode)
            assert got == _outcome(parse_by_tokens, source, mode), (source, mode)
            parsed[mode] += type(got) is not tuple  # a node is a NamedTuple; what was raised, a plain tuple
    # about a fifth of the sources hold a call token, and thousands parse in each mode (19,886; 7,011 and 6,490)
    assert calls > 15_000 and min(parsed.values()) > 5_000


def test_nodes_of_different_kinds_with_equal_fields_differ():
    a, b = NamedAtom("pi0"), NamedAtom("pi1")
    for x, y in [(Transpose(a), Sum(a)), (Compose(a, b), Scale(a, b)), (NamedAtom("G", (a,)), Compose("G", (a,)))]:
        assert tuple(x) == tuple(y)
        assert x != y and y != x and not x == y
        assert len({x, y}) == 2
    assert Transpose(a) == Transpose(NamedAtom("pi0")) and not Transpose(a) != Transpose(NamedAtom("pi0"))
    assert Transpose(a) != (a,) and (a,) != Transpose(a)


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
    # a bool or a float equal to an integer is no argument, also once the value at that integer is stored
    for mode, atom in [("surface", NamedAtom("G", (1, 2, True))), ("surface", NamedAtom("CP", (0, 1.0, 1))),
                       ("surface", NamedAtom("piC", (False,))), ("threefold", NamedAtom("ptilde", (0, True)))]:
        eval_expr(NamedAtom(atom.name, tuple(map(int, atom.args))), 3, mode)
        with pytest.raises(EvalError, match=f"{atom.name} expects"):
            eval_expr(atom, 3, mode)


# -- the named sums, built once per process ----------------------------------------

def _graph_pairs_doubled(rule):
    """R1 doubled on every pair of automorphism graphs."""

    def doubled(x, y, level):
        produced = rule(x, y, level)
        if x[0] == y[0] == "G" and not x[1].collapse and not y[1].collapse:
            return [(atom, 2 * k) for atom, k in produced]
        return produced

    return doubled


def test_a_patched_rule_reaches_every_product_of_named_sums(monkeypatch):
    # alt11 and sym11 are products of the named sums, as is a product written in the query
    queries = [("surface", "G(1,0,1) . G(0,1,1)"), ("threefold", "alt11"), ("threefold", "sym11")]
    clean = [evaluate(source, 3, mode) for mode, source in queries]
    monkeypatch.setattr(surface, "compose_atom_pair", _graph_pairs_doubled(surface.compose_atom_pair))
    patched = [evaluate(source, 3, mode) for mode, source in queries]
    assert [p != c for p, c in zip(patched, clean)] == [True] * 3
    monkeypatch.undo()
    assert [evaluate(source, 3, mode) for mode, source in queries] == clean


def _named_keys(node, n: int, mode: str):
    """(mode, name, level, args) of each named atom of a tree, the indices that wrap mod N reduced."""
    if isinstance(node, NamedAtom):
        if node.name == "T" and mode == "threefold":
            for arg in node.args:
                yield from _named_keys(arg, n, "surface")
            return
        args = node.args
        if node.name == "G":
            args = (args[0] % n, args[1] % n, args[2])
        elif node.name == "CP":
            args = (args[0], args[1] % n, args[2] % n)
        yield mode, node.name, n, args
    elif isinstance(node, Sum):
        for _, part in node.parts:
            yield from _named_keys(part, n, mode)
    elif isinstance(node, Compose):
        yield from _named_keys(node.left, n, mode)
        yield from _named_keys(node.right, n, mode)
    else:
        yield from _named_keys(node.node, n, mode)


def test_an_eval_mix_pass_builds_each_named_sum_once(monkeypatch):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    built = []
    for mode, table in (("surface", dsl._SURFACE_ATOMS), ("threefold", dsl._THREEFOLD_ATOMS)):
        for name, (count, build) in table.items():
            def counted(n, *args, key=(mode, name), build=build):
                built.append((*key, n, args))
                return build(n, *args)

            monkeypatch.setitem(table, name, (count, counted))
    dsl._named_sum.cache_clear()
    queries = workloads.generate(1)
    for q in queries:
        evaluate(q.source, q.level, q.mode)
    keys = [key for q in queries for key in _named_keys(parse_expr(q.source, q.mode), q.level, q.mode)]
    assert not any(name in ("alt11", "sym11") for _, name, _, _ in keys)  # products, built at each query
    assert Counter(built) == dict.fromkeys(keys, 1)
    assert len(keys) > 8 * len(built)  # the pass names 13,502 atoms, 1,565 of them distinct


def test_the_stored_sums_are_bounded_by_the_atoms_of_a_level():
    # the indices that wrap mod N are reduced before a value is looked up, so any integers name 2N^2 graphs
    # and 4 N^2 component products at N = 3
    dsl._named_sum.cache_clear()
    wide = range(-3, 6)
    for i in wide:
        for j in wide:
            for s in (1, -1):
                evaluate(f"G({i},{j},{s})", 3)
            for c in range(4):
                evaluate(f"CP({c},{i},{j})", 3)
    assert dsl._named_sum.cache_info().currsize == 2 * 9 + 4 * 9
    assert evaluate("G(4,-1,1)", 3) is evaluate("G(1,2,1)", 3)


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
