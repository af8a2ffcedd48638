import gc
import random
import re
import sys
import tracemalloc
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
from motive_calc.sums import collect
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
    # a call on integer arguments, G(0,0,-1), is one token at the position of its name; so is a
    # scalar prefix, 12/3*, at the position of its numerator, with its value; a '(' names its ')'
    assert _tokenize(" 12/3*\tpi_1 . t(G(0,0,-1)) \n") == [
        ("scalar", 12, 1, Fraction(4)), ("name", "pi_1", 7), (".", ".", 12), ("name", "t", 14),
        ("(", "(", 15, 6), ("call", "G", 16, (0, 0, -1)), (")", ")", 25), ("end", None, 28),
    ]
    # a digit run ends where letters begin: "2pi0" is an integer and a name
    assert _tokenize("2pi0") == [("int", 2, 0), ("name", "pi0", 1), ("end", None, 4)]
    # whitespace may sit around each argument, but not between '-' and its digits; t is never a call
    assert _tokenize("piC ( 3 )+ G(- 1,2,1)")[:4] == [
        ("call", "piC", 0, (3,)), ("+", "+", 9), ("name", "G", 11), ("(", "(", 12, 10)]
    assert _tokenize("t(1)")[:3] == [("name", "t", 0), ("(", "(", 1, 3), ("int", 1, 2)]
    # whitespace may sit inside a scalar prefix; a zero denominator or a missing '*' leaves it token by
    # token, though "00*" after the '/' of 1/00* is a scalar prefix of its own
    assert _tokenize("3 / 007 *x")[0] == ("scalar", 3, 0, Fraction(3, 7))
    assert _tokenize("2 *")[0] == ("scalar", 2, 0, Fraction(2))
    assert [tok[0] for tok in _tokenize("1/0 x")] == ["int", "/", "int", "name", "end"]
    assert _tokenize("1/00*")[1:3] == [("/", "/", 1), ("scalar", 0, 2, Fraction(0))]
    assert [tok[0] for tok in _tokenize("3/4 (")] == ["int", "/", "int", "(", "end"]
    # an unmatched '(' names no ')', and a ')' closes the latest open '('
    assert _tokenize("((x)")[:2] == [("(", "(", 0), ("(", "(", 1, 3)]


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


# -- repeated groups, parsed once ------------------------------------------------

# group texts of names both modes know, so that one text parses inside T(...) and outside it
_COMMON_GROUPS = ("(Delta)", "(t(Delta))", "(2 * Delta)", "( Delta . Delta )", "(-Delta)", "(1/2*(Delta))", "((Delta))")


def _close(text: str) -> int:
    """The index of the ')' that closes the '(' at text[0]."""
    depth = 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if not depth:
            return i
    return -1


def _core(group: str) -> str:
    """The group inside the redundant parentheses around a parsed group: the text the parser keeps a node for."""
    inner = group[1:-1].strip()
    while inner.startswith("(") and _close(inner) == len(inner) - 1:
        group, inner = inner, inner[1:-1].strip()
    return group


def _group(rng: random.Random, mode: str) -> str:
    if rng.random() < 0.3:
        return rng.choice(_COMMON_GROUPS)
    return "(" + _expression(rng, mode) + ")"


def _repeat(rng: random.Random, a: str, mode: str) -> str:
    """a again, a with a space put in, or another group."""
    r = rng.random()
    if r < 0.5:
        return a
    if r < 0.75:
        i = rng.randint(1, len(a) - 1)
        return a[:i] + " " + a[i:]
    return _group(rng, mode)


def test_a_repeated_group_is_parsed_once_and_matches_the_oracle():
    """Sources that repeat a group: the oracle's tree or error, and one node exactly when text and mode agree."""
    rng = random.Random(35)
    shared = {True: 0, False: 0}
    cases = Counter()
    for _ in range(10_000):
        case = rng.randrange(5)
        mode = "threefold" if case == 3 else rng.choice(("surface", "threefold"))
        a = _group(rng, "surface" if case == 3 else mode)
        b = _repeat(rng, a, mode)
        same_mode = True
        if case == 0:
            source, pick = f"{a} . {b}", lambda t: (t.left, t.right)
        elif case == 1:
            source, pick = f"{a} - {b}", lambda t: (t.parts[0][1], t.parts[1][1])
        elif case == 2:
            source, pick = f"({a} + Delta) . {b}", lambda t: (t.left.parts[0][1], t.right)
        elif case == 3:  # a inside T(...), in surface mode, and b outside it, in threefold mode
            source, pick, same_mode = f"T({a}, Delta) . {b}", lambda t: (t.left.args[0], t.right), False
        else:  # a repeat after a malformed part, which parses now and then
            source, pick = f"{a} + ({_source(rng)}) - {b}", lambda t: (t.parts[0][1], t.parts[-1][1])
        got = _outcome(parse_expr, source, mode)
        assert got == _outcome(parse_by_tokens, source, mode), (source, mode)
        if type(got) is not tuple:
            x, y = pick(got)
            one = same_mode and _core(a) == _core(b)
            assert (x is y) == one, (source, mode)
            shared[one] += 1
            cases[case] += 1
    # thousands of parsed sources share a node, and thousands do not; each case parses hundreds of times,
    # and tens of sources with a malformed part between the two groups parse (1,470; 1,158; 43)
    assert min(shared.values()) > 1_000 and min(cases[case] for case in range(4)) > 300 and cases[4] > 20


@pytest.mark.parametrize(
    "source, message, position",
    [
        ("1/0 * pi0", "zero denominator", 2),
        ("1/0 pi0", "zero denominator", 2),
        ("3/4 pi0", "a scalar must be followed by '*'", 0),
        ("3/x * pi0", "expected 'int', found 'x'", 2),
        ("3/ * pi0", "expected 'int', found '*'", 3),
        ("2 * * pi0", "expected a factor, found '*'", 4),
        ("G(1, 2 * pi0)", "G expects 3 integer arguments", 0),
        ("pi0 . 2 * pi1", "expected a factor, found 2", 6),
        ("1/0/3 * pi0", "zero denominator", 2),
        ("1/2/3 * pi0", "a scalar must be followed by '*'", 0),
    ],
)
def test_a_malformed_scalar_raises_its_message_at_its_position(source, message, position):
    got = _outcome(parse_expr, source, "surface")
    assert got == _outcome(parse_by_tokens, source, "surface")
    assert got[1:] == (f"{message} (at position {position})", position)


def test_distinct_scalars_do_not_pile_up():
    sources = [f"{10**40 + i}/{10**39 + 2 * i + 1} * pi0" for i in range(5_000)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for source in sources:
            parse_expr(source)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 500_000


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


def test_a_node_the_tree_holds_twice_is_folded_once(monkeypatch):
    calls = []

    def counted(pairs, out):
        calls.append(out)
        return collect(pairs, out)

    monkeypatch.setattr(dsl, "collect", counted)
    part = Sum(((1, NamedAtom("G", (1, 0, 1))), (-1, Scale(Fraction(1, 2), NamedAtom("V")))))
    shared = eval_expr(Compose(part, part), 3)
    assert len(calls) == 2  # one fold of the two parts
    copied = eval_expr(Compose(part, Sum(((1, NamedAtom("G", (1, 0, 1))), (-1, Scale(Fraction(1, 2), NamedAtom("V")))))), 3)
    assert len(calls) == 6 and copied == shared
    tree = parse_expr("(G(1,0,1) - 1/2 * V) . (G(1,0,1) - 1/2 * V)")
    assert tree == Compose(part, part) and tree.left is tree.right
    assert evaluate("(G(1,0,1) - 1/2 * V) . (G(1,0,1) - 1/2 * V)", 3) == shared and len(calls) == 8


def test_a_shared_group_sees_a_patched_rule_and_alt11_is_built_at_each_query(monkeypatch):
    product = "(G(1,0,1) . G(0,1,1))"
    source = f"2 * {product} - {product}"  # one product, computed once
    composed = []
    monkeypatch.setattr(dsl, "compose", lambda x, y: composed.append(1) or surface.compose(x, y))
    clean = evaluate(source, 3)
    assert clean == evaluate(product, 3) and len(composed) == 2
    built = []
    count, alt11 = dsl._THREEFOLD_ATOMS["alt11"]
    monkeypatch.setitem(dsl._THREEFOLD_ATOMS, "alt11", (count, lambda n: built.append(n) or alt11(n)))
    clean_alt = evaluate("(alt11) + (alt11)", 3, "threefold")
    assert len(built) == 1
    monkeypatch.setattr(surface, "compose_atom_pair", _graph_pairs_doubled(surface.compose_atom_pair))
    patched = evaluate(source, 3)
    assert patched != clean and patched == evaluate(product, 3)
    patched_alt = evaluate("(alt11) + (alt11)", 3, "threefold")
    assert len(built) == 2 and patched_alt != clean_alt
    assert patched_alt == evaluate("2 * alt11", 3, "threefold") and len(built) == 3


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
