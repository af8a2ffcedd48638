"""Every sum is checked where it is built: input the model declares invalid raises there.

At N = 3 there are 4 cusps, each fiber over one an N-gon.  The table holds
each kind of atom and basis class with each index just out of range, an
unknown kind and an atom of another level, and each row goes through every
public constructor of its class: the constructor, with a coefficient of 1,
of 0 and beside a valid atom, and `of` (and `pure` for a `TensorExpr`).  Each
of them raises ValueError, and a float coefficient TypeError.  The
open-part sums take only the open atoms of the surface's graphs and
tGraphs, so a map x -> 7x, one of another level, a tGraph of an
automorphism (not the normal form of `open_tgraph`) and an unknown atom
are rows too.  A map slot of a surface or open-part atom takes only a
`SurfEnd`: a plain tuple equal to one, and a value that is no map (whose
label cannot print), are rows of both.  An index slot takes an int only:
a float or a bool equal to an index in range is a row of each class with
index slots.  Neither is the inversion part of `surf_end`, nor an integer
argument of a DSL atom built by hand, even one whose value at the equal
int is stored.  A map out of normal form (an index out of 0..N-1, an
inversion part other than +-1, a collapse with s = -1, a level below 3,
or a field of another type) is no `SurfEnd`: the constructor refuses it,
so a row whose atom would hold one (`Refused`) asserts that refusal where
the map is built.  An element of Q[G] holds elements of G of its own
level only, and elements of Q[G] or of Q[G^2 x| S_2] at levels 3 and 4
combined by +, -, * or a tensor product raise LevelMismatchError.  Two
sums of different classes added or subtracted raise TypeError, even when
both are empty: a surface correspondence and a divisor class, or an
element of Q[G], and a factored and an expanded threefold sum.  So do
the products of two classes, refused before any arithmetic: a
correspondence and an element of Q[G], a divisor class or an open-part
sum, either way, and a factored sum composed with one of another factor
class; and `+`, `-` and `expand` across factor classes.  A `TensorExpr`
given parts of two factor classes raises ValueError.  An
atom (g, h, swap) of an expanded element of Q[G^2 x| S_2], a `PairSum`,
holds two elements of G of its level and a bool swap: an element of level
4, a collapse, a swap of 2, 1, 1.0 or 0, and an atom that is no such
triple are rows.  A swap of 1, 1.0 or 0, which equal a bool, is a row of
every tensor sum, `TCorr`, `OpenTCorr` and `TensorExpr` too; a
`TensorExpr` refuses it also beside a part of the same factors with the
equal bool swap, before the two would merge under one key, with the text
of its `check`.  A motive takes only keys of the basis, whatever their
multiplicity, and multiplicities that are ints or `Count`s of two ints,
never a bool or a float.  The DSL
rows go through `motive-calc eval --level 3`, which exits 2 for each.
`test_the_table_raises_under_python_O` runs both tables again in a child
process under `python -O`.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from motive_calc.cli import main
from motive_calc.dsl import EvalError, NamedAtom, eval_expr
from motive_calc.endos import SurfEnd, surf_end
from motive_calc.groups import GroupRingElement, PairSum, epsilon2_projector, epsilon_projector
from motive_calc.motives import SYMBOL_N, Count, Motive
from motive_calc.sums import LevelMismatchError
from motive_calc.surface import (
    DA_FIBER, GENERIC_FIBER, VERT, DivClass, OpenCorr, SurfCorr, build_pi_bars, compose, cusp_prod, delta, sec_key,
    theta_key)
from motive_calc.threefold import FIBER3, OpenTCorr, TCorr, TensorExpr, ThreefoldDivClass, theta_half, theta_int

from support import aff_end

N = 3


class Refused:
    """The fields of a map that the `SurfEnd` constructor refuses: a row holding one asserts that refusal."""

    def __init__(self, *fields) -> None:
        self.fields = fields


def _refused_in(atom) -> Refused | None:
    """The `Refused` fields held in an atom, at any depth, or None."""
    if type(atom) is Refused:
        return atom
    for part in atom if type(atom) is tuple else ():
        if (got := _refused_in(part)) is not None:
            return got
    return None


def _builds(builds: dict, atom) -> dict:
    """builds, or, for an atom that holds a map the constructor refuses, the one build of that map."""
    refused = _refused_in(atom)
    return builds if refused is None else {"SurfEnd": lambda: SurfEnd(*refused.fields)}


IDENT = ("G", SurfEnd(N, 0, 0, 1, False))
OPEN_IDENT = ("g", SurfEnd(N, 0, 0, 1, False))
OPEN_COLLAPSE = ("t", SurfEnd(N, 2, 2, 1, True))
CP = cusp_prod(0, 1, 1)


def _sum_rows(cls, valid, atoms):
    """(id, {constructor: build}, error) for each (id, atom): every way to build a cls sum holding atom."""
    return [(f"{cls.__name__} {name}", _builds({
        "constructor": lambda atom=atom: cls(N, {atom: 1}),
        "zero coefficient": lambda atom=atom: cls(N, {atom: 0}),
        "beside a valid atom": lambda atom=atom: cls(N, {valid: 1, atom: Fraction(1, 2)}),
        "of": lambda atom=atom: cls.of(N, atom),
    }, atom), ValueError) for name, atom in atoms]


SURFACE_ATOMS = [
    ("graph b1 = N", ("G", Refused(N, 3, 0, 1, False))),
    ("graph b1 = -1", ("G", Refused(N, -1, 0, 1, False))),
    ("graph b1 = 7", ("G", Refused(N, 7, 0, 1, False))),
    ("graph b2 = N", ("G", Refused(N, 0, 3, 1, False))),
    ("graph b2 = -1", ("G", Refused(N, 0, -1, 1, False))),
    ("graph s = 0", ("G", Refused(N, 0, 0, 0, False))),
    ("graph s = 2", ("G", Refused(N, 0, 0, 2, False))),
    ("graph of a collapse with s = -1", ("G", Refused(N, 0, 0, -1, True))),
    ("graph of level 4", ("G", SurfEnd(4, 0, 0, 1, False))),
    ("tGraph b1 = N", ("T", Refused(N, 3, 0, 1, True))),
    ("tGraph b2 = -1", ("T", Refused(N, 0, -1, 1, True))),
    ("tGraph of an automorphism", ("T", SurfEnd(N, 0, 0, 1, False))),
    ("tGraph of level 4", ("T", SurfEnd(4, 0, 0, 1, True))),
    ("graph of a plain tuple of five", ("G", (N, 1, 0, -1, False))),
    ("tGraph of a plain tuple of five", ("T", (N, 0, 0, 1, True))),
    ("graph of no map", ("G", "x")),
    ("tGraph of no map", ("T", None)),
    ("CP cusp = cusp_count", cusp_prod(4, 0, 0)),
    ("CP cusp = -1", cusp_prod(-1, 0, 0)),
    ("CP(9;0,5)", cusp_prod(9, 0, 5)),
    ("CP m = N", cusp_prod(0, 3, 0)),
    ("CP m = -1", cusp_prod(0, -1, 0)),
    ("CP n = N", cusp_prod(0, 0, 3)),
    ("CP n = -1", cusp_prod(0, 0, -1)),
    ("CP of three indices", ("C", 0, 0)),
    ("CP(0.0;1,True)", ("C", 0.0, 1, True)),
    ("CP m = 1.0", cusp_prod(0, 1.0, 1)),
    ("CP n = False", cusp_prod(0, 1, False)),
    ("V with an index", ("V", 0)),
    ("unknown kind", ("X", 0)),
]

DIVISOR_CLASSES = [
    ("section b1 = N", sec_key(3, 0)),
    ("section b1 = -1", sec_key(-1, 0)),
    ("section b2 = N", sec_key(0, 3)),
    ("section b2 = -1", sec_key(0, -1)),
    ("theta cusp = cusp_count", theta_key(4, 0)),
    ("theta cusp = -1", theta_key(-1, 0)),
    ("theta m = N", theta_key(0, 3)),
    ("theta m = -1", theta_key(0, -1)),
    ("section b1 = 0.0", sec_key(0.0, 1)),
    ("theta cusp = True", theta_key(True, 0)),
    ("threefold fiber", FIBER3),
    ("unknown kind", ("X",)),
]

THREEFOLD_CLASSES = [
    (f"{name} {label}", key(*index))
    for name, key in (("Theta", theta_int), ("half Theta", theta_half))
    for label, index in (
        ("cusp = cusp_count", (4, 0, 0)), ("cusp = -1", (-1, 0, 0)),
        ("m = N", (0, 3, 0)), ("m = -1", (0, -1, 0)), ("k = N", (0, 0, 3)), ("k = -1", (0, 0, -1)),
        ("cusp = 0.0", (0.0, 0, 0)), ("k = True", (0, 0, True)))
] + [("surface fiber", GENERIC_FIBER), ("unknown kind", ("X", 0, 0, 0))]

TENSOR_ATOMS = [
    ("cusp product on the left", (CP, IDENT, False)),
    ("cusp product on the right", (VERT, CP, True)),
    ("V (x) V", (VERT, VERT, False)),
    ("swapped V (x) V", (VERT, VERT, True)),
    ("factor of level 4", (("G", SurfEnd(4, 0, 0, 1, False)), VERT, False)),
    ("factor out of range", (("G", Refused(N, 3, 0, 1, False)), VERT, False)),
    ("factor of unknown kind", (("X", 0), IDENT, False)),
    ("swap 2", (IDENT, VERT, 2)),
    ("swap 1", (VERT, IDENT, 1)),
    ("swap 1.0", (VERT, IDENT, 1.0)),
    ("swap 0", (VERT, IDENT, 0)),
    ("two factors", (IDENT, IDENT)),
]


OPEN_ATOMS = [
    ("graph of level 4", ("g", SurfEnd(4, 0, 0, 1, False))),
    ("graph b1 = N", ("g", Refused(N, 3, 0, 1, False))),
    ("graph of x -> 7x", ("g", Refused(N, 0, 0, 7, False))),
    ("graph of an affine map of the old type", ("g", aff_end(N, 7))),
    ("tGraph of an automorphism", ("t", SurfEnd(N, 0, 0, 1, False))),
    ("tGraph of level 4", ("t", SurfEnd(4, 0, 0, 1, True))),
    ("graph of a plain tuple of five", ("g", (N, 1, 0, -1, False))),
    ("tGraph of a plain tuple of five", ("t", (N, 0, 0, 1, True))),
    ("graph of no map", ("g", "x")),
    ("surface graph", IDENT),
    ("unknown kind", ("x",)),
]

OPEN_TENSOR_ATOMS = [
    ("factor of level 4", (("g", SurfEnd(4, 0, 0, 1, False)), OPEN_IDENT, False)),
    ("right factor of level 5", (OPEN_IDENT, ("g", SurfEnd(5, 0, 0, 1, False)), False)),
    ("tGraph of an automorphism on the right", (OPEN_IDENT, ("t", SurfEnd(N, 0, 0, 1, False)), True)),
    ("factor of unknown kind", (("x",), OPEN_IDENT, False)),
    ("swap 2", (OPEN_IDENT, OPEN_IDENT, 2)),
    ("swap 1", (OPEN_IDENT, OPEN_COLLAPSE, 1)),
    ("swap 1.0", (OPEN_IDENT, OPEN_COLLAPSE, 1.0)),
    ("swap 0", (OPEN_IDENT, OPEN_COLLAPSE, 0)),
    ("two factors", (OPEN_IDENT, OPEN_IDENT)),
]


def _pure_tensor_rows():
    """(id, {constructor: build}, ValueError) for pure tensors (A, B, swap) a `TensorExpr` refuses."""
    pi = build_pi_bars(N)
    cusp = SurfCorr(N, {CP: 1, VERT: 1})
    factors = [
        ("cusp factor on the left", (cusp, pi["pi1"], False)),
        ("cusp factor on the right", (delta(N), cusp, True)),
        ("cusp factor beside a zero factor", (cusp, SurfCorr(N), False)),
        ("factors of level 4", (delta(4), delta(4), False)),
        ("right factor of level 4", (delta(N), delta(4), False)),
        ("factors of two classes", (delta(N), epsilon_projector(N), False)),
        ("factor that is no sum", (IDENT, delta(N), False)),
        ("swap 2", (delta(N), delta(N), 2)),
        # not the factors of the valid part: a swap equal to True would take its key
        ("swap 1", (pi["pi1"], delta(N), 1)),
        ("swap 1.0", (pi["pi1"], delta(N), 1.0)),
        ("swap 0", (pi["pi1"], delta(N), 0)),
    ]
    rows = []
    for name, (a, b, e) in factors:
        builds = {
            "constructor": lambda a=a, b=b, e=e: TensorExpr(N, [(1, a, b, e)]),
            "zero coefficient": lambda a=a, b=b, e=e: TensorExpr(N, [(0, a, b, e)]),
            "beside a valid part": lambda a=a, b=b, e=e: TensorExpr(N, [(1, delta(N), delta(N), True), (2, a, b, e)]),
            "of": lambda a=a, b=b, e=e: TensorExpr.of(N, (a, b, e)),
        }
        if getattr(a, "level", None) == N:  # pure reads its level from the left factor
            builds["pure"] = lambda a=a, b=b, e=e: TensorExpr.pure(a, b, e)
        rows.append((f"TensorExpr {name}", builds, ValueError))
    # the factors of the part before it: refused before the two parts would merge under the key of the bool
    d = delta(N)
    rows.append(("TensorExpr swap equal to the bool swap of a part of the same factors", {
        "1 beside True": lambda: TensorExpr(N, [(1, d, d, True), (2, d, d, 1)]),
        "1.0 beside True": lambda: TensorExpr(N, [(1, d, d, True), (2, d, d, 1.0)]),
        "0 beside False": lambda: TensorExpr(N, [(1, d, d, False), (2, d, d, 0)]),
        "zero coefficient": lambda: TensorExpr(N, [(1, d, d, True), (0, d, d, 1)]),
    }, ValueError))
    return rows


GROUP_ELEMENTS = [
    ("b1 = N", Refused(N, 3, 0, 1, False)),
    ("b1 = -1", Refused(N, -1, 0, 1, False)),
    ("b2 = N", Refused(N, 0, 3, 1, False)),
    ("b2 = -1", Refused(N, 0, -1, 1, False)),
    ("s = 0", Refused(N, 0, 0, 0, False)),
    ("s = 2", Refused(N, 0, 0, 2, False)),
    ("level 2", Refused(2, 0, 0, 1, False)),
    ("a collapse", SurfEnd(N, 0, 0, 1, True)),
    ("a plain tuple", (N, 0, 0, 1)),
    ("a plain tuple of five", (N, 0, 0, 1, False)),
    ("a surface atom", IDENT),
    ("of level 4", SurfEnd(4, 0, 0, 1, False)),
]


def _group_rows():
    one, other = SurfEnd(N, 0, 0, 1, False), SurfEnd(4, 0, 0, 1, False)
    rows = [(f"GroupRingElement {name}", _builds({
        "constructor": lambda g=g: GroupRingElement(N, {g: 1}),
        "zero coefficient": lambda g=g: GroupRingElement(N, {g: 0}),
        "beside a valid element": lambda g=g: GroupRingElement(N, {SurfEnd(N, 1, 2, -1, False): 1, g: 1}),
        "of": lambda g=g: GroupRingElement.of(N, g),
    }, g), ValueError) for name, g in GROUP_ELEMENTS]
    rows.append(("GroupRingElement two levels", {
        "constructor": lambda: GroupRingElement(N, {one: 1, other: 1}),
        "zero coefficient": lambda: GroupRingElement(N, {one: 1, other: 0}),
        "level of the other element": lambda: GroupRingElement(4, {one: 1, other: 1}),
    }, ValueError))
    return rows


PAIR_ATOMS = [
    ("element of level 4", (SurfEnd(4, 0, 0, 1, False), SurfEnd(N, 0, 0, 1, False), False)),
    ("right element of level 4", (SurfEnd(N, 0, 0, 1, False), SurfEnd(4, 0, 0, 1, False), True)),
    ("a collapse", (SurfEnd(N, 0, 0, 1, False), SurfEnd(N, 0, 0, 1, True), True)),
    ("junk", "junk"),
    ("swap 2", (SurfEnd(N, 0, 0, 1, False), SurfEnd(N, 0, 0, 1, False), 2)),
    ("swap 1", (SurfEnd(N, 0, 0, 1, False), SurfEnd(N, 0, 0, 1, False), 1)),
    ("swap 1.0", (SurfEnd(N, 0, 0, 1, False), SurfEnd(N, 0, 0, 1, False), 1.0)),
    ("swap 0", (SurfEnd(N, 0, 0, 1, False), SurfEnd(N, 0, 0, 1, False), 0)),
    ("two elements", (SurfEnd(N, 0, 0, 1, False), SurfEnd(N, 0, 0, 1, False))),
]


def _cross_level_rows():
    """Elements of Q[G] and of Q[G^2 x| S_2] at levels 3 and 4 combined: each way raises LevelMismatchError."""
    e3, e4 = epsilon_projector(3), epsilon_projector(4)
    p3, p4 = epsilon2_projector(3), epsilon2_projector(4)
    return [("Q[G] across levels 3 and 4", {
        "+": lambda: e3 + e4,
        "-": lambda: e3 - e4,
        "*": lambda: e3 * e4,
        "* the other way": lambda: e4 * e3,
        "* of an empty element": lambda: GroupRingElement(3) * e4,
    }, LevelMismatchError), ("Q[G^2 x| S_2] across levels 3 and 4", {
        "+": lambda: p3 + p4,
        "-": lambda: p3 - p4,
        "compose": lambda: p3.compose(p4),
        "pure": lambda: TensorExpr.pure(e3, e4),
        "constructor": lambda: TensorExpr(3, [(1, e3, e3, False), (1, e4, e4, True)]),
    }, LevelMismatchError)]


def _mixed_class_rows():
    """Two sums of different classes added or subtracted: each way raises TypeError."""
    v, fiber, eps = SurfCorr.of(N, VERT), DivClass.of(N, GENERIC_FIBER), epsilon_projector(N)
    factored = TensorExpr.pure(delta(N), delta(N))
    return [("sums of two classes", {
        "SurfCorr + DivClass": lambda: v + fiber,
        "DivClass - SurfCorr": lambda: fiber - v,
        "Q[G] - SurfCorr": lambda: eps - v,
        "SurfCorr + Q[G]": lambda: v + eps,
        "TensorExpr - TCorr": lambda: factored - factored.expand(TCorr),
        "TCorr + OpenTCorr": lambda: TCorr(N) + OpenTCorr(N),
        "two empty sums": lambda: SurfCorr(N) - DivClass(N),
    }, TypeError)]


def _cross_class_rows():
    """Products of two classes, and factored sums of two factor classes: each way raises TypeError.

    A product is refused before any arithmetic, so also with a zero operand,
    where no atom pair fails.  A `TensorExpr` built of parts of two factor
    classes raises ValueError as every constructor refusal does, and an
    expansion into the atom sums of another factor class raises TypeError.
    """
    pi, eps, e = build_pi_bars(N), epsilon_projector(N), GroupRingElement.of(N, SurfEnd(N, 0, 0, 1, False))
    opened = OpenCorr.of(N, OPEN_IDENT)
    surface, group = TensorExpr.pure(delta(N), delta(N)), TensorExpr.pure(e, e)
    return [("products of two classes", {
        "SurfCorr * Q[G]": lambda: pi["pi1"] * eps,
        "SurfCorr * the zero of Q[G]": lambda: pi["pi1"] * GroupRingElement(N),
        "Q[G] * SurfCorr": lambda: eps * pi["pi1"],
        "compose(SurfCorr, DivClass)": lambda: compose(pi["pi1"], DivClass.of(N, GENERIC_FIBER)),
        "SurfCorr * OpenCorr": lambda: pi["pi1"] * opened,
        "OpenCorr * pi0": lambda: opened * pi["pi0"],
        "OpenCorr * pi1": lambda: opened * pi["pi1"],
        "TensorExpr compose of two factor classes": lambda: surface.compose(group),
        "TensorExpr compose of zero Q[G] factors": lambda: surface.compose(TensorExpr.pure(*[GroupRingElement(N)] * 2)),
        "TensorExpr compose the other way": lambda: group.compose(surface),
    }, TypeError), ("TensorExpr sums of two factor classes", {
        "+": lambda: surface + group,
        "-": lambda: group - surface,
        "expand of SurfCorr factors to PairSum": lambda: surface.expand(PairSum),
        "expand of Q[G] factors to TCorr": lambda: group.expand(TCorr),
    }, TypeError), ("TensorExpr parts of two factor classes", {
        "constructor": lambda: TensorExpr(N, [(1, delta(N), delta(N), False), (1, e, e, False)]),
        "zero coefficient": lambda: TensorExpr(N, [(1, e, e, True), (0, delta(N), delta(N), False)]),
    }, ValueError)]


def _bool_rows():
    """A bool equals 0 or 1, and a float can equal an int, but neither is an inversion part or a DSL argument.

    Each DSL atom is evaluated alone, then after the same atom with int
    arguments, whose value is stored from then on.
    """
    rows = [("surf_end inversion part", {
        "s = True": lambda: surf_end(5, 1, 2, True),
        "s = -1.0": lambda: surf_end(5, 1, 2, -1.0),
    }, ValueError)]
    # a map built by hand: each of these once passed every sum's check
    rows += [(f"SurfEnd{fields}", {"SurfEnd": lambda fields=fields: SurfEnd(*fields)}, ValueError) for fields in (
        (N, 0, 0, True, False), (N, 1, 0, 1, 1), (N, 0.0, 0, 1, False), (N, 3, 0, 1, False), (N, 0, 0, -1, True),
        (3.0, 0, 0, 1, False), (True, 0, 0, 1, False))]
    for mode, name, args in (("surface", "G", (1, 2, True)), ("surface", "CP", (0, True, 1)),
                             ("surface", "piC", (False,)), ("threefold", "ptilde", (True, 0))):
        atom, twin = NamedAtom(name, args), NamedAtom(name, tuple(map(int, args)))
        rows.append((f"DSL {name}{args}", {
            "eval_expr": lambda atom=atom, mode=mode: eval_expr(atom, N, mode),
            "after its int twin": lambda atom=atom, twin=twin, mode=mode: (eval_expr(twin, N, mode),
                                                                           eval_expr(atom, N, mode)),
        }, EvalError))
    return rows


def _float_rows():
    return [("float coefficient", {
        "SurfCorr": lambda: SurfCorr(N, {VERT: 0.5}),
        "SurfCorr.of": lambda: SurfCorr.of(N, VERT, 0.5),
        "DivClass": lambda: DivClass(N, {DA_FIBER: 0.5}),
        "ThreefoldDivClass": lambda: ThreefoldDivClass.of(N, FIBER3, 0.25),
        "TCorr": lambda: TCorr(N, {(IDENT, VERT, False): 1.5}),
        "TensorExpr": lambda: TensorExpr(N, [(0.0, delta(N), delta(N), False)]),
        "TensorExpr.of": lambda: TensorExpr.of(N, (delta(N), delta(N), False), 0.5),
        "GroupRingElement": lambda: GroupRingElement(N, {SurfEnd(N, 0, 0, 1, False): 0.5}),
        "OpenCorr": lambda: OpenCorr(N, {OPEN_IDENT: 0.5}),
        "OpenTCorr": lambda: OpenTCorr(N, {(OPEN_IDENT, OPEN_IDENT, False): 1.5}),
    }, TypeError)]


def _motive_rows():
    return [("Motive key outside the basis", {
        "('X',) with 0": lambda: Motive({("X",): 0}),
        "('X',) with 1": lambda: Motive({("X",): 1}),
        "L^4": lambda: Motive({("L", 4): 1}),
        "h1(M) (x) L^3 beside a valid key": lambda: Motive({("1",): 1, ("h1M", 3): SYMBOL_N}),
        "L with a bool index": lambda: Motive({("L", True): 1}),
        "L with a float index": lambda: Motive({("L", 1.0): 1}),
        "a plain str": lambda: Motive({"1": 1}),
    }, ValueError), ("Motive multiplicity", {
        "1.5": lambda: Motive({("L", 1): 1.5}),
        "True": lambda: Motive({("1",): True}),
        "False": lambda: Motive({("1",): False}),
        "Fraction 1": lambda: Motive({("1",): Fraction(1)}),
        "str": lambda: Motive({("1",): "1"}),
        "Count of a float": lambda: Motive({("L", 1): Count(1.5)}),
        "Count with a bool n part": lambda: Motive({("L", 1): Count(0, True)}),
        "a pair of ints": lambda: Motive({("L", 1): (1, 0)}),
    }, ValueError)]


ROWS = (
    _sum_rows(SurfCorr, IDENT, SURFACE_ATOMS)
    + _sum_rows(DivClass, GENERIC_FIBER, DIVISOR_CLASSES)
    + _sum_rows(ThreefoldDivClass, FIBER3, THREEFOLD_CLASSES)
    + _sum_rows(TCorr, (IDENT, VERT, False), TENSOR_ATOMS)
    + _sum_rows(OpenCorr, OPEN_IDENT, OPEN_ATOMS)
    + _sum_rows(OpenTCorr, (OPEN_IDENT, OPEN_IDENT, False), OPEN_TENSOR_ATOMS)
    + _pure_tensor_rows()
    + _group_rows()
    + _sum_rows(PairSum, (SurfEnd(N, 1, 2, -1, False), SurfEnd(N, 0, 0, 1, False), True), PAIR_ATOMS)
    + _cross_level_rows()
    + _mixed_class_rows()
    + _cross_class_rows()
    + _bool_rows()
    + _float_rows()
    + _motive_rows()
)

# eval --level 3 arguments that must exit 2
QUERIES = [
    ["CP(4,0,0)"], ["CP(-1,0,0)"], ["CP(9,0,1)"], ["piC(4)"], ["piC(-1)"], ["G(0,0,2)"], ["G(0,0,0)"],
    ["CP(9,0,1) . CP(0,1,1)"], ["t(CP(9,0,1))"],
    ["--threefold", "ptilde(3,0)"], ["--threefold", "ptilde(0,-1)"],
    ["--threefold", "T(CP(0,1,1),Delta)"], ["--threefold", "T(Delta,piC(0))"], ["--threefold", "T(CP(9,0,1),V)"],
    ["Foo"],
]


def unrefused(builds: dict, error: type) -> list[str]:
    """The constructors among builds that return, or raise anything but error, each with what it did."""
    out = []
    for how, build in builds.items():
        try:
            build()
        except error:
            continue
        except Exception as exc:  # reported: the test fails on it
            out.append(f"{how}: {type(exc).__name__}: {exc}")
        else:
            out.append(f"{how}: accepted")
    return out


def exit_codes() -> list[int]:
    return [main(["eval", "--level", "3", *argv]) for argv in QUERIES]


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_an_invalid_atom_is_refused_by_every_constructor(row):
    _, builds, error = row
    assert unrefused(builds, error) == []


def test_the_valid_edge_of_each_range_is_taken():
    # the last index of each range, and the first, build
    SurfCorr(N, {cusp_prod(3, 2, 0): 1, ("G", SurfEnd(N, 2, 2, -1, False)): 1, ("T", SurfEnd(N, 2, 0, 1, True)): 1})
    DivClass(N, {sec_key(2, 2): 1, theta_key(3, 2): 1, DA_FIBER: 1})
    ThreefoldDivClass(N, {theta_int(3, 2, 2): 1, theta_half(0, 2, 0): 1})
    TCorr.of(N, (VERT, ("T", SurfEnd(N, 2, 2, 1, True)), True))
    TensorExpr.pure(SurfCorr.of(N, VERT), SurfCorr.of(N, VERT))  # V (x) V expands to zero, and is taken
    GroupRingElement(N, {SurfEnd(N, 2, 2, -1, False): 1, SurfEnd(N, 0, 0, 1, False): 0})
    OpenCorr(N, {("g", SurfEnd(N, 2, 2, -1, False)): 1, ("g", SurfEnd(N, 2, 0, 1, True)): 1,
                 ("t", SurfEnd(N, 2, 2, 1, True)): 1})
    OpenTCorr.of(N, (("t", SurfEnd(N, 2, 2, 1, True)), OPEN_IDENT, True))


def test_a_swap_merged_away_raises_the_text_of_the_check():
    d = delta(N)
    with pytest.raises(ValueError) as checked:
        TensorExpr.check(N, [(d, d, 1)])
    with pytest.raises(ValueError) as built:
        TensorExpr(N, [(1, d, d, True), (2, d, d, 1)])
    assert str(built.value) == str(checked.value) == f"unknown atom {(d, d, 1)!r}"


def test_tensor_expr_of_builds_the_one_part_sum():
    a, b = delta(N), SurfCorr.of(N, VERT, Fraction(1, 2))
    assert TensorExpr.of(N, (a, b, True), Fraction(2, 3)) == TensorExpr(N, [(Fraction(2, 3), a, b, True)])
    assert TensorExpr.of(N, (a, b, False)) == TensorExpr.pure(a, b) == TensorExpr(N, [(1, a, b, False)])


def test_eval_exits_2_on_each_invalid_query(capsys):
    assert exit_codes() == [2] * len(QUERIES)
    err = capsys.readouterr().err
    assert "CP(9;0,1) is outside level 3" in err
    assert "cusp products are not tensor factors" in err


def test_the_table_raises_under_python_O():
    script = """
import sys
sys.path.insert(0, sys.argv[1])
import test_constructor_checks as t
bad = [(name, got) for name, builds, error in t.ROWS if (got := t.unrefused(builds, error))]
print(sys.flags.optimize, len(t.ROWS), bad, set(t.exit_codes()))
"""
    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script, str(tests)], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"1 {len(ROWS)} [] {{2}}\n"
