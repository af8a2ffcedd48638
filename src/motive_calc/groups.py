"""The finite symmetry groups and their exact group rings.

G = (Z/N)^2 semidirect mu_2 acts fiberwise on the surface by torsion
translations and inversion; G x G semidirect S_2 acts on the threefold,
the S_2 factor swapping the two fiber coordinates.  The named idempotents
(the sign-character projector, its translation/inversion factors, and the
swap symmetrizers) all live in these group rings with rational
coefficients, and every identity about them is checked by exact
group-ring multiplication.

The elements of G are the automorphism `endos.SurfEnd`s (collapse
False), multiplied by `endos.surf_compose`, inverted by `SurfEnd.inv`,
with identity `endos.surf_identity`; one prints as (b1,b2,+-) and sorts by (b1, b2, s), and
g -> Graph(g) takes it to the surface atom ("G", g) as it is.  An element
of Q[G] is a `LinComb` like every other sum: a level N and its elements
of G at that level, each refused at the constructor otherwise, so sums
and products of two levels raise `LevelMismatchError`, and a product
with a sum of another class, such as a correspondence, raises TypeError
(`LinComb.check_operand`).  Q[G]
multiplies on ids: an element's id is its `SurfEnd.code`, ((s < 0) N +
b1) N + b2, so G is numbered 0..2N^2-1 in `enumerate_g` order, and the
law (b, s)(c, t) = (b + s c, s t) is arithmetic on ids.  `id_product`
is the one product of G on ids: a dense product is `law_product`, four
cyclic convolutions over (Z/N)^2, each one big-integer product by
Kronecker substitution, and any other is a pair loop that computes each
product's id.  A product multiplies the operands' integer numerators on
ids, over the product of their denominators, and turns only its nonzero
atoms back into elements of G.  No product table is kept: `law_rows`
yields the law's rows one at a time, for `surface.aut_table` to compare
with the rule of `surface.compose`.  Automorphism graphs multiply by
`id_product` only when that rule agrees with the law on every pair;
otherwise the rule is called pair by pair.

G^2 x| S_2 is the wreath product of G by S_2, so its group ring is
(Q[G] (x) Q[G]) x| S_2: an element is a `tensor.TensorExpr` with Q[G]
factors, whose transpose is the involution and whose tensor drops
nothing; A2 and S2 are `tensor.symmetrizers` of the identity.  Its zero
test enumerates no element of G^2 x| S_2; only a failed entry expands its
residual, to atoms (g, h, swap) of a `PairSum`: the `tensor.TensorAtoms`
of Q[G] factors, which keeps its own print [g,h].s.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .endos import SurfEnd, level_ends, surf_end, surf_identity
from .levels import _check_level
from .sums import Certificate, LevelMismatchError, LinComb, linear_map  # LevelMismatchError is re-exported
from .tensor import TensorAtoms, TensorExpr, symmetrizers


def tau(n: int, b1: int, b2: int) -> SurfEnd:
    """Translation by the torsion point b."""
    return surf_end(n, b1, b2)


def mu_inv(n: int) -> SurfEnd:
    """Fiberwise inversion."""
    return SurfEnd(n, 0, 0, -1, False)


def enumerate_g(n: int) -> list[SurfEnd]:
    return level_ends(n)[:2 * n * n]


def epsilon(x: SurfEnd) -> int:
    """Sign character: trivial on translations, -1 on the inversion part."""
    return x.s


@lru_cache(maxsize=64)
def _shifts(n: int) -> tuple[list, list]:
    """Left multiplication by G on the two parts of an id: (highs, lows), 6N^2 ids in all, kept per level.

    The id ((t < 0) N + c1) N + c2 of (c, t) is h N + l with h = (t < 0) N + c1
    and l = c2.  (b, s) of id i sends (c, t) to (b + s c, s t), whose id is
    highs[i // N][h] + lows[k][l], k = (s < 0) N + b2: highs[i // N][h] is
    ((st < 0) N + (b1 + s c1) mod N) N, and lows[k][l] is (b2 + s c2) mod N.
    """
    highs = [[((s * t < 0) * n + (b1 + s * c1) % n) * n for t in (1, -1) for c1 in range(n)]
             for s in (1, -1) for b1 in range(n)]
    lows = [[(b2 + s * c2) % n for c2 in range(n)] for s in (1, -1) for b2 in range(n)]
    return highs, lows


def law_rows(n: int):
    """The rows of G's product table in id order, each built as it is read: row i lists the id of i's product with each id.

    Row i joins 2N blocks of N ids, one per high part h of highs[i // N]:
    h + lows[k][l] over the l, for i's k (`_shifts`).  The blocks of each k
    are built once.  No row is kept, and no Python call is made per entry.
    """
    m = n * n
    highs, lows = _shifts(n)
    blocks = [{h: list(map(h.__add__, low)) for h in range(0, 2 * m, n)} for low in lows]
    for i in range(2 * m):
        yield list(chain.from_iterable(map(blocks[i // m * n + i % n].__getitem__, highs[i // n])))


# a product with more operand pairs than this many per id of G is `law_product`
LAW_PAIRS_PER_ID = 16


def id_product(xs: list, ys: list, n: int) -> list:
    """The Q[G] product of terms (id, v) of G at level n: the (id, sum) pairs with a nonzero sum, by id.

    A product of more than `LAW_PAIRS_PER_ID` pairs per id is `law_product`.
    Any other is the pair loop: y's ids split once into their high and low
    parts, and each x term adds its products at the ids of its two `_shifts`
    rows, into a list of one slot per id when there are at least a quarter
    as many pairs as ids, and otherwise into a dict, which holds only the
    ids the pairs reach.  Adding into a dict costs about four times as much
    per pair as reading out one slot of the list.
    """
    m = n * n
    pairs = len(xs) * len(ys)
    if pairs > LAW_PAIRS_PER_ID * 2 * m:
        return law_product(xs, ys, n)
    out = [0] * (2 * m) if 2 * pairs >= m else defaultdict(int)
    highs, lows = _shifts(n)
    y_parts = [(j // n, j % n, b) for j, b in ys]
    for i, a in xs:
        high, low = highs[i // n], lows[i // m * n + i % n]
        for h, l, b in y_parts:
            out[high[h] + low[l]] += a * b
    if type(out) is list:
        return [(k, v) for k, v in enumerate(out) if v]
    return sorted((k, v) for k, v in out.items() if v)


# -- Q[G] products by the group law, as big-integer products (Kronecker substitution)
#
# With x = x+ + x-, x+- the terms of sign s = +-1, (b, s)(c, t) = (b + s c, s t) gives
#     (x y)+ = x+ * y+ + x- * rho(y-),    (x y)- = x+ * y- + x- * rho(y+),
# with * the cyclic convolution over (Z/N)^2 and rho(y)(c) = y(-c).  An N x N array a
# is packed as the integer sum of a[b1][b2] z^(b1 S + b2), z = 2^w and S = 2N - 1, so
# that the integer product of two packed arrays holds their linear convolution, one
# signed slot of w bits per index (Kronecker substitution).  The two products of one
# sign are added as integers and folded mod N in each coordinate on the integer.
# Every slot and fold of a product of sign s sums products x_i y_j, each x_i with at
# most one y_j, so it is at most min(sum |x| max |y|, max |x| sum |y|) in absolute
# value: w, one bit above that bound, holds every slot without overflow.


def _reflected(a: list, n: int) -> list:
    """rho(a): the value of a at -c, for c in (Z/N)^2 in row-major order."""
    return [a[-c1 % n * n + -c2 % n] for c1 in range(n) for c2 in range(n)]


def _slot_width(bound: int) -> int:
    """The slot width in bits that holds a signed slot of absolute value at most bound."""
    return bound.bit_length() + 1


def _packed(a: list, n: int, w: int, digits: dict) -> int:
    """The N x N array a (row-major) as the integer sum of a[b1][b2] z^(b1 S + b2): a positive part less a negative part.

    digits maps a value to its (positive, negative) digit strings of w bits, filled per value at first use.
    """
    zero = "0" * w
    pad = zero * (n - 1)
    pos, neg = [], []
    for b1 in range(n - 1, -1, -1):  # written most significant first
        pos.append(pad)
        neg.append(pad)
        for v in reversed(a[b1 * n:b1 * n + n]):
            got = digits.get(v)
            if got is None:
                text = format(abs(v), f"0{w}b")
                got = digits[v] = (text, zero) if v > 0 else (zero, text)
            pos.append(got[0])
            neg.append(got[1])
    return int("".join(pos), 2) - int("".join(neg), 2)


@lru_cache(maxsize=64)
def _fold_constants(n: int, w: int) -> tuple:
    """Masks and biases of the fold of a product of two packed N x N arrays, and where its N^2 folded slots are read."""
    s, half, zero, ones = 2 * n - 1, "1" + "0" * (w - 1), "0" * w, "1" * w
    return (
        int(half * ((2 * n - 1) * s), 2),  # + half in every slot of the product
        int(half * ((n - 1) * s), 2),  # - half in the rows folded onto rows 0..N-2
        int((zero * (n - 1) + ones * n) * n, 2),  # slots 0..N-1 of each row
        int((zero * n + ones * (n - 1)) * n, 2),  # slots 0..N-2 of each row
        int((zero * n + half * (n - 1)) * n, 2),  # - half in the slots folded onto 0..N-2
        tuple((n * s - 1 - (r * s + c)) * w for r in range(n) for c in range(n)),
    )


def _folded(p: int, n: int, w: int) -> list:
    """The cyclic convolution, row-major, from p, the integer sum of linear convolutions of packed arrays.

    Every slot is offset by half = 2^(w-1) so that it is a w-bit digit of
    [0, 2^w): then rows N.. are added onto rows 0.. and slots N.. of each row
    onto slots 0.., each sum less one offset, with no carry between slots.
    """
    bias, rows_bias, low, high, high_bias, at = _fold_constants(n, w)
    nbits = w * n * (2 * n - 1)
    p += bias
    p = (p & ((1 << nbits) - 1)) + (p >> nbits) - rows_bias
    p = (p & low) + ((p >> (w * n)) & high) - high_bias
    text, half = format(p, "b").zfill(nbits), 1 << (w - 1)
    return [int(text[i:i + w], 2) - half for i in at]


def law_product(xs: list, ys: list, n: int) -> list:
    """The Q[G] product of terms (id, v) of G at level n by the group law: the (id, sum) pairs with a nonzero sum, by id.

    Ids are codes, so ids 0..N^2-1 are the (b, +1) and N^2..2N^2-1 the
    (b, -1), b row-major; an id may repeat.  The four convolutions are four
    big-integer products (see above), with one slot width for all, taken
    from the bound on the sums of the product.
    """
    m = n * n
    x, y = [0] * (2 * m), [0] * (2 * m)
    for i, v in xs:
        x[i] += v
    for j, v in ys:
        y[j] += v
    ax, ay = list(map(abs, x)), list(map(abs, y))
    bound = min(sum(ax) * max(ay), max(ax) * sum(ay))
    if not bound:
        return []
    w = _slot_width(bound)
    digits: dict = {}
    xp, xm, yp, ym = (_packed(a, n, w, digits) for a in (x[:m], x[m:], y[:m], y[m:]))
    rho_yp, rho_ym = (_packed(_reflected(a, n), n, w, digits) for a in (y[:m], y[m:]))
    out = _folded(xp * yp + xm * rho_ym, n, w) + _folded(xp * ym + xm * rho_yp, n, w)
    return [(k, v) for k, v in enumerate(out) if v]


class GroupRingElement(LinComb):
    """Finite formal rational combination of the elements of G at its level."""

    __slots__ = ()
    sort_key = staticmethod(lambda g: (g.b1, g.b2, g.s))
    label = staticmethod(SurfEnd.element_label)

    @staticmethod
    def check(level, atoms) -> None:
        """Each atom an element of G (`enumerate_g`) at the level."""
        for g in atoms:
            if type(g) is not SurfEnd or g.collapse or g.level != level:
                raise ValueError(f"{g!r} is not an element of G at level {level}")

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        """The product on integer numerators, each element encoded by its id, its code, by `id_product`.

        `id_product` is read from this module at each call, so a patched law
        reaches every Q[G] product.  Only the atoms of the result are decoded
        back to group elements.
        """
        self.check_operand(other)
        elems = level_ends(self.level)
        xs = [(g.code, v) for g, v in self.nums.items()]
        out = id_product(xs, [(h.code, v) for h, v in other.nums.items()], self.level)
        return GroupRingElement.over(self.level, self.d * other.d, {elems[k]: v for k, v in out})

    def transpose(self) -> "GroupRingElement":
        """The involution g -> g^-1, coefficients kept: the transpose, as transposing Graph(g) gives Graph(g^-1)."""
        return linear_map(self, lambda g: g.inv())

    def __repr__(self) -> str:
        return self.render()


def epsilon_projector(n: int) -> GroupRingElement:
    """(1/2N^2) sum over G of eps(g)^-1 g; an idempotent fixed by involution."""
    _check_level(n)
    scale = Fraction(1, 2 * n * n)
    return GroupRingElement(n, {g: scale * epsilon(g) for g in enumerate_g(n)})


def lambda_theta(n: int) -> tuple[GroupRingElement, GroupRingElement]:
    """The inversion-antisymmetrizer and the translation average.

    lambda = (1 - mu(-1))/2 and theta = (1/N^2) sum tau(b): commuting
    idempotents whose product (either order) is the epsilon projector.
    """
    half = Fraction(1, 2)
    lam = GroupRingElement(n, {surf_identity(n): half, mu_inv(n): -half})
    theta_terms = {tau(n, b1, b2): Fraction(1, n * n) for b1 in range(n) for b2 in range(n)}
    return lam, GroupRingElement(n, theta_terms)


class PairSum(TensorAtoms):
    """An element of Q[G^2 x| S_2] expanded to atoms (g, h, swap), printed as [g,h].s, sorted by g, h, then swap."""

    __slots__ = ()
    factor = GroupRingElement
    sort_key = staticmethod(lambda atom: (*map(GroupRingElement.sort_key, atom[:2]), atom[2]))
    label = staticmethod(lambda atom: f"[{atom[0].element_label()},{atom[1].element_label()}]{'.s' if atom[2] else ''}")


def epsilon2_projector(n: int) -> TensorExpr:
    """eps (x) eps = (1/4N^4) sum over G^2 of eps2(g)^-1 g, inside Q[G^2 x| S_2]."""
    eps = epsilon_projector(n)
    return TensorExpr.pure(eps, eps)


def group_certificate(n: int) -> list[dict]:
    """Idempotency, commutation and orthogonality of the named idempotents."""
    cert = Certificate()
    check = cert.check
    eps = epsilon_projector(n)
    lam, theta = lambda_theta(n)
    check("eps:idempotent", "eps . eps = eps", eps * eps, eps)
    check("eps:involution", "involution(eps) = eps", eps.transpose(), eps)
    check("lambda:idempotent", "lambda . lambda = lambda", lam * lam, lam)
    check("theta:idempotent", "theta . theta = theta", theta * theta, theta)
    check("lambda_theta:commute", "lambda . theta = theta . lambda", lam * theta, theta * lam)
    check("lambda_theta:product", "lambda . theta = eps", lam * theta, eps)
    check("theta_lambda:product", "theta . lambda = eps", theta * lam, eps)

    e = GroupRingElement.of(n, surf_identity(n))
    a2, s2 = symmetrizers(e)
    zero = TensorExpr(n)
    eps2 = epsilon2_projector(n)
    for name, law, got, want in (
        ("a2:idempotent", "A2 . A2 = A2", a2.compose(a2), a2),
        ("s2:idempotent", "S2 . S2 = S2", s2.compose(s2), s2),
        ("a2_s2:orthogonal", "A2 . S2 = 0", a2.compose(s2), zero),
        ("s2_a2:orthogonal", "S2 . A2 = 0", s2.compose(a2), zero),
        ("a2_s2:sum", "A2 + S2 = 1", a2 + s2, TensorExpr.pure(e, e)),
        ("a2_eps2:commute", "A2 . eps2 = eps2 . A2", a2.compose(eps2), eps2.compose(a2)),
        ("s2_eps2:commute", "S2 . eps2 = eps2 . S2", s2.compose(eps2), eps2.compose(s2)),
    ):
        check(name, law, got, want, PairSum)
    return cert.entries
