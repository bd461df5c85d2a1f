"""Direct evaluators for the closed-form wall-crossing results.

Everything here is plain rational arithmetic plus a few ring elements; the
independent ring evaluation of the general wall-crossing expression lives
in ``oracle`` and is used by the test suite to confirm each formula.

Conventions used throughout: a = (zeta.alpha)/2 (may be a half-integer,
all arithmetic is rational); binomial coefficients with out-of-range
arguments are zero, as are powers with negative exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chern import ChernData, hessenberg_det, segre_from_ch
from .errors import InvariantError, PreconditionError, RegimeError
from .graded import SIGMA, GradedElement, ModelSpec, frac
from .jacobian import InsertionWord, Pairings, e_alpha, e_zeta, jacobian_odd_integral
from .walls import WallGeometry


@dataclass(frozen=True)
class DeltaValue:
    """An exact wall-crossing difference value with its computation path."""

    value: Fraction
    path: str
    modulus_exponent: int = None

    def __post_init__(self):
        object.__setattr__(self, "value", frac(self.value))


def pow0(base: Fraction, n) -> Fraction:
    """base**n with the convention that negative exponents give zero terms."""
    if n < 0:
        return Fraction(0)
    return frac(base) ** n


def _l0_sum(s, p, e, za, sa, sz):
    """sum_{j=0..min(s,p)} C(s,j) p!/(p-j)! 2^(-j) za^(s-j) sa^j sz^(e-j), needing e >= p,
    as an int numerator over the int denominator zd^s (2 ad)^min(s,p) sd^e.

    zd, ad and sd are the denominators of za, sa and sz; every term is an
    integer over that one denominator, so no Fraction is built here.
    """
    top = min(s, p)
    if top < 0:
        return 0, 1
    zn, zd = za.numerator, za.denominator
    an, two_ad = sa.numerator, 2 * sa.denominator
    sn, sd = sz.numerator, sz.denominator
    x = zd * an * sd
    num = 0
    for j in range(top + 1):
        num += (math.comb(s, j) * math.perm(p, j) * two_ad ** (top - j)
                * zn ** (s - j) * sn ** (e - j) * x ** j)
    return num, zd ** s * two_ad ** top * sd ** e


def _closed_value(num, den, shift) -> DeltaValue:
    """num/den * 2^shift as the one Fraction of a closed-form sum."""
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    return DeltaValue(Fraction(num, den), "closed-form")


def delta_l0(wall: WallGeometry, pairings: Pairings, r, vol=1) -> DeltaValue:
    """Wall-crossing term for l_zeta = 0 on the word x^r alpha^(d-2r):

    eps (-1)^(r+d) vol sum_b 2^(3q-b-d) q!/(q-b)! C(d-2r, b)
    (zeta.alpha)^(d-2r-b) (Sigma.alpha)^b (Sigma.zeta)^(q-b).
    """
    if wall.l_zeta != 0:
        raise RegimeError(f"delta_l0 needs l_zeta = 0, got {wall.l_zeta}")
    d, q = wall.d, wall.q
    num, den = _l0_sum(d - 2 * r, q, q, pairings.zetaAlpha, pairings.sigmaAlpha,
                       pairings.sigmaZeta)
    sign = -wall.sign_wall() if (r + d) % 2 else wall.sign_wall()
    vol = frac(vol)
    return _closed_value(sign * num * vol.numerator, den * vol.denominator, 3 * q - d)


def delta_l0_odd(wall: WallGeometry, model: ModelSpec, word: InsertionWord) -> DeltaValue:
    """Wall-crossing term for l_zeta = 0 on a word with odd-degree insertions.

    The sum over j of the degree-3/degree-1 insertion formula, with the
    functional F evaluated in the ring.  Terms whose factorial argument
    q - (a+b)/2 - j is negative are zero.  Words of odd total odd-count
    give zero (F kills them).
    """
    if wall.l_zeta != 0:
        raise RegimeError(f"delta_l0_odd needs l_zeta = 0, got {wall.l_zeta}")
    a_cnt, b_cnt = len(word.gammas), len(word.threes)
    if (a_cnt + b_cnt) % 2:
        return DeltaValue(Fraction(0), "closed-form")
    d, q = wall.d, wall.q
    if word.degree() != 2 * d:
        raise PreconditionError(
            f"word degree {word.degree()} does not match 2d = {2 * d}")
    fz = jacobian_odd_integral(model, word.gammas, word.threes)
    if fz == 0:
        return DeltaValue(Fraction(0), "closed-form")
    # with p = q - (a+b)/2: 2^(3q-d-b-j) C(s, j) F / (p-j)! za^(s-j) sa^j sz^(p+b-j)
    p = q - (a_cnt + b_cnt) // 2
    num, den = _l0_sum(word.s, p, p + b_cnt, model.pair("zeta", "alpha"),
                       model.pair(SIGMA, "alpha"), model.pair(SIGMA, "zeta"))
    sign = -wall.sign_wall() if (word.r + d + b_cnt) % 2 else wall.sign_wall()
    return _closed_value(sign * num * fz.numerator,
                         den * fz.denominator * math.factorial(p), 3 * q - d - b_cnt)


def delta_l1(wall: WallGeometry, pairings: Pairings, r, vol=1) -> DeltaValue:
    """Wall-crossing term for l_zeta = 1 on the word x^r alpha^(d-2r):

    eps (-1)^(r+d+1) vol 2^(3q-d) [B S(s) + 8 s (zeta.alpha) S(s-1)
    + 8 alpha^2 C(s,2) S(s-2)], with s = d - 2r, B = 6 zeta^2 + 2 K^2 - 24q - 8r
    and S(m) = ``_l0_sum(m, q, q, zeta.alpha, Sigma.alpha, Sigma.zeta)``.
    """
    if wall.l_zeta != 1:
        raise RegimeError(f"delta_l1 needs l_zeta = 1, got {wall.l_zeta}")
    d, q = wall.d, wall.q
    s = d - 2 * r
    za = pairings.zetaAlpha
    sums = [Fraction(*_l0_sum(s - k, q, q, za, pairings.sigmaAlpha, pairings.sigmaZeta))
            for k in range(3)]
    bracket = ((6 * pairings.zeta2 + 2 * pairings.K2 - 24 * q - 8 * r) * sums[0]
               + 8 * s * za * sums[1] + 4 * s * (s - 1) * pairings.alpha2 * sums[2])
    value = (-1 if (r + d + 1) % 2 else 1) * wall.sign_wall() * bracket * frac(vol)
    return _closed_value(value.numerator, value.denominator, 3 * q - d)


# -- the summed Segre classes of the two extension strata (l_zeta = 1) ----

def _wall_classes(model):
    zs = model.even("zeta")
    ks = model.even("K")
    ez = e_zeta(model)
    uni = model.universal_class()
    return zs, ks, ez, uni


def segre_sum_closed(model: ModelSpec, n) -> GradedElement:
    """Closed form for the k-summed Segre class s_n of the two extension pairs.

    s_0 = 2; s_1 = 8 e_zeta - 4 zeta - 8 E; for n >= 2 the four-term
    expression with the (n-3)! term dropped when n < 3.
    """
    if n < 0:
        raise PreconditionError("segre_sum_closed needs n >= 0")
    zs, ks, ez, uni = _wall_classes(model)
    four_ez = 4 * ez
    out = 2 * four_ez ** n / math.factorial(n)
    if n >= 1:
        out = out - (4 * zs + 8 * uni) * four_ez ** (n - 1) / math.factorial(n - 1)
    if n >= 2:
        quad = 6 * (zs * zs) + 2 * (ks * ks) + 24 * (uni * zs) + 24 * (uni * uni)
        out = out + quad * four_ez ** (n - 2) / math.factorial(n - 2)
    if n >= 3:
        out = out - 24 * model.point() * four_ez ** (n - 2) / math.factorial(n - 3)
    return out


def segre_det_entries(model):
    """The K-even determinant entries a_1, a_2, a_3 of the stratum data."""
    zs, ks, ez, uni = _wall_classes(model)
    a1 = -4 * ez + 2 * zs + 4 * uni
    a2 = 2 * (zs * zs) + 8 * (uni * uni) + (ks * ks) + 8 * (uni * zs)
    a3 = 24 * (uni * uni * zs)
    return a1, a2, a3


def _recursion_head(model):
    zs, ks, _, uni = _wall_classes(model)
    return 2 * (zs * zs) + (ks * ks) + 8 * (uni * zs) + 8 * (uni * uni)


def segre_det_recursive(model: ModelSpec, n) -> GradedElement:
    """The stratum determinant by its two-term recursion (bases n = 0, 1)."""
    if n < 0:
        raise PreconditionError("segre_det needs n >= 0")
    a1, _, _ = segre_det_entries(model)
    if n == 0:
        return model.one()
    four_ez = 4 * e_zeta(model)
    head = _recursion_head(model)
    cur = -a1
    for m in range(2, n + 1):
        cur = (-a1 * cur
               + (m - 1) * four_ez ** (m - 2) * (head - 18 * (m - 2) * model.point()))
    return cur


def segre_det_closed(model: ModelSpec, n) -> GradedElement:
    """The stratum determinant by its resolved closed form."""
    if n < 0:
        raise PreconditionError("segre_det needs n >= 0")
    zs, _, ez, uni = _wall_classes(model)
    four_ez = 4 * ez
    base = four_ez - 2 * zs - 4 * uni
    out = base ** n
    head = _recursion_head(model)
    for i in range(2, n + 1):
        out = out + (base ** (n - i) * (i - 1) * four_ez ** (i - 2)
                     * (head - 18 * (i - 2) * model.point()))
    return out


def segre_det_determinant(model: ModelSpec, n) -> GradedElement:
    """The stratum determinant evaluated literally as a determinant.

    The determinant is n! s_n of the stratum data, so it also cross-checks
    Newton's recurrence in ``segre_from_ch``; a mismatch raises.
    """
    if n < 0:
        raise PreconditionError("segre_det needs n >= 0")
    data = ChernData(model, 0, segre_det_entries(model))
    det = hessenberg_det(data, n, signed=True)
    if det != segre_from_ch(data, n) * math.factorial(n):
        raise InvariantError(f"literal stratum determinant != n! s_n by recurrence at n={n}")
    return det


def leading_insertion_class(model: ModelSpec, l_zeta, which) -> GradedElement:
    """The three explicitly known insertion moments for any l_zeta.

    ``which`` picks one of ("2l,q", "2l-1,q", "2l,q-1"); the returned class
    is the literal right-hand side (numbers times e-class powers).
    """
    if l_zeta < 0:
        raise PreconditionError("l_zeta must be non-negative")
    q = model.q
    a2 = model.pair("alpha", "alpha")
    a = model.pair("zeta", "alpha") / 2
    lead = Fraction(math.factorial(2 * l_zeta), math.factorial(l_zeta))
    ea = e_alpha(model)
    if which == "2l,q":
        return lead * pow0(a2, l_zeta) * ea ** q
    if which == "2l-1,q":
        return -4 * lead * pow0(a2, l_zeta - 1) * a * ea ** q
    if which == "2l,q-1":
        if q < 1:
            raise PreconditionError("index pair (2l, q-1) needs q >= 1")
        return 4 * lead * pow0(a2, l_zeta) * ea ** (q - 1) * e_zeta(model)
    raise PreconditionError(f"unknown leading index pair {which!r}")


def delta_leading(wall: WallGeometry, pairings: Pairings, r, vol=1) -> DeltaValue:
    """Two lowest-order terms of delta in a = (zeta.alpha)/2, any l_zeta.

    Valid modulo a^(d - 2r - 2 l_zeta - q + 2); the returned value carries
    that exponent.  Requires d - 2r >= 2 l_zeta + q.
    """
    d, q, l = wall.d, wall.q, wall.l_zeta
    m = d - 2 * r - 2 * l - q
    if m < 0:
        raise PreconditionError(
            f"delta_leading needs d - 2r >= 2 l_zeta + q, got d={d}, r={r}, l={l}, q={q}")
    a = pairings.zetaAlpha / 2
    a2, sa, sz = pairings.alpha2, pairings.sigmaAlpha, pairings.sigmaZeta
    sign = -1 if (d + l + r) % 2 else 1
    scale = sign * Fraction(2) ** (q - 2 * r)
    fact = Fraction(math.factorial(d - 2 * r), math.factorial(l))
    first = pow0(a, m) * fact / math.factorial(m) * pow0(a2, l) * pow0(sa, q)
    second = (4 * pow0(a, m + 1) * fact * q / math.factorial(m + 1)
              * pow0(a2, l) * pow0(sa, q - 1) * sz) if q >= 1 else Fraction(0)
    value = wall.sign_wall() * scale * (first + second) * frac(vol)
    return DeltaValue(value, "leading-term", modulus_exponent=m + 2)
