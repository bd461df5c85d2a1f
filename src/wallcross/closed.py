"""Direct evaluators for the closed-form wall-crossing results.

Everything here is plain rational arithmetic; the independent ring
evaluation of the general wall-crossing expression lives in ``oracle`` and
is used by the test suite to confirm each formula.

Conventions used throughout: a = (zeta.alpha)/2 (may be a half-integer,
all arithmetic is rational); binomial coefficients with out-of-range
arguments are zero, as are powers with negative exponents.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError
from .graded import _ZERO, ModelSpec, frac
from .jacobian import DeltaValue, InsertionWord, Pairings, jacobian_odd_integral, volume
from .walls import WallGeometry


def _l0_sum(s, p, e, za, sa, sz):
    """sum_{j=0..min(s,p)} C(s,j) p!/(p-j)! 2^(-j) za^(s-j) sa^j sz^(e-j), needing e >= p,
    as an int numerator over the int denominator zd^s (2 ad)^min(s,p) sd^e.

    zd, ad and sd are the denominators of za, sa and sz.  Over that one
    denominator the j-th term is C(s,j) p!/(p-j)! x^j y^(top-j) zn^(s-top) sn^(e-top),
    with x = zd an sd and y = 2 ad zn sn, so one Horner pass in ints sums them
    and no Fraction is built here.
    """
    top = min(s, p)
    if top < 0:
        return 0, 1
    (zn, zd), (an, ad), (sn, sd) = (za.as_integer_ratio(), sa.as_integer_ratio(),
                                    sz.as_integer_ratio())
    x, y = zd * an * sd, 2 * ad * zn * sn
    num, c, x_j = 0, 1, 1  # c = C(s, j) p!/(p-j)!
    for j in range(top + 1):
        num = num * y + c * x_j
        c, x_j = c * (s - j) * (p - j) // (j + 1), x_j * x
    return num * zn ** (s - top) * sn ** (e - top), zd ** s * (2 * ad) ** top * sd ** e


def _closed_value(num, den, shift, path="closed-form", modulus_exponent=None) -> DeltaValue:
    """num/den * 2^shift as the one Fraction of a closed-form sum."""
    if not num:
        return DeltaValue(_ZERO, path, modulus_exponent)
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    return DeltaValue(Fraction(num, den), path, modulus_exponent)


def _l0_closed(wall, pairings, r, s, p, b, fz) -> DeltaValue:
    """The l_zeta = 0 term of x^r alpha^s c, c an odd part of b degree-1 insertions with
    functional F = fz and p = q - (odd count)/2: eps (-1)^(r+d+b) 2^(3q-d-b) F/p!
    sum_j 2^(-j) C(s, j) p!/(p-j)! (zeta.alpha)^(s-j) (Sigma.alpha)^j (Sigma.zeta)^(p+b-j)."""
    if not fz:
        return DeltaValue(_ZERO, "closed-form")
    num, den = _l0_sum(s, p, p + b, pairings.zetaAlpha, pairings.sigmaAlpha, pairings.sigmaZeta)
    sign = -wall.sign_wall if (r + wall.d + b) % 2 else wall.sign_wall
    return _closed_value(sign * num * fz.numerator, den * fz.denominator * math.factorial(p),
                         3 * wall.q - wall.d - b)


def delta_l0(wall: WallGeometry, pairings: Pairings, r, vol) -> DeltaValue:
    """Wall-crossing term for l_zeta = 0 on the word x^r alpha^(d-2r): the l = 0 sum
    with F = q! vol.  ``evaluate`` prices every l = 0 word through ``delta_l0_odd``.
    ``WallGeometry.admit`` refuses what ``evaluate`` does, and an l = 1 wall, but
    with no model it cannot compare q; r > d/2 names no word."""
    word = InsertionWord.plain(r, wall.d)
    wall.admit(pairings, word, 0)
    return _l0_closed(wall, pairings, word.r, word.s, wall.q, 0,
                      frac(vol) * math.factorial(wall.q))


def delta_l0_odd(wall: WallGeometry, model: ModelSpec, word: InsertionWord) -> DeltaValue:
    """Wall-crossing term for l_zeta = 0 on any word: the l = 0 sum with F, the
    functional on the word's odd part (F = q! vol for x^r alpha^s), a product of the
    blocks on a block J-side and an int-form integral on a dense one.  Terms with
    q - (a+b)/2 - j < 0 are zero.  ``WallGeometry.admit`` refuses what ``evaluate``
    does, and an l = 1 wall."""
    wall.admit(model.pairings, word, 0, model.q)
    return _l0_closed(wall, model.pairings, word.r, word.s, wall.q - word.odd_count() // 2,
                      len(word.threes), jacobian_odd_integral(model, word.gammas, word.threes))


def delta_l1(wall: WallGeometry, pairings: Pairings, r, vol) -> DeltaValue:
    """Wall-crossing term for l_zeta = 1 on the word x^r alpha^(d-2r):

    eps (-1)^(r+d+1) vol 2^(3q-d) [B S(s) + 8 s (zeta.alpha) S(s-1)
    + 8 alpha^2 C(s,2) S(s-2)], with s = d - 2r, B = 6 zeta^2 + 2 K^2 - 24q - 8r
    and S(m) = ``_l0_sum(m, q, q, zeta.alpha, Sigma.alpha, Sigma.zeta)``.
    ``WallGeometry.admit`` refuses what ``evaluate`` does, and an l = 0 wall, but
    with no model it cannot compare q; r > d/2 names no word.
    """
    word = InsertionWord.plain(r, wall.d)
    wall.admit(pairings, word, 1)
    d, q, r, s = wall.d, wall.q, word.r, word.s
    za, sa, sz = pairings.zetaAlpha, pairings.sigmaAlpha, pairings.sigmaZeta
    z2, k2, a2 = pairings.zeta2, pairings.K2, pairings.alpha2
    # the bracket's three terms as int fractions, summed over the lcm of their denominators
    b_den = z2.denominator * k2.denominator
    b_num = (6 * z2.numerator * k2.denominator + 2 * k2.numerator * z2.denominator
             - (24 * q + 8 * r) * b_den)
    (n0, d0), (n1, d1), (n2, d2) = (_l0_sum(s - k, q, q, za, sa, sz) for k in range(3))
    terms = ((b_num * n0, b_den * d0), (8 * s * za.numerator * n1, za.denominator * d1),
             (4 * s * (s - 1) * a2.numerator * n2, a2.denominator * d2))
    den = math.lcm(*(t_den for _, t_den in terms))
    num = sum(t_num * (den // t_den) for t_num, t_den in terms)
    sign = -wall.sign_wall if (r + d + 1) % 2 else wall.sign_wall
    vol = frac(vol)
    return _closed_value(sign * num * vol.numerator, den * vol.denominator, 3 * q - d)


def delta_leading(model: ModelSpec, wall: WallGeometry, word: InsertionWord) -> DeltaValue:
    """Two lowest-order terms of delta in a = (zeta.alpha)/2 on x^r alpha^s, any l_zeta.

    Valid modulo a^(d - 2r - 2 l_zeta - q + 2); the returned value carries
    that exponent.  Requires d - 2r >= 2 l_zeta + q.  ``WallGeometry.admit``
    refuses what ``evaluate`` does, and the leading terms take no odd insertion.
    """
    pairings = model.pairings
    wall.admit(pairings, word, q=model.q)
    if word.gammas or word.threes:
        raise PreconditionError("the leading terms cover words x^r alpha^s only")
    d, q, l, r = wall.d, wall.q, wall.l_zeta, word.r
    m = d - 2 * r - 2 * l - q
    if m < 0:
        raise PreconditionError(
            f"delta_leading needs d - 2r >= 2 l_zeta + q, got d={d}, r={r}, l={l}, q={q}")
    # with a = zn / (2 zd), alpha^2 = an / ad, Sigma.alpha = sn / sd and Sigma.zeta = tn / td:
    # first = a^m (d - 2r)! / (l! m!) (alpha^2)^l (Sigma.alpha)^q and, for q >= 1,
    # second = 4 a^(m + 1) (d - 2r)! q / (l! (m + 1)!) (alpha^2)^l (Sigma.alpha)^(q - 1) Sigma.zeta,
    # both over (2 zd)^(m + 1) l! (m + 1)! ad^l sd^q td
    za, a2, sa, sz = pairings.zetaAlpha, pairings.alpha2, pairings.sigmaAlpha, pairings.sigmaZeta
    zn, zd, sn, sd, tn, td = (za.numerator, za.denominator, sa.numerator, sa.denominator,
                              sz.numerator, sz.denominator)
    inner = 2 * zd * (m + 1) * sn ** q * td
    if q >= 1:
        inner += 4 * zn * q * sd * tn * sn ** (q - 1)
    num = math.factorial(d - 2 * r) * a2.numerator ** l * zn ** m * inner
    den = ((2 * zd) ** (m + 1) * math.factorial(l) * math.factorial(m + 1)
           * a2.denominator ** l * sd ** q * td)
    sign = -wall.sign_wall if (d + l + r) % 2 else wall.sign_wall
    vol = volume(model)
    return _closed_value(sign * num * vol.numerator, den * vol.denominator, q - 2 * r,
                         "leading-term", m + 2)
