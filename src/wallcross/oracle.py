"""Ring evaluation of the general wall-crossing expression for l_zeta <= 1.

This is the brute-force side of every closed form: the insertion word is
expanded as a polynomial in the formal variable X with ring coefficients,
each power X^N is replaced through the Segre substitution table of the
extension-bundle data, and each product of an X^N coefficient with its
substitute is integrated without being formed.  Alpha enters only through
a = zeta.alpha/2 and e_alpha = -2 (Sigma.alpha) omega, so with t = 2 Sigma.alpha
the alpha insertion A = -e_alpha + aX is raised as
A^s = sum_b C(s, b) a^b t^(s - b) omega^(s - b) X^b: every coefficient is a
scalar times a power of omega, which the J-side caches (the reduction of
Jacobian integrals to powers of theta, after Macdonald).

A wall's X-table is built whole, every nonzero X^N substitute for N = 0..d
in one Newton pass, once per J-side, wall and the pairings that it reads
(``TABLE_READS``), whatever the word, from the Chern characters of the
extension bundles:

    l = 0:  ch E_{+-zeta} = (h(+-zeta) + q) + e_{K -+ 2 zeta}
    l = 1:  ch E(k-th stratum) = ch M_{+-zeta} + exp(line class) exp(+-2E)

with duals through ch_dual and the two strata summed inside the table.
Hilbert schemes of >= 2 points would require their full cohomology, so
l_zeta >= 2 is rejected.  An l = 0 word with odd part c (c = 1 for
x^r alpha^s) is (-1/4)^r c X^(|gamma| + 2r) A^s, so its value is
sign (-1/4)^r sum_(b >= s - q) C(s, b) a^b t^(s - b) m_c(s - b, |gamma| + 2r + b)
in the moments m_c(k, N), the integral over J of c omega^k X^N.  The word's
degree 2d fixes k + N = d - (|gamma| + |A|)/2, so every r reads the same
moments.  A moment reads the J-side, the wall and ``TABLE_READS`` only, so
it is kept beside the table, under (branch, wall, gamma, A) and k, as a
reduced int pair filled on first use; the forms of c omega^k are kept by
the odd indices and k in ``memo(())``, or in the ``PREFIX_READS_A`` slot
for a word with A-insertions.  A sweep over the alpha pairings thus prices
each point from at most q + 1 kept moments with int arithmetic and one
Fraction.  An l = 1 word's X^n coefficient is a sum of scalars times
[S]^i alpha_S^j omega^k, integrated against the table.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chern import ChernData, ch_direct_sum, ch_dual, chern_data_from_element, segre_from_ch
from .closed import DeltaValue
from .errors import PreconditionError, RegimeError
from .graded import (SIGMA, ModelSpec, exact_count, exp_truncated, integrate_forms,
                     integration_index, integration_pairs)
from .jacobian import InsertionWord, e_divisor, e_zeta_beta
from .walls import WallGeometry


# The pairings an X-table reads.  ch_extension_bundles builds it from Sigma,
# zeta, K, the universal class E and omega, whose products pair only Sigma,
# zeta and K (E.E = -2 Sigma omega); no product reads an alpha pairing.
TABLE_READS = ((SIGMA, "zeta"), (SIGMA, "K"), ("zeta", "zeta"), ("zeta", "K"), ("K", "K"))


def ch_extension_bundles(model: ModelSpec, wall: WallGeometry, l_zeta, k):
    """Chern data of the stratum pair (E_zeta^{l-k,k}, E_{-zeta}^{k,l-k}).

    Returned un-dualized; ranks follow the wall's h-values.  Only
    l_zeta in {0, 1} is supported: the larger strata live over Hilbert
    schemes of >= 2 points, whose cohomology this model does not carry.
    """
    if l_zeta not in (0, 1):
        raise RegimeError(
            "extension-bundle Chern data requires l_zeta in {0, 1}: larger strata "
            "need Hilbert-scheme cohomology that this model does not include")
    if k < 0 or k > l_zeta:
        raise PreconditionError(f"stratum index k={k} out of range for l_zeta={l_zeta}")
    sigma_k = model.pair(SIGMA, "K")
    sigma_z = model.pair(SIGMA, "zeta")
    # ch M_{+-zeta} = rank + e_{K -+ 2 zeta}
    rank_plus, rank_minus = wall.h_plus + wall.q, wall.h_minus + wall.q
    e_plus = e_divisor(model, sigma_k - 2 * sigma_z)
    e_minus = e_divisor(model, sigma_k + 2 * sigma_z)
    if l_zeta == 0:
        # nothing above degree 2: the data is (rank, a_1 = e), a_1 dropped when zero
        return tuple(ChernData(model, rank, () if e.is_zero() else (e,))
                     for rank, e in ((rank_plus, e_plus), (rank_minus, e_minus)))
    m_plus = model.scalar(rank_plus) + e_plus
    m_minus = model.scalar(rank_minus) + e_minus
    zs = model.even("zeta")
    ks = model.even("K")
    two_e = 2 * model.universal_class()
    if k == 0:
        ch_plus = m_plus + exp_truncated(zs + two_e)
        ch_minus = m_minus + exp_truncated(-zs - ks - two_e)
    else:
        ch_plus = m_plus + exp_truncated(zs - ks + two_e)
        ch_minus = m_minus + exp_truncated(-zs - two_e)
    return (chern_data_from_element(ch_plus), chern_data_from_element(ch_minus))


def _table_datas(model, wall, branch):
    """The Chern data a wall's X-table takes its Segre classes from."""
    if wall.l_zeta == 1:
        pairs = [ch_extension_bundles(model, wall, 1, k) for k in (0, 1)]
    else:
        pairs = [ch_extension_bundles(model, wall, 0, 0)]
        if branch == "component":
            return (pairs[0][1],)
    return tuple(ch_direct_sum(ch_plus, ch_dual(ch_minus)) for ch_plus, ch_minus in pairs)


def _x_table(model, wall, branch="unified"):
    """Every nonzero X^N substitute of one wall as ``{N: integration_index}``.

    X^N becomes (-1)^(N - N_-) s_(N - 1 - N_+ - N_-) of the table's Chern data,
    or s_(N - N_-)(E_{-zeta}) on the component branch.  A word of degree 2d
    reaches X^N for N <= d only, so N_+ + N_- + q + 2l = d - 1 leaves at most
    q + 2l + 1 substitutes, and the table is built whole, in one Newton pass,
    on its first miss.  The substitutes read the J-side, the wall and
    ``TABLE_READS``, never the word, so the table lives in the model's
    ``memo(TABLE_READS)`` slot under (branch, wall), shared by every word and
    every model over the J-side that agrees there.
    """
    key, memo = (branch, wall), model.memo(TABLE_READS)
    table = memo.get(key)
    if table is None:
        component = branch == "component"
        low = wall.n_minus if component else wall.n_plus + wall.n_minus + 1
        datas = _table_datas(model, wall, branch)
        table = {}
        for n in range(max(low, 0), wall.d + 1):
            out = model.zero()
            for data in datas:
                out = out + segre_from_ch(data, n - low)
            if out._terms:
                if not component and (n - wall.n_minus) % 2:
                    out = -out
                table[n] = integration_index(out._terms)
        memo[key] = table
    return table


# The pairings the forms of c omega^k read, c the odd part of an l = 0 word: each
# gamma_i is X th_i and each A_j is -e_{zeta,beta_j}, so c reads Sigma.zeta
# through e_zeta_beta when the word has A-insertions and no pairing otherwise.
# c and omega^k are Jacobian classes, so their product reads no pairing either.
PREFIX_READS_A = ((SIGMA, "zeta"),)


def _powers(elem, top):
    """[elem^0, elem^1, ...] up to elem^top, cut before the first zero power."""
    powers = [elem.model.one()]
    while len(powers) <= top and not (power := powers[-1] * elem).is_zero():
        powers.append(power)
    return powers


def _odd_forms(model, word, k):
    """c omega^k as ``integration_pairs``, c the word's odd factors in its order.
    Kept under (gamma, A, k) in the model's ``memo(())``, or its ``PREFIX_READS_A``
    slot for a word with A-insertions."""
    memo = model.memo(PREFIX_READS_A if word.threes else ())
    key = (word.gammas, word.threes, k)
    forms = memo.get(key)
    if forms is None:
        elem = model.one()
        for i in word.gammas:
            elem = elem * model.theta(i)
        for j in word.threes:
            elem = elem * -e_zeta_beta(model, j)
        if elem._terms:  # a vanishing odd product needs no omega power
            elem = elem * model.omega_pow(k)
        forms = memo[key] = integration_pairs(model, elem._terms)
    return forms


def _moment(model, wall, branch, word, k, n):
    """m_c(k, n), the integral over J of c omega^k X^n with X^n replaced through the
    wall's X-table, as a reduced ``(num, den)``; c is the word's odd part."""
    forms = _odd_forms(model, word, k)
    # a vanishing c omega^k needs no table
    index = _x_table(model, wall, branch).get(n) if forms[1] else None
    if index is None:
        return 0, 1
    num, den = integrate_forms(model, forms, index, jacobian=True)
    g = math.gcd(num, den)
    return num // g, den // g


def delta_oracle_l0(model: ModelSpec, wall: WallGeometry, word: InsertionWord,
                    branch="unified") -> DeltaValue:
    """Ring evaluation of the wall-crossing term for l_zeta = 0.

    ``branch="unified"`` substitutes X^N through the Segre classes of
    E_zeta (+) E_{-zeta}^dual and covers both the flip regime and the
    extra-component regime.  ``branch="component"`` substitutes
    s_{N - N_{-zeta}}(E_{-zeta}) directly, as on a moduli space gaining a
    whole component; it requires h(zeta) + q = 0 and Chern data consistent
    with a rank-zero E_zeta (Sigma.K = 2 Sigma.zeta).
    """
    if wall.l_zeta != 0:
        raise RegimeError(f"l0 oracle needs l_zeta = 0, got {wall.l_zeta}")
    a_cnt, b_cnt = len(word.gammas), len(word.threes)
    if (a_cnt + b_cnt) % 2:
        # the Jacobian integral of an odd-degree class vanishes
        return DeltaValue(Fraction(0), "ring-oracle")
    if word.degree() != 2 * wall.d:
        raise PreconditionError(
            f"word degree {word.degree()} does not match 2d = {2 * wall.d}")
    if branch == "component":
        if wall.h_plus + wall.q != 0:
            raise RegimeError("component branch requires h(zeta) + q = 0")
    elif branch != "unified":
        raise PreconditionError(f"unknown branch {branch!r}")
    # the word is (-1/4)^r c X^(|gamma| + 2r) (-e_alpha + aX)^s, whose X^b term,
    # C(s, b) a^b t^(s - b) with a = zeta.alpha / 2 and t = 2 Sigma.alpha, is
    # x^b y^(s - b) / (2 zd sd)^s over the pairings' denominators zd and sd
    za, sa = model.pair("zeta", "alpha"), model.pair(SIGMA, "alpha")
    x, y = za.numerator * sa.denominator, 4 * sa.numerator * za.denominator
    # by k: the word's degree fixes k + N = s + |gamma| + 2r
    moments = model.memo(TABLE_READS).setdefault((branch, wall, word.gammas, word.threes), {})
    s, top = word.s, word.s + a_cnt + 2 * word.r
    num, den = 0, 1
    for b in range(max(s - model.q, 0), s + 1):  # omega^k = 0 for k > q
        k = s - b
        weight = math.comb(s, b) * x ** b * y ** k
        if weight:
            moment = moments.get(k)
            if moment is None:
                moment = moments[k] = _moment(model, wall, branch, word, k, top - k)
            if moment[0]:
                num, den = num * moment[1] + weight * moment[0] * den, den * moment[1]
    scale = (-4) ** word.r * (2 * za.denominator * sa.denominator) ** s
    return DeltaValue(Fraction(wall.sign_complex() * num, den * scale), "ring-oracle")


def delta_oracle_l1(model: ModelSpec, wall: WallGeometry, r) -> DeltaValue:
    """Ring evaluation of the wall-crossing term for l_zeta = 1 on x^r alpha^(d-2r).

    The point insertion becomes [S] - X^2/4 and the alpha insertion alpha_S + A,
    with A = -e_alpha + aX the l = 0 alpha insertion, so the word is
    sum_(i, j, b) C(r, i) C(s, j) C(s - j, b) (-1/4)^(r - i) a^b t^(s - j - b)
    [S]^i alpha_S^j omega^(s - j - b) X^(2r - 2i + b), with t = 2 Sigma.alpha:
    each surface class [S]^i alpha_S^j is a ring product, taken until the ring
    returns zero, and each omega power is the model's cached one.  The
    X-table sums the Segre classes of the k = 0 and k = 1 stratum pairs, so
    the K-odd couplings cancel exactly.
    """
    r = exact_count(r, "the multiplicity r")
    if wall.l_zeta != 1:
        raise RegimeError(f"l1 oracle needs l_zeta = 1, got {wall.l_zeta}")
    s = wall.d - 2 * r
    if s < 0:
        return DeltaValue(Fraction(0), "ring-oracle")
    table = _x_table(model, wall)
    a, t = model.pair("zeta", "alpha") / 2, 2 * model.pair(SIGMA, "alpha")
    alpha_powers = _powers(model.even("alpha"), s)
    surfaces = {}  # (X-power, omega-power) -> its surface class, summed over (i, j, b)
    for i, point_i in enumerate(_powers(model.point(), r)):
        for j, alpha_j in enumerate(alpha_powers):
            surface = point_i * alpha_j
            if surface.is_zero():  # and so is every later one
                break
            surface = surface * (math.comb(r, i) * math.comb(s, j) * Fraction(-1, 4) ** (r - i))
            m = s - j
            for b in range(max(m - model.q, 0), m + 1):  # omega^k = 0 for k > q
                n, c = 2 * (r - i) + b, math.comb(m, b) * a ** b * t ** (m - b)
                if c and n in table:
                    key, term = (n, m - b), surface * c
                    surfaces[key] = surfaces[key] + term if key in surfaces else term
    num, den = 0, 1
    for (n, k), surface in surfaces.items():
        term = (surface * model.omega_pow(k))._terms
        if term:
            num_n, den_n = integrate_forms(model, integration_pairs(model, term), table[n])
            num, den = num * den_n + num_n * den, den * den_n
    return DeltaValue(Fraction(wall.sign_complex() * num, den), "ring-oracle")
