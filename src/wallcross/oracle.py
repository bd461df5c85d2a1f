"""Ring evaluation of the general wall-crossing expression for l_zeta <= 1.

This is the brute-force side of every closed form: the insertion word is
expanded as a polynomial in the formal variable X with ring coefficients
(a factor repeated m times, such as the alpha insertion, is raised by the
binomial theorem), each power X^N is replaced through the Segre
substitution table of the extension-bundle data, and each product of an
X^N coefficient with its substitute is integrated without being formed.

A wall's X-table is built whole, every nonzero X^N substitute for N = 0..d
in one Newton pass, once per J-side, wall and the pairings that it reads
(``TABLE_READS``), whatever the word, from the Chern characters of the
extension bundles:

    l = 0:  ch E_{+-zeta} = (h(+-zeta) + q) + e_{K -+ 2 zeta}
    l = 1:  ch E(k-th stratum) = ch M_{+-zeta} + exp(line class) exp(+-2E)

with duals through ch_dual and the two strata summed inside the table.
Hilbert schemes of >= 2 points would require their full cohomology, so
l_zeta >= 2 is rejected.  An l = 0 word is c X^(|gamma| + 2r) times the
alpha power (-e_alpha + aX)^s, and each part is likewise kept per J-side and
the pairings it reads: the alpha power by s and ``WORD_READS``, the prefix c
by the word's odd indices and r, and a word with odd insertions as c times
each alpha-power term.  A word x^r alpha^s is priced from its alpha power
alone, so a sweep over pairings raises one alpha power per s and expands no
prefix twice.  Tables and word forms keep each X^N term as int numerators
over one denominator, so an l = 0 point costs one integer dot product per
X-power.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chern import ChernData, ch_direct_sum, ch_dual, chern_data_from_element, segre_from_ch
from .closed import DeltaValue
from .errors import PreconditionError, RegimeError
from .graded import (SIGMA, GradedElement, ModelSpec, exp_truncated, integrate_forms,
                     integration_index, integration_pairs)
from .jacobian import InsertionWord, e_alpha, e_divisor, e_zeta_beta
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


def _xpoly_mul(poly, factor):
    out = {}
    for n1, c1 in poly.items():
        for n2, c2 in factor.items():
            c = c1 * c2
            if c.is_zero():
                continue
            key = n1 + n2
            s = out.get(key)
            out[key] = c if s is None else s + c
    return {n: c for n, c in out.items() if not c.is_zero()}


def _xpoly_power(model, factor, m):
    """``factor ** m`` by the binomial theorem in its lowest power of X.

    (c X^n + rest)^m = sum_k C(m, k) c^k X^(nk) rest^(m-k) holds only when
    the coefficients commute, so a factor with an odd coefficient may not
    repeat.
    """
    if m == 1:
        return factor
    one = model.one()
    if m == 0:
        return {0: one}
    if any(deg % 2 for c in factor.values() for deg in c.total_degrees()):
        raise PreconditionError(
            "an X-polynomial factor with an odd coefficient cannot be raised to a power")
    (n0, c0), *rest = sorted(factor.items())
    rest = dict(rest)
    rest_pows = [{0: one}]
    for _ in range(m):
        rest_pows.append(_xpoly_mul(rest_pows[-1], rest))
    out = {}
    c0_pow = one
    for k in range(m + 1):
        if k:
            c0_pow = c0_pow * c0
            if c0_pow.is_zero():
                break
        for n, c in rest_pows[m - k].items():
            term = c0_pow * (c * math.comb(m, k))
            key = n0 * k + n
            s = out.get(key)
            out[key] = term if s is None else s + term
    return {n: c for n, c in out.items() if not c.is_zero()}


def _expand(model, factors):
    """The X-polynomial product of ``factor ** multiplicity``, in the given order,
    over ``(factor, multiplicity)`` pairs."""
    poly = {0: model.one()}
    for factor, m in factors:
        poly = _xpoly_mul(poly, _xpoly_power(model, factor, m))
        if not poly:
            break
    return poly


# The pairings the parts of an l = 0 word read.  Each gamma_i is X th_i, each A_j
# is -e_{zeta,beta_j} and x^r is (-X^2/4)^r, so a word is c X^(|gamma| + 2r) times
# the alpha power (-e_alpha + aX)^s.  The prefix c reads Sigma.zeta through
# e_zeta_beta when the word has A-insertions and no pairing otherwise; the alpha
# power reads Sigma.alpha through e_alpha and zeta.alpha through aX.  Every factor
# is a Jacobian class (or a scalar), so their products read no pairing at all.
PREFIX_READS_A = ((SIGMA, "zeta"),)
WORD_READS = ((SIGMA, "alpha"), ("zeta", "alpha"))
WORD_READS_A = WORD_READS + PREFIX_READS_A


def _alpha_power(model, s):
    """(-e_alpha + aX)^s = sum_b A_b X^b as ``({b: term dict}, {b: integration_pairs})``,
    kept under s in the model's ``WORD_READS`` slot."""
    memo = model.memo(WORD_READS)
    power = memo.get(s)
    if power is None:
        factor = {0: -e_alpha(model), 1: model.scalar(model.pair("zeta", "alpha") / 2)}
        terms = {b: c._terms for b, c in _xpoly_power(model, factor, s).items()}
        power = memo[s] = (terms, {b: integration_pairs(model, t) for b, t in terms.items()})
    return power


def _odd_prefix(model, word):
    """c of the word's prefix c X^(|gamma| + 2r) as a term dict: (-1/4)^r times
    the odd factors in the word's order.  Kept under (gamma, A, r) in the model's
    ``memo(())``, or its ``PREFIX_READS_A`` slot for a word with A-insertions."""
    memo = model.memo(PREFIX_READS_A if word.threes else ())
    key = (word.gammas, word.threes, word.r)
    prefix = memo.get(key)
    if prefix is None:
        elem = model.scalar(Fraction(-1, 4) ** word.r)
        for i in word.gammas:
            elem = elem * model.theta(i)
        for j in word.threes:
            elem = elem * -e_zeta_beta(model, j)
        prefix = memo[key] = elem._terms
    return prefix


def _odd_word_forms(model, word):
    """c A_b of an l = 0 word with odd insertions as {b: ``integration_pairs``},
    kept under the word in the model's ``WORD_READS`` slot (``WORD_READS_A`` for
    a word with A-insertions); a new alpha power meets the kept prefix only."""
    memo = model.memo(WORD_READS_A if word.threes else WORD_READS)
    forms = memo.get(word)
    if forms is None:
        forms = {}
        prefix = _odd_prefix(model, word)
        if prefix:  # a vanishing odd product needs no alpha power
            prefix = GradedElement(model, prefix)
            for b, terms in _alpha_power(model, word.s)[0].items():
                product = prefix * GradedElement(model, terms)
                if product._terms:
                    forms[b] = integration_pairs(model, product._terms)
        memo[word] = forms
    return forms


def _integrate_x(model, forms, table, shift, jacobian=False):
    """sum_n of each X^n coefficient, ``forms[n]`` as ``integration_pairs``, integrated
    against the substitute of X^(n + shift), as ``(num, den)``; an X-power with
    no substitute adds nothing."""
    num, den = 0, 1
    for n, pairs in forms.items():
        index = table.get(shift + n)
        if index is not None:
            num_n, den_n = integrate_forms(model, pairs, index, jacobian)
            if num_n:
                num, den = num * den_n + num_n * den, den * den_n
    return num, den


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
    if a_cnt + b_cnt:
        forms, scale = _odd_word_forms(model, word), 1
    else:
        # x^r alpha^s is (-1/4)^r X^(2r) times the alpha power: its own forms
        forms, scale = _alpha_power(model, word.s)[1], (-4) ** word.r
    num, den = 0, 1
    if forms:  # a vanishing odd product needs no table
        num, den = _integrate_x(model, forms, _x_table(model, wall, branch),
                                a_cnt + 2 * word.r, jacobian=True)
    return DeltaValue(Fraction(wall.sign_complex() * num, den * scale), "ring-oracle")


def delta_oracle_l1(model: ModelSpec, wall: WallGeometry, r) -> DeltaValue:
    """Ring evaluation of the wall-crossing term for l_zeta = 1 on x^r alpha^(d-2r).

    The point insertion becomes [S] - X^2/4 and the alpha insertion
    alpha_S - e_alpha + aX; the X-table sums the Segre classes of the k = 0
    and k = 1 stratum pairs, so the K-odd couplings cancel exactly.
    """
    if wall.l_zeta != 1:
        raise RegimeError(f"l1 oracle needs l_zeta = 1, got {wall.l_zeta}")
    s = wall.d - 2 * r
    if s < 0:
        return DeltaValue(Fraction(0), "ring-oracle")
    table = _x_table(model, wall)
    a = model.pair("zeta", "alpha") / 2
    ea = e_alpha(model)
    alpha_s = model.even("alpha")
    factors = [({0: model.point(), 2: model.scalar(Fraction(-1, 4))}, r),
               ({0: alpha_s - ea, 1: model.scalar(a)}, s)]
    forms = {n: integration_pairs(model, coeff._terms)
             for n, coeff in _expand(model, factors).items() if n in table}
    num, den = _integrate_x(model, forms, table, 0)
    return DeltaValue(Fraction(wall.sign_complex() * num, den), "ring-oracle")
