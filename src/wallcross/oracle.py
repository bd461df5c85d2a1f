"""Ring evaluation of the general wall-crossing expression for l_zeta <= 1.

This is the brute-force side of every closed form: the insertion word is
expanded as a polynomial in the formal variable X with ring coefficients,
each power X^N is replaced through the Segre substitution table of the
extension-bundle data, and each product of an X^N coefficient with its
substitute is integrated without being formed.  One expansion serves both
wall lengths: the l = 0 alpha insertion A = -e_alpha + aX is raised as
A^s = sum_b C(s, b) a^b (-e_alpha)^(s - b) X^b, and an l = 1 word is a sum
of nilpotent surface classes [S]^i alpha_S^j times X^(2r - 2i) A^(s - j).

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
prefix twice; an l = 1 word reads the same alpha powers.  Tables and word
forms keep each X^N term as int numerators over one denominator, so an
l = 0 point costs one integer dot product per X-power.
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


# The pairings the parts of an l = 0 word read.  Each gamma_i is X th_i, each A_j
# is -e_{zeta,beta_j} and x^r is (-X^2/4)^r, so a word is c X^(|gamma| + 2r) times
# the alpha power (-e_alpha + aX)^s.  The prefix c reads Sigma.zeta through
# e_zeta_beta when the word has A-insertions and no pairing otherwise; the alpha
# power reads Sigma.alpha through e_alpha and zeta.alpha through aX.  Every factor
# is a Jacobian class (or a scalar), so their products read no pairing at all.
PREFIX_READS_A = ((SIGMA, "zeta"),)
WORD_READS = ((SIGMA, "alpha"), ("zeta", "alpha"))
WORD_READS_A = WORD_READS + PREFIX_READS_A


def _powers(elem, top):
    """[elem^0, elem^1, ...] up to elem^top, cut before the first zero power."""
    powers = [elem.model.one()]
    while len(powers) <= top and not (power := powers[-1] * elem).is_zero():
        powers.append(power)
    return powers


def _alpha_power(model, s):
    """(-e_alpha + aX)^s = sum_b A_b X^b, A_b = C(s, b) a^b (-e_alpha)^(s - b), as
    ``({b: term dict}, {b: integration_pairs})``, kept under s in the model's
    ``WORD_READS`` slot."""
    memo = model.memo(WORD_READS)
    power = memo.get(s)
    if power is None:
        a, terms = model.pair("zeta", "alpha") / 2, {}
        for k, ea_k in enumerate(_powers(-e_alpha(model), s)):  # A_(s - k)
            c = math.comb(s, k) * a ** (s - k)
            if c:
                terms[s - k] = (ea_k * c)._terms
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

    The point insertion becomes [S] - X^2/4 and the alpha insertion alpha_S + A,
    with A = -e_alpha + aX the l = 0 alpha insertion, so the word is
    sum_(i, j) C(r, i) C(s, j) (-1/4)^(r - i) [S]^i alpha_S^j X^(2r - 2i) A^(s - j):
    each surface class [S]^i alpha_S^j is a ring product, taken until the ring
    returns zero, and each A^m is the alpha power the l = 0 words keep.  The
    X-table sums the Segre classes of the k = 0 and k = 1 stratum pairs, so
    the K-odd couplings cancel exactly.
    """
    if wall.l_zeta != 1:
        raise RegimeError(f"l1 oracle needs l_zeta = 1, got {wall.l_zeta}")
    s = wall.d - 2 * r
    if s < 0:
        return DeltaValue(Fraction(0), "ring-oracle")
    table = _x_table(model, wall)
    alpha_powers = _powers(model.even("alpha"), s)
    coeffs = {}  # X-power -> its coefficient, summed over (i, j)
    for i, point_i in enumerate(_powers(model.point(), r)):
        for j, alpha_j in enumerate(alpha_powers):
            surface = point_i * alpha_j
            if surface.is_zero():  # and so is every later one
                break
            surface = surface * (math.comb(r, i) * math.comb(s, j) * Fraction(-1, 4) ** (r - i))
            for b, terms in _alpha_power(model, s - j)[0].items():
                n = 2 * (r - i) + b
                if n in table:
                    term = surface * GradedElement(model, terms)
                    coeffs[n] = coeffs[n] + term if n in coeffs else term
    forms = {n: integration_pairs(model, coeff._terms)
             for n, coeff in coeffs.items() if coeff._terms}
    num, den = _integrate_x(model, forms, table, 0)
    return DeltaValue(Fraction(wall.sign_complex() * num, den), "ring-oracle")
