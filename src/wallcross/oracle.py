"""Ring evaluation of the general wall-crossing expression for l_zeta <= 1.

This is the brute-force side of every closed form: the insertion word is
expanded as a polynomial in the formal variable X, each power X^N is
replaced through the Segre classes of the extension bundles,

    l = 0:  ch E_{+-zeta} = (h(+-zeta) + q) + e_{K -+ 2 zeta}
    l = 1:  ch E(k-th stratum) = ch M_{+-zeta} + exp(line class) exp(+-2E)

(duals through ch_dual, the two strata summed inside the table), and the
result is integrated.  At l = 1 each bundle's exponentials are one exp(x), x the
line class +- 2E, and a_i = i! ch_i(exp x) = x^i: its data is built as powers of x,
with no series summed.  Hilbert schemes of >= 2 points would require their
full cohomology, so l_zeta >= 2 is rejected.  Alpha enters only through
a = zeta.alpha/2 and e_alpha = -2 (Sigma.alpha) omega, so with t = 2 Sigma.alpha
A = -e_alpha + aX is raised as A^s = sum_b C(s, b) a^b t^(s - b) omega^(s - b) X^b
(the reduction of Jacobian integrals to powers of theta, after Macdonald).

At l = 0 every e_D is a multiple of omega, so the X-table lives in the
omega-subring, X^N becoming (num/den) omega^m, and a word is priced from the
table's scalars and the Jacobian moments I_c(j) = integral over J of
c omega^j of its odd part c, which read no wall.  At l = 1 the table is
built in the full kernel, and a word is priced as scalars times Jacobian
integrals: each surface class [S]^i alpha_S^j meets a table entry's S-words
through the S-product alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chern import ChernData, ch_direct_sum, ch_dual, segre_from_ch
from .closed import DeltaValue
from .errors import PreconditionError, RegimeError
from .graded import (_ZERO, S_ONE, S_PT, SIGMA, ModelSpec, integrate_forms, integrate_product,
                     integration_index, integration_pairs, s_even)
from .jacobian import InsertionWord, e_divisor, e_zeta_beta
from .walls import WallGeometry


def ch_extension_bundles(model: ModelSpec, wall: WallGeometry, k):
    """Chern data of the stratum pair (E_zeta^{l-k,k}, E_{-zeta}^{k,l-k}), l the wall's l_zeta.

    Returned un-dualized; ranks follow the wall's h-values.  Only
    l_zeta in {0, 1} is supported: the larger strata live over Hilbert
    schemes of >= 2 points, whose cohomology this model does not carry.
    """
    l_zeta = wall.l_zeta
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
    zs = model.even("zeta")
    ks = model.even("K")
    two_e = 2 * model.universal_class()
    # ch = rank + e + exp(x) for each side's line class x, and i! ch_i(exp(x)) = x^i:
    # the data is (rank + 1, e + x, x^2, x^3, ...) up to the first zero power, i <= q + 2
    lines = (zs + two_e, -zs - ks - two_e) if k == 0 else (zs - ks + two_e, -zs - two_e)
    datas = []
    for rank, e, x in zip((rank_plus, rank_minus), (e_plus, e_minus), lines):
        a, power = [e + x], x
        while len(a) < model.q + 2 and not (power := power * x).is_zero():
            a.append(power)
        datas.append(ChernData(model, rank + 1, a))
    return tuple(datas)


def _x_table(model, wall):
    """Every nonzero X^N substitute of an l = 1 wall as ``{N: integration_index}``.

    X^N becomes (-1)^(N - N_-) s_(N - 1 - N_+ - N_-), summed over the k = 0 and
    k = 1 stratum pairs; N <= d and N_+ + N_- + q + 2 = d - 1 leave at most q + 3
    of them, built in one Newton pass.  At l = 1 the ranks h_+- + q are N_+-, so
    the table reads N_+, N_-, d and the pairings below, never the word or the
    rest of the wall, and is kept under them.
    """
    key = ("l1 table", wall.n_plus, wall.n_minus, wall.d)
    # ch_extension_bundles builds it from Sigma, zeta, K, the universal class E and
    # omega, whose products pair only Sigma, zeta and K (E.E = -2 Sigma omega)
    for pair in ((SIGMA, "zeta"), (SIGMA, "K"), ("zeta", "zeta"), ("zeta", "K"), ("K", "K")):
        key += model.pair(*pair).as_integer_ratio()
    table = model.cache.get(key)
    if table is None:
        low = wall.n_plus + wall.n_minus + 1
        pairs = [ch_extension_bundles(model, wall, k) for k in (0, 1)]
        datas = [ch_direct_sum(ch_plus, ch_dual(ch_minus)) for ch_plus, ch_minus in pairs]
        table = {}
        for n in range(max(low, 0), wall.d + 1):
            out = model.zero()
            for data in datas:
                out = out + segre_from_ch(data, n - low)
            if out._terms:
                if (n - wall.n_minus) % 2:
                    out = -out
                table[n] = integration_index(out._terms)
        model.cache[key] = table
    return table


def _l0_table(model, wall, branch):
    """Every nonzero X^N substitute of an l = 0 wall as ``{N: (num, den, m)}``:
    X^N becomes (num/den) omega^m, the table's sign in num.

    The substitute is (-1)^(N - N_-) s_(N - 1 - N_+ - N_-) of E_zeta (+)
    E_{-zeta}^dual, or s_(N - N_-)(E_{-zeta}) on the component branch.  Its Chern
    data is a_1 = alpha_1 omega alone, so Newton's identities
    m s_m = sum_k (-1)^k a_k s_(m - k) run on the scalar alpha_1, in ints, for
    m <= q.  The table reads the branch, N_+, N_-, d and Sigma.zeta, and on the
    component branch Sigma.K, and is kept under them: the unified alpha_1 is
    8 Sigma.zeta, as Sigma.K cancels between E_zeta and the dual E_{-zeta}.
    """
    sigma_z = model.pairings.sigmaZeta
    key = ("l0 table", branch, wall.n_plus, wall.n_minus, wall.d, *sigma_z.as_integer_ratio())
    component = branch == "component"
    if component:
        sigma_k = model.pair(SIGMA, "K")
        key += sigma_k.as_integer_ratio()
    table = model.cache.get(key)
    if table is None:
        # a_1 / omega of E_{+-zeta} is e_{K -+ 2 zeta}; a dual flips a_1, a direct sum adds
        alpha_1 = -2 * (sigma_k + 2 * sigma_z) if component else 8 * sigma_z
        low = wall.n_minus if component else wall.n_plus + wall.n_minus + 1
        table, num, den = {}, 1, 1
        for m in range(min(model.q, wall.d - low) + 1):
            if m:  # m s_m = -a_1 s_(m - 1)
                num, den = -alpha_1.numerator * num, m * alpha_1.denominator * den
                g = math.gcd(num, den)
                num, den = num // g, den // g
            if num and low + m >= 0:
                odd = not component and (low + m - wall.n_minus) % 2
                table[low + m] = (-num if odd else num, den, m)
        model.cache[key] = table
    return table


def _jacobian_moment(model, word, j):
    """I_c(j), the integral over J of c omega^j with c the word's odd factors in
    order, as a reduced ``(num, den)`` kept under (gamma, A, j); it reads no wall."""
    key = ("I_c", word.gammas, word.threes, j)
    if word.threes:  # -e_{zeta,beta_j} for A_j reads Sigma.zeta; th_i and omega^j read none
        key += model.pair(SIGMA, "zeta").as_integer_ratio()
    moment = model.cache.get(key)
    if moment is None:
        c = model.one()
        for i in word.gammas:
            c = c * model.theta(i)
        for i in word.threes:
            c = c * -e_zeta_beta(model, i)
        value = integrate_product(c, model.omega_pow(j))
        moment = model.cache[key] = value.as_integer_ratio()
    return moment


def delta_oracle_l0(model: ModelSpec, wall: WallGeometry, word: InsertionWord,
                    branch="unified") -> DeltaValue:
    """Ring evaluation of the wall-crossing term for l_zeta = 0.

    ``branch="unified"`` substitutes X^N through the Segre classes of
    E_zeta (+) E_{-zeta}^dual and covers both the flip regime and the
    extra-component regime.  ``branch="component"`` substitutes
    s_{N - N_{-zeta}}(E_{-zeta}) directly, as on a moduli space gaining a
    whole component; it requires h(zeta) + q = 0 and Chern data consistent
    with a rank-zero E_zeta (Sigma.K = 2 Sigma.zeta).  ``WallGeometry.admit``
    refuses what ``evaluate`` does, and an l = 1 wall.
    """
    wall.admit(model.pairings, word, 0, model.q)
    if branch == "component":
        if wall.h_plus + wall.q != 0:
            raise RegimeError("component branch requires h(zeta) + q = 0")
    elif branch != "unified":
        raise PreconditionError(f"unknown branch {branch!r}")
    # the word is (-1/4)^r c X^(|gamma| + 2r) (-e_alpha + aX)^s, whose X^b term,
    # C(s, b) a^b t^(s - b) with a = zeta.alpha / 2 and t = 2 Sigma.alpha, is
    # x^b y^(s - b) / (2 zd sd)^s over the pairings' denominators zd and sd
    pairings = model.pairings
    (zn, zd), (an, ad) = (pairings.zetaAlpha.as_integer_ratio(),
                          pairings.sigmaAlpha.as_integer_ratio())
    x, y = zn * ad, 4 * an * zd
    table = _l0_table(model, wall, branch)
    # the word's degree fixes k + N = s + |gamma| + 2r, and X^N's entry
    # (num, den, m) gives m_c(k, N) = (num/den) I_c(k + m); as m = N - low,
    # k + m = top - low for every entry, so the terms share one moment I_c,
    # read at the first entry so that a word no entry meets keeps none
    s, top = word.s, word.s + len(word.gammas) + 2 * word.r
    num, den, moment = 0, 1, None
    for k in range(min(s, model.q) + 1):  # omega^k = 0 for k > q
        entry = table.get(top - k)
        if entry:
            t_num, t_den, m = entry
            if moment is None:
                moment = _jacobian_moment(model, word, k + m)
            term = math.comb(s, k) * x ** (s - k) * y ** k * t_num
            if term:
                num, den = num * t_den + term * den, den * t_den
    if not (num and moment[0]):
        return DeltaValue(_ZERO, "ring-oracle")
    i_num, i_den = moment
    scale = (-4) ** word.r * (2 * zd * ad) ** s * i_den
    return DeltaValue(Fraction(wall.sign_complex * num * i_num, den * scale), "ring-oracle")


def _s_powers(model, word, top):
    """[(c, w), ...], c w the p-th power of the S-word ``word`` for p = 0..top by the
    ring's S-product, cut before the first zero power."""
    powers = [(1, S_ONE)]
    while len(powers) <= top and (sp := model._smul(powers[-1][1], word)):
        powers.append((powers[-1][0] * sp[0], sp[1]))
    return powers


def delta_oracle_l1(model: ModelSpec, wall: WallGeometry, r) -> DeltaValue:
    """Ring evaluation of the wall-crossing term for l_zeta = 1 on x^r alpha^(d-2r).

    The point insertion becomes [S] - X^2/4 and the alpha insertion alpha_S + A,
    with A = -e_alpha + aX the l = 0 alpha insertion, so the word is
    sum_(i, j, b) C(r, i) C(s, j) C(s - j, b) (-1/4)^(r - i) a^b t^(s - j - b)
    sigma_ij omega^(s - j - b) X^(2r - 2i + b), with t = 2 Sigma.alpha and the
    surface class sigma_ij = [S]^i alpha_S^j one S-word times a scalar by the
    ring's S-product, taken until it returns zero.  Against the table entry
    T_N = sum_w T_N[w] w, sigma omega^k integrates to the sum over the S-words w
    with sigma w = c [S] of c times the integral over J of omega^k T_N[w], so no
    ring product is built.  The X-table sums the Segre classes of the k = 0 and
    k = 1 stratum pairs, so the K-odd couplings cancel exactly.
    ``WallGeometry.admit`` refuses what ``evaluate`` does, and an l = 0 wall.
    """
    word = InsertionWord.plain(r, wall.d)
    wall.admit(model.pairings, word, 1, model.q)
    r, s = word.r, word.s
    table = _x_table(model, wall)
    # a^b t^(m - b) = x^b y^(m - b) / e^m over the pairings' denominators zd and sd
    za, sa = model.pair("zeta", "alpha"), model.pair(SIGMA, "alpha")
    x, y = za.numerator * sa.denominator, 4 * sa.numerator * za.denominator
    e = 2 * za.denominator * sa.denominator
    smul, alpha_powers = model._smul, _s_powers(model, s_even("alpha"), s)
    # (X-power, omega-power, S-word of sigma, denominator of sigma's scalar) -> the int
    # numerator over that denominator times 4^r e^s, summed over (i, j, b)
    surfaces = {}
    for i, (c_i, point_i) in enumerate(_s_powers(model, S_PT, r)):
        for j, (c_j, alpha_j) in enumerate(alpha_powers):
            sigma = smul(point_i, alpha_j)
            if sigma is None:  # and so is every later one
                break
            c = c_i * c_j * sigma[0]
            # (-1/4)^(r - i) is (-1)^(r - i) 4^i over 4^r, and e^j lifts e^(s - j) to e^s
            c_ij = (math.comb(r, i) * math.comb(s, j) * (-1) ** (r - i) * 4 ** i * e ** j
                    * c.numerator)
            m = s - j
            for b in range(max(m - model.q, 0), m + 1):  # omega^k = 0 for k > q
                n = 2 * (r - i) + b
                if n in table:
                    key = (n, m - b, sigma[1], c.denominator)
                    surfaces[key] = (surfaces.get(key, 0)
                                     + c_ij * math.comb(m, b) * x ** b * y ** (m - b))
    sums, omega_pairs = {}, {}  # the int numerators of the terms by their denominator
    for (n, k, sigma, c_den), c in surfaces.items():
        entry = table[n]
        for w in entry[1]:
            # only an S-word of the complementary degree can reach [S]
            sp = c and w[0] + sigma[0] == S_PT[0] and smul(sigma, w)
            if sp:
                if k not in omega_pairs:
                    omega_pairs[k] = integration_pairs(model, model.omega_pow(k)._terms)
                num, den = integrate_forms(omega_pairs[k], entry, w)
                den *= c_den * sp[0].denominator
                sums[den] = sums.get(den, 0) + c * sp[0].numerator * num
    den = math.lcm(*sums)
    num = sum(part * (den // part_den) for part_den, part in sums.items())
    return DeltaValue(Fraction(wall.sign_complex * num, den * 4 ** r * e ** s), "ring-oracle")
