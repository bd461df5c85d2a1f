"""Verification grids: every documented identity, oracle agreement and
invariance property, runnable from the CLI and reused by the test suite.

Each check returns a CheckResult with the first counterexample (if any)
rendered into ``detail``.  All comparisons are exact.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .chern import (ChernData, ch_direct_sum, ch_dual, chern_from_ch,
                    segre_from_ch, total_chern)
from .closed import (comb0, delta_l0, delta_l0_odd, delta_l1, delta_leading,
                     segre_det_closed, segre_det_determinant,
                     segre_det_recursive, segre_sum_closed)
from .errors import InvalidWallError
from .graded import (SIGMA, GradedElement, ModelSpec, S_ONE, S_PT,
                     inverse_unit_series, s_even, s_mixed, s_odd)
from .jacobian import (InsertionWord, PairingInput, Pairings, build_model,
                       e_alpha, volume)
from .oracle import ch_extension_bundles, delta_oracle_l0, delta_oracle_l1
from .walls import WallGeometry, complex_orientation_sign, wall_params, wall_sign


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    points: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" -- {self.detail}" if self.detail and not self.passed else ""
        return f"{status} {self.name} ({self.points} points){tail}"


@dataclass(frozen=True)
class Grid:
    """Bounds for the verification grids (CLI --grid syntax: "q=0..3,d<=8,r<=2,pair<=3,sweep<=20")."""

    q_max: int = 3
    d_max: int = 8
    r_max: int = 2
    pair_bound: int = 3
    sweep_bound: int = 20


def parse_grid(text) -> Grid:
    from .errors import SchemaError
    grid = Grid()
    if not text:
        return grid
    keymap = {"q": "q_max", "d": "d_max", "r": "r_max", "pair": "pair_bound",
              "sweep": "sweep_bound"}
    starts = {"q": 0, "d": 1, "r": 0}  # where each grid begins; pair and sweep run from -bound
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        for sep in ("<=", "=..", "="):
            if sep in clause:
                key, _, val = clause.partition(sep)
                break
        else:
            raise SchemaError(f"cannot parse grid clause {clause!r}")
        key = key.strip()
        if key not in keymap:
            raise SchemaError(f"unknown grid key {key!r}")
        low, dots, val = val.strip().rpartition("..")
        try:
            num = int(val)
            low = int(low) if dots else None
        except ValueError as exc:
            raise SchemaError(f"bad grid bound in {clause!r}") from exc
        start = starts.get(key, -num)
        if low is not None and low > start:
            raise SchemaError(f"grid clause {clause!r}: the {key} grid starts at {start}")
        grid = replace(grid, **{keymap[key]: num})
    return grid


# ---------------------------------------------------------------------------
# shared helpers

def model_for(q, pairings, blocks=None, matrix=None) -> ModelSpec:
    return build_model(PairingInput(q=q, pairings=pairings, a_blocks=blocks,
                                    a_matrix=matrix))


def valid_zeta_k(q, zeta2, l_zeta, limit=None):
    """zeta.K values of the right parity keeping both extension ranks >= 0."""
    out = []
    hi = -zeta2 + 2 * (l_zeta + q) if limit is None else limit
    for zk in range(0, hi + 1):
        for signed in ((zk,) if zk == 0 else (zk, -zk)):
            if (signed - zeta2) % 2:
                continue
            try:
                wall_params(zeta2 - 4 * l_zeta, q, zeta2, signed)
            except InvalidWallError:
                continue
            out.append(signed)
    return out


W_VARIANTS = ((0, 0, 0), (1, -1, 1), (-1, 1, -1))  # (zeta.u, u^2, u.K), w = zeta - 2u


def wall_with_variant(p1, q, zeta2, zetaK, variant=(0, 0, 0)) -> WallGeometry:
    zu, u2, uk = variant
    return WallGeometry.build(
        p1=p1, q=q, zeta2=zeta2, zetaK=zetaK,
        zetaW=zeta2 - 2 * zu, w2=zeta2 - 4 * zu + 4 * u2, wK=zetaK - 2 * uk)


def monomial_basis(model, degree):
    """All canonical monomials of one total degree, as elements."""
    out = []
    n = 2 * model.q
    for jsize in range(min(degree, n) + 1):
        sdeg = degree - jsize
        if not 0 <= sdeg <= 4:
            continue
        if sdeg == 0:
            sparts = [S_ONE]
        elif sdeg == 1:
            sparts = [s_odd(i) for i in range(n)]
        elif sdeg == 2:
            sparts = [s_even(sym) for sym in model.even_symbols]
        elif sdeg == 3:
            sparts = [s_mixed(i, sym) for i in range(n)
                      for sym in model.even_symbols if sym != SIGMA]
        else:
            sparts = [S_PT]
        for jpart in itertools.combinations(range(n), jsize):
            for sp in sparts:
                out.append(GradedElement(model, {(jpart, sp): Fraction(1)}))
    return out


def random_even_element(model, degree, rng, density=3):
    basis = monomial_basis(model, degree)
    if not basis:
        return model.zero()
    out = model.zero()
    for elem in rng.sample(basis, min(density, len(basis))):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            out = out + elem * c
    return out


def poly_coeffs(xs, ys):
    """Exact coefficients of the polynomial through (xs, ys) (Vandermonde solve)."""
    n = len(xs)
    rows = [[Fraction(x) ** j for j in range(n)] + [Fraction(ys[i])]
            for i, x in enumerate(xs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def _blocks_for_q(q):
    return {0: [None], 1: [(1,), (3,)], 2: [(1, 1), (2, 3)], 3: [(1, 1, 1), (2, 3, 1)]}[q]


# ---------------------------------------------------------------------------
# criterion 5: structural identities

def check_structural_identities(grid=Grid(), inject_sign_error=False) -> CheckResult:
    """Dimension identity and the two-sign identity over an exhaustive sweep."""
    name = "structural-identities"
    points = 0
    bound = grid.sweep_bound
    # dimension identity N+ + N- + q + 2l = d - 1
    for q in range(min(4, grid.q_max + 1) + 1):
        for zeta2 in range(-bound, 0):
            for zetaK in range(-bound, bound + 1):
                if (zetaK - zeta2) % 2:
                    continue
                for l in range(0, 4):
                    try:
                        p = wall_params(zeta2 - 4 * l, q, zeta2, zetaK)
                    except InvalidWallError:
                        continue
                    points += 1
                    if p.n_plus + p.n_minus + q + 2 * p.l_zeta != p.d - 1:
                        return CheckResult(name, False, points,
                                           f"dimension identity fails at q={q}, zeta2={zeta2}, zetaK={zetaK}, l={l}")
                    rev = wall_params(zeta2 - 4 * l, q, zeta2, -zetaK)
                    if (rev.h_plus, rev.n_plus) != (p.h_minus, p.n_minus) or rev.d != p.d:
                        return CheckResult(name, False, points,
                                           f"zeta -> -zeta exchange fails at q={q}, zeta2={zeta2}, zetaK={zetaK}")
    # sign identity eps_S(w) (-1)^h = (-1)^(d+q) eps(zeta, w), Wu-consistent sweep
    half = max(4, bound // 4)
    for w2 in range(-bound // 2, bound // 2 + 1):
        for wK in range(-bound // 2, bound // 2 + 1):
            if (wK - w2) % 2:
                continue
            for u2 in range(-half, half + 1):
                for uK in range(-half, half + 1):
                    if (uK - u2) % 2:
                        continue
                    for wu in range(-half, half + 1):
                        zeta2 = w2 + 4 * wu + 4 * u2
                        if not -bound <= zeta2 < 0:
                            continue
                        zetaW = w2 + 2 * wu
                        zetaK = wK + 2 * uK
                        h = (zetaK - zeta2) // 2 - 1
                        eps = wall_sign(zeta2, zetaW, w2)
                        if inject_sign_error:
                            eps = -eps
                        lhs = complex_orientation_sign(wK, w2) * (-1) ** (h % 2)
                        for l in (0, 1):
                            for q in range(min(4, grid.q_max + 1) + 1):
                                d = -(zeta2 - 4 * l) - 3 * (1 - q)
                                rhs = (-1) ** ((d + q) % 2) * eps
                                points += 1
                                if lhs != rhs:
                                    return CheckResult(
                                        name, False, points,
                                        f"sign identity fails at w2={w2}, wK={wK}, u2={u2}, uK={uK}, wu={wu}, q={q}, l={l}")
    return CheckResult(name, True, points)


# ---------------------------------------------------------------------------
# criterion 9: model axioms

def _axiom_models():
    cases = []
    base = dict(zeta2=-4, zetaK=0, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1,
                sigmaK=2, K2=8, Kalpha=-1, alpha2=-1)
    cases.append((0, None, Pairings(**base)))
    cases.append((1, (1,), Pairings(**base)))
    cases.append((1, (5,), Pairings(**dict(base, sigmaAlpha=3))))
    cases.append((1, (), Pairings(**base)))          # degenerate omega
    cases.append((2, (1, 1), Pairings(**base)))
    cases.append((2, (2, 3), Pairings(**dict(base, sigmaZeta=-2))))
    cases.append((3, (1, 2, 3), Pairings(**base)))
    matrix = ((0, 1, 1, 0), (-1, 0, 0, -5), (-1, 0, 0, 1), (0, 5, -1, 0))
    cases.append((2, None, Pairings(**base), matrix))
    return cases


def check_model_axioms(grid=Grid()) -> CheckResult:
    """e_S = 0, E^3 = E^4 = 0, e_alpha = -2 (Sigma.alpha) omega, odd squares."""
    name = "model-axioms"
    points = 0
    for case in _axiom_models():
        q, blocks, pairings = case[0], case[1], case[2]
        matrix = case[3] if len(case) > 3 else None
        model = model_for(q, pairings, blocks=blocks, matrix=matrix)
        uni = model.universal_class()
        e2 = uni * uni
        if not (e2 * uni).is_zero() or not (e2 * e2).is_zero():
            return CheckResult(name, False, points, f"E^3 or E^4 nonzero at q={q}")
        expected = model.omega_class() * (-2 * pairings.sigmaAlpha)
        if e_alpha(model) != expected:
            return CheckResult(name, False, points, f"e_alpha mismatch at q={q}")
        # e_alpha is also the slant of E^2 against alpha: E^2 = -2 Sigma omega
        if e2 != model.omega_class() * model.even(SIGMA) * (-2):
            return CheckResult(name, False, points, f"E^2 != -2 Sigma omega at q={q}")
        for i in range(2 * q):
            if not (model.beta(i) * model.beta(i)).is_zero():
                return CheckResult(name, False, points, "odd square nonzero")
            if not (model.theta(i) * model.theta(i)).is_zero():
                return CheckResult(name, False, points, "odd square nonzero")
            if not (model.beta(i) * model.even(SIGMA)).is_zero():
                return CheckResult(name, False, points, "be_i * Sigma nonzero")
        points += 1
    return CheckResult(name, True, points)


# ---------------------------------------------------------------------------
# criteria 1 and 2: oracle equivalence grids

def _pair_range(bound):
    return range(-bound, bound + 1)


def check_oracle_l0(grid=Grid()) -> CheckResult:
    """delta_oracle_l0 == delta_l0 on the full l=0 verification grid."""
    name = "oracle-l0"
    points = 0
    for q in range(grid.q_max + 1):
        for d in range(1, grid.d_max + 1):
            zeta2 = -(d + 3 * (1 - q))
            if zeta2 >= 0:
                continue
            zks = valid_zeta_k(q, zeta2, 0)
            zks = zks[:2] if q <= 1 else zks[:1]
            for r in range(0, min(grid.r_max, d // 2) + 1):
                word = InsertionWord(r=r, s=d - 2 * r)
                for blocks in _blocks_for_q(q):
                    for zetaK in zks:
                        for sz in _pair_range(grid.pair_bound):
                            wall = wall_with_variant(zeta2, q, zeta2, zetaK)
                            for sa in _pair_range(grid.pair_bound):
                                for za in _pair_range(grid.pair_bound):
                                    pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=za,
                                                  sigmaZeta=sz, sigmaAlpha=sa, sigmaK=1,
                                                  K2=-4, Kalpha=2, alpha2=-1)
                                    model = model_for(q, pr, blocks=blocks)
                                    vol = volume(model)
                                    closed = delta_l0(wall, pr, r, vol)
                                    orac = delta_oracle_l0(model, wall, word)
                                    points += 1
                                    if closed.value != orac.value:
                                        return CheckResult(
                                            name, False, points,
                                            f"q={q} d={d} r={r} blocks={blocks} zetaK={zetaK} "
                                            f"(za,sa,sz)=({za},{sa},{sz}): closed={closed.value} oracle={orac.value}")
    # a non-trivial w-variant slice
    for q in (0, 1, 2):
        for d in (3, 5):
            zeta2 = -(d + 3 * (1 - q))
            if zeta2 >= 0:
                continue
            for variant in W_VARIANTS[1:]:
                zetaK = valid_zeta_k(q, zeta2, 0)[0]
                wall = wall_with_variant(zeta2, q, zeta2, zetaK, variant)
                for za, sa, sz in itertools.product((-2, 1, 3), (-1, 2), (1, -2)):
                    pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=za, sigmaZeta=sz,
                                  sigmaAlpha=sa, sigmaK=-2, K2=0, Kalpha=1, alpha2=2)
                    model = model_for(q, pr)
                    closed = delta_l0(wall, pr, 0, volume(model))
                    orac = delta_oracle_l0(model, wall, InsertionWord(s=d))
                    points += 1
                    if closed.value != orac.value:
                        return CheckResult(name, False, points,
                                           f"w-variant {variant}, q={q}, d={d}: "
                                           f"closed={closed.value} oracle={orac.value}")
    return CheckResult(name, True, points)


def _l1_configs(grid):
    out = []
    for q in range(min(grid.q_max, 2) + 1):
        for zeta2 in (-4, -8):
            d = -(zeta2 - 4) - 3 * (1 - q)
            if d <= grid.d_max:
                out.append((q, zeta2, d))
    return out


def check_oracle_l1(grid=Grid(), extra_q2=True) -> CheckResult:
    """delta_oracle_l1 == delta_l1 on the l=1 verification grid."""
    name = "oracle-l1"
    points = 0
    for q, zeta2, d in _l1_configs(grid):
        p1 = zeta2 - 4
        zks = valid_zeta_k(q, zeta2, 1)[:2]
        blocks_list = _blocks_for_q(q)[:2 if q == 1 else 1]
        sa_sz = [(0, 0)] if q == 0 else [(-2, 1), (1, -1), (2, 2), (0, 1)]
        for r in (0, 1):
            if 2 * r > d or r > grid.r_max:
                continue
            for zetaK in zks:
                wall = wall_with_variant(p1, q, zeta2, zetaK)
                for blocks in blocks_list:
                    for sa, sz in sa_sz:
                        for k2 in (-4, 0, 8):
                            for a2 in (-2, 0, 1):
                                for za in _pair_range(grid.pair_bound):
                                    pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=za,
                                                  sigmaZeta=sz, sigmaAlpha=sa, sigmaK=2,
                                                  K2=k2, Kalpha=-1, alpha2=a2)
                                    model = model_for(q, pr, blocks=blocks)
                                    closed = delta_l1(wall, pr, r, volume(model))
                                    orac = delta_oracle_l1(model, wall, r)
                                    points += 1
                                    if closed.value != orac.value:
                                        return CheckResult(
                                            name, False, points,
                                            f"q={q} d={d} r={r} zetaK={zetaK} blocks={blocks} "
                                            f"(za,sa,sz,K2,a2)=({za},{sa},{sz},{k2},{a2}): "
                                            f"closed={closed.value} oracle={orac.value}")
    if extra_q2 and grid.q_max >= 2:
        # beyond the stated d-bound: one q=2 slice (d = 11)
        q, zeta2 = 2, -4
        p1, d = zeta2 - 4, 11
        zetaK = valid_zeta_k(q, zeta2, 1)[0]
        wall = wall_with_variant(p1, q, zeta2, zetaK)
        for r in (0, 1):
            for za, sa, sz in itertools.product((-1, 2), (1, -2), (1, 2)):
                pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=za, sigmaZeta=sz,
                              sigmaAlpha=sa, sigmaK=1, K2=8, Kalpha=3, alpha2=-1)
                model = model_for(q, pr, blocks=(1, 2))
                closed = delta_l1(wall, pr, r, volume(model))
                orac = delta_oracle_l1(model, wall, r)
                points += 1
                if closed.value != orac.value:
                    return CheckResult(name, False, points,
                                       f"q=2 d=11 r={r} (za,sa,sz)=({za},{sa},{sz}): "
                                       f"closed={closed.value} oracle={orac.value}")
    # w-variants at l=1
    q, zeta2 = 1, -4
    p1, d = zeta2 - 4, -(zeta2 - 4) - 3 * (1 - q)
    zetaK = valid_zeta_k(q, zeta2, 1)[0]
    for variant in W_VARIANTS[1:]:
        wall = wall_with_variant(p1, q, zeta2, zetaK, variant)
        for za in (-2, 3):
            pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=za, sigmaZeta=1,
                          sigmaAlpha=-1, sigmaK=0, K2=8, Kalpha=0, alpha2=1)
            model = model_for(q, pr)
            closed = delta_l1(wall, pr, 1, volume(model))
            orac = delta_oracle_l1(model, wall, 1)
            points += 1
            if closed.value != orac.value:
                return CheckResult(name, False, points,
                                   f"w-variant {variant} at l=1: closed={closed.value} oracle={orac.value}")
    return CheckResult(name, True, points)


# ---------------------------------------------------------------------------
# criterion 3: odd-insertion agreement

def _words_with_odd(q, r_max=1, s_max=3, odd_max=4):
    indices = range(2 * q)
    gam_lists = [c for k in range(odd_max + 1)
                 for c in itertools.combinations(indices, k)]
    for r in range(r_max + 1):
        for s in range(s_max + 1):
            for gammas in gam_lists:
                for threes in gam_lists:
                    if len(gammas) + len(threes) <= odd_max:
                        yield InsertionWord(r=r, s=s, gammas=gammas, threes=threes)


def check_odd_words(grid=Grid()) -> CheckResult:
    """delta_l0_odd == ring oracle for all words of total odd count <= 4."""
    name = "odd-words"
    points = 0
    for q in (1, 2):
        if q > grid.q_max:
            continue
        pair_sets = [
            dict(zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1, sigmaK=0, K2=0, Kalpha=0, alpha2=-1),
            dict(zetaAlpha=-3, sigmaZeta=-2, sigmaAlpha=3, sigmaK=1, K2=8, Kalpha=2, alpha2=2),
        ]
        blocks_list = _blocks_for_q(q)
        for word in _words_with_odd(q):
            if word.odd_count() % 2:
                # both sides return 0 for odd parity; check on a fixed wall
                zeta2 = -4 if q == 1 else -1
                zetaK = valid_zeta_k(q, zeta2, 0)[0]
                wall = wall_with_variant(zeta2, q, zeta2, zetaK)
                pr = Pairings(zeta2=zeta2, zetaK=zetaK, **pair_sets[0])
                model = model_for(q, pr, blocks=blocks_list[0])
                if delta_l0_odd(wall, model, word).value or delta_oracle_l0(model, wall, word).value:
                    return CheckResult(name, False, points, f"odd-parity word {word.describe()} nonzero")
                points += 1
                continue
            d = word.degree() // 2
            zeta2 = -(d + 3 * (1 - q))
            if zeta2 >= 0:
                continue
            zks = valid_zeta_k(q, zeta2, 0)[:2]
            for zetaK in zks:
                wall = wall_with_variant(zeta2, q, zeta2, zetaK)
                for base in pair_sets:
                    for blocks in blocks_list:
                        pr = Pairings(zeta2=zeta2, zetaK=zetaK, **base)
                        model = model_for(q, pr, blocks=blocks)
                        closed = delta_l0_odd(wall, model, word)
                        orac = delta_oracle_l0(model, wall, word)
                        points += 1
                        if closed.value != orac.value:
                            return CheckResult(
                                name, False, points,
                                f"q={q} word={word.describe()} blocks={blocks} zetaK={zetaK} "
                                f"pairs={base}: closed={closed.value} oracle={orac.value}")
    return CheckResult(name, True, points)


# ---------------------------------------------------------------------------
# criterion 4: Segre machinery

def _segre_models():
    base = dict(zeta2=-4, zetaK=2, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1,
                sigmaK=2, K2=8, Kalpha=-1, alpha2=-1)
    yield model_for(0, Pairings(**base))
    yield model_for(1, Pairings(**dict(base, sigmaZeta=-1)), blocks=(2,))
    yield model_for(2, Pairings(**dict(base, zetaK=0, K2=-4)), blocks=(1, 2))


def check_segre(grid=Grid(), n_max=6, samples=4, seed=20240517) -> CheckResult:
    """Determinant Segre classes vs series inversion, the closed stratum sums,
    and the determinant recursion identities."""
    name = "segre-machinery"
    rng = random.Random(seed)
    points = 0
    for model in _segre_models():
        top = model.q + 2
        for _ in range(samples):
            a = tuple(random_even_element(model, 2 * i, rng) for i in range(1, top + 1))
            data = ChernData(model, rng.randint(1, 5), a)
            cs = [chern_from_ch(data, i) for i in range(n_max + 1)]
            total = total_chern(data)
            inv = inverse_unit_series(total)
            for n in range(n_max + 1):
                sn = segre_from_ch(data, n)
                if n and 2 * n <= 2 * model.q + 4 and sn != inv.component(2 * n):
                    return CheckResult(name, False, points,
                                       f"segre {n} != series inversion (q={model.q})")
                conv = model.zero()
                for i in range(n + 1):
                    conv = conv + cs[i] * segre_from_ch(data, n - i)
                if n and not conv.is_zero():
                    return CheckResult(name, False, points,
                                       f"sum c_i s_(n-i) != 0 at n={n} (q={model.q})")
                points += 1
        # stratum sums against the closed forms, on a matching l=1 wall
        zeta2 = int(model.pair("zeta", "zeta"))
        zetaK = int(model.pair("zeta", "K"))
        try:
            wall = wall_with_variant(zeta2 - 4, model.q, zeta2, zetaK)
        except InvalidWallError:
            continue
        datas = []
        for k in (0, 1):
            ch_p, ch_m = ch_extension_bundles(model, wall, 1, k)
            datas.append(ch_direct_sum(ch_p, ch_dual(ch_m)))
        ks = model.even("K")
        four_ez = -2 * model.pair(SIGMA, "zeta") * 4 * model.omega_class()
        for n in range(n_max + 1):
            det_sum = segre_from_ch(datas[0], n) + segre_from_ch(datas[1], n)
            closed = segre_sum_closed(model, n)
            if det_sum != closed:
                return CheckResult(name, False, points,
                                   f"segre_sum_closed({n}) != determinant sum (q={model.q})")
            lhs = det_sum * math.factorial(n)
            rhs = 2 * segre_det_closed(model, n)
            if n >= 2:
                rhs = rhs + 2 * comb0(n, 2) * (ks * ks) * four_ez ** (n - 2)
            if lhs != rhs:
                return CheckResult(name, False, points,
                                   f"n! s_n identity fails at n={n} (q={model.q})")
            if segre_det_closed(model, n) != segre_det_recursive(model, n):
                return CheckResult(name, False, points,
                                   f"stratum determinant recursion != closed at n={n}")
            if segre_det_closed(model, n) != segre_det_determinant(model, n):
                return CheckResult(name, False, points,
                                   f"stratum determinant != literal determinant at n={n}")
            points += 1
    return CheckResult(name, True, points)


# ---------------------------------------------------------------------------
# criterion 6: leading-term congruence

def check_leading(grid=Grid()) -> CheckResult:
    """delta minus delta_leading is divisible by a^(d-2r-2l-q+2), by interpolation."""
    name = "leading-congruence"
    points = 0
    cases = []
    for q in (0, 1, 2):
        for l in (0, 1):
            for r in (0, 1):
                for extra in (0, 1, 2):
                    d0 = 2 * r + 2 * l + q + extra
                    zeta2 = -(d0 + 3 * (1 - q)) + 4 * l
                    if zeta2 >= 0 or d0 > grid.d_max + 2:
                        continue
                    cases.append((q, l, r, d0, zeta2))
    for q, l, r, d, zeta2 in cases:
        p1 = zeta2 - 4 * l
        try:
            zetaK = valid_zeta_k(q, zeta2, l)[0]
        except IndexError:
            continue
        wall = wall_with_variant(p1, q, zeta2, zetaK)
        base = dict(zeta2=zeta2, zetaK=zetaK, sigmaZeta=2, sigmaAlpha=1,
                    sigmaK=0, K2=8, Kalpha=0, alpha2=-2)
        s = d - 2 * r
        xs = [Fraction(k) for k in range(1, s + 3)]
        ys = []
        modulus = None
        for a_val in xs:
            pr = Pairings(zetaAlpha=2 * a_val, **base)
            exact = delta_l0(wall, pr, r) if l == 0 else delta_l1(wall, pr, r)
            lead = delta_leading(wall, pr, r)
            modulus = lead.modulus_exponent
            ys.append(exact.value - lead.value)
        coeffs = poly_coeffs(xs, ys)
        for i in range(min(modulus, len(coeffs))):
            if coeffs[i]:
                return CheckResult(name, False, points,
                                   f"q={q} l={l} r={r} d={d}: coefficient of a^{i} = {coeffs[i]} "
                                   f"(should vanish below a^{modulus})")
        points += 1
        if d - 2 * r - 2 * l - q > 0:
            pr0 = Pairings(zetaAlpha=0, **base)
            if delta_leading(wall, pr0, r).value != 0:
                return CheckResult(name, False, points, "leading value at a=0 not zero")
            points += 1
    return CheckResult(name, True, points)


# ---------------------------------------------------------------------------
# criterion 7: hidden-data independence (testable fragment of the conjecture)

def _k_flipped(pairings: Pairings) -> Pairings:
    return replace(pairings, zetaK=-pairings.zetaK, sigmaK=-pairings.sigmaK,
                   Kalpha=-pairings.Kalpha)


def check_hidden_data(grid=Grid()) -> CheckResult:
    """Oracle values do not move under a_ij changes at fixed vol, changes of
    Sigma.K / K.alpha, or K -> -K in the ring data (wall data held fixed)."""
    name = "hidden-data"
    points = 0
    pf6_matrix = ((0, 1, 1, 0), (-1, 0, 0, -5), (-1, 0, 0, 1), (0, 5, -1, 0))
    a_variants = [dict(blocks=(2, 3)), dict(blocks=(6, 1)), dict(blocks=(1, 6)),
                  dict(matrix=pf6_matrix)]

    def _hidden_variants():
        return [dict(sigmaK=0, Kalpha=0), dict(sigmaK=3, Kalpha=-2), dict(sigmaK=-1, Kalpha=5)]

    # (i) a_ij at fixed vol, on q=2 walls (l = 0 and l = 1)
    for d, r in ((6, 1), (4, 0)):
        q = 2
        zeta2 = -(d + 3 * (1 - q))
        if zeta2 >= 0:
            continue
        zetaK = valid_zeta_k(q, zeta2, 0)[0]
        wall = wall_with_variant(zeta2, q, zeta2, zetaK)
        word = InsertionWord(r=r, s=d - 2 * r)
        pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=3, sigmaZeta=1,
                      sigmaAlpha=-2, sigmaK=1, K2=8, Kalpha=2, alpha2=-1)
        vals = []
        for var in a_variants:
            model = model_for(q, pr, **var)
            if volume(model) != 6:
                return CheckResult(name, False, points, f"variant {var} has vol != 6")
            vals.append(delta_oracle_l0(model, wall, word).value)
        points += 1
        if len(set(vals)) != 1:
            return CheckResult(name, False, points,
                               f"a_ij dependence at fixed vol (l=0, d={d}): {vals}")
    q, zeta2 = 2, -4
    wall = wall_with_variant(zeta2 - 4, q, zeta2, valid_zeta_k(q, zeta2, 1)[0])
    pr = Pairings(zeta2=zeta2, zetaK=wall.zetaK, zetaAlpha=2, sigmaZeta=1,
                  sigmaAlpha=1, sigmaK=1, K2=8, Kalpha=2, alpha2=-1)
    vals = [delta_oracle_l1(model_for(q, pr, **var), wall, 1).value for var in a_variants]
    points += 1
    if len(set(vals)) != 1:
        return CheckResult(name, False, points, f"a_ij dependence at fixed vol (l=1): {vals}")

    # (ii) Sigma.K and K.alpha changes; (iii) K -> -K with wall data fixed
    for q in (0, 1, 2):
        for l in (0, 1):
            d = 5 + 3 * q + 4 * l
            zeta2 = -(d + 3 * (1 - q)) + 4 * l
            if zeta2 >= 0:
                continue
            p1 = zeta2 - 4 * l
            try:
                zetaK = valid_zeta_k(q, zeta2, l)[0]
            except IndexError:
                continue
            wall = wall_with_variant(p1, q, zeta2, zetaK)
            r = 1
            word = InsertionWord(r=r, s=d - 2 * r)
            vals = []
            for hv in _hidden_variants():
                pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=3, sigmaZeta=2,
                              sigmaAlpha=1, K2=8, alpha2=-1, **hv)
                model = model_for(q, pr, blocks=_blocks_for_q(q)[0])
                if l == 0:
                    vals.append(delta_oracle_l0(model, wall, word).value)
                else:
                    vals.append(delta_oracle_l1(model, wall, r).value)
                flipped = model_for(q, _k_flipped(pr), blocks=_blocks_for_q(q)[0])
                if l == 0:
                    vals.append(delta_oracle_l0(flipped, wall, word).value)
                else:
                    vals.append(delta_oracle_l1(flipped, wall, r).value)
            points += 1
            if len(set(vals)) != 1:
                return CheckResult(name, False, points,
                                   f"hidden-data dependence at q={q}, l={l}: {vals}")
    return CheckResult(name, True, points)


# ---------------------------------------------------------------------------
# criterion 8: Sigma rescaling invariance

def check_scale_invariance(grid=Grid()) -> CheckResult:
    """Sigma -> r Sigma (a_ij / r, Sigma-pairings * r) leaves every delta fixed."""
    name = "scale-invariance"
    points = 0
    for q, blocks, l in ((1, (2,), 0), (2, (2, 3), 0), (1, (1,), 1), (2, (1, 2), 1)):
        d = 4 + 2 * q + 4 * l
        zeta2 = -(d + 3 * (1 - q)) + 4 * l
        if zeta2 >= 0:
            continue
        p1 = zeta2 - 4 * l
        zetaK = valid_zeta_k(q, zeta2, l)[0]
        wall = wall_with_variant(p1, q, zeta2, zetaK)
        base = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=3, sigmaZeta=1,
                        sigmaAlpha=2, sigmaK=1, K2=8, Kalpha=-1, alpha2=-2)
        results = []
        for scale in (1, 2, 3):
            pr = replace(base,
                         sigmaZeta=base.sigmaZeta * scale,
                         sigmaAlpha=base.sigmaAlpha * scale,
                         sigmaK=base.sigmaK * scale)
            scaled_blocks = tuple(Fraction(b, scale) for b in blocks)
            model = model_for(q, pr, blocks=scaled_blocks)
            vol = volume(model)
            row = []
            if l == 0:
                row.append(delta_l0(wall, pr, 1, vol).value)
                row.append(delta_oracle_l0(model, wall, InsertionWord(r=1, s=d - 2)).value)
                odd = InsertionWord(r=0, s=d - 2, gammas=(0,), threes=(1,))
                row.append(delta_l0_odd(wall, model, odd).value)
                row.append(delta_oracle_l0(model, wall, odd).value)
            else:
                row.append(delta_l1(wall, pr, 0, vol).value)
                row.append(delta_oracle_l1(model, wall, 0).value)
            results.append(tuple(row))
            points += 1
        if len(set(results)) != 1:
            return CheckResult(name, False, points,
                               f"scale dependence at q={q}, l={l}: {results}")
    return CheckResult(name, True, points)


# ---------------------------------------------------------------------------
# criterion 10: failure of the simple-type relation at l = 1

def check_simple_type(grid=Grid()) -> CheckResult:
    """One concrete l=1 wall with delta(x alpha^(d-2)) != 4 delta(alpha^d)."""
    name = "simple-type-failure"
    wall = wall_with_variant(-8, 0, -4, 0)
    pr = Pairings(zeta2=-4, zetaK=0, zetaAlpha=2, K2=8, alpha2=-1)
    model = model_for(0, pr)
    d0 = delta_l1(wall, pr, 0).value
    d1 = delta_l1(wall, pr, 1).value
    o0 = delta_oracle_l1(model, wall, 0).value
    o1 = delta_oracle_l1(model, wall, 1).value
    if (d0, d1) != (o0, o1):
        return CheckResult(name, False, 1, f"closed/oracle mismatch: {(d0, d1)} vs {(o0, o1)}")
    if d1 == 4 * d0:
        return CheckResult(name, False, 1, "simple-type relation unexpectedly holds")
    return CheckResult(name, True, 1,
                       f"delta(x a^3) = {d1}, 4 delta(a^5) = {4 * d0}")


# ---------------------------------------------------------------------------
# cross-branch comparison for the extra-component regime (part of criterion 1)

def check_component_branch(grid=Grid()) -> CheckResult:
    """On h(zeta)+q = 0 walls with rank-consistent data (Sigma.K = 2 Sigma.zeta),
    the extra-component substitution agrees with the unified one."""
    name = "component-branch"
    points = 0
    for q in (0, 1, 2):
        for d in range(1, grid.d_max + 1):
            zeta2 = -(d + 3 * (1 - q))
            if zeta2 >= 0:
                continue
            # h(zeta) + q = 0 pins zeta.K
            zetaK = zeta2 + 2 - 2 * q
            try:
                wall = wall_with_variant(zeta2, q, zeta2, zetaK)
            except InvalidWallError:
                continue
            if not wall.empty_side:
                continue
            for za, sa, sz in itertools.product((-2, 1, 3), (-1, 2), (1, -2)):
                pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=za, sigmaZeta=sz,
                              sigmaAlpha=sa, sigmaK=2 * sz, K2=0, Kalpha=0, alpha2=1)
                model = model_for(q, pr)
                word = InsertionWord(s=d)
                uni = delta_oracle_l0(model, wall, word, branch="unified")
                comp = delta_oracle_l0(model, wall, word, branch="component")
                closed = delta_l0(wall, pr, 0, volume(model))
                points += 1
                if not uni.value == comp.value == closed.value:
                    return CheckResult(name, False, points,
                                       f"branch mismatch at q={q}, d={d}, (za,sa,sz)=({za},{sa},{sz}): "
                                       f"unified={uni.value} component={comp.value} closed={closed.value}")
    return CheckResult(name, True, points)


# ---------------------------------------------------------------------------

ALL_CHECKS = {
    "identities": check_structural_identities,
    "axioms": check_model_axioms,
    "oracle-l0": check_oracle_l0,
    "oracle-l1": check_oracle_l1,
    "odd-words": check_odd_words,
    "segre": check_segre,
    "leading": check_leading,
    "hidden-data": check_hidden_data,
    "scale": check_scale_invariance,
    "simple-type": check_simple_type,
    "component-branch": check_component_branch,
}

ALIASES = {"e_S": "axioms", "e_alpha": "axioms", "rem-ko": "identities"}


def run_checks(grid=Grid(), properties=None, inject_sign_error=False):
    """Run the selected checks (all by default); returns a list of CheckResult."""
    names = list(ALL_CHECKS) if not properties else [ALIASES.get(p, p) for p in properties]
    results = []
    for nm in names:
        if nm not in ALL_CHECKS:
            from .errors import SchemaError
            raise SchemaError(f"unknown property {nm!r}; known: {sorted(ALL_CHECKS)}")
        fn = ALL_CHECKS[nm]
        if nm == "identities":
            results.append(fn(grid, inject_sign_error=inject_sign_error))
        else:
            results.append(fn(grid))
    return results
