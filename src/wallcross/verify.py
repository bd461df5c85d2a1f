"""Verification grids: every documented identity, oracle agreement and
invariance property, runnable from the CLI and reused by the test suite.

Each check is a generator of cases ``(lhs, rhs, where)``, one per point it
counts; a point that covers several comparisons compares tuples.  The
``_check`` driver counts the cases, compares each with ``==`` and stops at
the first mismatch.  ``where`` is a callable that describes the point, and
the driver calls it only on that mismatch, so a passing sweep formats no
text.  A long sweep hands one ``where`` to all its points: it reads the loop
variables where the sweep stopped, as ``_agree`` does for the sweeps of the
closed form against the ring oracle.  All comparisons are exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .chern import (ChernData, ch_direct_sum, ch_dual, chern_from_ch,
                    segre_from_ch, total_chern)
from .closed import (StratumClasses, delta_l0_odd, segre_det_closed, segre_det_determinant,
                     segre_det_recursive, segre_sum_closed)
from .delta import evaluate
from .errors import InvalidWallError, SchemaError, WallCrossError
from .graded import SIGMA, ModelSpec, inverse_unit_series
from .jacobian import (InsertionWord, PairingInput, Pairings, build_model,
                       e_alpha, volume)
from .oracle import ch_extension_bundles, delta_oracle_l0
from .walls import WallGeometry, complex_orientation_sign, wall_params, wall_sign


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    points: int
    detail: str = ""
    seconds: float = 0.0

    def line(self, meta=False) -> str:
        """The check's report line; ``meta`` adds its time and points per second."""
        status = "PASS" if self.passed else "FAIL"
        rate = ""
        if meta:
            per_s = f"{self.points / self.seconds:,.0f}" if self.seconds > 0 else "-"
            rate = f" in {self.seconds:.2f} s, {per_s} points/s"
        tail = f" -- {self.detail}" if self.detail and not self.passed else ""
        return f"{status} {self.name} ({self.points} points){rate}{tail}"


@dataclass(frozen=True)
class Grid:
    """The verification grids' bounds, by default the CLI's: "q<=2,d<=6,r<=1,pair<=2,sweep<=12"."""

    q_max: int = 2
    d_max: int = 6
    r_max: int = 1
    pair_bound: int = 2
    sweep_bound: int = 12


def parse_grid(text) -> Grid:
    grid = Grid()
    if not text:
        return grid
    keymap = {"q": "q_max", "d": "d_max", "r": "r_max", "pair": "pair_bound",
              "sweep": "sweep_bound"}
    starts = {"q": 0, "d": 1, "r": 0}  # where each grid begins; pair and sweep run from -bound
    least = dict(starts, pair=0, sweep=1)  # the smallest bound whose grid holds a point
    # the sweeps know the a_ij blocks of q <= 3 only; all keys at their caps take ~30 s
    most = {"q": 3, "d": 16, "pair": 5, "sweep": 40}
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
        if num < least[key]:
            raise SchemaError(
                f"grid clause {clause!r}: the {key} bound must be at least {least[key]}")
        if num > most.get(key, num):
            raise SchemaError(f"grid clause {clause!r}: the {key} bound must be at most {most[key]}")
        start = starts.get(key, -num)
        if low is not None and low > start:
            raise SchemaError(f"grid clause {clause!r}: the {key} grid starts at {start}")
        grid = replace(grid, **{keymap[key]: num})
    return grid


# ---------------------------------------------------------------------------
# shared helpers

def _j_side(q, blocks=None, matrix=None) -> ModelSpec:
    """The model of q and the a_ij (``blocks`` or ``matrix``) with every pairing
    zero, for a sweep to share: each point takes ``with_pairings`` of it, so the
    a_ij are validated and the omega powers built once per J-side, not once per point."""
    return build_model(PairingInput(q=q, pairings=Pairings(), a_blocks=blocks, a_matrix=matrix))


def valid_zeta_k(q, zeta2, l_zeta):
    """zeta.K values of the right parity keeping both extension ranks >= 0."""
    out = []
    for zk in range(0, -zeta2 + 2 * (l_zeta + q) + 1):
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


def wall_with_variant(q, zeta2, l=0, zetaK=None, variant=(0, 0, 0)) -> WallGeometry:
    """The wall p1 = zeta^2 - 4l, its zeta.K by default the first of ``valid_zeta_k``,
    with w = zeta - 2u for the ``variant`` (zeta.u, u^2, u.K)."""
    if zetaK is None:
        zetaK = valid_zeta_k(q, zeta2, l)[0]
    zu, u2, uk = variant
    return WallGeometry.build(
        p1=zeta2 - 4 * l, q=q, zeta2=zeta2, zetaK=zetaK,
        zetaW=zeta2 - 2 * zu, w2=zeta2 - 4 * zu + 4 * u2, wK=zetaK - 2 * uk)


def monomial_basis(model, degree):
    """All canonical monomials of one total degree, as elements."""
    return [m for jsize in range(min(degree, 2 * model.q) + 1)
            for m in model.monomials(jsize, degree - jsize)]


def random_even_element(model, degree, rng):
    """A sum of up to three random monomials of one degree, small rational coefficients."""
    basis = monomial_basis(model, degree)
    if not basis:
        return model.zero()
    out = model.zero()
    for elem in rng.sample(basis, min(3, len(basis))):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            out = out + elem * c
    return out


def poly_coeffs(xs, ys):
    """Exact coefficients, lowest first, of the polynomial through (xs, ys):
    Newton's divided differences, then the Newton form expanded, O(n^2)."""
    diffs = [Fraction(y) for y in ys]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - j])
    # c_k + (x - x_k) p(x), from the innermost k = n - 1 outwards
    poly = []
    for c, x in zip(reversed(diffs), reversed(xs)):
        poly = [a - x * b for a, b in zip([c, *poly], [*poly, 0])]
    return poly


def _blocks_for_q(q):
    return {0: [None], 1: [(1,), (3,)], 2: [(1, 1), (2, 3)], 3: [(1, 1, 1), (2, 3, 1)]}[q]


def _box(**axes):
    """Every combination of the values of each pairing in ``axes``, the first
    outermost, as dicts of Fractions built once for a sweep: Pairings keeps a
    Fraction as it is and would build one from each int at every point."""
    values = [[Fraction(v) for v in vals] for vals in axes.values()]
    return [dict(zip(axes, point)) for point in itertools.product(*values)]


# the (zeta.alpha, Sigma.alpha, Sigma.zeta) box of the l = 0 w-variants and branches
_W_BOX = _box(zetaAlpha=(-2, 1, 3), sigmaAlpha=(-1, 2), sigmaZeta=(1, -2))


def _fixed(wall, **pairings):
    """The pairings a sweep holds fixed with the wall's zeta^2 and zeta.K, as
    Fractions for the same reason."""
    pairings.update(zeta2=wall.zeta2, zetaK=wall.zetaK)
    return {key: Fraction(v) for key, v in pairings.items()}


def _on(j_side, wall, **free):
    """The model over ``j_side`` with the pairings ``free`` and the wall's zeta^2
    and zeta.K, the one fact that a wall and its model share."""
    return j_side.with_pairings(Pairings(**free, **_fixed(wall)))


def _closed_and_oracle(model, wall, word):
    """The closed form's and the ring oracle's value of ``word``, in that order."""
    closed, oracle = evaluate(model, wall, word)
    return closed.value, oracle.value


def _agree(j_side, wall, words, points, label, **fixed):
    """The cases (closed, oracle) of every word at each pairing point, a dict,
    on the model over ``j_side`` with the point, the ``fixed`` pairings and the
    wall's zeta^2 and zeta.K; the words of a point share its model and X-table."""
    fixed = _fixed(wall, **fixed)

    def where():
        return (f"q={wall.q} d={wall.d} {label} zetaK={wall.zetaK} word={word.describe()} "
                f"{_show(point)}: closed vs oracle")
    for point in points:
        model = j_side.with_pairings(Pairings(**point, **fixed))
        for word in words:
            closed, oracle = _closed_and_oracle(model, wall, word)
            yield closed, oracle, where


def _show(value) -> str:
    """One side of a case, or a point's pairings, as text, rationals as num/den."""
    if isinstance(value, dict):
        return " ".join(f"{key}={_show(v)}" for key, v in value.items())
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(map(_show, value)) + ")"
    return str(value)


def _check(name):
    """Make a generator of ``(lhs, rhs, where)`` cases into the check ``name``
    on a Grid: it counts the cases, stops at the first with lhs != rhs and
    times the whole sweep."""
    def decorate(cases):
        @functools.wraps(cases)
        def check(grid=Grid()) -> CheckResult:
            points, detail, start = 0, "", time.perf_counter()
            for points, (lhs, rhs, where) in enumerate(cases(grid), 1):
                if lhs != rhs:
                    detail = f"{where()}: {_show(lhs)} != {_show(rhs)}"
                    break
            return CheckResult(name, not detail, points, detail, time.perf_counter() - start)
        return check
    return decorate


# ---------------------------------------------------------------------------
# criterion 5: structural identities

def _same_parity_pairs(values):
    return [(a, b) for a in values for b in values if (b - a) % 2 == 0]


@_check("structural-identities")
def check_structural_identities(grid):
    """Dimension identity and the two-sign identity over an exhaustive sweep."""
    bound = grid.sweep_bound
    qs = range(min(4, grid.q_max + 1) + 1)

    def where_dimension():
        return (f"dimension identity or zeta -> -zeta exchange at "
                f"q={q}, zeta2={zeta2}, zetaK={zetaK}, l={l}")

    def where_sign():
        return f"sign identity fails at w2={w2}, wK={wK}, u2={u2}, uK={uK}, wu={wu}, q={q}, l={l}"
    # dimension identity N+ + N- + q + 2l = d - 1, and zeta -> -zeta exchanges the sides
    for q in qs:
        for zeta2 in range(-bound, 0):
            for zetaK in range(-bound, bound + 1):
                if (zetaK - zeta2) % 2:
                    continue
                for l in range(0, 4):
                    try:
                        p = wall_params(zeta2 - 4 * l, q, zeta2, zetaK)
                    except InvalidWallError:
                        continue
                    rev = wall_params(zeta2 - 4 * l, q, zeta2, -zetaK)
                    yield ((p.n_plus + p.n_minus + q + 2 * p.l_zeta, rev.h_plus, rev.n_plus, rev.d),
                           (p.d - 1, p.h_minus, p.n_minus, p.d), where_dimension)
    # sign identity eps_S(w) (-1)^h = (-1)^(d+q) eps(zeta, w), Wu-consistent sweep
    half = max(4, bound // 4)
    l_q = list(itertools.product((0, 1), qs))
    for w2, wK in _same_parity_pairs(range(-bound // 2, bound // 2 + 1)):
        for u2, uK in _same_parity_pairs(range(-half, half + 1)):
            # zeta^2 = w^2 + 4 u.w + 4 u^2 runs over [-bound, 0) exactly on this window of u.w
            for wu in range(max(-half, -((bound + w2 + 4 * u2) // 4)),
                            min(half, (-1 - w2 - 4 * u2) // 4) + 1):
                zeta2 = w2 + 4 * wu + 4 * u2
                zetaW = w2 + 2 * wu
                zetaK = wK + 2 * uK
                h = (zetaK - zeta2) // 2 - 1
                eps = wall_sign(zeta2, zetaW, w2)
                lhs = complex_orientation_sign(wK, w2) * (-1) ** (h % 2)
                for l, q in l_q:
                    d = -(zeta2 - 4 * l) - 3 * (1 - q)
                    yield lhs, -eps if (d + q) % 2 else eps, where_sign


# ---------------------------------------------------------------------------
# criterion 9: model axioms

_PF6_MATRIX = ((0, 1, 1, 0), (-1, 0, 0, -5), (-1, 0, 0, 1), (0, 5, -1, 0))  # Pfaffian 6


def _axiom_models():
    """(q, blocks, matrix, pairings) of each model the axioms are checked on."""
    base = dict(zeta2=-4, zetaK=0, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1,
                sigmaK=2, K2=8, Kalpha=-1, alpha2=-1)
    return [
        (0, None, None, Pairings(**base)),
        (1, (1,), None, Pairings(**base)),
        (1, (5,), None, Pairings(**dict(base, sigmaAlpha=3))),
        (1, (), None, Pairings(**base)),          # degenerate omega
        (2, (1, 1), None, Pairings(**base)),
        (2, (2, 3), None, Pairings(**dict(base, sigmaZeta=-2))),
        (3, (1, 2, 3), None, Pairings(**base)),
        (2, None, _PF6_MATRIX, Pairings(**base)),
    ]


@_check("model-axioms")
def check_model_axioms(grid):
    """e_S = 0, E^3 = E^4 = 0, e_alpha = -2 (Sigma.alpha) omega, odd squares."""
    for q, blocks, matrix, pairings in _axiom_models():
        model = build_model(PairingInput(q=q, pairings=pairings, a_blocks=blocks,
                                         a_matrix=matrix))
        uni = model.universal_class()
        e2 = uni * uni
        omega = model.omega_class()
        sigma = model.even(SIGMA)
        zero = model.zero()
        odd = []  # odd squares, and be_i * Sigma, all vanish
        for i in range(2 * q):
            odd += [model.beta(i) * model.beta(i), model.theta(i) * model.theta(i),
                    model.beta(i) * sigma]
        # e_alpha is also the slant of E^2 against alpha: E^2 = -2 Sigma omega
        yield ((e2 * uni, e2 * e2, e_alpha(model), e2, *odd),
               (zero, zero, omega * (-2 * pairings.sigmaAlpha), omega * sigma * (-2),
                *[zero] * len(odd)),
               lambda: f"E^3, E^4, e_alpha, E^2 and odd squares at q={q}, blocks={blocks}")


# ---------------------------------------------------------------------------
# criteria 1 and 2: oracle equivalence grids

@_check("oracle-l0")
def check_oracle_l0(grid):
    """delta_oracle_l0 == delta_l0_odd on the full l=0 verification grid."""
    pairs = range(-grid.pair_bound, grid.pair_bound + 1)
    box = _box(sigmaZeta=pairs, sigmaAlpha=pairs, zetaAlpha=pairs)
    for q in range(grid.q_max + 1):
        j_sides = {blocks: _j_side(q, blocks) for blocks in _blocks_for_q(q)}
        for d in range(1, grid.d_max + 1):
            zeta2 = -(d + 3 * (1 - q))
            if zeta2 >= 0:
                continue
            zks = valid_zeta_k(q, zeta2, 0)
            zks = zks[:2] if q <= 1 else zks[:1]
            words = [InsertionWord(r=r, s=d - 2 * r)
                     for r in range(0, min(grid.r_max, d // 2) + 1)]
            for (blocks, j_side), zetaK in itertools.product(j_sides.items(), zks):
                yield from _agree(j_side, wall_with_variant(q, zeta2, 0, zetaK), words, box,
                                  f"blocks={blocks}", sigmaK=1, K2=-4, Kalpha=2, alpha2=-1)
    # a non-trivial w-variant slice
    for q, d, variant in itertools.product((0, 1, 2), (3, 5), W_VARIANTS[1:]):
        zeta2 = -(d + 3 * (1 - q))
        if zeta2 >= 0:
            continue
        yield from _agree(_j_side(q), wall_with_variant(q, zeta2, variant=variant),
                          [InsertionWord(s=d)], _W_BOX, f"w-variant {variant}",
                          sigmaK=-2, K2=0, Kalpha=1, alpha2=2)


@_check("oracle-l1")
def check_oracle_l1(grid):
    """delta_oracle_l1 == delta_l1 on the l=1 verification grid."""
    box = _box(K2=(-4, 0, 8), alpha2=(-2, 0, 1),
               zetaAlpha=range(-grid.pair_bound, grid.pair_bound + 1))
    for q, zeta2 in itertools.product(range(min(grid.q_max, 2) + 1), (-4, -8)):
        d = -(zeta2 - 4) - 3 * (1 - q)
        if d > grid.d_max:
            continue
        j_sides = {blocks: _j_side(q, blocks) for blocks in _blocks_for_q(q)[:2 if q == 1 else 1]}
        sa_sz = [(0, 0)] if q == 0 else [(-2, 1), (1, -1), (2, 2), (0, 1)]
        points = [{"sigmaAlpha": Fraction(sa), "sigmaZeta": Fraction(sz), **point}
                  for sa, sz in sa_sz for point in box]
        words = [InsertionWord(r=r, s=d - 2 * r)
                 for r in (0, 1) if 2 * r <= d and r <= grid.r_max]
        for zetaK in valid_zeta_k(q, zeta2, 1)[:2]:
            wall = wall_with_variant(q, zeta2, 1, zetaK)
            for blocks, j_side in j_sides.items():
                yield from _agree(j_side, wall, words, points, f"blocks={blocks}",
                                  sigmaK=2, Kalpha=-1)
    if grid.q_max >= 2:
        # beyond the stated d-bound: one q=2 slice (d = 11)
        wall = wall_with_variant(2, -4, 1)
        yield from _agree(_j_side(2, (1, 2)), wall,
                          [InsertionWord(r=r, s=wall.d - 2 * r) for r in (0, 1)],
                          _box(zetaAlpha=(-1, 2), sigmaAlpha=(1, -2), sigmaZeta=(1, 2)),
                          "blocks=(1, 2)", sigmaK=1, K2=8, Kalpha=3, alpha2=-1)
    # w-variants at l=1
    j_side = _j_side(1)
    for variant in W_VARIANTS[1:]:
        wall = wall_with_variant(1, -4, 1, variant=variant)
        yield from _agree(j_side, wall, [InsertionWord(r=1, s=wall.d - 2)],
                          _box(zetaAlpha=(-2, 3)), f"w-variant {variant}", sigmaZeta=1,
                          sigmaAlpha=-1, sigmaK=2, K2=8, Kalpha=0, alpha2=1)


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


def _refusal(route, *args) -> str:
    """The name of the error ``route(*args)`` raises, or "priced" if it prices."""
    try:
        route(*args)
    except WallCrossError as exc:
        return type(exc).__name__
    return "priced"


@_check("odd-words")
def check_odd_words(grid):
    """delta_l0_odd == ring oracle for all words of total odd count <= 4; a word of
    odd odd-count has odd degree, so evaluate and both l = 0 routes refuse it."""
    pair_sets = [
        dict(zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1, sigmaK=0, K2=0, Kalpha=0, alpha2=-1),
        dict(zetaAlpha=-3, sigmaZeta=-2, sigmaAlpha=3, sigmaK=1, K2=8, Kalpha=2, alpha2=2),
    ]

    def where_odd():
        return f"odd-parity word {word.describe()} (evaluate, closed, oracle)"
    for q in (1, 2):
        if q > grid.q_max:
            continue
        blocks_list = _blocks_for_q(q)
        j_sides = {blocks: _j_side(q, blocks) for blocks in blocks_list}
        # no wall admits a word of odd odd-count: each is refused on one wall
        odd_wall = wall_with_variant(q, -4 if q == 1 else -1)
        odd_model = _on(j_sides[blocks_list[0]], odd_wall, **pair_sets[0])
        by_degree = {}
        for word in _words_with_odd(q):
            if word.odd_count() % 2:
                yield ((_refusal(evaluate, odd_model, odd_wall, word),
                        _refusal(delta_l0_odd, odd_wall, odd_model, word),
                        _refusal(delta_oracle_l0, odd_model, odd_wall, word)),
                       ("PreconditionError",) * 3, where_odd)
            else:
                by_degree.setdefault(word.degree() // 2, []).append(word)
        # the even words of one degree are priced on one model and wall each,
        # so they share its X-table
        for d, words in by_degree.items():
            zeta2 = -(d + 3 * (1 - q))
            if zeta2 >= 0:
                continue
            for zetaK in valid_zeta_k(q, zeta2, 0)[:2]:
                wall = wall_with_variant(q, zeta2, 0, zetaK)
                for base, blocks in itertools.product(pair_sets, blocks_list):
                    yield from _agree(j_sides[blocks], wall, words, [base], f"blocks={blocks}")


# ---------------------------------------------------------------------------
# criterion 4: Segre machinery

def _segre_models():
    base = dict(zeta2=-4, zetaK=2, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1,
                sigmaK=2, K2=8, Kalpha=-1, alpha2=-1)
    yield build_model(PairingInput(q=0, pairings=Pairings(**base)))
    yield build_model(PairingInput(q=1, pairings=Pairings(**dict(base, sigmaZeta=-1)),
                                   a_blocks=(2,)))
    yield build_model(PairingInput(q=2, pairings=Pairings(**dict(base, zetaK=0, K2=-4)),
                                   a_blocks=(1, 2)))


@_check("segre-machinery")
def check_segre(grid):
    """Determinant Segre classes vs series inversion, the closed stratum sums,
    and the determinant recursion identities."""
    n_max = 6
    rng = random.Random(20240517)
    for model in _segre_models():
        top = model.q + 2
        zero = model.zero()
        for _ in range(4):
            a = tuple(random_even_element(model, 2 * i, rng) for i in range(1, top + 1))
            data = ChernData(model, rng.randint(1, 5), a)
            inv = inverse_unit_series(total_chern(data)).components()
            for n in range(n_max + 1):
                sn = segre_from_ch(data, n)
                conv = sum((chern_from_ch(data, i) * segre_from_ch(data, n - i)
                            for i in range(n + 1)), zero)
                # s_n against series inversion, and sum c_i s_(n-i) = 0, for n >= 1
                yield ((sn, conv),
                       (inv.get(2 * n, zero) if 0 < n <= top else sn, zero if n else conv),
                       lambda: f"s_{n} and sum c_i s_(n-i) (q={model.q})")
        # stratum sums against the closed forms, on a matching l=1 wall
        wall = wall_with_variant(model.q, model.pair("zeta", "zeta"), 1, model.pair("zeta", "K"))
        datas = [ch_direct_sum(ch_p, ch_dual(ch_m))
                 for ch_p, ch_m in (ch_extension_bundles(model, wall, k) for k in (0, 1))]
        classes = StratumClasses(model)  # shared by the closed forms for every n
        four_ez = -2 * model.pair(SIGMA, "zeta") * 4 * model.omega_class()
        kk_four_ez = model.even("K") * model.even("K")  # K^2 (4 e_zeta)^(n - 2) from n = 2
        for n in range(n_max + 1):
            det_sum = segre_from_ch(datas[0], n) + segre_from_ch(datas[1], n)
            closed = segre_det_closed(classes, n)
            factorial_rhs = 2 * closed
            if n >= 2:
                factorial_rhs = factorial_rhs + 2 * math.comb(n, 2) * kk_four_ez
                kk_four_ez = kk_four_ez * four_ez
            yield ((det_sum, det_sum * math.factorial(n), segre_det_recursive(classes, n),
                    segre_det_determinant(classes, n)),
                   (segre_sum_closed(classes, n), factorial_rhs, closed, closed),
                   lambda: f"stratum sum, n! s_n identity, determinant recursion and literal "
                           f"determinant at n={n} (q={model.q})")


# ---------------------------------------------------------------------------
# criterion 6: leading-term congruence

@_check("leading-congruence")
def check_leading(grid):
    """delta minus delta_leading is divisible by a^(d-2r-2l-q+2), by interpolation."""
    j_sides = {q: _j_side(q) for q in (0, 1, 2)}  # vol = 1
    for q, l, r, extra in itertools.product((0, 1, 2), (0, 1), (0, 1), (0, 1, 2)):
        d = 2 * r + 2 * l + q + extra
        zeta2 = -(d + 3 * (1 - q)) + 4 * l
        if zeta2 >= 0 or d > grid.d_max + 2:
            continue
        wall = wall_with_variant(q, zeta2, l)
        word = InsertionWord(r=r, s=d - 2 * r)
        base = dict(sigmaZeta=2, sigmaAlpha=1, sigmaK=0, K2=8, Kalpha=0, alpha2=-2)
        xs = [Fraction(k) for k in range(1, d - 2 * r + 3)]
        ys = []
        for a_val in xs:
            model = _on(j_sides[q], wall, zetaAlpha=2 * a_val, **base)
            exact, lead = (evaluate(model, wall, word, path)[0] for path in ("closed", "leading"))
            ys.append(exact.value - lead.value)
        low = poly_coeffs(xs, ys)[:lead.modulus_exponent]
        yield (low, [0] * len(low),
               lambda: f"q={q} l={l} r={r} d={d}: the coefficients of a^0..a^"
                       f"{lead.modulus_exponent - 1} should vanish")
        if d - 2 * r - 2 * l - q > 0:
            at_zero = _on(j_sides[q], wall, zetaAlpha=0, **base)
            yield (evaluate(at_zero, wall, word, "leading")[0].value, 0,
                   lambda: f"leading value at a=0 not zero (q={q} l={l} r={r} d={d})")


# ---------------------------------------------------------------------------
# criterion 7: hidden-data independence (testable fragment of the conjecture)

@_check("hidden-data")
def check_hidden_data(grid):
    """Oracle values do not move under a_ij changes at fixed vol, changes of
    Sigma.K / K.alpha, or K -> -K in the ring data (wall data held fixed)."""
    # (i) a_ij at fixed vol = 6, on q=2 walls: (zeta2, l, r, zeta.alpha, Sigma.alpha)
    q = 2
    j_sides = [*(_j_side(q, blocks) for blocks in ((2, 3), (6, 1), (1, 6))),
               _j_side(q, matrix=_PF6_MATRIX)]
    for zeta2, l, r, za, sa in ((-3, 0, 1, 3, -2), (-1, 0, 0, 3, -2), (-4, 1, 1, 2, 1)):
        wall = wall_with_variant(q, zeta2, l)
        word = InsertionWord(r=r, s=wall.d - 2 * r)
        models = [_on(j_side, wall, zetaAlpha=za, sigmaZeta=1, sigmaAlpha=sa,
                      sigmaK=1, K2=8, Kalpha=2, alpha2=-1) for j_side in j_sides]
        vals = [(volume(model), evaluate(model, wall, word, "oracle")[0].value)
                for model in models]
        yield (vals, [(6, vals[0][1])] * len(vals),
               lambda: f"a_ij dependence at fixed vol (l={l}, d={wall.d}), (vol, delta)")

    # (ii) Sigma.K and K.alpha changes; (iii) K -> -K with wall data fixed.  Every
    # model takes the wall's zeta.K, which K -> -K leaves fixed only because it is 0
    # for every (q, l) here
    for q, l in itertools.product((0, 1, 2), (0, 1)):
        wall = wall_with_variant(q, -8, l)
        word = InsertionWord(r=1, s=wall.d - 2)
        j_side = _j_side(q, _blocks_for_q(q)[0])
        vals = []
        for sigma_k, k_alpha in ((0, 0), (3, -2), (-1, 5)):
            for flip in (1, -1):
                model = _on(j_side, wall, zetaAlpha=3, sigmaZeta=2,
                            sigmaAlpha=1, sigmaK=flip * sigma_k, K2=8, Kalpha=flip * k_alpha,
                            alpha2=-1)
                vals.append(evaluate(model, wall, word, "oracle")[0].value)
        yield vals, vals[:1] * len(vals), lambda: f"hidden-data dependence at q={q}, l={l}"


# ---------------------------------------------------------------------------
# criterion 8: Sigma rescaling invariance

@_check("scale-invariance")
def check_scale_invariance(grid):
    """Sigma -> r Sigma (a_ij / r, Sigma-pairings * r) leaves every delta fixed."""
    for q, blocks, l in ((1, (2,), 0), (2, (2, 3), 0), (1, (1,), 1), (2, (1, 2), 1)):
        d = 4 + 2 * q + 4 * l
        zeta2 = -(d + 3 * (1 - q)) + 4 * l
        wall = wall_with_variant(q, zeta2, l)
        if l == 0:
            words = (InsertionWord(r=1, s=d - 2),
                     InsertionWord(r=0, s=d - 2, gammas=(0,), threes=(1,)))
        else:
            words = (InsertionWord(r=0, s=d),)
        rows = []
        for scale in (1, 2, 3):
            model = _on(_j_side(q, tuple(Fraction(b, scale) for b in blocks)), wall,
                        zetaAlpha=3, sigmaZeta=scale, sigmaAlpha=2 * scale, sigmaK=scale,
                        K2=8, Kalpha=-1, alpha2=-2)
            rows.append(tuple(v for word in words
                              for v in _closed_and_oracle(model, wall, word)))
            yield (rows[-1], rows[0],
                   lambda: f"scale dependence at q={q}, l={l}, scale {scale} vs 1 (closed, oracle)")


# ---------------------------------------------------------------------------
# criterion 10: failure of the simple-type relation at l = 1

@_check("simple-type-failure")
def check_simple_type(grid):
    """One concrete l=1 wall with delta(x alpha^(d-2)) != 4 delta(alpha^d)."""
    wall = wall_with_variant(0, -4, 1, 0)
    model = _on(_j_side(0), wall, zetaAlpha=2, K2=8, alpha2=-1)
    (d0, o0), (d1, o1) = (_closed_and_oracle(model, wall, InsertionWord(r=r, s=wall.d - 2 * r))
                          for r in (0, 1))
    yield ((d0, d1, d1 == 4 * d0), (o0, o1, False),
           lambda: "closed (delta(a^5), delta(x a^3)) vs oracle, and the simple-type relation")


# ---------------------------------------------------------------------------
# cross-branch comparison for the extra-component regime (part of criterion 1)

@_check("component-branch")
def check_component_branch(grid):
    """On h(zeta)+q = 0 walls with rank-consistent data (Sigma.K = 2 Sigma.zeta),
    the extra-component substitution agrees with the unified one."""
    for q in (0, 1, 2):
        j_side = _j_side(q)
        for d in range(1, grid.d_max + 1):
            zeta2 = -(d + 3 * (1 - q))
            if zeta2 >= 0:
                continue
            # h(zeta) + q = 0 pins zeta.K; for q <= 2, d <= 16 the wall is valid, +zeta side empty
            wall = wall_with_variant(q, zeta2, 0, zeta2 + 2 - 2 * q)
            word = InsertionWord(s=d)
            for point in _W_BOX:
                model = _on(j_side, wall, sigmaK=2 * point["sigmaZeta"], K2=0, Kalpha=0,
                            alpha2=1, **point)
                closed, unified = _closed_and_oracle(model, wall, word)
                component = delta_oracle_l0(model, wall, word, branch="component").value
                yield ((unified, component), (closed, closed),
                       lambda: f"branch mismatch at q={q}, d={d}, {_show(point)}: "
                               f"(unified, component) vs closed")


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


def run_checks(grid=Grid(), properties=None):
    """Run the selected checks (all by default); returns a list of CheckResult."""
    names = list(ALL_CHECKS) if not properties else [ALIASES.get(p, p) for p in properties]
    for nm in names:
        if nm not in ALL_CHECKS:
            raise SchemaError(f"unknown property {nm!r}; known: {sorted(ALL_CHECKS)}")
    return [ALL_CHECKS[nm](grid) for nm in names]
