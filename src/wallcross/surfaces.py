"""Minimal ruled surfaces over genus-g curves and wall enumeration.

Both deformation types are provided: the product S^2-bundle (basis {f, C},
f the fiber) and the twisted one (basis {f, s} with s^2 = -(2g-1)).  The
class "CP^1" of the enumeration cone is the fiber class f and Sigma = f;
K = -2C + (2g-2) f, so K^2 = 8(1-g) and K.f = -2 in both cases.

Walls are enumerated as zeta = a f - b (C or s) with a, b > 0 inside the
stated subcone (a > b (g-1) for the product type, a > b (2g-1)/2 for the
twisted type); blow-ups and other surfaces enter as plain intersection data,
a ``SurfaceData``, as the CLI builds one from a surface document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidWallError, PreconditionError
from .graded import exact_int, exact_tuple, frac
from .jacobian import Pairings
from .walls import WallGeometry

Vec = tuple

# The largest wall-enumeration bound: the candidates grow as bound^2, so a
# larger bound is refused rather than left to run.
MAX_BOUND = 1000


@dataclass(frozen=True)
class SurfaceData:
    """Rank-2 intersection data of a surface with its wall cone.

    ``cone_slope`` c restricts enumerated walls a f - b (second basis
    class) to a > c b; ``None`` disables the cone filter (custom surfaces).
    """

    name: str
    q: int
    basis: tuple
    gram: tuple
    K: Vec
    Sigma: Vec
    cone_slope: Fraction = None

    def __post_init__(self):
        object.__setattr__(self, "q", exact_int(self.q, "q"))
        if self.q < 0:
            raise PreconditionError(f"q must be non-negative, got {self.q}")
        n = len(self.basis)
        gram = exact_tuple(self.gram, lambda row: exact_tuple(row, frac, "a gram row"), "gram")
        if len(gram) != n or any(len(row) != n for row in gram):
            raise PreconditionError("gram size does not match basis")
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise PreconditionError("gram must be symmetric")
        object.__setattr__(self, "gram", gram)
        den = math.lcm(*(g.denominator for row in gram for g in row))
        object.__setattr__(self, "_gram_ints", (den, tuple(
            tuple(g.numerator * (den // g.denominator) for g in row) for row in gram)))
        for name in ("K", "Sigma"):
            vec = exact_tuple(getattr(self, name), lambda x: exact_int(x, name), name)
            if len(vec) != n:
                raise PreconditionError(f"{name} has {len(vec)} entries, the basis {n}")
            object.__setattr__(self, name, vec)
        # K is characteristic (Wu's formula): x^2 = x.K mod 2 for every class x, and
        # so for every basis class of an integral form; wall signs rely on it
        for i, row in enumerate(gram):
            wu = row[i] - sum(g * k for g, k in zip(row, self.K))
            if wu.denominator == 1 and wu.numerator % 2:
                raise PreconditionError(
                    f"K is not characteristic: e{i}^2 - e{i}.K = {wu} is odd")

    def pairing(self, u, v) -> Fraction:
        """u.v for int or Fraction entries, summed in ints over one common denominator."""
        den, gram = self._gram_ints
        du, dv = math.lcm(*[x.denominator for x in u]), math.lcm(*[y.denominator for y in v])
        total = 0
        for x, row in zip(u, gram, strict=True):
            for g, y in zip(row, v, strict=True):
                total += x.numerator * (du // x.denominator) * g * y.numerator * (dv // y.denominator)
        return Fraction(total, den * du * dv)


def product_ruled(g) -> SurfaceData:
    """CP^1 x C_g: basis {f, C}, f^2 = C^2 = 0, f.C = 1, K = -2C + (2g-2) f."""
    if g < 1:
        raise PreconditionError("product_ruled needs genus g >= 1")
    return SurfaceData(
        name=f"product_ruled({g})", q=g, basis=("f", "C"),
        gram=((0, 1), (1, 0)), K=(2 * g - 2, -2), Sigma=(1, 0),
        cone_slope=Fraction(g - 1))


def odd_ruled(g) -> SurfaceData:
    """The twisted S^2-bundle over C_g: basis {f, s}, s^2 = -(2g-1)."""
    if g < 1:
        raise PreconditionError("odd_ruled needs genus g >= 1")
    s2 = -(2 * g - 1)
    return SurfaceData(
        name=f"odd_ruled({g})", q=g, basis=("f", "s"),
        gram=((0, 1), (1, s2)), K=(s2 + 2 * g - 2, -2), Sigma=(1, 0),
        cone_slope=Fraction(2 * g - 1, 2))


class WallRecord(NamedTuple):
    a: int
    b: int
    zeta: Vec
    wall: WallGeometry
    pairings: Pairings


def enumerate_walls(surface: SurfaceData, w: Vec, p1, bound, alpha: Vec = None):
    """All walls zeta = a f - b (second class), 0 < a, b <= bound.

    A candidate is kept when zeta = w (mod 2) in the lattice, p1 <= zeta^2 < 0
    with 4 | (zeta^2 - p1), the cone inequality a > slope * b holds, and the
    derived wall quantities are valid; each row of fixed a reads only its b-window.
    One representative per +-zeta pair is produced (all have a > 0).  ``alpha``
    supplies the pairing column of delta evaluations; it defaults to w.  Both
    vectors need the lattice's rank, two entries each.
    """
    if not 0 < bound <= MAX_BOUND:
        raise PreconditionError(f"bound must be between 1 and {MAX_BOUND}, got {bound}")
    if len(surface.basis) != 2:
        raise PreconditionError("wall enumeration supports rank-2 lattices only")
    p1 = exact_int(p1, "p1")
    if alpha is None:
        alpha = w
    for name, vec in (("w", w), ("alpha", alpha)):
        if len(vec) != 2:
            raise PreconditionError(
                f"{name} has {len(vec)} entries; the lattice has rank 2, so it needs 2")
    den, ((g00, g01), (_, g11)) = surface._gram_ints
    if den != 1:
        # zeta^2 is a quadratic in (s, t) on the classes zeta = (a0 + 2s, -(b0 + 2t)) = w
        # (mod 2), integral on all of them when it is at the six with s, t >= 0, s + t <= 2:
        # a form that is not is refused whatever the bound, as no window may skip it
        for s, t in ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)):
            zeta = (w[0] % 2 + 2 * s, -(w[1] % 2 + 2 * t))
            exact_int(surface.pairing(zeta, zeta), f"zeta^2 for zeta = {zeta}")
    out = []
    for a in range(2 - w[0] % 2, bound + 1, 2):
        # den * zeta^2 = g11 b^2 - 2 g01 a b + g00 a^2 in ints, and p1 <= zeta^2 < 0
        for lo, hi in _b_window(g11, -2 * g01 * a, g00 * a * a, den * p1, -1, bound):
            for b in range(lo + (lo - w[1]) % 2, hi + 1, 2):
                zeta = (a, -b)
                if surface.cone_slope is not None and not a > surface.cone_slope * b:
                    continue
                z2 = exact_int(surface.pairing(zeta, zeta), f"zeta^2 for zeta = {zeta}")
                if (z2 - p1) % 4:
                    continue
                pair = _pairings_for(surface, zeta, alpha)
                try:
                    wall = WallGeometry.build(
                        p1, surface.q, z2, pair.zetaK, surface.pairing(zeta, w),
                        surface.pairing(w, w), surface.pairing(w, surface.K))
                except InvalidWallError:
                    continue
                out.append(WallRecord(a=a, b=b, zeta=zeta, wall=wall, pairings=pair))
    out.sort(key=lambda rec: (-rec.wall.zeta2, rec.a, rec.b))
    return out


def _b_window(c2, c1, c0, low, high, bound):
    """The b in 1..bound with low <= f(b) = c2 b^2 + c1 b + c0 <= high, all ints, as at
    most two ranges ``(lo, hi)``.  With c2 > 0 (the others are negated into it) this is
    {f <= high} less {f <= low - 1}, and f(b) <= c exactly when |2 c2 b + c1|, an int,
    is at most math.isqrt(c1^2 - 4 c2 (c0 - c)), so each end is exact.
    """
    if c2 < 0 or (c2 == 0 and c1 < 0):
        c2, c1, c0, low, high = -c2, -c1, -c0, -high, -low

    def below(c):
        """(lo, hi) such that the b >= 1 with f(b) <= c are lo..hi, or None for no b."""
        if c2 == 0:
            return (1, (c - c0) // c1) if c1 else (1, bound) if c0 <= c else None
        disc = c1 * c1 - 4 * c2 * (c0 - c)
        if disc < 0:
            return None
        r = math.isqrt(disc)
        return -((c1 + r) // (2 * c2)), (r - c1) // (2 * c2)

    outer, inner = below(high), below(low - 1)
    if outer is None:
        return []
    ranges = [outer] if inner is None else [(outer[0], inner[0] - 1), (inner[1] + 1, outer[1])]
    return [(max(lo, 1), min(hi, bound)) for lo, hi in ranges if max(lo, 1) <= min(hi, bound)]


def _pairings_for(surface, zeta, alpha) -> Pairings:
    sig = surface.Sigma
    kk = surface.K
    return Pairings(
        zeta2=surface.pairing(zeta, zeta),
        zetaK=surface.pairing(zeta, kk),
        zetaAlpha=surface.pairing(zeta, alpha),
        sigmaZeta=surface.pairing(sig, zeta),
        sigmaAlpha=surface.pairing(sig, alpha),
        sigmaK=surface.pairing(sig, kk),
        K2=surface.pairing(kk, kk),
        Kalpha=surface.pairing(kk, alpha),
        alpha2=surface.pairing(alpha, alpha))
