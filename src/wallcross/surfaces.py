"""Minimal ruled surfaces over genus-g curves and wall enumeration.

Both deformation types are provided: the product S^2-bundle (basis {f, C},
f the fiber) and the twisted one (basis {f, s} with s^2 = -(2g-1)).  The
class "CP^1" of the enumeration cone is the fiber class f and Sigma = f;
K = -2C + (2g-2) f, so K^2 = 8(1-g) and K.f = -2 in both cases.

Walls are enumerated as zeta = a f - b (C or s) with a, b > 0 inside the
stated subcone (a > b (g-1) for the product type, a > b (2g-1)/2 for the
twisted type); blow-ups and other surfaces enter through the custom
constructor as plain intersection data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidWallError, PreconditionError, SchemaError
from .graded import exact_int
from .jacobian import Pairings
from .walls import WallGeometry

Vec = tuple


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
        if self.q < 0:
            raise PreconditionError(f"q must be non-negative, got {self.q}")
        n = len(self.basis)
        gram = tuple(tuple(Fraction(x) for x in row) for row in self.gram)
        if len(gram) != n or any(len(row) != n for row in gram):
            raise PreconditionError("gram size does not match basis")
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise PreconditionError("gram must be symmetric")
        object.__setattr__(self, "gram", gram)
        for name in ("K", "Sigma"):
            vec = tuple(exact_int(x, name) for x in getattr(self, name))
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
        return sum((Fraction(ui) * self.gram[i][j] * Fraction(vj)
                    for i, ui in enumerate(u) for j, vj in enumerate(v)), Fraction(0))

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "surface": {
                "name": self.name,
                "q": self.q,
                "basis": list(self.basis),
                "gram": [[str(x) for x in row] for row in self.gram],
                "K": list(self.K),
                "Sigma": list(self.Sigma),
                "cone_slope": None if self.cone_slope is None else str(self.cone_slope),
            },
        }


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


def custom_surface(name, q, gram, K, Sigma, cone_slope=None) -> SurfaceData:
    """Arbitrary intersection data (blow-ups etc.); no wall-cone filter by default."""
    basis = tuple(f"e{i}" for i in range(len(gram)))
    return SurfaceData(name=name, q=q, basis=basis, gram=tuple(map(tuple, gram)),
                       K=tuple(K), Sigma=tuple(Sigma),
                       cone_slope=None if cone_slope is None else Fraction(cone_slope))


def surface_from_json_dict(doc) -> SurfaceData:
    surf = doc.get("surface") if isinstance(doc, dict) else None
    if not isinstance(surf, dict):
        raise SchemaError("missing 'surface' object")
    name = surf.get("name", "")
    if not isinstance(name, str):
        raise SchemaError(f"the surface name must be a string, got {name!r}")
    try:
        q = exact_int(surf["q"], "q")
        if name.startswith("product_ruled"):
            return product_ruled(q)
        if name.startswith("odd_ruled"):
            return odd_ruled(q)
        slope = surf.get("cone_slope")
        return SurfaceData(
            name=name or "custom", q=q, basis=tuple(surf["basis"]),
            gram=tuple(tuple(Fraction(str(x)) for x in row) for row in surf["gram"]),
            K=tuple(surf["K"]), Sigma=tuple(surf["Sigma"]),
            cone_slope=None if slope is None else Fraction(str(slope)))
    except KeyError as exc:
        raise SchemaError(f"surface document lacks {exc}") from exc
    except (ArithmeticError, TypeError, ValueError, PreconditionError) as exc:
        raise SchemaError(f"bad surface document: {exc}") from exc


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
    derived wall quantities are valid.  One representative per +-zeta pair is
    produced (all have a > 0).  ``alpha`` supplies the pairing column used by
    delta evaluations; it defaults to w.  Both vectors need the lattice's rank,
    two entries each.
    """
    if bound <= 0:
        raise PreconditionError("bound must be positive")
    if len(surface.basis) != 2:
        raise PreconditionError("wall enumeration supports rank-2 lattices only")
    if alpha is None:
        alpha = w
    for name, vec in (("w", w), ("alpha", alpha)):
        if len(vec) != 2:
            raise PreconditionError(
                f"{name} has {len(vec)} entries; the lattice has rank 2, so it needs 2")
    out = []
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            zeta = (a, -b)
            if (zeta[0] - w[0]) % 2 or (zeta[1] - w[1]) % 2:
                continue
            if surface.cone_slope is not None and not a > surface.cone_slope * b:
                continue
            z2 = exact_int(surface.pairing(zeta, zeta), f"zeta^2 for zeta = {zeta}")
            if not p1 <= z2 < 0:
                continue
            if (z2 - p1) % 4:
                continue
            pair = _pairings_for(surface, zeta, alpha)
            try:
                wall = WallGeometry.build(
                    p1=p1, q=surface.q, zeta2=z2,
                    zetaK=exact_int(pair.zetaK, f"zeta.K for zeta = {zeta}"),
                    zetaW=exact_int(surface.pairing(zeta, w), f"zeta.w for zeta = {zeta}"),
                    w2=exact_int(surface.pairing(w, w), "w^2"),
                    wK=exact_int(surface.pairing(w, surface.K), "w.K"))
            except InvalidWallError:
                continue
            out.append(WallRecord(a=a, b=b, zeta=zeta, wall=wall, pairings=pair))
    out.sort(key=lambda rec: (-rec.wall.zeta2, rec.a, rec.b))
    return out


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
