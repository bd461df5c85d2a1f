"""Wall bookkeeping: validity predicates, dimension counts, sign conventions.

Walls are never stored as lattice vectors; only the pairings that the
formulas consume are kept (zeta^2, zeta.K, zeta.w, w^2, w.K).  Multiple
classes may represent one wall; this module prices a single +-zeta pair and
leaves summation over representatives to the caller.

The numeric wall conditions are checked here.  The closed formulas hold
for good walls (automatic when -K is effective); effectivity itself is not
a numeric condition and is not checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidWallError


class WallParams(NamedTuple):
    d: int
    l_zeta: int
    h_plus: int
    h_minus: int
    n_plus: int
    n_minus: int
    empty_side: bool


def wall_params(p1, q, zeta2, zetaK) -> WallParams:
    """Derived quantities of a wall: d, l_zeta, h(+-zeta), N_{+-zeta}.

    Raises InvalidWallError when the data violates the wall conditions
    (range, divisibility, integrality of h, non-negative extension ranks).
    """
    if q < 0:
        raise InvalidWallError(f"need q >= 0, got {q}")
    if not zeta2 < 0:
        raise InvalidWallError(f"need zeta^2 < 0, got {zeta2}")
    if not p1 <= zeta2:
        raise InvalidWallError(f"need p1 <= zeta^2, got p1={p1}, zeta^2={zeta2}")
    if (zeta2 - p1) % 4:
        raise InvalidWallError("zeta^2 - p1 must be divisible by 4")
    if (zetaK - zeta2) % 2:
        raise InvalidWallError("zeta.K and zeta^2 must have equal parity (h(zeta) integral)")
    d = -p1 - 3 * (1 - q)
    l_zeta = (zeta2 - p1) // 4
    h_plus = (zetaK - zeta2) // 2 - 1
    h_minus = (-zetaK - zeta2) // 2 - 1
    for h, side in ((h_plus, "+zeta"), (h_minus, "-zeta")):
        if l_zeta + h + q < 0:
            raise InvalidWallError(f"negative extension rank on the {side} side")
    n_plus = l_zeta + h_plus + q - 1
    n_minus = l_zeta + h_minus + q - 1
    return WallParams(d, l_zeta, h_plus, h_minus, n_plus, n_minus,
                      l_zeta == 0 and h_plus + q == 0)


def wall_sign(zeta2, zetaW, w2) -> int:
    """The lattice-convention wall sign (-1)^(((zeta-w)/2)^2)."""
    num = zeta2 - 2 * zetaW + w2
    if num % 4:
        raise InvalidWallError("(zeta - w)/2 is not an integral class: (zeta^2 - 2 zeta.w + w^2) % 4 != 0")
    return -1 if (num // 4) % 2 else 1


def complex_orientation_sign(wK, w2) -> int:
    """The complex-orientation sign (-1)^((K.w + w^2)/2)."""
    num = wK + w2
    if num % 2:
        raise InvalidWallError("K.w + w^2 must be even")
    return -1 if (num // 2) % 2 else 1


@dataclass(frozen=True)
class WallGeometry:
    """All pairings of (zeta, w, K) plus the derived wall quantities."""

    p1: int
    q: int
    zeta2: int
    zetaK: int
    zetaW: int
    w2: int
    wK: int
    d: int
    l_zeta: int
    h_plus: int
    h_minus: int
    n_plus: int
    n_minus: int
    empty_side: bool

    @classmethod
    def build(cls, p1, q, zeta2, zetaK, zetaW=None, w2=None, wK=None) -> "WallGeometry":
        """Validate and derive; w-data defaults to w = zeta."""
        if zetaW is None:
            zetaW = zeta2
        if w2 is None:
            w2 = zeta2
        if wK is None:
            wK = zetaK
        params = wall_params(p1, q, zeta2, zetaK)
        if (zeta2 - 2 * zetaW + w2) % 4:
            raise InvalidWallError("zeta and w are not congruent mod 2: ((zeta-w)/2)^2 not integral")
        if (wK + w2) % 2:
            raise InvalidWallError("K.w + w^2 must be even")
        # u = (zeta - w)/2 is a class, so u.w is an integer, and K is characteristic
        # (Wu's formula), so u^2 = u.K mod 2; the two sign conventions agree only
        # on such data
        if (zetaW - w2) % 2:
            raise InvalidWallError("zeta.w and w^2 must have equal parity: u.w not integral")
        if ((zeta2 - 2 * zetaW + w2) // 4 + (zetaK - wK) // 2) % 2:
            raise InvalidWallError("u = (zeta - w)/2 must have u^2 = u.K mod 2 (Wu's formula)")
        return cls(p1=p1, q=q, zeta2=zeta2, zetaK=zetaK, zetaW=zetaW, w2=w2, wK=wK,
                   **params._asdict())

    def sign_wall(self) -> int:
        return wall_sign(self.zeta2, self.zetaW, self.w2)

    def sign_complex(self) -> int:
        return complex_orientation_sign(self.wK, self.w2)

    def reversed(self) -> "WallGeometry":
        """The wall for -zeta (exchanges the (h, N) pairs; d and l fixed)."""
        return WallGeometry.build(self.p1, self.q, self.zeta2, -self.zetaK,
                                  -self.zetaW, self.w2, self.wK)
