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

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InvalidWallError, PreconditionError, RegimeError
from .graded import MAX_WALL_INPUT, _shown, exact_int

# The largest d priced: the X-tables and the leading terms' factorials grow
# with d, so a larger wall is refused rather than left to run.
MAX_DEGREE = 10_000


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
        raise InvalidWallError(f"need q >= 0, got {_shown(q)}")
    if not zeta2 < 0:
        raise InvalidWallError(f"need zeta^2 < 0, got {_shown(zeta2)}")
    if not p1 <= zeta2:
        raise InvalidWallError(f"need p1 <= zeta^2, got p1={_shown(p1)}, zeta^2={_shown(zeta2)}")
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
    """A wall from its seven inputs: p1, q and the pairings of zeta, w and K, the
    w-data (zetaW, w2, wK) all given or all omitted, for w = zeta.

    Each input is coerced once through ``exact_int``.  The derived fields (d,
    l_zeta, h, N and empty_side from ``wall_params``, and the two signs of the
    wall-crossing terms) are set here, never by a caller, so neither
    ``WallGeometry(...)`` nor ``replace`` can set one.
    """

    p1: int
    q: int
    zeta2: int
    zetaK: int
    zetaW: int = None
    w2: int = None
    wK: int = None
    d: int = field(init=False, compare=False)
    l_zeta: int = field(init=False, compare=False)
    h_plus: int = field(init=False, compare=False)
    h_minus: int = field(init=False, compare=False)
    n_plus: int = field(init=False, compare=False)
    n_minus: int = field(init=False, compare=False)
    empty_side: bool = field(init=False, compare=False)
    sign_wall: int = field(init=False, compare=False)
    sign_complex: int = field(init=False, compare=False)

    def __post_init__(self):
        # object.__setattr__, not __dict__: a written __dict__ slows every attribute read
        put, omitted = object.__setattr__, []
        for key, default in (("p1", None), ("q", None), ("zeta2", None), ("zetaK", None),
                             ("zetaW", "zeta2"), ("w2", "zeta2"), ("wK", "zetaK")):
            value = getattr(self, key)
            if value is None and default:
                value = getattr(self, default)
                omitted.append(key)
            elif abs(value := exact_int(value, key)) > MAX_WALL_INPUT:
                raise PreconditionError(
                    f"{key} exceeds the largest wall input, 10^100, in magnitude")
            put(self, key, value)
        # a part of the w-data would be priced with zeta's for the rest: a w nobody gave
        if 0 < len(omitted) < 3:
            raise PreconditionError(
                f"give all of zetaW, w2 and wK or none of them; missing {', '.join(omitted)}")
        for key, value in wall_params(self.p1, self.q, self.zeta2, self.zetaK)._asdict().items():
            put(self, key, value)
        # each raises unless its sign is defined: (zeta - w)/2 a class, K.w + w^2 even
        put(self, "sign_wall", wall_sign(self.zeta2, self.zetaW, self.w2))
        put(self, "sign_complex", complex_orientation_sign(self.wK, self.w2))
        # u = (zeta - w)/2 is a class, so u.w is an integer, and K is characteristic
        # (Wu's formula), so u^2 = u.K mod 2; the two sign conventions agree only
        # on such data
        if (self.zetaW - self.w2) % 2:
            raise InvalidWallError("zeta.w and w^2 must have equal parity: u.w not integral")
        if ((self.zeta2 - 2 * self.zetaW + self.w2) // 4 + (self.zetaK - self.wK) // 2) % 2:
            raise InvalidWallError("u = (zeta - w)/2 must have u^2 = u.K mod 2 (Wu's formula)")

    @classmethod
    def build(cls, *args, **kwargs) -> "WallGeometry":
        """``WallGeometry(...)``, under the name the benchmark traces."""
        return cls(*args, **kwargs)

    def admit(self, pairings, word, l=None, q=None):
        """Refuse what no route prices on this wall, the one rule every route (and
        ``evaluate``, at l_zeta != 0) applies, in this order: a route's l_zeta ``l``
        that is not the wall's (RegimeError); a model of another ``q``; ``pairings``
        whose zeta^2 or zeta.K is not the wall's; d past ``MAX_DEGREE``; a ``word``
        whose degree is not 2d; and, given ``q``, a word naming an odd class the
        model does not have, an index of 2q or more.  A check whose argument is
        None is not made."""
        if l is not None and l != self.l_zeta:
            raise RegimeError(f"this route needs l_zeta = {l}, got {self.l_zeta}")
        if q is not None and q != self.q:
            raise PreconditionError(f"a wall of q = {self.q} on a model of q = {q}")
        # zeta^2 and zeta.K are one fact: the l = 1 routes read the pairings', d and the
        # signs the wall's, so pairings of other values would price a wall that is not this one
        zeta2, zeta_k = pairings.zeta2, pairings.zetaK
        if (zeta2.as_integer_ratio() != (self.zeta2, 1)
                or zeta_k.as_integer_ratio() != (self.zetaK, 1)):
            raise PreconditionError(
                f"the model's zeta^2 = {_shown(zeta2)} and zeta.K = {_shown(zeta_k)} are not "
                f"the wall's {self.zeta2} and {self.zetaK}")
        if self.d > MAX_DEGREE:
            raise PreconditionError(f"d = {self.d} exceeds the largest priced d, {MAX_DEGREE}")
        # every route prices x^r alpha^(d-2r), or at l_zeta = 0 the odd word,
        # so any other word is refused rather than answered for r alone
        if word.degree() != 2 * self.d:
            raise PreconditionError(
                f"word {word.describe()} has degree {word.degree()}, not 2d = {2 * self.d}")
        # last, so the refusals above keep their messages; a zero product reads no index,
        # and a word with no odd insertion costs two reads
        if q is not None and (word.gammas or word.threes):
            for i in word.gammas + word.threes:
                if i >= 2 * q:
                    raise PreconditionError(f"generator index {i} out of range for q={q}")
