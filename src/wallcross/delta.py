"""One entry point prices a word on a wall.

``evaluate`` holds the one rule that picks the function pricing a word:
l_zeta 0 or 1, odd insertions only at l_zeta = 0, the word's degree must be
2d, and which path was asked for.  The closed forms and the ring oracle stay
independent routes; this module only chooses between them.
"""

from __future__ import annotations

from .closed import DeltaValue, delta_l0_odd, delta_l1, delta_leading
from .errors import PreconditionError, RegimeError
from .graded import ModelSpec
from .jacobian import InsertionWord, volume
from .oracle import delta_oracle_l0, delta_oracle_l1
from .walls import WallGeometry

PATHS = ("auto", "closed", "oracle", "leading")

# The largest d priced: the X-tables and the leading terms' factorials grow
# with d, so a larger wall is refused rather than left to run.
MAX_DEGREE = 10_000


def evaluate(model: ModelSpec, wall: WallGeometry, word: InsertionWord,
             path="auto") -> tuple[DeltaValue, ...]:
    """The value of ``word`` on ``wall`` by ``path``, for the pairings ``model``
    was built from (``model.pairings``).

    "closed" gives the closed form and "oracle" the ring oracle, both for
    l_zeta <= 1; "auto" gives both, the closed form first; "leading" gives
    the two leading terms for any l_zeta, on words x^r alpha^s only.
    """
    if not (isinstance(model, ModelSpec) and isinstance(wall, WallGeometry)
            and isinstance(word, InsertionWord)):
        raise PreconditionError(
            "evaluate needs (ModelSpec, WallGeometry, InsertionWord), got "
            f"({type(model).__name__}, {type(wall).__name__}, {type(word).__name__})")
    if path not in PATHS:
        raise PreconditionError(f"unknown evaluation path {path!r}; known: {', '.join(PATHS)}")
    d, l_zeta = wall.d, wall.l_zeta
    wall.require_q(model.q)
    if d > MAX_DEGREE:
        raise PreconditionError(f"d = {d} exceeds the largest priced d, {MAX_DEGREE}")
    # every route prices x^r alpha^(d-2r), or at l_zeta = 0 the odd word,
    # so any other word must be refused here rather than answered for r alone
    if word.degree() != 2 * d:
        raise PreconditionError(
            f"word {word.describe()} has degree {word.degree()}, not 2d = {2 * d}")
    if l_zeta == 0 and path == "auto":
        return delta_l0_odd(wall, model, word), delta_oracle_l0(model, wall, word)
    odd = word.gammas or word.threes
    if path == "leading":
        if odd:
            raise PreconditionError("the leading terms cover words x^r alpha^s only")
        return (delta_leading(wall, model.pairings, word.r, volume(model)),)
    if l_zeta == 0:
        return (delta_oracle_l0(model, wall, word) if path == "oracle"
                else delta_l0_odd(wall, model, word),)
    if odd:
        raise RegimeError("odd insertions are only evaluated exactly at l_zeta = 0")
    if l_zeta >= 2:
        raise RegimeError(
            f"no exact evaluation for l_zeta = {l_zeta} >= 2 (Hilbert-scheme "
            'cohomology not modeled); the "leading" path gives the two leading terms')
    closed = () if path == "oracle" else (delta_l1(wall, model.pairings, word.r, volume(model)),)
    return closed if path == "closed" else (*closed, delta_oracle_l1(model, wall, word.r))
