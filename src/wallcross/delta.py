"""One entry point prices a word on a wall.

``evaluate`` picks the function pricing a word: by l_zeta 0 or 1, odd
insertions only at l_zeta = 0, and which path was asked for.  What may be
priced at all (the model's q, zeta^2 and zeta.K, d and the word's degree) is
``WallGeometry.admit``'s rule, which every route applies.  ``evaluate``
applies it too only on the leading path and at l_zeta != 0, whose routes take
r and pairings, so cannot see q or the word asked for.  The closed forms and
the ring oracle stay independent routes; this module only chooses between them.
"""

from __future__ import annotations

from .closed import DeltaValue, delta_l0_odd, delta_l1, delta_leading
from .errors import PreconditionError, RegimeError
from .graded import ModelSpec
from .jacobian import InsertionWord, volume
from .oracle import delta_oracle_l0, delta_oracle_l1
from .walls import WallGeometry

PATHS = ("auto", "closed", "oracle", "leading")


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
    l_zeta = wall.l_zeta
    if l_zeta == 0 and path != "leading":
        # both l = 0 routes take the model and the word, and admit them
        closed = () if path == "oracle" else (delta_l0_odd(wall, model, word),)
        return closed if path == "closed" else (*closed, delta_oracle_l0(model, wall, word))
    wall.admit(model.pairings, word, q=model.q)
    odd = word.gammas or word.threes
    if path == "leading":
        if odd:
            raise PreconditionError("the leading terms cover words x^r alpha^s only")
        return (delta_leading(wall, model.pairings, word.r, volume(model)),)
    if odd:
        raise RegimeError("odd insertions are only evaluated exactly at l_zeta = 0")
    if l_zeta >= 2:
        raise RegimeError(
            f"no exact evaluation for l_zeta = {l_zeta} >= 2 (Hilbert-scheme "
            'cohomology not modeled); the "leading" path gives the two leading terms')
    closed = () if path == "oracle" else (delta_l1(wall, model.pairings, word.r, volume(model)),)
    return closed if path == "closed" else (*closed, delta_oracle_l1(model, wall, word.r))
