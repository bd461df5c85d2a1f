import random
import warnings

import pytest

# Hypothesis writes the patch for a falsifying example through
# hypothesis.extra._patching, whose import (libcst, through mypy_extensions)
# raises a DeprecationWarning.  Under -W error that warning ends the report
# in an INTERNALERROR instead of the example, and pytest re-applies -W error
# around its hooks, so a module-level filter would not reach it: import the
# module once here with that one warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from wallcross import PairingInput, Pairings, PreconditionError, build_model
from wallcross.graded import GradedElement, ModelSpec


def make_model(q=1, blocks=None, matrix=None, **pairings) -> ModelSpec:
    base = dict(zeta2=-4, zetaK=0, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1,
                sigmaK=0, K2=8, Kalpha=0, alpha2=-1)
    base.update(pairings)
    return build_model(PairingInput(q=q, pairings=Pairings(**base),
                                    a_blocks=blocks, a_matrix=matrix))


def exp_truncated(a: GradedElement) -> GradedElement:
    """exp(a) = sum a^n / n!, truncated by the ring; requires no degree-0 part.

    The series itself, term by term: the reference that the l = 1 extension
    data, built as powers of each line class, is checked against."""
    if a.scalar_part() != 0:
        raise PreconditionError("exp_truncated requires a vanishing degree-0 component")
    out = a.model.one()
    term = a.model.one()
    n = 0
    while True:
        n += 1
        term = term * a / n
        if term.is_zero():
            return out
        out = out + term


@pytest.fixture
def rng():
    return random.Random(987123)


@pytest.fixture
def model_q1():
    return make_model(q=1)


@pytest.fixture
def model_q2():
    return make_model(q=2, blocks=(1, 1))
