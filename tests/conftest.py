import random

import pytest

from wallcross import ModelSpec, PairingInput, Pairings, build_model


def make_model(q=1, blocks=None, matrix=None, **pairings) -> ModelSpec:
    base = dict(zeta2=-4, zetaK=0, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1,
                sigmaK=0, K2=8, Kalpha=0, alpha2=-1)
    base.update(pairings)
    return build_model(PairingInput(q=q, pairings=Pairings(**base),
                                    a_blocks=blocks, a_matrix=matrix))


@pytest.fixture
def rng():
    return random.Random(987123)


@pytest.fixture
def model_q1():
    return make_model(q=1)


@pytest.fixture
def model_q2():
    return make_model(q=2, blocks=(1, 1))
