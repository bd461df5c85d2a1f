"""Ruled-surface data and wall enumeration."""

from fractions import Fraction

import pytest

from wallcross import (PreconditionError, SchemaError, custom_surface, enumerate_walls,
                       odd_ruled, product_ruled, wall_params)
from wallcross.surfaces import surface_from_json_dict


def test_product_ruled_intersection_data():
    for g in (1, 2, 3):
        s = product_ruled(g)
        assert s.q == g
        assert s.pairing(s.K, s.K) == 8 * (1 - g)
        assert s.pairing(s.K, (1, 0)) == -2  # K.f
        assert s.pairing(s.Sigma, s.Sigma) == 0
        assert s.Sigma == (1, 0)
    assert product_ruled(1).K == (0, -2)
    with pytest.raises(PreconditionError):
        product_ruled(0)


def test_odd_ruled_intersection_data():
    for g in (1, 2, 3):
        s = odd_ruled(g)
        assert s.gram[1][1] == -(2 * g - 1)
        assert s.gram[1][1] % 2 != 0  # odd self-intersection parity
        assert s.pairing(s.K, s.K) == 8 * (1 - g)
        assert s.pairing(s.K, (1, 0)) == -2
    assert odd_ruled(1).gram[1][1] == -1
    with pytest.raises(PreconditionError):
        odd_ruled(0)


def test_enumeration_examples():
    # no walls: parity of p1 = -5 is incompatible
    assert enumerate_walls(product_ruled(2), (1, 0), -5, 10) == []
    # f - C on the elliptic product surface
    recs = enumerate_walls(product_ruled(1), (1, 1), -2, 10, alpha=(1, 1))
    assert [(r.a, r.b) for r in recs] == [(1, 1)]
    rec = recs[0]
    assert rec.wall.zeta2 == -2 and rec.wall.l_zeta == 0
    assert rec.wall.empty_side


def test_enumeration_cone_filters():
    recs = enumerate_walls(product_ruled(3), (1, 1), -18, 12, alpha=(2, 1))
    assert recs
    for r in recs:
        assert r.a > 2 * r.b
        # quantities agree with wall_params on the raw data
        p = wall_params(-18, 3, r.wall.zeta2, r.wall.zetaK)
        assert (p.d, p.l_zeta) == (r.wall.d, r.wall.l_zeta)
        assert r.wall.zeta2 == -2 * r.a * r.b
        assert r.wall.l_zeta == (-2 * r.a * r.b + 18) // 4
    odd = enumerate_walls(odd_ruled(2), (1, 1), -20, 12, alpha=(2, 1))
    for r in odd:
        assert 2 * r.a > 3 * r.b


def test_enumeration_single_representative():
    recs = enumerate_walls(product_ruled(1), (0, 0), -8, 8, alpha=(1, 2))
    seen = set()
    for r in recs:
        assert r.a > 0
        assert r.zeta not in seen and (-r.zeta[0], -r.zeta[1]) not in seen
        seen.add(r.zeta)
    with pytest.raises(PreconditionError):
        enumerate_walls(product_ruled(1), (0, 0), -8, 0)


def test_enumeration_rejects_non_integral_pairings():
    half = custom_surface("half", 0, ((Fraction(1, 2), 1), (1, 0)), K=(0, -2), Sigma=(1, 0))
    with pytest.raises(PreconditionError, match="must be an integer"):
        enumerate_walls(half, (1, 1), -20, 4)


def test_custom_surface_and_json_round_trip():
    s = custom_surface("blowup", 1, ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
                       K=(0, -2, 1), Sigma=(1, 0, 0))
    assert s.pairing(s.K, s.K) == -1  # 8(1-1) - 1 blown-up point
    doc = product_ruled(2).to_json_dict()
    back = surface_from_json_dict(doc)
    assert back == product_ruled(2)
    doc2 = odd_ruled(3).to_json_dict()
    assert surface_from_json_dict(doc2) == odd_ruled(3)


def test_vectors_of_the_wrong_length_are_refused():
    # w and alpha need the lattice's rank; K and Sigma the basis length
    surface = product_ruled(1)
    for w, alpha in (((1,), None), ((1, 1), (1,)), ((1, 1), (1, 1, 1)), ((1, 1, 0), None)):
        with pytest.raises(PreconditionError, match="the lattice has rank 2"):
            enumerate_walls(surface, w, -2, 4, alpha=alpha)
    gram = ((0, 1), (1, 0))
    for K, Sigma in (((0,), (1, 0)), ((0, -2), (1, 0, 0)), ((), ())):
        with pytest.raises(PreconditionError, match="entries, the basis 2"):
            custom_surface("short", 1, gram, K=K, Sigma=Sigma)
    with pytest.raises(SchemaError, match="surface name must be a string"):
        surface_from_json_dict({"surface": {"name": 5, "q": 1}})


def test_a_negative_q_is_refused():
    hyperbolic = ((0, 1), (1, 0))
    with pytest.raises(PreconditionError, match="q must be non-negative, got -2"):
        custom_surface("negative q", -2, hyperbolic, K=(2, -2), Sigma=(1, 0))
    with pytest.raises(SchemaError, match="q must be non-negative, got -2"):
        surface_from_json_dict({"surface": {"name": "x", "q": -2, "basis": ["a", "b"],
                                            "gram": [[0, 1], [1, 0]], "K": [2, -2],
                                            "Sigma": [1, 0]}})


def test_k_must_be_characteristic():
    # x^2 = x.K mod 2 (Wu's formula); with K = (1, -2) on the hyperbolic form,
    # e1^2 - e1.K = -1, and walls whose u broke the formula were dropped or
    # priced with signs the two conventions disagree on
    hyperbolic = ((0, 1), (1, 0))
    with pytest.raises(PreconditionError, match="K is not characteristic: e1"):
        custom_surface("odd K", 1, hyperbolic, K=(1, -2), Sigma=(1, 0))
    for g in (1, 2, 3):
        assert product_ruled(g).K and odd_ruled(g).K  # both built, so both characteristic
    assert custom_surface("even K", 1, hyperbolic, K=(2, -2), Sigma=(1, 0)).K == (2, -2)
    with pytest.raises(SchemaError, match="K is not characteristic"):
        surface_from_json_dict({"surface": {"name": "x", "q": 1, "basis": ["a", "b"],
                                            "gram": [[0, 1], [1, 0]], "K": [1, -2],
                                            "Sigma": [1, 0]}})
