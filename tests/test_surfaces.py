"""Ruled-surface data and wall enumeration."""

import itertools
import random
from fractions import Fraction

import pytest

from wallcross import InvalidWallError, PreconditionError, SchemaError
from wallcross.graded import exact_int
from wallcross.surfaces import (SurfaceData, WallRecord, _pairings_for, enumerate_walls,
                                odd_ruled, product_ruled, surface_from_json_dict)
from wallcross.walls import WallGeometry, wall_params

from conftest import custom_surface, surface_document


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
    # zeta^2 is integral at a = 4 (the first in-cone row) and below p1 there, but
    # -36/8 - 12 at a = 6: a sweep that stopped at a = 4 would list no walls
    eighth = custom_surface("eighth", 0, ((Fraction(-1, 8), 1), (1, 0)), K=(0, -2),
                            Sigma=(1, 0), cone_slope=2)
    with pytest.raises(PreconditionError, match="must be an integer"):
        enumerate_walls(eighth, (0, 1), -9, 10)


def test_custom_surface_and_json_round_trip():
    s = custom_surface("blowup", 1, ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
                       K=(0, -2, 1), Sigma=(1, 0, 0))
    assert s.pairing(s.K, s.K) == -1  # 8(1-1) - 1 blown-up point
    doc = surface_document(product_ruled(2))
    back = surface_from_json_dict(doc)
    assert back == product_ruled(2)
    doc2 = surface_document(odd_ruled(3))
    assert surface_from_json_dict(doc2) == odd_ruled(3)
    # a document that carries its data is read as that data, whatever its name
    # says: "product_ruled blown up" used to read back as product_ruled(1)
    named = custom_surface("product_ruled blown up", 1, ((-1, 0), (0, 1)), K=(1, 1),
                           Sigma=(0, 1))
    for surface in (s, named, custom_surface("odd_ruled(2)", 2, ((0, 1), (1, 2)), K=(2, 0),
                                             Sigma=(1, 0), cone_slope=Fraction(1, 2)),
                    *(make(g) for make in (product_ruled, odd_ruled) for g in (1, 2, 3))):
        assert surface_from_json_dict(surface_document(surface)) == surface, surface.name
    assert surface_from_json_dict(surface_document(named)).gram == ((-1, 0), (0, 1))


def test_pairing_in_ints_is_the_fraction_sum():
    rng = random.Random(31)

    def reference(surface, u, v):
        return sum((Fraction(ui) * surface.gram[i][j] * Fraction(vj)
                    for i, ui in enumerate(u) for j, vj in enumerate(v)), Fraction(0))

    def entry():
        if rng.random() < 0.5:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    rational = custom_surface("rational", 1, ((Fraction(1, 2), Fraction(-2, 3), 0),
                                              (Fraction(-2, 3), Fraction(5, 4), 1),
                                              (0, 1, -3)),
                              K=(1, 0, 1), Sigma=(1, 0, 0))
    surfaces = [make(g) for make in (product_ruled, odd_ruled) for g in (1, 2, 3)]
    for surface in surfaces + [rational]:
        n = len(surface.basis)
        for _ in range(60):
            u, v = tuple(entry() for _ in range(n)), tuple(entry() for _ in range(n))
            if rng.random() < 0.3:
                u = tuple(int(x) for x in u)
            value = surface.pairing(u, v)
            assert type(value) is Fraction and value == reference(surface, u, v)
        assert surface.pairing(surface.K, surface.K) == reference(surface, surface.K, surface.K)
        # a vector of another length is refused, not cut to the lattice's rank
        for u, v in ((surface.K[:-1], surface.K), (surface.K, surface.K + (1,))):
            with pytest.raises(ValueError):
                surface.pairing(u, v)


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


def _every_candidate(surface, w, p1, bound, alpha):
    """enumerate_walls as a sweep over every (a, b) <= bound, without b-windows."""
    out = []
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            zeta = (a, -b)
            if (a - w[0]) % 2 or (-b - w[1]) % 2:
                continue
            if surface.cone_slope is not None and not a > surface.cone_slope * b:
                continue
            z2 = surface.pairing(zeta, zeta)
            if not p1 <= z2 < 0 or (z2 - p1) % 4:
                continue
            pair = _pairings_for(surface, zeta, alpha)
            try:
                wall = WallGeometry.build(p1=p1, q=surface.q, zeta2=int(z2),
                                          zetaK=exact_int(pair.zetaK, "zeta.K"),
                                          zetaW=exact_int(surface.pairing(zeta, w), "zeta.w"),
                                          w2=exact_int(surface.pairing(w, w), "w^2"),
                                          wK=exact_int(surface.pairing(w, surface.K), "w.K"))
            except InvalidWallError:
                continue
            out.append(WallRecord(a=a, b=b, zeta=zeta, wall=wall, pairings=pair))
    out.sort(key=lambda rec: (-rec.wall.zeta2, rec.a, rec.b))
    return out


def test_early_stops_list_every_wall_of_the_full_sweep():
    # each row reads only its b-window where p1 <= zeta^2 < 0; the listing must be
    # the full sweep's, also where g11 > 0 (two windows in a row), g00 > 0 or
    # g01 < 0 (a row with no window is followed by a row with a wall, and with
    # g01 < 0 zeta^2 < p1 at one b rises to a wall at a larger b)
    surfaces = [make(g) for make in (product_ruled, odd_ruled) for g in (1, 2, 3)]
    surfaces += [custom_surface("g11>0", 1, ((0, 1), (1, 2)), K=(2, -2), Sigma=(1, 0)),
                 custom_surface("g00>0", 1, ((1, 0), (0, -1)), K=(1, 1), Sigma=(1, 0)),
                 custom_surface("g01<0", 2, ((-2, -1), (-1, -2)), K=(0, 0), Sigma=(1, 0)),
                 custom_surface("g00>0 rising", 1, ((1, 2), (2, -1)), K=(-5, 1), Sigma=(1, 0)),
                 custom_surface("g01<0 rising", 1, ((-2, -1), (-1, -1)), K=(-3, -2),
                                Sigma=(1, 0))]
    listed = {}
    for surface in surfaces:
        for w, p1, bound in itertools.product(((1, 1), (0, 1), (1, 0), (0, 0), (3, -1)),
                                              (-1, -2, -7, -9, -20, -41), (1, 9, 40)):
            walls = enumerate_walls(surface, w, p1, bound, alpha=(1, 2))
            assert walls == _every_candidate(surface, w, p1, bound, (1, 2)), (surface.name, w, p1)
            listed[surface.name] = listed.get(surface.name, 0) + len(walls)
    assert min(listed.values()) >= 8 and sum(listed.values()) >= 200


def test_the_b_windows_list_every_wall_of_the_full_sweep_on_random_forms():
    # integral and rational forms with g11 < 0, = 0 and > 0, with and without a
    # cone: the windows come from the roots of the integer-scaled quadratic, so
    # they hold for every rank-2 form; a form that is not integral on the classes
    # zeta = w (mod 2) is refused whatever the bound
    rng = random.Random(2026)
    listed, refused, compared = {True: 0, False: 0}, 0, set()
    for _ in range(100):
        den = rng.choice((1, 2, 2, 4))
        g11 = Fraction(rng.choice((-1, 0, 1)) * rng.randint(1, 3), rng.choice((1, den)))
        g00, g01 = (Fraction(rng.randint(-3, 3), rng.choice((1, den))) for _ in range(2))
        gram = ((g00, g01), (g01, g11))
        try:
            surface = custom_surface("random", rng.randint(0, 2), gram,
                                     K=(rng.randint(-3, 3), rng.randint(-3, 3)), Sigma=(1, 0),
                                     cone_slope=rng.choice((None, None, 1, Fraction(1, 2))))
        except PreconditionError:  # K is not characteristic
            continue
        for _ in range(6):
            w, bound = rng.choice(((1, 1), (0, 1), (1, 0), (0, 0), (2, 0))), rng.choice((4, 12, 30))
            # p1 a little below one candidate's zeta^2 when that is integral and negative,
            # so that most sweeps have candidates in their windows
            zeta = tuple(rng.randrange(v % 2 or 2, bound + 1, 2) * sign
                         for v, sign in zip(w, (1, -1)))
            z2 = surface.pairing(zeta, zeta)
            p1 = (int(z2) - 4 * rng.randint(0, 3) if -60 < z2 < 0 and z2.denominator == 1
                  else rng.randint(-40, -1))
            zetas = [(a, -b) for a in range(1, 17) for b in range(1, 17)
                     if (a - w[0]) % 2 == 0 and (b - w[1]) % 2 == 0]
            if any(surface.pairing(z, z).denominator != 1 for z in zetas):
                with pytest.raises(PreconditionError, match="zeta\\^2 for zeta = .* must be an"):
                    enumerate_walls(surface, w, p1, bound, alpha=(1, 2))
                refused += 1
                continue
            expected = _outcome(lambda: _every_candidate(surface, w, p1, bound, (1, 2)))
            assert _outcome(lambda: enumerate_walls(surface, w, p1, bound, alpha=(1, 2))) \
                == expected, (gram, surface.K, surface.cone_slope, w, p1, bound)
            integral = surface._gram_ints[0] == 1
            compared.add(((g11 > 0) - (g11 < 0), integral))
            listed[integral] += len(expected) if expected != "refused" else 0
    # integral and rational forms of each sign of g11, walls on both, and refused forms
    assert len(compared) == 6 and listed[True] >= 40 and listed[False] >= 5 and refused >= 20, (
        compared, listed, refused)


def _outcome(sweep):
    """A sweep's walls, or "refused" for a PreconditionError."""
    try:
        return sweep()
    except PreconditionError:
        return "refused"


def test_a_large_bound_reads_few_candidates(monkeypatch):
    # on product_ruled(1) with p1 = -2 the one wall is a = b = 1, and a form with
    # g11 > 0 has none there; at bound 1000 the b-windows leave a handful of zeta^2
    # evaluations, not ~bound^2 / 4 (2.1 s of them on the second form)
    calls = []
    real = SurfaceData.pairing

    def counted(self, u, v):
        calls.append(u)
        return real(self, u, v)
    monkeypatch.setattr(SurfaceData, "pairing", counted)
    walls = enumerate_walls(product_ruled(1), (1, 1), -2, 1000)
    assert [(rec.a, rec.b) for rec in walls] == [(1, 1)]
    assert len(calls) < 20
    del calls[:]
    g11 = custom_surface("g11>0", 1, ((0, 1), (1, 2)), K=(2, -2), Sigma=(1, 0))
    assert enumerate_walls(g11, (1, 1), -2, 1000) == [] and len(calls) < 20
