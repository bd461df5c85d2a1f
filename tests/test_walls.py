"""Wall parameter derivation, sign conventions, validity predicates."""

import pytest

from wallcross import (InvalidWallError, WallGeometry, complex_orientation_sign,
                       wall_params, wall_sign)


def test_wall_params_examples():
    p = wall_params(-4, 0, -4, 0)
    assert (p.d, p.l_zeta, p.h_plus, p.h_minus, p.n_plus, p.n_minus) == (1, 0, 1, 1, 0, 0)
    assert p.n_plus + p.n_minus + 0 + 0 == p.d - 1
    p = wall_params(-8, 2, -4, 2)
    assert (p.d, p.l_zeta, p.h_plus, p.h_minus, p.n_plus, p.n_minus) == (11, 1, 2, 0, 4, 2)
    assert not p.empty_side


def test_empty_side_flag():
    # l = 0 and h(zeta) + q = 0
    p = wall_params(-2, 1, -2, -2)
    assert p.l_zeta == 0 and p.h_plus + 1 == 0
    assert p.empty_side


def test_wall_params_errors():
    with pytest.raises(InvalidWallError):
        wall_params(-4, 0, 4, 0)  # zeta^2 >= 0
    with pytest.raises(InvalidWallError):
        wall_params(-2, 0, -4, 0)  # p1 > zeta^2
    with pytest.raises(InvalidWallError):
        wall_params(-5, 0, -4, 0)  # 4 does not divide zeta^2 - p1
    with pytest.raises(InvalidWallError):
        wall_params(-4, 0, -4, 1)  # h(zeta) not integral
    with pytest.raises(InvalidWallError):
        wall_params(-4, 0, -4, 8)  # negative rank on the -zeta side
    # a negative q used to pass whenever h(+-zeta) + q stayed non-negative
    with pytest.raises(InvalidWallError, match="need q >= 0"):
        wall_params(-8, -1, -8, 0)
    with pytest.raises(InvalidWallError, match="need q >= 0"):
        WallGeometry.build(p1=-8, q=-1, zeta2=-8, zetaK=0)


def test_wall_sign_examples():
    assert wall_sign(-4, -4, -4) == 1  # w = zeta
    assert wall_sign(-4, 0, 0) == -1
    assert wall_sign(-8, 2, 0) == -1
    with pytest.raises(InvalidWallError):
        wall_sign(-4, 1, 0)


def test_complex_orientation_sign_examples():
    assert complex_orientation_sign(0, 0) == 1
    assert complex_orientation_sign(2, 0) == -1
    with pytest.raises(InvalidWallError):
        complex_orientation_sign(1, 0)


def test_sign_identity_on_consistent_sweep():
    # eps_S(w) (-1)^h = (-1)^(d+q) eps(zeta, w) over Wu-consistent data
    points = 0
    for w2 in range(-6, 7):
        for wK in range(-6, 7):
            if (wK - w2) % 2:
                continue
            for u2 in range(-3, 4):
                for uK in range(-3, 4):
                    if (uK - u2) % 2:
                        continue
                    for wu in range(-3, 4):
                        zeta2 = w2 + 4 * wu + 4 * u2
                        if zeta2 >= 0:
                            continue
                        zetaW = w2 + 2 * wu
                        zetaK = wK + 2 * uK
                        for q in range(3):
                            for l in (0, 1):
                                d = -(zeta2 - 4 * l) - 3 * (1 - q)
                                h = (zetaK - zeta2) // 2 - 1
                                lhs = complex_orientation_sign(wK, w2) * (-1) ** (h % 2)
                                rhs = (-1) ** ((d + q) % 2) * wall_sign(zeta2, zetaW, w2)
                                assert lhs == rhs
                                points += 1
    assert points > 1000


def test_wall_geometry_build_and_reverse():
    wall = WallGeometry.build(p1=-8, q=2, zeta2=-4, zetaK=2)
    assert (wall.zetaW, wall.w2, wall.wK) == (-4, -4, 2)  # defaults to w = zeta
    rev = wall.reversed()
    assert (rev.h_plus, rev.n_plus) == (wall.h_minus, wall.n_minus)
    assert (rev.h_minus, rev.n_minus) == (wall.h_plus, wall.n_plus)
    assert (rev.d, rev.l_zeta) == (wall.d, wall.l_zeta)


def test_wall_geometry_w_validation():
    with pytest.raises(InvalidWallError):
        WallGeometry.build(p1=-4, q=0, zeta2=-4, zetaK=0, zetaW=1, w2=0, wK=0)
    with pytest.raises(InvalidWallError):
        WallGeometry.build(p1=-4, q=0, zeta2=-4, zetaK=0, zetaW=0, w2=0, wK=1)
    # u = (zeta - w)/2 with u^2 = -1 and u.K = 2 breaks Wu's formula u^2 = u.K mod 2:
    # on such data the two wall-sign conventions disagree, so the closed form and
    # the ring oracle differed in sign and `delta` exited 3
    with pytest.raises(InvalidWallError, match="Wu's formula"):
        WallGeometry.build(p1=-4, q=2, zeta2=-4, zetaK=4, zetaW=0, w2=0, wK=0)
    # u.w = (zeta.w - w^2)/2 = -1/2 is no integer, though u^2 = -2 is: the routes
    # differed in sign here too (40 vs -40)
    with pytest.raises(InvalidWallError, match="u.w not integral"):
        WallGeometry.build(p1=-1, q=1, zeta2=-1, zetaK=-1, zetaW=8, w2=9, wK=-5)
    for variant in ((0, 0, 0), (0, -1, 1), (1, -1, -3), (2, 2, 0)):  # u.zeta, u^2, u.K
        zu, u2, uk = variant
        wall = WallGeometry.build(p1=-4, q=2, zeta2=-4, zetaK=4, zetaW=-4 - 2 * zu,
                                  w2=-4 - 4 * zu + 4 * u2, wK=4 - 2 * uk)
        assert wall.sign_wall() == (-1) ** (u2 % 2)
