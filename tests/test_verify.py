"""Every verification check can fail: with one name that it looks up in
``wallcross.verify`` replaced by a wrong version, it reports FAIL with a
counterexample."""

from dataclasses import replace

import pytest

from wallcross import SIGMA, verify

SMALL = verify.Grid(q_max=1, d_max=5, r_max=1, pair_bound=1, sweep_bound=6)


def _shifted(by):
    """Mutant of a delta evaluation: ``by(*args)`` added to its value."""
    def mutate(fn):
        def mutant(*args, **kwargs):
            out = fn(*args, **kwargs)
            return replace(out, value=out.value + by(*args))
        return mutant
    return mutate


def _sigma_k(model, *rest):
    return model.pair(SIGMA, "K")


def _one(*args):
    return 1


def _negated(fn):
    return lambda *args: -fn(*args)


def _n_plus_off_by_one(fn):
    def mutant(*args):
        params = fn(*args)
        return params._replace(n_plus=params.n_plus + 1)
    return mutant


def _with_omega(fn):
    return lambda model: fn(model) + model.omega_class()


def _doubled(fn):
    return lambda *args: fn(*args) * 2


# (check, name the check looks up in wallcross.verify, mutant of that name)
MUTANTS = [
    ("identities", "wall_sign", _negated),
    ("identities", "wall_params", _n_plus_off_by_one),
    ("axioms", "e_alpha", _with_omega),
    ("oracle-l0", "delta_oracle_l0", _shifted(_sigma_k)),
    ("oracle-l1", "delta_oracle_l1", _shifted(_sigma_k)),
    ("odd-words", "delta_l0_odd", _shifted(_one)),
    ("segre", "segre_det_recursive", _doubled),
    ("leading", "delta_leading", _shifted(_one)),
    ("hidden-data", "delta_oracle_l0", _shifted(_sigma_k)),
    ("scale", "delta_oracle_l0", _shifted(_sigma_k)),
    ("simple-type", "delta_l1", _shifted(_one)),
    ("component-branch", "delta_oracle_l0", _shifted(_sigma_k)),
]


def test_every_check_has_a_mutant():
    assert {check for check, _, _ in MUTANTS} == set(verify.ALL_CHECKS)


@pytest.mark.parametrize("check, name, mutate", MUTANTS,
                         ids=[f"{check}-{name}" for check, name, _ in MUTANTS])
def test_check_fails_under_mutant(check, name, mutate, monkeypatch):
    monkeypatch.setattr(verify, name, mutate(getattr(verify, name)))
    result = verify.ALL_CHECKS[check](SMALL)
    assert not result.passed
    assert result.points >= 1 and result.detail
    assert result.line().startswith("FAIL ")
