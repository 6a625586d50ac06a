"""Shared fixtures.

The solved r = 2.01 profile is the workhorse input for the solver,
verifier, and acceptance tests; solving takes a fraction of a second but
there is no reason to repeat it per test.

simulate keeps the last reference run it has stepped; every test starts
without it, so a test that patches a part of the stepper
(profile_operator, _rhs, _advance or derivative) steps both runs.
Likewise every test starts with an empty dissipativity-probe store, so a
test that patches a part of the probe sees it assemble its form.
"""

import pytest

from nls_implosion import dynamics_lab
from nls_implosion.phase_portrait import ProfileParams
from nls_implosion.profile_solver import solve_profile, to_physical


@pytest.fixture(scope="session")
def params_r201():
    return ProfileParams(r=2.01)


@pytest.fixture(scope="session")
def profile_r201(params_r201):
    """Converged physical profile table at the reference scaling r = 2.01."""
    return to_physical(solve_profile(params_r201))


@pytest.fixture(scope="session")
def profile_r201_wide(params_r201):
    """The r = 2.01 table on xi <= 12.6 at 8192 points: coverage out to
    x = 2/3 at s = 12 needs the far tail of the profile."""
    return to_physical(solve_profile(params_r201, xi_max=12.6,
                                     n_points=8192))


@pytest.fixture(autouse=True)
def no_stored_reference_run():
    dynamics_lab._reference_run = None


@pytest.fixture(autouse=True)
def empty_probe_store():
    dynamics_lab._probe_workspace.cache_clear()
