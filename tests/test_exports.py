"""The package exports only what it defines, and keeps no test oracle.

Each name in a module's `__all__` must be bound at the top level of that
module's own source (a def, a class or an assignment), not imported from
elsewhere.  The cross-checks the tests compare against live in
tests/oracles.py and are no attribute of any package module.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import nls_implosion
import oracles

MODULES = ["nls_implosion"] + [
    f"nls_implosion.{info.name}"
    for info in pkgutil.iter_modules(nls_implosion.__path__)]

ORACLES = ("taylor_seed_coeffs", "sonic_slope_quadratic_roots", "xi1_poly",
           "grad_b_normal_partI_expanded", "grad_b_normal_partII_expanded",
           "nls_rhs_complex", "nls_rhs_polar", "dense_bump",
           "dense_smooth_step", "dense_cutoff", "mp_cutoff_derivative",
           "sonic_series_fixed", "dissipativity_form")


def _top_level_bindings(module) -> set[str]:
    """Names a module's own source binds at its top level."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", [m for m in MODULES
                                  if hasattr(importlib.import_module(m),
                                             "__all__")])
def test_all_names_are_defined_in_their_module(name):
    module = importlib.import_module(name)
    missing = set(module.__all__) - _top_level_bindings(module)
    assert not missing, f"{name}.__all__ names what it does not define"


@pytest.mark.parametrize("name", MODULES)
def test_no_test_oracle_in_the_package(name):
    module = importlib.import_module(name)
    assert [o for o in ORACLES if hasattr(module, o)] == []


def test_oracles_live_in_the_tests():
    for name in ORACLES:
        assert getattr(oracles, name).__module__ == "oracles"


def test_profile_solver_marches_with_the_in_house_dop853():
    # scipy's solve_ivp is a test oracle only; a stray re-import of it
    # into profile_solver would shadow the in-house integrator
    from nls_implosion import profile_solver
    assert profile_solver.solve_ivp.__module__ == "nls_implosion._dop853"
