"""The package exports only what it defines, and keeps no test oracle.

Each name in a module's `__all__` must be bound at the top level of that
module's own source (a def, a class or an assignment), not imported from
elsewhere, and must be read by some code in src/, bench/ or tools/, or
be on KEEP with the reason it stays.  The cross-checks the tests compare
against live in tests/oracles.py and are no attribute of any package
module.  Within src/, only _fd and selfsimilar_fields read the even
reflection (`reflect`, `reflected_derivative`), so the grid's even
operators keep their one implementation.
"""

import ast
import importlib
import inspect
import pathlib
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
           "sonic_series_fixed", "dissipativity_form", "plain_d1",
           "plain_laplacian", "plain_speed")


ROOT = pathlib.Path(__file__).resolve().parent.parent

#: exported names that no code in src/, bench/ or tools/ reads, each kept
#: on purpose: it states a result of the paper, which its tests check
KEEP = {
    "madelung": "the polar variables v = sqrt(rho) e^(i psi) of the fluid "
                "form",
    "inverse_madelung": "the way back from the polar variables",
    "to_selfsimilar": "the self-similar frame map of the ansatz",
    "from_selfsimilar": "the frame map's inverse",
    "exponent_formula": "the blow-up rate of ||grad^s v||^2 in T - t",
    "fit_decay": "the profile's far-field decay R^(-(r-1)-j)",
    "origin_slope": "the profile's regularity at R = 0",
    "grad_b_normal_partII": "Part II's normal derivative of Xi_2 in closed "
                            "form",
}


def _names_read_in(path: pathlib.Path) -> set[str]:
    """Every name and attribute that the code of one file reads (a def, a
    class, an assignment or an __all__ entry is no read)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Name)
              and not isinstance(node.ctx, ast.Store)):
            names.add(node.id)
    return names


def _read_names() -> set[str]:
    """Every name and attribute that code in src/, bench/ and tools/
    reads."""
    return {name for part in ("src", "bench", "tools")
            for path in (ROOT / part).rglob("*.py")
            for name in _names_read_in(path)}


def _exported() -> dict[str, list[str]]:
    return {m: list(getattr(importlib.import_module(m), "__all__", []))
            for m in MODULES}


def test_every_export_has_a_reader_or_a_reason():
    read = _read_names()
    unread = {f"{m}.{name}" for m, names in _exported().items()
              for name in names if name not in read and name not in KEEP}
    assert not unread, f"exported, read by nothing, not on KEEP: {unread}"


def test_keep_names_only_exports():
    exported = {name for names in _exported().values() for name in names}
    assert set(KEEP) <= exported


def test_one_module_reads_the_kept_reflection():
    # the even operators on a grid have one implementation, the stage
    # workspace in selfsimilar_fields; _fd defines the reflection and the
    # pass over it, and no other module of src/ reads either name
    readers = {path.stem for path in (ROOT / "src").rglob("*.py")
               if {"reflect", "reflected_derivative"}
               & _names_read_in(path)}
    assert readers <= {"_fd", "selfsimilar_fields"}, readers
    assert "selfsimilar_fields" in readers


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
