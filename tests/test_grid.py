"""Tests for RadialGrid: its two constructors, the stretched map
R = c sinh(x/c) with its chain-rule derivatives and quadrature, the
identity map, which must reproduce the uniform-grid operators bit for bit,
and the payload rule that rebuilds a stored grid."""

import json

import numpy as np
import pytest

from nls_implosion._fd import derivative
from nls_implosion.errors import DomainError
from nls_implosion.phase_portrait import ProfileParams
from nls_implosion.selfsimilar_fields import (
    FieldSet,
    RadialGrid,
    radial_laplacian,
    to_selfsimilar,
)

D = 8


def gauss(R):
    """f = e^{-R^2} with f_R, f_RR and the d = 8 Laplacian in closed form."""
    f = np.exp(-R * R)
    f_R = -2.0 * R * f
    f_RR = (4.0 * R * R - 2.0) * f
    return f, f_R, f_RR, f_RR + (D - 1) * (-2.0 * f)


def test_sinh_grid_nodes():
    grid = RadialGrid.sinh(513, 30.0, 4.0)
    assert grid.kind == "sinh"
    assert grid.R[0] == 0.0 and grid.R[-1] == 30.0
    np.testing.assert_allclose(grid.R, 4.0 * np.sinh(grid.x / 4.0),
                               rtol=1e-15, atol=0)
    np.testing.assert_allclose(np.diff(grid.x), grid.h, rtol=1e-12)
    dR = np.diff(grid.R)
    assert np.all(np.diff(dR) > 0)           # spacing grows outward
    assert dR[0] == pytest.approx(grid.h, rel=1e-5)


@pytest.mark.parametrize("which", ["f_R", "f_RR", "lap"])
def test_mapped_derivatives_converge_at_stencil_order(which):
    errors = []
    for n in (129, 257, 513):       # above the round-off floor of f_RR
        grid = RadialGrid.sinh(n, 30.0, 4.0)
        f, f_R, f_RR, lap = gauss(grid.R)
        d1 = grid.d1(f)
        got = {"f_R": d1, "f_RR": grid.d2(f, d1),
               "lap": grid.laplacian(f, d1)}[which]
        want = {"f_R": f_R, "f_RR": f_RR, "lap": lap}[which]
        errors.append(np.max(np.abs(got - want)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 3.7), orders     # fourth-order stencils


def test_mapped_laplacian_centre_limit():
    grid = RadialGrid.sinh(1025, 30.0, 4.0)
    f = gauss(grid.R)[0]
    lap = grid.laplacian(f, grid.d1(f))
    f_xx = derivative(f, grid.h, 2, even=True)
    assert lap[0] == D * f_xx[0]              # R' = 1, R'' = 0 at the centre
    assert lap[0] == pytest.approx(-2.0 * D, rel=1e-8)


@pytest.mark.parametrize("n", [1025, 2048])
def test_mapped_quadrature(n):
    # int_0^inf R^7 e^{-R^2} dR = Gamma(4)/2 = 3; the tail beyond 30 is nil
    grid = RadialGrid.sinh(n, 30.0, 4.0)
    assert grid.quad(np.exp(-grid.R ** 2)) == pytest.approx(3.0, rel=1e-12)
    assert grid.weights @ np.exp(-grid.R ** 2) == pytest.approx(3.0,
                                                                rel=1e-12)


@pytest.mark.parametrize("n", [257, 4096])
def test_identity_map_bit_identical(n):
    R = np.linspace(0.0, 30.0, n)
    h = R[1] - R[0]
    grid = RadialGrid.uniform(n, 30.0)
    np.testing.assert_array_equal(grid.R, R)
    assert grid.kind == "uniform" and grid.h == h
    rng = np.random.default_rng(n)
    f = np.exp(-0.1 * R) * np.cos(R) + 1e-3 * rng.standard_normal((2, n))
    d1 = derivative(f, h, 1, even=True)
    np.testing.assert_array_equal(grid.d1(f), d1)
    d2 = derivative(f, h, 2, even=True)
    np.testing.assert_array_equal(grid.d2(f, d1), d2)
    # the centre limit and f'' + (D-1)/R f', as plain expressions
    lap = np.empty_like(d1)
    lap[..., 0] = D * d2[..., 0]
    lap[..., 1:] = d2[..., 1:] + (D - 1) / R[1:] * d1[..., 1:]
    np.testing.assert_array_equal(grid.laplacian(f, d1), lap)
    np.testing.assert_array_equal(radial_laplacian(f[0], grid), lap[0])
    for m, acc in ((1, 4), (3, 6), (6, 4)):
        np.testing.assert_array_equal(grid.dR(f, m, acc=acc),
                                      derivative(f, h, m, acc=acc))
    np.testing.assert_array_equal(grid.speed(f[0]), np.abs(R + 2.0 * f[0]))
    # the quadrature of the energies and the probe's weight vector
    assert grid.quad(f[0]) == float(np.trapezoid(f[0] * R ** (D - 1), R))
    half_dx = 0.5 * np.diff(R)
    w = np.zeros_like(R)
    w[:-1] += half_dx
    w[1:] += half_dx
    np.testing.assert_array_equal(grid.weights, w * R ** (D - 1))


def test_mapped_operators_are_the_plain_expressions():
    # the stretch's f_RR and Laplacian are assembled in place, but every
    # value keeps the bits of the chain rule written out
    grid = RadialGrid.sinh(513, 30.0, 4.0)
    R, h = grid.R, grid.h
    rng = np.random.default_rng(513)
    f = np.exp(-0.1 * R) * np.cos(R) + 1e-3 * rng.standard_normal((2, 513))
    inv_dR = 1.0 / np.cosh(grid.x / 4.0)
    d1 = derivative(f, h, 1, even=True) * inv_dR
    d2 = ((derivative(f, h, 2, even=True) - R / 16.0 * d1)
          * (inv_dR * inv_dR))
    lap = np.empty_like(d1)
    lap[..., 0] = D * d2[..., 0]
    lap[..., 1:] = d2[..., 1:] + (D - 1) / R[1:] * d1[..., 1:]
    np.testing.assert_array_equal(grid.d1(f), d1)
    np.testing.assert_array_equal(grid.d2(f, d1), d2)
    np.testing.assert_array_equal(grid.laplacian(f, d1), lap)
    np.testing.assert_array_equal(grid.laplacian(f[1], d1[1]), lap[1])
    np.testing.assert_array_equal(grid.speed(f),
                                  np.abs(R + 2.0 * f) * inv_dR)


def test_payload_round_trip_and_refusal():
    grid = RadialGrid.sinh(300, 30.0, 4.0)
    payload = json.loads(json.dumps(grid.payload()))
    assert payload["kind"] == "sinh" and payload["c"] == 4.0
    assert payload["n"] == 300 and payload["R_max"] == 30.0
    assert payload["dR_min"] < payload["dR_max"]
    again = RadialGrid.from_payload(payload, grid.R.copy())
    np.testing.assert_array_equal(again.R, grid.R)
    assert again.h == grid.h
    with pytest.raises(DomainError, match="not the sinh grid"):
        RadialGrid.from_payload(dict(payload, c=3.0), grid.R.copy())
    with pytest.raises(DomainError, match="unknown grid kind"):
        RadialGrid.from_payload(dict(payload, kind="log"), grid.R.copy())


@pytest.mark.parametrize("R", [
    np.linspace(0.5, 3.0, 64),                             # not from 0
    np.concatenate([[0.0], np.logspace(-3.0, 0.5, 63)]),   # not even
    np.zeros(64),                                          # h = 0
], ids=["offset", "log-spaced", "all-zero"])
def test_uniform_header_refuses_other_nodes(R):
    # each loaded before and gave a wrong U (or a NaN one) for Psi = R^2;
    # no API builds a FieldSet on these nodes, so the payload is written
    # by hand, and to_selfsimilar refuses the same nodes as physical x
    payload = {"schema_version": 1, "kind": "fieldset",
               "frame": {"s": 1.5, "grid": {"kind": "uniform", "c": None}},
               "params": {"r": 2.01, "d": D, "p": 3},
               "columns": {"R": R.tolist(), "Psi": (R * R).tolist(),
                           "S": np.ones_like(R).tolist()}}
    # the all-zero column is refused by the constructor, naming R_max
    with pytest.raises(DomainError,
                       match=r"not the uniform grid|R_max = 0\.0;"):
        FieldSet.from_payload(json.loads(json.dumps(payload)))
    with pytest.raises(DomainError, match="x is not a uniform grid from 0"):
        to_selfsimilar(R * R, np.ones_like(R), R, 1.0, 0.0,
                       ProfileParams(r=2.01))


def test_uniform_header_loads_linspace_grids():
    for R_max, n in [(3.0, 2), (3.0, 64), (7.123456, 4097), (1e4, 100001)]:
        R = np.linspace(0.0, R_max, n)
        grid = RadialGrid.from_payload({"kind": "uniform"}, R)
        assert grid.h == R[1] - R[0]


def test_fieldset_on_mapped_grid_round_trips():
    params = ProfileParams(r=2.01)
    grid = RadialGrid.sinh(200, 30.0, 4.0)
    fs = FieldSet.from_Psi_S(params, grid, 1e4, np.exp(-grid.R ** 2),
                             1.0 + 0.1 * np.exp(-grid.R))
    np.testing.assert_array_equal(fs.U, grid.d1(fs.Psi))
    assert fs.grid.h == grid.h
    header = fs.payload()["frame"]
    assert "h" not in header
    assert header["grid"]["kind"] == "sinh" and header["grid"]["c"] == 4.0
    back = FieldSet.from_payload(json.loads(json.dumps(fs.payload())))
    assert back.grid.kind == "sinh" and back.grid.c == 4.0
    np.testing.assert_array_equal(back.R, fs.R)
    np.testing.assert_array_equal(back.U, fs.U)


def test_fieldset_header_without_grid_reads_uniform():
    # snapshots written before grids had maps carry a uniform h instead
    params = ProfileParams(r=2.01)
    grid = RadialGrid.uniform(64, 3.0)
    R = grid.R
    payload = FieldSet.from_Psi_S(params, grid, 1.5, np.exp(-R),
                                  1.0 + 0.1 * R).payload()
    payload["frame"].pop("grid")
    payload["frame"]["h"] = float(R[1] - R[0])
    back = FieldSet.from_payload(payload)
    assert back.grid.kind == "uniform"
    np.testing.assert_array_equal(back.R, R)


@pytest.mark.parametrize("build", [
    lambda: RadialGrid.uniform(1, 30.0),
    lambda: RadialGrid.uniform(256, 0.0),
    lambda: RadialGrid.uniform(256, np.inf),
    lambda: RadialGrid.sinh(1, 30.0, 4.0),
    lambda: RadialGrid.sinh(256, 30.0, 0.0),
    lambda: RadialGrid.sinh(256, 30.0, -4.0),
    lambda: RadialGrid.sinh(256, -30.0, 4.0),
    lambda: RadialGrid.sinh(256, np.nan, 4.0),
], ids=["uniform-n1", "uniform-Rmax0", "uniform-Rmax-inf", "sinh-n1",
        "sinh-c0", "sinh-c-neg", "sinh-Rmax-neg", "sinh-Rmax-nan"])
def test_degenerate_grids_fail_by_name(build):
    with pytest.raises(DomainError, match=r"^n = \d+, R_max = "):
        build()


def test_uniform_payload_rule_is_bit_for_bit():
    # the uniform kind rebuilds its nodes as the sinh kind does, and a
    # node one ulp off is refused
    grid = RadialGrid.uniform(64, 3.0)
    again = RadialGrid.from_payload(grid.payload(), grid.R.copy())
    np.testing.assert_array_equal(again.R, grid.R)
    assert again.h == grid.h
    R = grid.R.copy()
    R[7] = np.nextafter(R[7], np.inf)
    with pytest.raises(DomainError, match="not the uniform grid"):
        RadialGrid.from_payload(grid.payload(), R)
