import math

import numpy as np
import pytest

from hho import cli
from hho import law as law_mod
from hho.law import (INEQUALITY_IDS, REL_TOL, applicable_inequalities,
                     check_all_inequalities, check_inequality, jacobian_check,
                     p_laplacian, power_weight)

X0 = np.zeros((1, 2))


def test_p2_flux_is_identity():
    law = p_laplacian(2.0)
    rng = np.random.default_rng(0)
    xi = rng.standard_normal((50, 2)) * 10.0 ** rng.uniform(-3, 3, (50, 1))
    assert np.allclose(law.flux(np.zeros_like(xi), xi), xi, rtol=0, atol=0)
    J = law.flux_jacobian(np.zeros_like(xi), xi)
    assert np.allclose(J, np.eye(2), rtol=0, atol=0)


def test_p4_flux_example():
    law = p_laplacian(4.0)
    xi = np.array([[math.sqrt(3.0), 1.0]])
    out = law.flux(X0, xi)
    assert np.allclose(out, 4.0 * xi, rtol=1e-15)


def test_p74_flux_example():
    law = p_laplacian(1.75)
    xi = np.array([[3.0, 4.0]])
    out = law.flux(X0, xi)
    assert np.allclose(out, 5.0 ** (-0.25) * xi, rtol=1e-15)


@pytest.mark.parametrize("p", [1.5, 1.75, 2.0, 3.0, 4.0])
def test_growth_and_coercivity_are_exact(p):
    # |a(xi)| = beta |xi|^{p-1} and a(xi).xi = lam |xi|^p with beta = lam = 1
    law = p_laplacian(p)
    assert law.beta == 1.0 and law.lam == 1.0
    rng = np.random.default_rng(7)
    xi = rng.standard_normal((200, 2)) * 10.0 ** rng.uniform(-2, 2, (200, 1))
    a = law.flux(np.zeros_like(xi), xi)
    n = np.hypot(xi[:, 0], xi[:, 1])
    assert np.allclose(np.hypot(a[:, 0], a[:, 1]), n ** (p - 1.0), rtol=1e-13)
    assert np.allclose(np.sum(a * xi, axis=1), n ** p, rtol=1e-13)


@pytest.mark.parametrize("p", [1.75, 3.0])
def test_positive_homogeneity(p):
    law = p_laplacian(p)
    rng = np.random.default_rng(11)
    xi = rng.standard_normal((100, 2))
    for t in (0.01, 3.0, 250.0):
        lhs = law.flux(np.zeros_like(xi), t * xi)
        rhs = t ** (p - 1.0) * law.flux(np.zeros_like(xi), xi)
        assert np.allclose(lhs, rhs, rtol=1e-12)


@pytest.mark.parametrize("p", [1.5, 1.75, 2.0, 3.0, 4.0])
def test_monotone_on_random_pairs(p):
    law = p_laplacian(p)
    rng = np.random.default_rng(21)
    xi = rng.standard_normal((500, 2)) * 10.0 ** rng.uniform(-2, 2, (500, 1))
    eta = rng.standard_normal((500, 2)) * 10.0 ** rng.uniform(-2, 2, (500, 1))
    dxi = xi - eta
    da = law.flux(np.zeros_like(xi), xi) - law.flux(np.zeros_like(xi), eta)
    assert np.min(np.sum(da * dxi, axis=1)) >= 0.0


def test_zero_gradient_conventions():
    law = p_laplacian(1.75)
    z = np.zeros((1, 2))
    assert np.all(law.flux(X0, z) == 0.0)
    assert np.all(law.flux(X0, z, eps=0.0) == 0.0)
    assert np.all(law.flux_jacobian(X0, z) == 0.0)
    # regularized jacobian at the origin is finite and isotropic
    J = law.flux_jacobian(X0, z, eps=1e-3)
    assert np.allclose(J[0], (1e-3) ** (-0.25) * np.eye(2), rtol=1e-12)


def test_energy_density_matches_flux():
    # d/dt |t xi|^p / p = a(t xi) . xi at t = 1
    law = p_laplacian(3.0)
    rng = np.random.default_rng(5)
    xi = rng.standard_normal((40, 2))
    h = 1e-6
    num = (law.energy_density((1 + h) * xi) - law.energy_density((1 - h) * xi)) / (2 * h)
    ana = np.sum(law.flux(np.zeros_like(xi), xi) * xi, axis=1)
    assert np.allclose(num, ana, rtol=1e-8)


@pytest.mark.parametrize("p", [1.75, 3.0])
@pytest.mark.parametrize("eps", [0.0, 1e-8])
def test_jacobian_matches_finite_differences(p, eps):
    law = p_laplacian(p)
    assert jacobian_check(law, n=200, seed=0, eps=eps) <= 1e-5


def test_rejects_degenerate_exponent():
    with pytest.raises(ValueError):
        p_laplacian(1.0)
    with pytest.raises(ValueError):
        p_laplacian(0.5)
    for p in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            p_laplacian(p)


def test_conjugate_exponent():
    assert p_laplacian(4.0).p_conjugate == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert p_laplacian(2.0).p_conjugate == 2.0


def test_applicable_inequality_sets():
    assert applicable_inequalities(1.75) == ["alip_p2", "amon_p2m", "mon1d_lt2"]
    assert applicable_inequalities(3.0) == ["amon_p2p", "mon1d_ge2"]
    assert set(applicable_inequalities(2.0)) == set(INEQUALITY_IDS)


def test_inequality_id_guards():
    law = p_laplacian(1.75)
    with pytest.raises(ValueError):
        check_inequality(law, "nope")
    with pytest.raises(ValueError):
        check_inequality(law, "mon1d_ge2")   # needs p >= 2
    with pytest.raises(ValueError):
        check_inequality(p_laplacian(3.0), "alip_p2")


@pytest.mark.parametrize("p", [1.75, 2.0, 3.0, 4.0])
def test_inequality_suites_pass(p):
    # smaller sample here; the full-size run lives in the acceptance suite
    law = p_laplacian(p)
    reports = check_all_inequalities(law, n=10_000, seed=99)
    assert [r.ineq_id for r in reports] == applicable_inequalities(p)
    for r in reports:
        assert r.passed, (r.ineq_id, r.max_violation)
        assert r.max_violation <= REL_TOL
        assert r.n_samples >= 10_000


@pytest.mark.parametrize("p, seed, ineq_id, tighten", [
    # the tight p < 2 constant is the limit eta -> xi: calibrated farther
    # from it than the validation pairs come, it fails these seeds
    (1.25, 12345, "mon1d_lt2", 0.0), (1.25, 1, "mon1d_lt2", 0.0),
    (1.5, 23, "mon1d_lt2", 0.0), (1.75, 1, "mon1d_lt2", 0.0),
    (1.9, 4, "mon1d_lt2", 0.0),
    # a constant 1e-6 tighter than calibrated is caught
    (1.25, 12345, "mon1d_lt2", 1e-6), (1.75, 12345, "mon1d_lt2", 1e-6),
    (3.0, 12345, "mon1d_ge2", 1e-6)])
def test_calibration_is_tight_and_clears_the_validation_floor(
        monkeypatch, p, seed, ineq_id, tighten):
    if tighten:
        calibrate = law_mod._calibrate

        def tightened(ratio, rng, n, maximize, line=False):
            c = calibrate(ratio, rng, n, maximize, line)
            return c * (1.0 - tighten if maximize else 1.0 + tighten)
        monkeypatch.setattr(law_mod, "_calibrate", tightened)
    rep = check_inequality(p_laplacian(p), ineq_id, seed=seed)
    if tighten:
        assert 0.9 * tighten < rep.max_violation <= tighten
        assert not rep.passed
    else:
        assert rep.passed, rep.max_violation
        assert cli.main(["check-laws", "--p", str(p), "--seed", str(seed)]) == 0


def test_calibrated_constants_are_recorded():
    rep = check_inequality(p_laplacian(3.0), "amon_p2p", n=5000, seed=3)
    assert rep.constants["zeta"] == pytest.approx(0.5, rel=1e-6)
    d = rep.to_dict()
    assert d["ineq_id"] == "amon_p2p"
    assert d["p"] == 3.0
    assert isinstance(d["constants"], dict)


def test_lipschitz_constant_formula_used():
    rep = check_inequality(p_laplacian(1.75), "alip_p2", n=5000, seed=3)
    g, b = rep.constants["gamma"], rep.constants["beta"]
    assert rep.constants["C"] == pytest.approx(2 * g + 2 ** 0.75 * b + b, rel=1e-14)


def _flux_jacobian_by_outer_product(p, xi, eps):
    """Reference: w I + (p - 2) w4 xi xi^T."""
    n2 = xi[..., 0] ** 2 + xi[..., 1] ** 2 + eps * eps
    w = power_weight(n2, (p - 2.0) / 2.0)
    w4 = power_weight(n2, (p - 4.0) / 2.0)
    outer = xi[..., :, None] * xi[..., None, :]
    return (w[..., None, None] * np.eye(2)
            + (p - 2.0) * w4[..., None, None] * outer)


@pytest.mark.parametrize("p", [1.1, 1.75, 2.0, 3.0, 8.0])
@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_flux_jacobian_equals_outer_product_form(p, eps):
    law = p_laplacian(p)
    rng = np.random.default_rng(17)
    xi = rng.standard_normal((300, 2)) * 10.0 ** rng.uniform(-3, 3, (300, 1))
    xi[::7] = 0.0
    xi[1::11, 0] = 0.0
    for pts in (xi, xi.reshape(20, 15, 2)):
        J = law.flux_jacobian(np.zeros_like(pts), pts, eps)
        assert J.shape == pts.shape + (2,)
        assert np.array_equal(J, _flux_jacobian_by_outer_product(p, pts, eps))
