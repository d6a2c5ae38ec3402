"""Leray-Lions constitutive laws and their structural-inequality checks.

The flux a(x, xi) and its Jacobian are vectorized over sample points.  The
inequality suite calibrates each constant as the extremum of its ratio over
one scan of the pairs modulo rotation and scaling, reaching to 1e-6 of the
diagonal, plus a random sample; the 1-D inequalities are the same pairs on
the x axis.  It then validates the inequality on a fresh sample whose pairs
are at least SEPARATION apart; reports carry the max relative violation.  No
optimizer is involved.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

REL_TOL = 1e-12
# The random samples leave out pairs closer than this times the larger of
# the two: nearer the diagonal the sides of an inequality cancel, and their
# roundoff, about 1e-16 / SEPARATION relative, would approach REL_TOL.  The
# scan goes on to 1e-6 of the diagonal, so each constant is calibrated
# nearer the limit than anything it is checked on.
SEPARATION = 1e-3


@dataclass(eq=False)
class LerayLionsLaw:
    p: float
    name: str
    flux: Callable                      # (x, xi, eps=0) -> (n, 2)
    flux_jacobian: Callable             # (x, xi, eps=0) -> (n, 2, 2)
    beta: float | None = None           # growth constant, exact if known
    lam: float | None = None            # coercivity constant, exact if known
    family: Callable | None = None      # p -> law, for continuation
    energy_density: Callable | None = None   # xi -> scalar potential, if any

    @property
    def p_conjugate(self) -> float:
        return self.p / (self.p - 1.0)


def power_weight(n2: np.ndarray, expo: float) -> np.ndarray:
    """n2 ** expo with 0 ** negative = 0 (limit of w * xi forms): the
    p-power weight of both the flux and the face stabilization."""
    if expo >= 0:
        return n2 ** expo
    return np.power(n2, expo, out=np.zeros_like(n2), where=n2 > 0)


def p_laplacian(p: float) -> LerayLionsLaw:
    """a(xi) = |xi|^{p-2} xi; eps > 0 replaces |xi|^2 by |xi|^2 + eps^2."""
    if not 1 < p < math.inf:
        raise ValueError("p must be finite and exceed 1")

    def flux(x, xi, eps=0.0):
        xi = np.asarray(xi, dtype=float)
        n2 = xi[..., 0] ** 2 + xi[..., 1] ** 2 + eps * eps
        w = power_weight(n2, (p - 2.0) / 2.0)
        return w[..., None] * xi

    def flux_jacobian(x, xi, eps=0.0):
        xi = np.asarray(xi, dtype=float)
        n2 = xi[..., 0] ** 2 + xi[..., 1] ** 2 + eps * eps
        w = power_weight(n2, (p - 2.0) / 2.0)
        w4 = (p - 2.0) * power_weight(n2, (p - 4.0) / 2.0)
        x0, x1 = xi[..., 0], xi[..., 1]
        J = np.empty(xi.shape + (2,))
        J[..., 0, 0] = w + w4 * (x0 * x0)
        J[..., 1, 1] = w + w4 * (x1 * x1)
        J[..., 0, 1] = J[..., 1, 0] = w4 * (x0 * x1)
        return J

    def energy_density(xi):
        xi = np.asarray(xi, dtype=float)
        n = np.hypot(xi[..., 0], xi[..., 1])
        return n ** p / p

    return LerayLionsLaw(p=p, name=f"p-laplacian(p={p})", flux=flux,
                         flux_jacobian=flux_jacobian, beta=1.0, lam=1.0,
                         family=p_laplacian, energy_density=energy_density)


def jacobian_check(law: LerayLionsLaw, n: int = 200, seed: int = 0,
                   eps: float = 0.0) -> float:
    """Max relative deviation of the flux Jacobian from central differences."""
    rng = np.random.default_rng(seed)
    mag = 10.0 ** rng.uniform(-3, 3, size=n)
    if law.p < 2:
        mag = np.maximum(mag, 1e-6)
    ang = rng.uniform(0, 2 * math.pi, size=n)
    xi = np.column_stack([mag * np.cos(ang), mag * np.sin(ang)])
    x = np.zeros_like(xi)
    J = law.flux_jacobian(x, xi, eps)
    worst = 0.0
    h = 1e-6 * (mag + 1.0)
    for j in range(2):
        d = np.zeros_like(xi)
        d[:, j] = h
        col = (law.flux(x, xi + d, eps) - law.flux(x, xi - d, eps)) / (2 * h[:, None])
        num = np.abs(col - J[:, :, j]).max(axis=1)
        den = np.maximum(np.abs(J).reshape(n, -1).max(axis=1), 1e-12)
        worst = max(worst, float((num / den).max()))
    return worst


# ---------------------------------------------------------------------------
# structural inequalities


@dataclass
class InequalityReport:
    law: str
    p: float
    ineq_id: str
    n_samples: int
    constants: dict
    max_violation: float     # max over the fresh sample of (LHS-RHS)/max(|LHS|,|RHS|)
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


INEQUALITY_IDS = ("alip_p2", "amon_p2m", "amon_p2p", "mon1d_lt2", "mon1d_ge2")


def applicable_inequalities(p: float) -> list[str]:
    ids = []
    if p <= 2:
        ids += ["alip_p2", "amon_p2m", "mon1d_lt2"]
    if p >= 2:
        ids += ["amon_p2p", "mon1d_ge2"]
    return ids


def _pair_sample(rng, n, line=False):
    """n pairs of magnitudes 10^U(-2, 2) at uniform angles (on the x axis if
    `line`), redrawn where a pair is closer than SEPARATION times its larger."""
    xi = eta = np.empty((0, 2))
    while len(xi) < n:
        mag = 10.0 ** rng.uniform(-2, 2, size=(n - len(xi), 2))
        ang = rng.uniform(0, 2 * math.pi, size=mag.shape)
        c, s = np.cos(ang), np.sin(ang)
        if line:
            c, s = np.sign(c), np.zeros_like(s)
        pts = mag[..., None] * np.stack([c, s], axis=-1)
        keep = np.hypot(*(pts[:, 0] - pts[:, 1]).T) > SEPARATION * mag.max(axis=1)
        xi = np.concatenate([xi, pts[keep, 0]])
        eta = np.concatenate([eta, pts[keep, 1]])
    return xi, eta


def _scan(line=False):
    """The pair space modulo rotation and scaling: xi = e_1, eta = t R(theta)
    e_1 with theta in [0, pi] ({0, pi} if `line`).  t = 1 -/+ 10^-j reaches
    toward eta -> xi, where the p < 2 extrema sit."""
    near = 10.0 ** -np.arange(1.0, 7.0)
    ts = np.concatenate([10.0 ** np.linspace(-3, 3, 401), [1.0], 1.0 - near,
                         1.0 + near])
    angs = np.linspace(0.0, math.pi, 2 if line else 181)
    c, s = np.cos(angs), np.sin(angs)
    if line:
        c, s = np.sign(c), np.zeros_like(s)
    eta = (ts[:, None, None] * np.stack([c, s], axis=-1)).reshape(-1, 2)
    xi = np.zeros_like(eta)
    xi[:, 0] = 1.0
    keep = np.any(xi != eta, axis=1)
    return xi[keep], eta[keep]


def _calibrate(ratio, rng, n, maximize, line=False):
    """The extremum of ratio(xi, eta) over the scan and n random pairs."""
    r = np.concatenate([ratio(*_scan(line)), ratio(*_pair_sample(rng, n, line))])
    return float(r.max() if maximize else r.min())


def _mono(law, xi, eta):
    x = np.zeros_like(xi)
    d = law.flux(x, xi) - law.flux(x, eta)
    return np.maximum((d * (xi - eta)).sum(axis=1), 0.0)


def _gamma_ratio(law, xi, eta):
    # |a(xi)-a(eta)| / (|xi-eta| (|xi|^{p-2} + |eta|^{p-2}))
    x = np.zeros_like(xi)
    num = np.hypot(*(law.flux(x, xi) - law.flux(x, eta)).T)
    nxi = np.hypot(*xi.T)
    neta = np.hypot(*eta.T)
    wp = power_weight(nxi ** 2, (law.p - 2) / 2) + power_weight(neta ** 2, (law.p - 2) / 2)
    den = np.hypot(*(xi - eta).T) * wp
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    if law.p < 2:   # |0|^{p-2} = inf makes the ratio 0 at the origin
        r[(nxi == 0) | (neta == 0)] = 0.0
    return r


def _zeta_ratio(law, xi, eta):
    # mono / (|xi-eta|^2 (|xi|+|eta|)^{p-2})
    num = _mono(law, xi, eta)
    s = np.hypot(*xi.T) + np.hypot(*eta.T)
    den = np.hypot(*(xi - eta).T) ** 2 * power_weight(s ** 2, (law.p - 2) / 2)
    ok = den > 0
    return num[ok] / den[ok]


def _mon1d_sides(law, xi, eta, lt2: bool):
    """|xi - eta|^p and the right-hand side of the 1-D inequality without its
    constant, at every pair on the x axis."""
    p = law.p
    mono = _mono(law, xi, eta)
    lhs = np.hypot(*(xi - eta).T) ** p
    if lt2:
        rest = mono ** (p / 2.0) * (np.hypot(*xi.T) ** p
                                    + np.hypot(*eta.T) ** p) ** ((2.0 - p) / 2.0)
    else:
        rest = mono
    return lhs, rest


def _mon1d_ratio(law, xi, eta, lt2: bool):
    lhs, rest = _mon1d_sides(law, xi, eta, lt2)
    ok = rest > 0
    return lhs[ok] / rest[ok]


def _rel_violation(lhs, rhs):
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return float(np.max((lhs - rhs) / scale, initial=-math.inf))


def check_inequality(law: LerayLionsLaw, ineq_id: str, n: int = 100_000,
                     seed: int = 12345) -> InequalityReport:
    """Calibrate the inequality's constant, then validate on a fresh sample."""
    p = law.p
    if ineq_id not in INEQUALITY_IDS:
        raise ValueError(f"unknown inequality {ineq_id!r}")
    if ineq_id not in applicable_inequalities(p):
        raise ValueError(f"{ineq_id} does not apply at p={p}")
    rng_cal = np.random.default_rng(seed)
    rng_val = np.random.default_rng(seed + 1)
    constants: dict = {}

    if ineq_id == "alip_p2":
        gamma = _calibrate(lambda a, b: _gamma_ratio(law, a, b), rng_cal, n,
                           maximize=True)
        beta = law.beta if law.beta is not None else 1.0
        C = 2.0 * gamma + 2.0 ** (p - 1.0) * beta + beta
        constants = {"gamma": gamma, "beta": beta, "C": C}
        xi, eta = _pair_sample(rng_val, n)
        x = np.zeros_like(xi)
        lhs = np.hypot(*(law.flux(x, xi) - law.flux(x, eta)).T)
        rhs = C * np.hypot(*(xi - eta).T) ** (p - 1.0)
    elif ineq_id in ("amon_p2m", "amon_p2p"):
        zeta = _calibrate(lambda a, b: _zeta_ratio(law, a, b), rng_cal, n,
                          maximize=False)
        constants = {"zeta": zeta}
        xi, eta = _pair_sample(rng_val, n)
        lhs = np.hypot(*(xi - eta).T) ** p
        mono = _mono(law, xi, eta)
        if ineq_id == "amon_p2p":
            rhs = mono / zeta
        else:
            nxi = np.hypot(*xi.T)
            neta = np.hypot(*eta.T)
            rhs = (zeta ** (-p / 2.0) * 2.0 ** ((p - 1.0) * (2.0 - p) / 2.0)
                   * mono ** (p / 2.0) * (nxi ** p + neta ** p) ** ((2.0 - p) / 2.0))
    else:
        lt2 = ineq_id == "mon1d_lt2"
        C = _calibrate(lambda a, b: _mon1d_ratio(law, a, b, lt2), rng_cal, n,
                       maximize=True, line=True)
        constants = {"C": C}
        lhs, rest = _mon1d_sides(law, *_pair_sample(rng_val, n, line=True), lt2)
        rhs = C * rest

    viol = _rel_violation(lhs, rhs)
    return InequalityReport(law=law.name, p=p, ineq_id=ineq_id,
                            n_samples=len(lhs), constants=constants,
                            max_violation=viol, passed=viol <= REL_TOL)


def check_all_inequalities(law: LerayLionsLaw, n: int = 100_000,
                           seed: int = 12345) -> list[InequalityReport]:
    return [check_inequality(law, iid, n=n, seed=seed)
            for iid in applicable_inequalities(law.p)]
