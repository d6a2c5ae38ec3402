"""Leray-Lions constitutive laws and their structural-inequality checks.

The flux a(x, xi) and its Jacobian are vectorized over sample points.  The
inequality suite calibrates each constant from a structured scan (polished to
the extremum) plus random samples, then validates the inequality on a fresh
sample; reports carry the max relative violation.  The calibration loads
`scipy.optimize` on first use, so the solve path never does.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

REL_TOL = 1e-12


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
    out = np.zeros_like(n2)
    nz = n2 > 0
    out[nz] = n2[nz] ** expo
    return out


def p_laplacian(p: float) -> LerayLionsLaw:
    """a(xi) = |xi|^{p-2} xi; eps > 0 replaces |xi|^2 by |xi|^2 + eps^2."""
    if not p > 1:
        raise ValueError("p must exceed 1")

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


def _pair_sample(rng, n):
    mag = 10.0 ** rng.uniform(-2, 2, size=(n, 2))
    ang = rng.uniform(0, 2 * math.pi, size=(n, 2))
    xi = np.column_stack([mag[:, 0] * np.cos(ang[:, 0]), mag[:, 0] * np.sin(ang[:, 0])])
    eta = np.column_stack([mag[:, 1] * np.cos(ang[:, 1]), mag[:, 1] * np.sin(ang[:, 1])])
    keep = np.hypot(*(xi - eta).T) > 1e-10 * np.maximum(mag[:, 0], mag[:, 1])
    return xi[keep], eta[keep]


def _structured_pairs(nt=401, na=181):
    # quotient of pair space by rotation and scaling: xi = e_1, eta = t R(theta) e_1
    ts = np.concatenate([10.0 ** np.linspace(-3, 3, nt), [1.0]])
    angs = np.linspace(0.0, math.pi, na)
    T, A = np.meshgrid(ts, angs, indexing="ij")
    xi = np.zeros((T.size, 2))
    xi[:, 0] = 1.0
    eta = np.column_stack([(T * np.cos(A)).ravel(), (T * np.sin(A)).ravel()])
    keep = np.hypot(*(xi - eta).T) > 1e-12
    return xi[keep], eta[keep]


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


def _polish_pair_extremum(ratio_fn, xi0, eta0, maximize):
    # imported here, not at module level: the solve path imports this module
    # and must not load the optimizer (about 13 MiB and 0.2 s per process)
    from scipy.optimize import minimize

    # refine over (log t, theta) around the best structured grid point
    t0 = max(np.hypot(*eta0), 1e-8)
    th0 = math.atan2(eta0[1], eta0[0])

    def obj(z):
        t = math.exp(z[0])
        eta = np.array([[t * math.cos(z[1]), t * math.sin(z[1])]])
        xi = np.array([[1.0, 0.0]])
        r = ratio_fn(xi, eta)
        if len(r) == 0 or not np.isfinite(r[0]):
            return 0.0
        return -r[0] if maximize else r[0]

    res = minimize(obj, x0=[math.log(t0), th0], method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 400})
    return -res.fun if maximize else res.fun


def _calibrate_pair_constant(law, ratio_fn, rng, n, maximize):
    xi_s, eta_s = _structured_pairs()
    r_s = ratio_fn(xi_s, eta_s)
    xi_r, eta_r = _pair_sample(rng, n)
    r_r = ratio_fn(xi_r, eta_r)
    if maximize:
        best = max(float(np.max(r_s)), float(np.max(r_r)))
        i = int(np.argmax(r_s))
    else:
        best = min(float(np.min(r_s)), float(np.min(r_r)))
        i = int(np.argmin(r_s))
    polished = _polish_pair_extremum(ratio_fn, xi_s[i], eta_s[i], maximize)
    if np.isfinite(polished):
        best = max(best, polished) if maximize else min(best, polished)
    return best


def _scalar_flux(law, t):
    xi = np.column_stack([t, np.zeros_like(t)])
    return law.flux(np.zeros_like(xi), xi)[:, 0]


def _scalar_sample(rng, n):
    mag = 10.0 ** rng.uniform(-2, 2, size=(n, 2))
    sgn = rng.choice([-1.0, 1.0], size=(n, 2))
    t = mag[:, 0] * sgn[:, 0]
    r = mag[:, 1] * sgn[:, 1]
    keep = np.abs(t - r) > 1e-10 * np.maximum(mag[:, 0], mag[:, 1])
    return t[keep], r[keep]


def _mon1d_sides(law, t, r, lt2: bool):
    """|t - r|^p and the right-hand side of the 1-D inequality without its
    constant, at every pair."""
    a_t = _scalar_flux(law, t)
    a_r = _scalar_flux(law, r)
    mono = np.maximum((a_t - a_r) * (t - r), 0.0)
    lhs = np.abs(t - r) ** law.p
    if lt2:
        rest = mono ** (law.p / 2.0) * (np.abs(t) ** law.p
                                        + np.abs(r) ** law.p) ** ((2.0 - law.p) / 2.0)
    else:
        rest = mono
    return lhs, rest


def _mon1d_ratio(law, t, r, lt2: bool):
    lhs, rest = _mon1d_sides(law, t, r, lt2)
    ok = rest > 0
    return lhs[ok] / rest[ok]


def _calibrate_scalar_constant(law, rng, n, lt2) -> float:
    from scipy.optimize import minimize_scalar

    # scale invariance: fix t = 1, scan r in [-1, 1]; polish local maxima
    qs = np.linspace(-1.0, 1.0, 20001)
    lhs, rest = _mon1d_sides(law, np.ones_like(qs), qs, lt2)
    with np.errstate(divide="ignore", invalid="ignore"):
        full = np.where(rest > 0, lhs / np.where(rest > 0, rest, 1.0), 0.0)
    best = float(np.max(full))

    def neg_ratio(q):
        r = _mon1d_ratio(law, np.array([1.0]), np.array([q]), lt2)
        return -r[0] if len(r) and np.isfinite(r[0]) else 0.0

    # polish around each local maximum of the scan
    cand = np.nonzero((full[1:-1] >= full[:-2]) & (full[1:-1] >= full[2:]))[0] + 1
    order = cand[np.argsort(full[cand])][::-1][:5]
    for i in order:
        lo, hi = qs[max(i - 2, 0)], qs[min(i + 2, len(qs) - 1)]
        res = minimize_scalar(neg_ratio, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-14})
        if np.isfinite(res.fun):
            best = max(best, -float(res.fun))
    ts, rs = _scalar_sample(rng, n)
    sample = _mon1d_ratio(law, ts, rs, lt2)
    if len(sample):
        best = max(best, float(np.max(sample)))
    return best


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
        gamma = _calibrate_pair_constant(law, lambda a, b: _gamma_ratio(law, a, b),
                                         rng_cal, n, maximize=True)
        beta = law.beta if law.beta is not None else 1.0
        C = 2.0 * gamma + 2.0 ** (p - 1.0) * beta + beta
        constants = {"gamma": gamma, "beta": beta, "C": C}
        xi, eta = _pair_sample(rng_val, n)
        x = np.zeros_like(xi)
        lhs = np.hypot(*(law.flux(x, xi) - law.flux(x, eta)).T)
        rhs = C * np.hypot(*(xi - eta).T) ** (p - 1.0)
    elif ineq_id in ("amon_p2m", "amon_p2p"):
        zeta = _calibrate_pair_constant(law, lambda a, b: _zeta_ratio(law, a, b),
                                        rng_cal, n, maximize=False)
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
        C = _calibrate_scalar_constant(law, rng_cal, n, lt2)
        constants = {"C": C}
        lhs, rest = _mon1d_sides(law, *_scalar_sample(rng_val, n), lt2)
        rhs = C * rest

    viol = _rel_violation(lhs, rhs)
    return InequalityReport(law=law.name, p=p, ineq_id=ineq_id,
                            n_samples=len(lhs), constants=constants,
                            max_violation=viol, passed=viol <= REL_TOL)


def check_all_inequalities(law: LerayLionsLaw, n: int = 100_000,
                           seed: int = 12345) -> list[InequalityReport]:
    return [check_inequality(law, iid, n=n, seed=seed)
            for iid in applicable_inequalities(law.p)]
