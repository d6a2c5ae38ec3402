"""Scalar fields with analytic partial derivatives of arbitrary order.

Projection-error seminorms need exact derivatives of both the field and its
polynomial projections, so fields are represented by a partial-derivative
factory (ax, ay) -> callable(points) rather than a bare callable.  The
fields here take points of any leading shape (..., 2), such as the nodes of a
stack of cells, and return (...) values.
"""

from __future__ import annotations

import math

import numpy as np


class ScalarField:
    def __init__(self, partial_factory, name=""):
        self._factory = partial_factory
        self.name = name

    def partial(self, ax: int, ay: int):
        return self._factory(ax, ay)

    def __call__(self, points):
        return self._factory(0, 0)(points)

    def gradient(self, points):
        return np.column_stack([self.partial(1, 0)(points),
                                self.partial(0, 1)(points)])

    def hessian(self, points):
        points = np.asarray(points, dtype=float)
        H = np.empty((len(points), 2, 2))
        H[:, 0, 0] = self.partial(2, 0)(points)
        H[:, 0, 1] = H[:, 1, 0] = self.partial(1, 1)(points)
        H[:, 1, 1] = self.partial(0, 2)(points)
        return H

    def __rmul__(self, c):
        def factory(ax, ay):
            f = self.partial(ax, ay)
            return lambda pts: c * f(pts)
        return ScalarField(factory, name=f"{c}*{self.name}")


def exp_field(a: float, b: float, scale: float = 1.0) -> ScalarField:
    """scale * exp(a x + b y)"""
    def factory(ax, ay):
        c = scale * a ** ax * b ** ay
        return lambda pts: c * np.exp(a * pts[..., 0] + b * pts[..., 1])
    return ScalarField(factory, name=f"exp({a}x+{b}y)")


def wave_field(amps, freqs, phases) -> ScalarField:
    """sum_i amps[i] * sin(freqs[i] . x + phases[i])"""
    amps = np.asarray(amps, dtype=float)
    freqs = np.asarray(freqs, dtype=float)
    phases = np.asarray(phases, dtype=float)

    def factory(ax, ay):
        coef = amps * freqs[:, 0] ** ax * freqs[:, 1] ** ay
        shift = phases + (ax + ay) * math.pi / 2.0

        def ev(pts):
            arg = pts @ freqs.T + shift[None, :]
            return np.sin(arg) @ coef
        return ev
    return ScalarField(factory, name="wave")


def sine_product_field(fx: float = math.pi, fy: float = math.pi) -> ScalarField:
    """sin(fx x) * sin(fy y)"""
    def factory(ax, ay):
        c = fx ** ax * fy ** ay
        sx = ax * math.pi / 2.0
        sy = ay * math.pi / 2.0
        return lambda pts: (c * np.sin(fx * pts[..., 0] + sx)
                            * np.sin(fy * pts[..., 1] + sy))
    return ScalarField(factory, name=f"sin({fx}x)sin({fy}y)")


def constant_field(c: float) -> ScalarField:
    def factory(ax, ay):
        if ax == 0 and ay == 0:
            return lambda pts: np.full(np.shape(pts)[:-1], float(c))
        return lambda pts: np.zeros(np.shape(pts)[:-1])
    return ScalarField(factory, name=f"{c}")


def monomial_field(ex: int, ey: int) -> ScalarField:
    """x^ex * y^ey with exact derivatives"""
    def factory(ax, ay):
        if ax > ex or ay > ey:
            return lambda pts: np.zeros(np.shape(pts)[:-1])
        c = (math.factorial(ex) // math.factorial(ex - ax)) \
            * (math.factorial(ey) // math.factorial(ey - ay))
        return lambda pts: c * pts[..., 0] ** (ex - ax) * pts[..., 1] ** (ey - ay)
    return ScalarField(factory, name=f"x^{ex}y^{ey}")


def affine_field(c: float, a: float, b: float) -> ScalarField:
    """c + a x + b y"""
    def factory(ax, ay):
        if ax == 0 and ay == 0:
            return lambda pts: c + a * pts[..., 0] + b * pts[..., 1]
        if (ax, ay) == (1, 0):
            return lambda pts: np.full(np.shape(pts)[:-1], float(a))
        if (ax, ay) == (0, 1):
            return lambda pts: np.full(np.shape(pts)[:-1], float(b))
        return lambda pts: np.zeros(np.shape(pts)[:-1])
    return ScalarField(factory, name=f"{c}+{a}x+{b}y")


def random_wave_field(rng: np.random.Generator, nterms: int = 3,
                      freq_scale: float = 3.0) -> ScalarField:
    amps = rng.uniform(-1.0, 1.0, size=nterms)
    freqs = rng.uniform(-freq_scale, freq_scale, size=(nterms, 2))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=nterms)
    return wave_field(amps, freqs, phases)
