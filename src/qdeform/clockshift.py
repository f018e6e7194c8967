"""Exact finite realization of the quantum-plane relation PX = qXP.

A Weyl pair at level k in dimension N -- the cyclic shift U and the
clock V = diag(omega^(j*k)) with omega = exp(2*pi*i/N) -- satisfies
V U = e^(i*alpha) U V with alpha = 2*pi*k/N, hence U V = q V U with
q = e^(-i*alpha) = (1 + e^(-i*alpha)) / (1 + e^(i*alpha)).

The scaling path nu = beta*sqrt(alpha + 2*pi*n), mu = sqrt(alpha +
2*pi*n)/beta keeps theta = mu*nu equal to alpha + 2*pi*n by construction
(stored as the pair (alpha, n), never as a rounded product), so the
exchange phase e^(-i*theta) and the tan(theta/2) factor of the identity
prefactor depend on alpha alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .matrixrep import OperatorMatrix

Q_POLE_TOL = 1e-12


@dataclass(frozen=True)
class ClockShiftPair:
    """Weyl pair (U, V) of size dim at level 1 <= level < dim."""

    dim: int
    level: int
    shift: OperatorMatrix  # U: sends basis state j to j+1 (mod dim)
    clock: OperatorMatrix  # V: diag of omega^(j*level)

    @property
    def alpha(self) -> float:
        return 2.0 * math.pi * self.level / self.dim


def _root_of_unity(exponent: int, order: int) -> complex:
    """exp(2*pi*i*exponent/order), exact at the quadrant angles."""
    exponent %= order
    if 4 * exponent % order == 0:
        return (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[4 * exponent // order]
    return cmath.exp(2j * math.pi * exponent / order)


def build_pair(dim: int, level: int) -> ClockShiftPair:
    """Construct the pair; clock phases use exponents reduced mod dim so
    no accuracy is lost at large j*k, and quadrant phases are exact."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    if not 1 <= level < dim:
        raise ValueError(f"level must satisfy 1 <= k < N, got k={level}")
    idx = np.arange(dim)
    shift = np.zeros((dim, dim), dtype=complex)
    shift[(idx + 1) % dim, idx] = 1.0
    clock = np.diag([_root_of_unity(j * level, dim) for j in range(dim)])
    return ClockShiftPair(
        dim=dim, level=level, shift=OperatorMatrix(shift), clock=OperatorMatrix(clock)
    )


def q_from_alpha(alpha: float) -> complex:
    """q = (1 + e^(-i*alpha)) / (1 + e^(i*alpha)); equals e^(-i*alpha), |q| = 1.

    Undefined at alpha = pi (mod 2*pi) where the denominator vanishes.
    """
    den = 1.0 + cmath.exp(1j * alpha)
    if abs(den) <= Q_POLE_TOL:
        raise ValueError(f"q undefined at alpha = pi (mod 2*pi); got alpha={alpha}")
    return (1.0 + cmath.exp(-1j * alpha)) / den


def verify_qplane(pair: ClockShiftPair) -> float:
    """Max entrywise |PX - qXP| with P = U, X = V.

    q is the exchange phase e^(-i*alpha): the value of the quotient
    formula wherever that is defined, and its removable-singularity
    continuation at alpha = pi (even N with k = N/2), where the quotient
    itself is 0/0.
    """
    q = _root_of_unity(-pair.level, pair.dim)
    u, v = pair.shift.mat, pair.clock.mat
    return float(np.max(np.abs(u @ v - q * (v @ u))))


@dataclass(frozen=True)
class ScalingPoint:
    """One step of the large-n limit; mu, nu derived lazily from (alpha, beta, n)."""

    alpha: float
    beta: float
    n: int

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be > 0 and finite, got beta={self.beta}")
        if self.n < 0:
            raise ValueError("n must be >= 0")

    @property
    def theta(self) -> float:
        return self.alpha + 2.0 * math.pi * self.n

    @property
    def mu(self) -> float:
        return math.sqrt(self.theta) / self.beta

    @property
    def nu(self) -> float:
        return self.beta * math.sqrt(self.theta)

    def exchange_phase(self) -> complex:
        """e^(-i*theta) with the 2*pi*n part removed exactly."""
        return cmath.exp(-1j * self.alpha)


def scaling_points(
    alpha: float, beta: float, ns: Sequence[int]
) -> list[ScalingPoint]:
    """The path's points at each requested n.

    alpha is theta mod 2*pi, so it must lie in (-pi, pi]; mu and nu are
    square roots of theta = alpha + 2*pi*n, so no requested n may make
    theta negative.
    """
    if not -math.pi < alpha <= math.pi:
        raise ValueError(f"alpha must lie in (-pi, pi], got alpha={alpha}")
    points = [ScalingPoint(alpha=alpha, beta=beta, n=n) for n in ns]
    for pt in points:
        if pt.theta < 0:
            raise ValueError(
                f"alpha + 2*pi*n must be >= 0, got alpha={alpha} at n={pt.n}"
            )
    return points


def scaling_path(alpha: float, beta: float, n_max: int) -> list[ScalingPoint]:
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return scaling_points(alpha, beta, range(n_max + 1))


def tan_half_deviations(
    alpha: float, ns: Sequence[int], reduced: bool = True
) -> list[float]:
    """|tan((alpha + 2*pi*n)/2) - tan(alpha/2)| for each n.

    With ``reduced=True`` the half-angle is reduced by its exact period
    before evaluation -- (alpha + 2*pi*n)/2 = alpha/2 + pi*n and tan has
    period pi, so the n-dependence drops out before any floating-point
    rounding.  The naive evaluation (``reduced=False``) forms the large
    argument first and loses one digit per decade of n; it is kept for
    comparison.
    """
    if abs(1.0 + math.cos(alpha)) <= Q_POLE_TOL:
        raise ValueError("tan(alpha/2) pole at alpha = pi (mod 2*pi)")
    ref = math.tan(alpha / 2.0)
    out = []
    for n in ns:
        if n < 0:
            raise ValueError("n must be >= 0")
        if reduced:
            value = math.tan(alpha / 2.0)
        else:
            value = math.tan((alpha + 2.0 * math.pi * n) / 2.0)
        out.append(abs(value - ref))
    return out


def prefactor_periodicity(
    alpha: float, ns: Sequence[int], reduced: bool = True
) -> float:
    """Max deviation of the periodic prefactor factor along the scaling path."""
    devs = tan_half_deviations(alpha, ns, reduced=reduced)
    return max(devs) if devs else 0.0
