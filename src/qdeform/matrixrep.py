"""Floating-point engine on the truncated oscillator (number) basis.

Quantifies how the exact commutator identity of the sinh-deformed pair
survives finite-dimensional truncation.  In the number basis x is real
symmetric tridiagonal and p = D x D* exactly, with D = diag(i^n).  One
real eigendecomposition x = v diag(w) v^T therefore gives every operator
the identity needs: f(x) = v diag(f(w)) v^T and f(p) = D f(x) D*.
Spectral calculus stays stable for spectral radii of order sqrt(2N),
where direct series summation would not, and since every operator shares
one eigenbasis the round-off does not grow with N.

The truncation defect of [p, x] + i*1 lives entirely on the top basis
state, so residuals are always reported on an interior block of the
lowest M states, and only those rows and columns of the products are
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# double precision dies around exp(25)^2 in the anticommutator products
OVERFLOW_GUARD = 25.0
PREFACTOR_POLE_TOL = 1e-9
# eigendecomposition round-off floor for interior residuals (see config docs)
NOISE_FLOOR = 1e-12

RESIDUAL_CSV_COLUMNS = ("N", "M", "mu", "nu", "res_fro", "res_spec", "sqrt_cosh_xcheck")


# i^n by n mod 4, exact: the diagonal of D
_PHASES = np.array([1, 1j, -1, -1j])


def _check_parameters(mu: float, nu: float) -> None:
    for name, value in (("mu", mu), ("nu", nu)):
        if not math.isfinite(value):
            raise ValueError(
                f"deformation parameter {name} must be finite, got {value}"
            )
    if mu < 0 or nu < 0:
        raise ValueError("deformation parameters must be >= 0")


def _eigenbasis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of the real tridiagonal x, and the diagonal of D."""
    off = np.sqrt(np.arange(1, dim)) / math.sqrt(2)
    w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return w, v, _PHASES[np.arange(dim) % 4]


def _deformed_spectra(w: np.ndarray, mu: float, nu: float) -> tuple[np.ndarray, ...]:
    """P, X, sqrt(1 + mu^2 P^2) and sqrt(1 + nu^2 X^2) as functions of w.

    The P functions act through p = D x D*; a zero parameter gives the
    undeformed operator.
    """
    s_mu, s_nu = np.sinh(mu * w), np.sinh(nu * w)
    return (
        s_mu / mu if mu > 0 else w,
        s_nu / nu if nu > 0 else w,
        np.sqrt(1.0 + s_mu**2),
        np.sqrt(1.0 + s_nu**2),
    )


def _x_rows(v: np.ndarray, fw: np.ndarray, rows: int) -> np.ndarray:
    """The top ``rows`` rows of f(x) = v diag(f(w)) v^T."""
    return (v[:rows] * fw) @ v.T


def _p_rows(v: np.ndarray, phase: np.ndarray, fw: np.ndarray, rows: int) -> np.ndarray:
    """The top ``rows`` rows of f(p) = D f(x) D*."""
    return phase[:rows, None] * _x_rows(v, fw, rows) * phase.conj()


def prefactor(theta: float) -> float:
    """c(theta) = sin(theta) / (theta * (1 + cos theta)); c(0) = 1/2 by continuity.

    Refuses to evaluate near the pole at theta = pi (mod 2*pi), where the
    identity itself degenerates.
    """
    if theta == 0.0:
        return 0.5
    den = 1.0 + math.cos(theta)
    if abs(den) <= PREFACTOR_POLE_TOL:
        raise ValueError(f"prefactor pole: 1 + cos({theta}) ~ 0")
    return math.sin(theta) / (theta * den)


@dataclass(frozen=True)
class ResidualReport:
    """Interior-projected residual of the commutator identity at finite N."""

    dim: int
    interior_dim: int
    mu: float
    nu: float
    residual_frobenius: float
    residual_spectral: float
    sqrt_cosh_xcheck: float
    cosh_norm: float  # normalization for the cross-check; not serialized

    def csv_row(self) -> tuple:
        return (
            self.dim,
            self.interior_dim,
            self.mu,
            self.nu,
            self.residual_frobenius,
            self.residual_spectral,
            self.sqrt_cosh_xcheck,
        )


def identity_residual(
    dim: int,
    interior_dim: int,
    mu: float,
    nu: float,
    overflow_guard: float = OVERFLOW_GUARD,
) -> ResidualReport:
    """Frobenius and spectral norms of the projected identity residual.

    Computes L = [P, X] and R = -i c(mu*nu) {sqrt(1+mu^2 P^2),
    sqrt(1+nu^2 X^2)} and reports ||(L-R)[:M,:M]||, all from one
    eigendecomposition of x.  Also cross-checks the spectral square root
    against cosh(mu*p): the two are equal functions of p at any N, so
    their distance is pure floating-point noise.  The dense route with an
    eigensolve per operator lives in the test oracles, which judge this one.
    """
    if interior_dim < 2 or interior_dim >= dim:
        raise ValueError("interior dimension must satisfy 2 <= M < N")
    _check_parameters(mu, nu)
    # spectral radius of x, p is below sqrt(2N)
    radius = math.sqrt(2 * dim)
    if mu * radius > overflow_guard or nu * radius > overflow_guard:
        raise ValueError(
            f"overflow guard: parameter * sqrt(2N) exceeds {overflow_guard}"
        )
    c = prefactor(mu * nu)

    w, v, phase = _eigenbasis(dim)
    fp, fx, root_p, root_x = _deformed_spectra(w, mu, nu)
    m = interior_dim
    # (A B)[:M, :M] = A[:M, :] B[:, :M], and B[:, :M] = B[:M, :]* for
    # Hermitian B; (X P)[:M, :M] is the adjoint of (P X)[:M, :M]
    px = _p_rows(v, phase, fp, m) @ _x_rows(v, fx, m).T
    pair = _p_rows(v, phase, root_p, m) @ _x_rows(v, root_x, m).T
    block = px - px.conj().T + 1j * c * (pair + pair.conj().T)

    # D v is unitary, so the Frobenius norms of these functions of p are
    # the 2-norms of their spectra
    cosh_p = np.cosh(mu * w)
    return ResidualReport(
        dim=dim,
        interior_dim=interior_dim,
        mu=mu,
        nu=nu,
        residual_frobenius=float(np.linalg.norm(block)),
        residual_spectral=float(np.linalg.norm(block, 2)),
        sqrt_cosh_xcheck=float(np.linalg.norm(root_p - cosh_p)),
        cosh_norm=float(np.linalg.norm(cosh_p)),
    )


def default_interior(dim: int) -> int:
    return max(4, dim // 4)


# window where the truncation error is still above the round-off floor
# at the reference parameters mu = nu = 0.2, M = 8
DEFAULT_SCAN_DIMS = (10, 12, 14, 16)


@dataclass(frozen=True)
class ConvergenceScan:
    rows: tuple[ResidualReport, ...]
    threshold: float
    noise_floor: float
    passed: bool


def convergence_scan(
    mu: float,
    nu: float,
    interior_dim: int,
    dims: Sequence[int],
    threshold: float,
    noise_floor: float = NOISE_FLOOR,
) -> ConvergenceScan:
    """Residual rows over increasing N with a convergence verdict.

    Passes when the residual at the largest N is below ``threshold`` and
    does not exceed the residual at the smallest N -- except that values
    below ``noise_floor`` count as converged regardless of ordering,
    since projected residuals bottom out at the eigensolver's round-off
    floor long before the scan ends and then fluctuate without meaning.
    """
    dims = [int(n) for n in dims]
    if not dims:
        raise ValueError("empty dimension list")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("dimensions must be strictly increasing")
    if dims[0] <= interior_dim:
        raise ValueError("all dimensions must exceed the interior dimension")
    rows = tuple(identity_residual(n, interior_dim, mu, nu) for n in dims)
    first = rows[0].residual_frobenius
    last = rows[-1].residual_frobenius
    passed = last <= threshold and last <= max(first, noise_floor)
    return ConvergenceScan(
        rows=rows, threshold=threshold, noise_floor=noise_floor, passed=passed
    )
