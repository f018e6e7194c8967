"""Floating-point engine on the truncated oscillator (number) basis.

Quantifies how the exact commutator identity of the sinh-deformed pair
survives finite-dimensional truncation.  In the number basis x is real
symmetric tridiagonal and couples even states only to odd ones, and
p = D x D* exactly, with D = diag(i^n).  Under this parity split:

* x is one lower-bidiagonal block B = x[even, odd] of size
  ceil(N/2) x floor(N/2), so B B^T is symmetric tridiagonal.  One real
  eigensolve B B^T = u diag(s^2) u^T of half the size, with
  w = B^T u / s, gives the SVD B = u diag(s) w^T and so every eigenpair
  of x: +-s with eigenvectors (u, +-w)/sqrt(2), and for odd N the zero
  mode (u0, 0), the last column of the square u.
* Odd functions of x (X = sinh(nu x)/nu) fill only the even-odd blocks,
  u f(s) w^T; even functions (the square roots) fill only the
  even-even and odd-odd blocks, u f(s, 0) u^T and w f(s) w^T.
* D is the sign (-1)^k on the k-th state of each sector, times i on the
  odd one, so the functions of p are the same real blocks with those
  signs, and the odd ones carry one -i on the even-odd block.
* The residual [P, X] - R is then parity-diagonal and anti-Hermitian:
  -i K_e on the even states and i K_o on the odd ones, with K_e and K_o
  real symmetric, so its Frobenius norm is hypot(|K_e|, |K_o|).

Spectral calculus stays stable for spectral radii of order sqrt(2N),
where direct series summation would not, and since every operator shares
one basis the round-off does not grow with N.

The truncation defect of [p, x] + i*1 lives entirely on the top basis
state, so residuals are always reported on an interior block of the
lowest M states, and only those rows and columns of the products are
formed.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# double precision dies around exp(25)^2 in the anticommutator products
OVERFLOW_GUARD = 25.0
PREFACTOR_POLE_TOL = 1e-9


def _check_parameters(mu: float, nu: float) -> None:
    for name, value in (("mu", mu), ("nu", nu)):
        if not math.isfinite(value):
            raise ValueError(
                f"deformation parameter {name} must be finite, got {value}"
            )
    if mu < 0 or nu < 0:
        raise ValueError("deformation parameters must be >= 0")


def _signs(size: int) -> np.ndarray:
    """(-1)^k for k < size: D = diag(i^n) on one parity sector (times i on
    the odd one)."""
    return 1.0 - 2.0 * (np.arange(size) % 2)


def _parity_basis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, spectrum, w) with x[0::2, 1::2] = u[:, :len(w)] diag(spectrum) w^T.

    B = x[0::2, 1::2] is lower bidiagonal, so B B^T is symmetric
    tridiagonal: the Jacobi matrix of the even Hermite functions in s^2
    (Golub & Welsch 1969).  One eigensolve of it, taken in descending
    order, gives u and the squares of the singular values s, and
    w = B^T u / s is a bidiagonal product.  u is square, so for odd N its
    last column is the zero mode and the spectrum ends in an exact 0 for
    it: the spectrum is that of the even sector, and its first len(w)
    values, the singular values, that of the odd one.

    The eigensolve squares the condition of B, and the division by small
    s carries the error of u into w: u stays orthonormal to a few eps,
    but w only to O(N^2 eps), about 2e-11 at N = 2048.
    """
    off = np.sqrt(np.arange(1, dim)) / math.sqrt(2)
    # B[k, k] = x[2k, 2k+1] and B[k+1, k] = x[2k+2, 2k+1]
    diag, sub = off[0::2], off[1::2]
    even, odd = (dim + 1) // 2, dim // 2
    # (B B^T)[k, k] = diag[k]^2 + sub[k-1]^2, (B B^T)[k+1, k] = sub[k] diag[k]
    gram_diag = np.zeros(even)
    gram_diag[:odd] = diag**2
    gram_diag[1:] += sub**2
    gram = np.zeros((even, even))  # eigh reads only the lower triangle
    gram.flat[:: even + 1] = gram_diag
    gram.flat[even :: even + 1] = sub * diag[: sub.size]
    lam, u = np.linalg.eigh(gram)
    # descending, so that the zero mode of odd N comes last; a copy, as
    # the products downstream run faster on contiguous columns
    lam, u = lam[::-1], u[:, ::-1].copy()
    s = np.sqrt(np.maximum(lam[:odd], 0.0))
    # (B^T u)[j] = diag[j] u[j] + sub[j] u[j+1], row by row
    w = diag[:, None] * u[:odd, :odd]
    w[: sub.size] += sub[:, None] * u[1 : sub.size + 1, :odd]
    w /= s
    return u, np.concatenate((s, np.zeros(even - odd))), w


def _deformed_spectra(
    spectrum: np.ndarray, mu: float, nu: float
) -> tuple[np.ndarray, ...]:
    """P, X, sqrt(1 + mu^2 P^2) and sqrt(1 + nu^2 X^2) on a spectrum of x.

    The P functions act through p = D x D*.  A zero or subnormal parameter
    gives the undeformed operator: there sinh(mu*s)/mu rounds to s exactly,
    while mu*s has already lost the low bits that the quotient would need.
    """
    s_mu, s_nu = np.sinh(mu * spectrum), np.sinh(nu * spectrum)
    return (
        s_mu / mu if mu >= sys.float_info.min else spectrum,
        s_nu / nu if nu >= sys.float_info.min else spectrum,
        np.sqrt(1.0 + s_mu**2),
        np.sqrt(1.0 + s_nu**2),
    )


def _rows(left: np.ndarray, fw: np.ndarray, right: np.ndarray, rows: int) -> np.ndarray:
    """The top ``rows`` rows of left diag(fw) right^T, on the first
    len(fw) columns of both bases."""
    return (left[:rows, : fw.size] * fw) @ right[:, : fw.size].T


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


def identity_residual(dim: int, interior_dim: int, mu: float, nu: float) -> float:
    """Frobenius norm of the projected identity residual.

    Computes L = [P, X] and R = -i c(mu*nu) {sqrt(1+mu^2 P^2),
    sqrt(1+nu^2 X^2)} and returns ||(L-R)[:M,:M]||_F, all from one
    eigensolve of B B^T, with B the even-odd block of x.  The dense route
    with an eigensolve per operator lives in the test oracles, which judge
    this one.
    """
    if interior_dim < 2 or interior_dim >= dim:
        raise ValueError("interior dimension must satisfy 2 <= M < N")
    _check_parameters(mu, nu)
    # spectral radius of x, p is below sqrt(2N)
    radius = math.sqrt(2 * dim)
    for name, value in (("mu", mu), ("nu", nu)):
        if value * radius > OVERFLOW_GUARD:
            raise ValueError(
                f"overflow guard: {name} * sqrt(2N) exceeds {OVERFLOW_GUARD} "
                f"at {name}={value}, N={dim}"
            )
    c = prefactor(mu * nu)

    u, spectrum, w = _parity_basis(dim)
    odd = w.shape[0]
    fp, fx, root_p, root_x = _deformed_spectra(spectrum, mu, nu)
    fp, fx = fp[:odd], fx[:odd]  # odd functions live on the singular values
    # the P side sees each sector through the signs of D
    up = _signs(len(u))[:, None] * u
    wp = _signs(odd)[:, None] * w
    m_e, m_o = (interior_dim + 1) // 2, interior_dim // 2
    # (A B)[:m, :m] = A[:m, :] B[:m, :]^T for symmetric B.  With A_p, A_x
    # the real even-odd blocks of P and X, [P, X] is -i (A_p A_x^T + A_x
    # A_p^T) on the even states and i (A_p^T A_x + A_x^T A_p) on the odd
    k_e = _rows(up, fp, wp, m_e) @ _rows(u, fx, w, m_e).T
    k_e -= c * _rows(up, root_p, up, m_e) @ _rows(u, root_x, u, m_e).T
    k_e += k_e.T
    k_o = _rows(wp, fp, up, m_o) @ _rows(w, fx, u, m_o).T
    k_o += c * _rows(wp, root_p[:odd], wp, m_o) @ _rows(w, root_x[:odd], w, m_o).T
    k_o += k_o.T
    return math.hypot(np.linalg.norm(k_e), np.linalg.norm(k_o))
