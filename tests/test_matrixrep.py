import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qdeform import cli, matrixrep, weyl
from qdeform.matrixrep import identity_residual, prefactor

from oracles import (
    OperatorMatrix,
    dense_identity_residual,
    evaluate_element,
    even_odd_block,
    hermitian_function,
    oscillator_xp,
    svd_parity_basis,
)

RT2 = math.sqrt(2.0)
EPS = np.finfo(float).eps


def parity_operators(dim: int, mu: float, nu: float) -> dict[str, np.ndarray]:
    """P, X, sqrt(1 + mu^2 P^2) and sqrt(1 + nu^2 X^2) as full N x N
    matrices, assembled from the engine's parity factors: the SVD of
    B = x[0::2, 1::2] (u and s^2 from one eigensolve of B B^T,
    w = B^T u / s), the spectra on it and the signs of D = diag(i^n) on
    each sector."""
    u, spectrum, w = matrixrep._parity_basis(dim)
    even, odd = len(u), len(w)
    fp, fx, root_p, root_x = matrixrep._deformed_spectra(spectrum, mu, nu)
    up = matrixrep._signs(even)[:, None] * u
    wp = matrixrep._signs(odd)[:, None] * w
    ops = {
        name: np.zeros((dim, dim), dtype=complex) for name in ("P", "X", "sqrt_p", "sqrt_x")
    }
    ops["P"][0::2, 1::2] = -1j * matrixrep._rows(up, fp[:odd], wp, even)
    ops["X"][0::2, 1::2] = matrixrep._rows(u, fx[:odd], w, even)
    for name in ("P", "X"):
        ops[name][1::2, 0::2] = ops[name][0::2, 1::2].conj().T
    ops["sqrt_p"][0::2, 0::2] = matrixrep._rows(up, root_p, up, even)
    ops["sqrt_p"][1::2, 1::2] = matrixrep._rows(wp, root_p[:odd], wp, odd)
    ops["sqrt_x"][0::2, 0::2] = matrixrep._rows(u, root_x, u, even)
    ops["sqrt_x"][1::2, 1::2] = matrixrep._rows(w, root_x[:odd], w, odd)
    return ops


def deformed_ops(
    dim: int, mu: float, nu: float
) -> tuple[OperatorMatrix, OperatorMatrix]:
    """P = sinh(mu*p)/mu and X = sinh(nu*x)/nu from the engine's parity
    factors; parameter 0 means undeformed."""
    matrixrep._check_parameters(mu, nu)
    x, p = oscillator_xp(dim)
    ops = parity_operators(dim, mu, nu)
    pd = OperatorMatrix(ops["P"]) if mu > 0 else p
    xd = OperatorMatrix(ops["X"]) if nu > 0 else x
    return pd, xd


# ---------------------------------------------------------------------------
# oscillator basis
# ---------------------------------------------------------------------------


def test_two_dimensional_ladder_matrices():
    x, p = oscillator_xp(2)
    np.testing.assert_allclose(x.mat, np.array([[0, 1], [1, 0]]) / RT2, atol=1e-15)
    np.testing.assert_allclose(
        p.mat, np.array([[0, -1j], [1j, 0]]) / RT2, atol=1e-15
    )
    assert x.hermitian and p.hermitian


def test_two_dimensional_commutator():
    x, p = oscillator_xp(2)
    comm = p.mat @ x.mat - x.mat @ p.mat
    np.testing.assert_allclose(comm, np.diag([-1j, 1j]), atol=1e-15)


@pytest.mark.parametrize("dim", range(2, 17))
def test_commutator_defect_lives_on_top_state(dim):
    x, p = oscillator_xp(dim)
    defect = p.mat @ x.mat - x.mat @ p.mat + 1j * np.eye(dim)
    interior = defect.copy()
    interior[dim - 1, :] = 0
    interior[:, dim - 1] = 0
    assert np.max(np.abs(interior)) <= 1e-13
    assert abs(defect[dim - 1, dim - 1]) > 1.0  # the defect itself is O(N)


def test_dimension_validation():
    with pytest.raises(ValueError, match=">= 2"):
        oscillator_xp(1)


# ---------------------------------------------------------------------------
# dense matrix functions of the oracle
# ---------------------------------------------------------------------------


def test_sinh_of_zero_matrix():
    out = hermitian_function(np.zeros((3, 3)), "sinh")
    np.testing.assert_allclose(out, np.zeros((3, 3)), atol=1e-15)


def test_principal_sqrt_of_diagonal():
    out = hermitian_function(np.diag([4.0, 9.0]), "principal-sqrt")
    np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-14)


def test_sqrt_squared_recovers_input():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))
    spectrum = np.logspace(0, 5, 12)  # condition number 1e5
    h = q @ np.diag(spectrum) @ q.conj().T
    root = hermitian_function(h, "principal-sqrt")
    err = np.linalg.norm(root @ root - h) / np.linalg.norm(h)
    assert err <= 1e-10
    assert OperatorMatrix(root).hermitian


def test_matrix_function_input_validation():
    skew = OperatorMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not skew.hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_function(skew.mat, "sinh")
    with pytest.raises(ValueError, match="positive definite"):
        hermitian_function(np.diag([1.0, -1.0]), "principal-sqrt")
    with pytest.raises(ValueError, match="positive definite"):
        hermitian_function(np.diag([0.0, 2.0]), "principal-sqrt")
    with pytest.raises(ValueError, match="unknown matrix function"):
        hermitian_function(np.eye(2), "tan")


def test_sqrt_accepts_unit_lower_bound_with_huge_top_of_spectrum():
    # 1 + (PSD) stays positive definite no matter how large the top grows;
    # the guard must not scale its floor with the norm
    out = hermitian_function(np.diag([1.0, 1e14]), "principal-sqrt")
    np.testing.assert_allclose(out, np.diag([1.0, 1e7]), rtol=1e-12)


def test_operator_matrix_must_be_square():
    with pytest.raises(ValueError, match="square"):
        OperatorMatrix(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# deformed operators
# ---------------------------------------------------------------------------


def test_zero_deformation_returns_ladder_operators_exactly():
    p0, x0 = deformed_ops(8, 0.0, 0.0)
    x, p = oscillator_xp(8)
    assert np.array_equal(p0.mat, p.mat)
    assert np.array_equal(x0.mat, x.mat)


def test_two_dimensional_deformed_position_spectrum():
    _, xd = deformed_ops(2, 0.0, 1.0)
    eig = np.sort(np.linalg.eigvalsh(xd.mat))
    expected = math.sinh(1.0 / RT2)
    np.testing.assert_allclose(eig, [-expected, expected], atol=1e-14)


def test_small_mu_matches_series_to_fourth_order():
    _, p = oscillator_xp(32)
    p3 = p.mat @ p.mat @ p.mat
    for mu in (0.05, 0.1, 0.2):
        pd, _ = deformed_ops(32, mu, 0.0)
        defect = np.linalg.norm(pd.mat - p.mat - mu**2 * p3 / 6.0)
        # coefficient calibrated at this dimension; scales as mu^4
        assert defect <= 300.0 * mu**4


def test_deformed_ops_hermitian_and_validated():
    pd, xd = deformed_ops(16, 0.3, 0.2)
    assert pd.hermitian and xd.hermitian
    with pytest.raises(ValueError, match=">= 0"):
        deformed_ops(8, -0.1, 0.0)
    with pytest.raises(ValueError, match="nu must be finite"):
        deformed_ops(8, 0.1, math.nan)


def test_momentum_is_phase_conjugated_position():
    # p = D x D* with D = diag(i^n), exactly
    x, p = oscillator_xp(12)
    d = np.diag([1, 1j, -1, -1j] * 3)
    assert np.array_equal(d @ x.mat @ d.conj().T, p.mat)


@pytest.mark.parametrize("mu, nu", [(0.3, 0.0), (0.0, 0.4), (0.25, 0.15)])
def test_deformed_ops_match_dense_oracle(mu, nu):
    x, p = oscillator_xp(24)
    pd, xd = deformed_ops(24, mu, nu)
    want_p = hermitian_function(mu * p.mat, "sinh") / mu if mu else p.mat
    want_x = hermitian_function(nu * x.mat, "sinh") / nu if nu else x.mat
    assert np.max(np.abs(pd.mat - want_p)) <= 1e-12
    assert np.max(np.abs(xd.mat - want_x)) <= 1e-12


# ---------------------------------------------------------------------------
# prefactor
# ---------------------------------------------------------------------------


def test_prefactor_continuity_at_zero():
    assert prefactor(0.0) == 0.5
    theta = 1e-5
    series = 0.5 + theta**2 / 24.0
    assert abs(prefactor(theta) - series) <= 1e-12


def test_prefactor_pole_guard():
    with pytest.raises(ValueError, match="pole"):
        prefactor(math.pi)


# ---------------------------------------------------------------------------
# identity residual
# ---------------------------------------------------------------------------


def test_undeformed_residual_is_roundoff():
    assert identity_residual(16, 8, 0.0, 0.0) <= 1e-12


def test_hermiticity_of_scaled_commutator():
    pd, xd = deformed_ops(24, 0.2, 0.2)
    comm = 1j * (pd.mat @ xd.mat - xd.mat @ pd.mat)
    defect = np.max(np.abs(comm - comm.conj().T))
    assert defect <= 1e-12 * np.max(np.abs(comm))


def test_sqrt_cosh_cross_check():
    # sqrt(1 + mu^2 P^2) and cosh(mu p) are equal functions of p at any N
    spectrum = matrixrep._parity_basis(32)[1]
    root_p = matrixrep._deformed_spectra(spectrum, 0.3, 0.3)[2]
    cosh_p = np.cosh(0.3 * spectrum)
    assert np.linalg.norm(root_p - cosh_p) <= 1e-10 * np.linalg.norm(cosh_p)


def test_residual_input_validation():
    with pytest.raises(ValueError, match="2 <= M < N"):
        identity_residual(4, 8, 0.1, 0.1)
    with pytest.raises(ValueError, match="2 <= M < N"):
        identity_residual(8, 1, 0.1, 0.1)
    with pytest.raises(ValueError, match=">= 0"):
        identity_residual(8, 4, -0.1, 0.1)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="mu must be finite"):
            identity_residual(8, 4, value, 0.1)
        with pytest.raises(ValueError, match="nu must be finite"):
            identity_residual(8, 4, 0.1, value)


def test_overflow_guard():
    # 3.0 * sqrt(128) ~ 34 exceeds the guard of 25; the message names the
    # parameter that tripped it, mu before nu when both do
    for mu, nu, name, value in ((3.0, 0.1, "mu", 3.0), (0.1, 3.5, "nu", 3.5),
                                (3.0, 3.5, "mu", 3.0)):
        with pytest.raises(ValueError) as raised:
            identity_residual(64, 8, mu, nu)
        assert str(raised.value) == (
            f"overflow guard: {name} * sqrt(2N) exceeds 25.0 at {name}={value}, N=64"
        )


def test_pole_guard_reached_through_residual():
    mu = math.sqrt(math.pi)
    with pytest.raises(ValueError, match="pole"):
        identity_residual(16, 8, mu, mu)


def test_default_interior(invoke):
    # max(4, N // 4), as the command that verify echoes states it
    for dim, interior in ((8, 4), (64, 16)):
        code, out = invoke(["verify", "--engine", "matrix", "--dim", str(dim)])
        payload = json.loads(out)
        assert code == 0
        assert f"--dim {dim} --interior {interior} " in payload["command"]
        assert payload["parameters"]["interior"] == interior


# ---------------------------------------------------------------------------
# convergence scan
# ---------------------------------------------------------------------------


def _scan(invoke, mu, nu, interior, dims):
    """scan --engine matrix: its exit code, metrics and res_fro column."""
    code, out = invoke(
        ["scan", "--engine", "matrix", "--mu", str(mu), "--nu", str(nu),
         "--interior", str(interior), "--dims", ",".join(map(str, dims))]
    )
    payload = json.loads(out)
    metrics = {m["name"]: m["value"] for m in payload["metrics"]}
    column = payload["table"]["columns"].index("res_fro")
    return code, metrics, [row[column] for row in payload["table"]["rows"]]


def _converged(code, metrics):
    """The verdict of scan --engine matrix, and at a 1e-12 threshold: the
    residual at the largest N within it, and no excess over the smallest N."""
    return (
        code == 0
        and metrics["residual_at_largest_dim"] <= 1e-12
        and metrics["residual_excess"] == 0.0
    )


def test_scan_strictly_decreases_inside_signal_window(invoke):
    # where the truncation error is still above the round-off floor at the
    # reference parameters mu = nu = 0.2, M = 8
    code, metrics, values = _scan(invoke, 0.2, 0.2, 8, (10, 12, 14, 16))
    assert all(b < a for a, b in zip(values, values[1:]))
    assert _converged(code, metrics)


def test_scan_underflows_to_noise_floor_at_large_dims(invoke):
    code, metrics, values = _scan(invoke, 0.2, 0.2, 8, (16, 32, 64))
    assert _converged(code, metrics)
    assert all(value <= 1e-12 for value in values)


def test_scan_zero_deformation_passes(invoke):
    code, metrics, _ = _scan(invoke, 0.0, 0.0, 8, (16, 32, 64))
    assert _converged(code, metrics)


def test_scan_input_validation(invoke):
    for interior, dims, named in (
        ("4", "8,4", "--dims must be strictly increasing, got 4 after 8"),
        ("4", "8,9,9", "--dims must be strictly increasing, got 9 after 9"),
        ("4", "", "--dims length must lie in 1..262144, got 0"),
        ("8", "8,16", "interior dimension must satisfy 2 <= M < N, got M=8 "
         "(--interior) and N=8 (smallest of --dims)"),
    ):
        code, out = invoke(
            ["scan", "--engine", "matrix", "--mu", "0.1", "--nu", "0.1",
             "--interior", interior, "--dims", dims]
        )
        assert code == 2
        assert json.loads(out)["parameters"]["error"] == f"ValueError: {named}"


def test_scan_fails_when_threshold_unreachable(invoke):
    # at mu = nu = 2 the truncation error at N = 16 is still 1.05e-2
    code, out = invoke(
        ["scan", "--engine", "matrix", "--mu", "2", "--nu", "2",
         "--interior", "4", "--dims", "12,16"]
    )
    assert code == 1
    metrics = {m["name"]: m for m in json.loads(out)["metrics"]}
    largest = metrics["residual_at_largest_dim"]
    assert largest["threshold"] == 1e-8 < 1e-2 < largest["value"]


# ---------------------------------------------------------------------------
# the dense oracle as judge
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim, interior", [(8, 4), (16, 8), (32, 8), (64, 16)])
@pytest.mark.parametrize("mu, nu", [(0.0, 0.0), (0.2, 0.2), (0.45, 0.1), (0.1, 0.4)])
def test_residual_matches_dense_oracle(dim, interior, mu, nu):
    residual = identity_residual(dim, interior, mu, nu)
    dense = dense_identity_residual(dim, interior, mu, nu)
    assert abs(residual - np.linalg.norm(dense["block"])) <= 1e-11


# odd N has the zero mode of x; odd M splits the interior unevenly
PARITY_DIMS = [
    (3, 2), (9, 4), (9, 5), (17, 4), (33, 8), (65, 16), (129, 32), (129, 33),
    (4, 3), (8, 4), (10, 5), (16, 8), (64, 16), (128, 32),
]


@pytest.mark.parametrize("dim, interior", PARITY_DIMS)
@pytest.mark.parametrize("mu, nu", [(0.0, 0.0), (0.2, 0.2), (0.3, 0.0), (0.0, 0.3)])
def test_parity_engine_matches_dense_oracle(dim, interior, mu, nu):
    residual = identity_residual(dim, interior, mu, nu)
    dense = dense_identity_residual(dim, interior, mu, nu)
    assert abs(residual - np.linalg.norm(dense["block"])) <= 1e-11


@pytest.mark.parametrize("dim, interior", [(9, 5), (16, 8), (17, 8), (33, 9)])
@pytest.mark.parametrize("mu, nu", [(0.0, 0.0), (0.2, 0.2), (0.45, 0.1), (0.0, 0.4)])
def test_dense_residual_block_is_parity_diagonal_and_anti_hermitian(
    dim, interior, mu, nu
):
    # the structure the engine's parity split relies on, seen on the dense
    # oracle: [P, X] - R has no even-odd entries, and on each sector it is
    # i times a real symmetric matrix
    block = dense_identity_residual(dim, interior, mu, nu)["block"]
    assert np.max(np.abs(block[0::2, 1::2])) <= 1e-13
    assert np.max(np.abs(block[1::2, 0::2])) <= 1e-13
    assert np.max(np.abs(block + block.conj().T)) <= 1e-13
    assert np.max(np.abs(block.real)) <= 1e-13


@pytest.mark.parametrize("dim", [3, 8, 9, 16, 17])
def test_parity_basis_diagonalizes_x(dim):
    # eigenpairs +-s with (u, +-w)/sqrt(2), and the zero mode (u0, 0) at odd N
    x, _ = oscillator_xp(dim)
    u, spectrum, w = matrixrep._parity_basis(dim)
    odd = len(w)
    vecs = np.zeros((dim, dim))
    vecs[0::2, :odd] = vecs[0::2, odd : 2 * odd] = u[:, :odd] / RT2
    vecs[1::2, :odd] = w / RT2
    vecs[1::2, odd : 2 * odd] = -w / RT2
    vecs[0::2, 2 * odd :] = u[:, odd:]
    values = np.concatenate((spectrum[:odd], -spectrum[:odd], spectrum[odd:]))
    assert np.max(np.abs(x.mat @ vecs - vecs * values)) <= 1e-13
    assert np.max(np.abs(vecs.T @ vecs - np.eye(dim))) <= 1e-13
    assert len(spectrum) == len(u) == (dim + 1) // 2
    assert np.all(spectrum[odd:] == 0.0)


@pytest.mark.parametrize("dim", [64, 255, 256, 512, 2047, 2048])
def test_parity_basis_factors_the_even_odd_block_at_cli_sizes(dim):
    # B = u diag(s) w^T up to the CLI's cap on N.  Bounds sit 4-6x above
    # the largest measured value over these N (0.50 N eps, 0.94 sqrt(N)
    # eps and 0.079 N^2 eps, all at N = 64 or 255)
    u, spectrum, w = matrixrep._parity_basis(dim)
    odd = len(w)
    b = even_odd_block(dim)
    rebuilt = (u[:, :odd] * spectrum[:odd]) @ w.T
    assert np.max(np.abs(rebuilt - b)) <= 3 * dim * EPS
    assert np.max(np.abs(u.T @ u - np.eye(len(u)))) <= 5 * math.sqrt(dim) * EPS
    # w = B^T u / s is orthonormal only to O(N^2 eps): the eigensolve of
    # B B^T leaves u off by eps |B B^T| / gap ~ eps N^2 in the directions
    # of its neighbours at the small end of s^2, and the division by s does
    # not shrink that back (an SVD of B keeps w to ~20 eps)
    assert np.max(np.abs(w.T @ w - np.eye(odd))) <= dim**2 * EPS / 2
    assert len(spectrum) == len(u) == (dim + 1) // 2
    assert np.all(spectrum[odd:] == 0.0)


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The shape of each matrix that np.linalg.eigh is called on, in order."""
    shapes, eigh = [], np.linalg.eigh

    def counted(*args, **kwargs):
        shapes.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


def test_parity_basis_is_one_eigensolve_and_no_svd(monkeypatch, eigh_shapes):
    def refused(*args, **kwargs):
        raise AssertionError("the parity basis takes no SVD")

    monkeypatch.setattr(np.linalg, "svd", refused)
    for dim in (16, 17):
        eigh_shapes.clear()
        matrixrep._parity_basis(dim)
        assert eigh_shapes == [((dim + 1) // 2, (dim + 1) // 2)]


# The SVD route judges the eigensolve route.  Over a sweep of 138 points
# (N 16..2048 with odd N, mu = nu with mu sqrt(2N) from 2 to 19.2, M = 8
# and the default M), new/SVD res_fro ranged 0.27..3.89 and flipped no
# verdict; above the noise floor of 1e-12 the largest ratio was 1.93.  The
# bound 8 x SVD + 1e-12 doubles the largest ratio and lets both routes
# differ freely below the noise floor, where they read round-off only.
SVD_ROUTE_GATE = cli.MATRIX_RESIDUAL_TOL
SVD_ROUTE_FLOOR = cli.MATRIX_NOISE_FLOOR


@pytest.mark.parametrize("dim", [16, 17, 64, 255, 512])
@pytest.mark.parametrize("scale", [2.0, 6.0, 12.8])
@pytest.mark.parametrize("interior", [8, None], ids=["M8", "Mdefault"])
def test_residual_matches_svd_basis_route(monkeypatch, dim, scale, interior):
    mu = scale / math.sqrt(2 * dim)  # mu sqrt(2N) = scale
    if interior is None:
        interior = min(max(4, dim // 4), dim - 1)  # as verify defaults it
    new = identity_residual(dim, interior, mu, mu)
    monkeypatch.setattr(matrixrep, "_parity_basis", svd_parity_basis)
    old = identity_residual(dim, interior, mu, mu)
    assert (new <= SVD_ROUTE_GATE) == (old <= SVD_ROUTE_GATE)
    assert new <= 8 * old + SVD_ROUTE_FLOOR


# ---------------------------------------------------------------------------
# the leading block: the residual at N solved at N' = min(N, M + K)
# ---------------------------------------------------------------------------

# the full-N route below forces N' = N by patching the K of the rule; its
# basis depends on N alone, so it is built once per N
_full_basis = functools.lru_cache(maxsize=None)(matrixrep._parity_basis)


def _full_residual(monkeypatch, dim, interior, mu, nu):
    with monkeypatch.context() as patch:
        patch.setattr(matrixrep, "_reach", lambda a: dim)
        patch.setattr(matrixrep, "_parity_basis", _full_basis)
        return identity_residual(dim, interior, mu, nu)


# Points of the grid below where the two routes read on either side of the
# 1e-8 gate, all at M = N/2 past the default interior, with both readings
# inside 8.8e-9..1.7e-8: there the verdict depends on the rounding of the
# basis (ROADMAP item 4), as it does between LAPACK routes at N alone.
ROUNDOFF_FLIPS = {
    (127, 63, 12.8, "equal"), (511, 255, 14.0, "nu_half"),
    (1024, 512, 14.0, "mu_zero"), (2048, 1024, 12.8, "mu_zero"),
}
# (mu, nu) as multiples of scale / sqrt(2N)
PAIRS = {"equal": (1.0, 1.0), "nu_half": (1.0, 0.5), "mu_zero": (0.0, 1.0)}


# the N of the grid below, and of the scans over it (tests/test_cli.py)
LEADING_BLOCK_DIMS = (3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 127, 128, 255, 256,
                      511, 512, 1024, 2048)


def _leading_block_cases():
    for dim in LEADING_BLOCK_DIMS:
        # M = N - 1 is solved at N by either route, so it is left out above
        # N = 512, where it would cost seconds and test nothing new
        interiors = (2, 8, dim // 4, dim // 2) + ((dim - 1,) if dim <= 512 else ())
        for interior in sorted({m for m in interiors if 2 <= m < dim}):
            for scale in (0.0, 2.0, 6.0, 12.8, 14.0):
                for pair in PAIRS if scale else ("equal",):
                    case = (dim, interior, scale, pair)
                    marks = pytest.mark.xfail(
                        strict=True, reason="verdict in the round-off band (item 4)"
                    ) if case in ROUNDOFF_FLIPS else ()
                    yield pytest.param(
                        *case, marks=marks, id=f"N{dim}-M{interior}-a{scale}-{pair}"
                    )


@pytest.mark.parametrize("dim, interior, scale, pair", _leading_block_cases())
def test_leading_block_matches_full_solve(monkeypatch, dim, interior, scale, pair):
    # as the SVD route judges the basis, the full-N solve judges the
    # leading block: bounds as in test_residual_matches_svd_basis_route
    radius = math.sqrt(2 * dim)
    mu, nu = (f * scale / radius for f in PAIRS[pair])
    new = identity_residual(dim, interior, mu, nu)
    old = _full_residual(monkeypatch, dim, interior, mu, nu)
    assert new <= 8 * old + cli.MATRIX_NOISE_FLOOR
    assert (new <= cli.MATRIX_RESIDUAL_TOL) == (old <= cli.MATRIX_RESIDUAL_TOL)


@pytest.mark.parametrize("dim, interior, mu, nu", [
    (16, 4, 0.2, 0.2), (17, 8, 0.0, 0.0), (64, 16, 0.0, 0.0), (64, 16, 0.2, 0.1),
    (512, 8, 0.0, 0.3), (512, 128, 0.2, 0.2), (2047, 511, 0.1, 0.0),
    (2048, 8, 0.21875, 0.21875),
])
def test_residual_takes_one_eigensolve_of_the_leading_block(
    eigh_shapes, dim, interior, mu, nu
):
    identity_residual(dim, interior, mu, nu)
    size = (matrixrep.solved_dim(dim, interior, mu, nu) + 1) // 2
    assert eigh_shapes == [(size, size)]


# (scale, mu factor, nu factor) of a scan over LEADING_BLOCK_DIMS: mu and nu
# are held at factor * scale / sqrt(2 * 2048), so that max(mu, nu) sqrt(2N)
# stays within the scale at every N of it
LEADING_BLOCK_SCANS = [(0.0, 1.0, 1.0), (2.0, 1.0, 1.0), (6.0, 1.0, 0.5),
                       (12.8, 0.0, 1.0), (14.0, 1.0, 1.0), (14.0, 1.0, 0.5)]


@pytest.mark.parametrize("interior", [2, 8, 64, 512])
@pytest.mark.parametrize("scale, mu_factor, nu_factor", LEADING_BLOCK_SCANS)
def test_residuals_solve_each_distinct_leading_block_once(
    eigh_shapes, interior, scale, mu_factor, nu_factor
):
    mu, nu = (f * scale / math.sqrt(2 * 2048) for f in (mu_factor, nu_factor))
    dims = [n for n in LEADING_BLOCK_DIMS if n > interior]
    expected = [identity_residual(n, interior, mu, nu) for n in dims]
    eigh_shapes.clear()
    assert matrixrep.identity_residuals(dims, interior, mu, nu) == expected
    blocks = {matrixrep.solved_dim(n, interior, mu, nu) for n in dims}
    sizes = sorted((block + 1) // 2 for block in blocks)
    assert sorted(eigh_shapes) == [(size, size) for size in sizes]


def test_residuals_run_every_guard_before_any_solve(eigh_shapes):
    # 0.5 sqrt(2N) is 22.4 at N = 1000, solved at N' = 66, and 25.01 at
    # N = 1251, past the guard: the guard at the largest N refuses the scan
    assert matrixrep.solved_dim(1000, 8, 0.5, 0.5) == 66
    with pytest.raises(ValueError) as raised:
        matrixrep.identity_residuals([1000, 1251], 8, 0.5, 0.5)
    assert str(raised.value) == (
        "overflow guard: mu * sqrt(2N) exceeds 25.0 at mu=0.5, N=1251"
    )
    assert eigh_shapes == []


def test_solved_dim_at_the_documented_points():
    # at N = 2048, max(mu, nu) sqrt(2N) = 64 max(mu, nu) is exact, and K
    # reads 15, 19, 29, 45 and 62 at a = 1, 2, 6, 14 and 25
    assert [matrixrep.solved_dim(2048, 100, a / 64, 0.0) for a in (1, 2, 6, 14, 25)] == [
        115, 119, 129, 145, 162,
    ]
    assert matrixrep.solved_dim(2048, 100, 0.0, 14 / 64) == 145
    # a below 1 reads as 1, and N' never exceeds N
    assert matrixrep.solved_dim(2048, 100, 0.0, 0.0) == 115
    assert matrixrep.solved_dim(64, 60, 0.2, 0.2) == 64


# The validated envelope of the 1e-8 matrix gate: mu and nu on a grid of
# step 1/20 from 0 with max(mu, nu) sqrt(2N) <= 14, at each N below and
# the default interior M = N // 4 of a matrix verify
ENVELOPE_DIMS = (32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048)


def test_every_point_of_the_envelope_passes_the_gate_and_its_edge_fails():
    verdicts = []
    for dim in ENVELOPE_DIMS:
        grid = [k / 20 for k in range(40) if k / 20 * math.sqrt(2 * dim) <= 14]
        for mu in grid:
            for nu in grid:
                residual = identity_residual(dim, dim // 4, mu, nu)
                verdicts.append(residual <= cli.MATRIX_RESIDUAL_TOL)
    assert len(verdicts) == 4297 and all(verdicts)
    # the envelope does not reach MAX_MATRIX_DIM at its edge:
    # mu sqrt(2N) = 14.0 at N = 2048 fails
    assert identity_residual(2048, 512, 0.21875, 0.21875) > cli.MATRIX_RESIDUAL_TOL


def _tail(a: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """Exact bounds lo <= sum_{j>k} (a/2)^j / j! <= hi: lo sums the terms
    past k up to one below 2^-100 of the sum, and past j = 2a, where the
    ratios (a/2)/(j+1) of the rest fall below 1/4; hi adds their
    geometric bound."""
    half, term, lo, j = a / 2, Fraction(1), Fraction(0), 0
    while j <= 2 * a or j <= k or term > lo / 2**100:
        j += 1
        term = term * half / j
        if j > k:
            lo += term
    # every term past j is at most term / 4^i
    return lo, lo + term / 3


@pytest.mark.parametrize("a", [Fraction(n, 8) for n in range(0, 201)])
def test_reach_is_the_least_degree_within_the_tail(a):
    k = matrixrep._reach(float(a))
    assert k >= 1
    assert _tail(a, k)[1] <= Fraction(matrixrep.REACH_TAIL)
    if k > 1:
        assert _tail(a, k - 1)[0] > Fraction(matrixrep.REACH_TAIL)


def test_reach_at_the_documented_points():
    assert [matrixrep._reach(a) for a in (0.0, 1.0, 2.0, 6.0, 14.0, 25.0)] == [
        1, 15, 19, 29, 45, 62,
    ]


@pytest.mark.parametrize("dim", [3, 4, 64, 255, 256, 1023, 1024, 2047, 2048])
def test_spectrum_of_x_lies_within_sqrt_2n(dim):
    # the premise of the Chebyshev bound: both x_N and x_N' have their
    # spectra in [-sqrt(2N), sqrt(2N)]
    spectrum = matrixrep._parity_basis(dim)[1]
    assert spectrum.max() <= math.sqrt(2 * dim)


@pytest.mark.parametrize("dim", [8, 16, 32, 64])
@pytest.mark.parametrize("mu", [0.1, 0.3, 0.6])
def test_shared_basis_sqrt_matches_dense_principal_sqrt(dim, mu):
    # the engine takes sqrt(1 + mu^2 P^2) as a function on the spectra of
    # the parity sectors of x; the oracle takes the principal square root
    # of the dense matrix 1 + mu^2 P @ P, so the cosh identity is not
    # assumed on either side
    shared = parity_operators(dim, mu, 0.0)["sqrt_p"]
    dense = dense_identity_residual(dim, 4, mu, 0.0)["sqrt_p"]
    assert np.linalg.norm(shared - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("dim, interior, mu, nu", [
    (8, 4, 0.3, 0.2), (12, 8, 0.2, 0.2), (64, 16, 0.0, 0.0), (128, 32, 0.6, 0.6),
])
def test_residual_spectral_norm_within_frobenius_bounds(dim, interior, mu, nu):
    # the engine forms only the top rows of each product; here the whole
    # block ([P, X] - R)[:M, :M] is assembled from the same parity factors,
    # which stays accurate where the dense oracle's eigensolves do not
    # (N = 128, mu = nu = 0.6).  Its spectral norm spec bounds the engine's
    # Frobenius norm fro: spec <= fro <= sqrt(M) spec, up to the 1e-11 by
    # which the two routes may differ
    ops = parity_operators(dim, mu, nu)
    p, x, sqrt_p, sqrt_x = ops["P"], ops["X"], ops["sqrt_p"], ops["sqrt_x"]
    c = matrixrep.prefactor(mu * nu)
    block = (p @ x - x @ p + 1j * c * (sqrt_p @ sqrt_x + sqrt_x @ sqrt_p))[:interior, :interior]
    fro = identity_residual(dim, interior, mu, nu)
    spec = np.linalg.norm(block, 2)
    assert abs(fro - np.linalg.norm(block)) <= 1e-11
    assert spec <= fro * (1 + 1e-12) + 1e-11
    assert fro <= math.sqrt(interior) * spec * (1 + 1e-12) + 1e-11


# ---------------------------------------------------------------------------
# cross-engine agreement
# ---------------------------------------------------------------------------


def test_symbolic_element_evaluates_to_matrix_product():
    # normal-ordered p^2 x^2 agrees with the matrix product on the interior
    x, p = oscillator_xp(16)
    sym = weyl.normal_product(
        weyl.normal_product(weyl.p_op(0), weyl.p_op(0)),
        weyl.normal_product(weyl.x_op(0), weyl.x_op(0)),
    )
    direct = p.mat @ p.mat @ x.mat @ x.mat
    evaluated = evaluate_element(sym, 0.0, 0.0, x.mat, p.mat)
    assert np.max(np.abs((evaluated - direct)[:4, :4])) <= 1e-10


@pytest.mark.parametrize("mu", [0.05, 0.1])
def test_commutator_blocks_match_series_prediction(mu):
    degree = 10
    dim = 64
    x, p = oscillator_xp(dim)
    series = weyl.commutator(
        weyl.deformed_momentum(degree), weyl.deformed_position(degree)
    )
    predicted = evaluate_element(series, mu, mu, x.mat, p.mat)[:4, :4]
    pd, xd = deformed_ops(dim, mu, mu)
    actual = (pd.mat @ xd.mat - xd.mat @ pd.mat)[:4, :4]
    # series truncation bound at this degree is far below 1e-12 for mu <= 0.1
    assert np.max(np.abs(predicted - actual)) <= 1e-12
