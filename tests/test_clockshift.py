import cmath
import math

import numpy as np
import pytest

from qdeform.clockshift import (
    ClockShiftPair,
    _root_of_unity,
    _roots_of_unity,
    build_pair,
    eq8_residual,
    q_from_alpha,
    qplane_residuals,
    v_unitary_defect,
    verify_qplane,
)

from oracles import (
    ScalingPoint,
    dense_eq8_residual,
    dense_pair,
    dense_qplane_residual,
    dense_unitary_defects,
    prefactor_periodicity,
    root_of_unity,
    scaling_path,
)


# ---------------------------------------------------------------------------
# pair construction
# ---------------------------------------------------------------------------


def test_pauli_pair():
    u, v = dense_pair(2, 1)
    np.testing.assert_array_equal(u, np.array([[0, 1], [1, 0]]))
    np.testing.assert_array_equal(v, np.diag([1.0 + 0j, -1.0 + 0j]))
    np.testing.assert_array_equal(v @ u, -(u @ v))
    pair = build_pair(2, 1)
    np.testing.assert_array_equal(pair.phases, [1.0, -1.0])
    assert verify_qplane(pair) == 0.0  # entries are 0 and +-1, exact


def test_dimension_four_clock():
    u, v = dense_pair(4, 1)
    np.testing.assert_allclose(v, np.diag([1, 1j, -1, -1j]), atol=1e-15)
    # quadrant phases are exact
    np.testing.assert_array_equal(build_pair(4, 1).phases, [1, 1j, -1, -1j])
    # exchange phase e^(i alpha) with alpha = pi/2
    assert np.max(np.abs(v @ u - 1j * (u @ v))) <= 1e-14


def test_dimension_three_level_two_phase():
    u, v = dense_pair(3, 2)
    phase = cmath.exp(1j * 4.0 * math.pi / 3.0)
    assert np.max(np.abs(v @ u - phase * (u @ v))) <= 1e-14


def test_level_validation():
    with pytest.raises(ValueError, match="level"):
        build_pair(4, 0)
    with pytest.raises(ValueError, match="level"):
        build_pair(4, 4)
    with pytest.raises(ValueError, match=">= 2, got N=1"):
        build_pair(1, 1)
    for dim in (1, 0, -3):
        with pytest.raises(ValueError, match=f">= 2, got N={dim}"):
            qplane_residuals(dim)


@pytest.mark.parametrize("dim", [2, 3, 5, 16, 64])
def test_unitarity_and_order(dim):
    eye = np.eye(dim)
    for level in {1, dim - 1, max(1, dim // 2)}:
        u, v = dense_pair(dim, level)
        assert np.max(np.abs(u @ u.conj().T - eye)) <= 1e-13
        assert np.max(np.abs(v @ v.conj().T - eye)) <= 1e-13
        assert np.max(np.abs(np.linalg.matrix_power(u, dim) - eye)) <= 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(v, dim) - eye)) <= 1e-12


def test_full_sweep_invariants_up_to_64():
    # U^N is checked per dimension (the shift does not depend on the level);
    # V is diagonal, so unitarity and V^N reduce to its diagonal entries
    for dim in range(2, 65):
        u = dense_pair(dim, 1)[0]
        assert np.array_equal(np.linalg.matrix_power(u, dim), np.eye(dim))
        assert np.array_equal(u @ u.conj().T, np.eye(dim))
        for level in range(1, dim):
            diag = build_pair(dim, level).phases
            assert np.max(np.abs(np.abs(diag) ** 2 - 1.0)) <= 1e-13
            assert np.max(np.abs(diag**dim - 1.0)) <= 1e-12


def test_phases_are_the_dense_clock_diagonal():
    for dim in range(2, 65):
        for level in range(1, dim):
            clock = dense_pair(dim, level)[1]
            assert np.array_equal(build_pair(dim, level).phases, np.diag(clock))


def test_roots_of_unity_equal_the_per_root_formula_bitwise():
    def check(order, exponents):
        got = _roots_of_unity(order, exponents)
        expected = np.array([root_of_unity(int(e), order) for e in exponents])
        assert got.tobytes() == expected.tobytes(), order
        one = np.array([_root_of_unity(order, int(e)) for e in exponents])
        assert one.tobytes() == expected.tobytes(), order

    for order in range(2, 400):
        check(order, np.arange(-order, 2 * order))  # reduced mod order
    for order in (512, 825, 4096, 2**16, 2**20):
        check(order, np.arange(order))


def test_grid_residuals_match_dense_oracle():
    # bit for bit below N = 128; from there numpy computes the dense
    # q * (v @ u) in place in the temporary, a multiply loop that rounds some
    # entries differently (the residuals then differ by under 1e-16)
    for dim in range(2, 65):
        dense = [dense_qplane_residual(dim, level) for level in range(1, dim)]
        assert qplane_residuals(dim).tolist() == dense
        assert [verify_qplane(build_pair(dim, k)) for k in range(1, dim)] == dense


@pytest.mark.parametrize("dim", [2, 3, 5, 16, 64, 100, 512])
def test_v_unitary_defect_matches_dense_oracle(dim):
    levels = range(1, dim) if dim <= 100 else (1, dim // 3, dim // 2, dim - 1)
    for level in levels:
        u_unitary, v_unitary = dense_unitary_defects(dim, level)
        # U is a permutation, so only V's defect is reported
        assert u_unitary == 0.0
        assert abs(v_unitary_defect(build_pair(dim, level)) - v_unitary) <= 1e-15


def test_eq8_residual_matches_dense_oracle():
    # every level of every N, the poles k = N/2 among them, bit for bit
    for dim in range(2, 65):
        for level in range(1, dim):
            residual = eq8_residual(build_pair(dim, level))
            assert residual == dense_eq8_residual(dim, level), (dim, level)
            assert residual <= 2e-15


def test_eq8_residual_fails_on_phases_of_another_level():
    # q comes from the pair's alpha, so phases of another level break eq. 8
    # (by 0.069 at least), save those of the pole level N/2: V = diag(+-1)
    # anticommutes with U and U^-1 and S_V = 0, so they satisfy it at any q
    for dim in range(3, 33):
        for level in range(1, dim):
            for other in range(1, dim):
                if other != level and 2 * other != dim:
                    pair = ClockShiftPair(dim, level, build_pair(dim, other).phases)
                    assert eq8_residual(pair) > 0.06, (dim, level, other)


def test_qplane_check_fails_on_phases_of_another_level():
    # q comes from the pair's level, so the phases of any other level break
    # PX = qXP by |1 - omega^(other - level)| >= 2 sin(pi/N), the pole
    # level's too, which eq. 8 lets pass
    for dim in range(3, 33):
        for level in range(1, dim):
            for other in range(1, dim):
                if other != level:
                    pair = ClockShiftPair(dim, level, build_pair(dim, other).phases)
                    assert verify_qplane(pair) > 0.19, (dim, level, other)
    pole = ClockShiftPair(16, 3, build_pair(16, 8).phases)
    assert eq8_residual(pole) == 0.0
    assert verify_qplane(pole) == pytest.approx(2 * math.sin(5 * math.pi / 16))


@pytest.mark.parametrize("dims", [(65, 257), (257, 385), (385, 449), (449, 513)],
                         ids=lambda dims: f"{dims[0]}..{dims[1] - 1}")
def test_eq8_residual_below_3e_15_at_every_level(dims):
    # the README's bound for every level of every N <= 512; the dense
    # oracle test covers N <= 64
    for dim in range(*dims):
        for level in range(1, dim):
            assert eq8_residual(build_pair(dim, level)) <= 3e-15, (dim, level)


@pytest.mark.parametrize("dim", [512, 825, 826, 2048, 100001, 999999, 2**20])
def test_pair_metrics_stay_at_round_off_up_to_2_20(dim):
    # the README's envelope for the gated pair metrics: no growth with N
    levels = {1, 2, dim // 3, (dim - 1) // 2, dim // 2, dim - 1}
    for level in sorted(levels):
        pair = build_pair(dim, level)
        assert verify_qplane(pair) <= 2.2e-15, level
        assert eq8_residual(pair) <= 1.7e-15, level
        # one ulp of 1.0, the README's 2.2e-16
        assert v_unitary_defect(pair) <= np.finfo(float).eps, level


# ---------------------------------------------------------------------------
# q and the exchange relation
# ---------------------------------------------------------------------------


def test_q_at_zero():
    assert q_from_alpha(0.0) == 1.0


def test_q_at_half_pi():
    q = q_from_alpha(math.pi / 2.0)
    np.testing.assert_allclose(q, -1j, atol=1e-15)
    # direct quotient check: (1 - i) / (1 + i) = -i
    np.testing.assert_allclose((1 - 1j) / (1 + 1j), -1j, atol=1e-16)


def test_q_pole():
    with pytest.raises(ValueError, match="alpha = pi"):
        q_from_alpha(math.pi)


def test_q_identities_on_grid():
    grid = np.linspace(-math.pi, math.pi, 103)[1:-1]
    for alpha in grid:
        q = q_from_alpha(alpha)
        assert abs(q - cmath.exp(-1j * alpha)) <= 1e-12
        assert abs(abs(q) - 1.0) <= 1e-12
        assert abs(q * q_from_alpha(-alpha) - 1.0) <= 1e-12


@pytest.mark.parametrize("dim,level,bound", [(16, 3, 1e-13), (64, 63, 1e-12)])
def test_qplane_residual(dim, level, bound):
    assert verify_qplane(build_pair(dim, level)) <= bound


def test_exchange_phase_matches_q():
    for dim, level in ((5, 2), (12, 7), (64, 33)):
        u, v = dense_pair(dim, level)
        # PX = qXP with P = U, X = V forces q = e^(-i alpha)
        q = q_from_alpha(build_pair(dim, level).alpha)
        assert np.max(np.abs(u @ v - q * (v @ u))) <= 1e-12


# ---------------------------------------------------------------------------
# scaling path
# ---------------------------------------------------------------------------


def test_scaling_origin_is_undeformed():
    pt = ScalingPoint(alpha=0.0, beta=1.0, n=0)
    assert pt.mu == 0.0 and pt.nu == 0.0


def test_scaling_point_values():
    pt = ScalingPoint(alpha=math.pi / 2.0, beta=1.0, n=1)
    expected = math.sqrt(math.pi / 2.0 + 2.0 * math.pi)
    assert abs(pt.mu - expected) <= 1e-15
    assert abs(pt.nu - expected) <= 1e-15


def test_scaling_ratio_is_beta_squared():
    for n in range(5):
        pt = ScalingPoint(alpha=1.0, beta=2.0, n=n)
        assert abs(pt.nu / pt.mu - 4.0) <= 1e-12


def test_theta_is_stored_not_multiplied():
    pt = ScalingPoint(alpha=0.7, beta=3.0, n=11)
    assert pt.theta == 0.7 + 2.0 * math.pi * 11
    assert abs(pt.mu * pt.nu - pt.theta) <= 1e-12 * pt.theta


def test_scaling_path_construction():
    points = scaling_path(0.5, 2.0, 4)
    assert [pt.n for pt in points] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError, match="alpha"):
        scaling_path(4.0, 1.0, 2)
    with pytest.raises(ValueError, match="beta"):
        scaling_path(0.5, 0.0, 2)
    with pytest.raises(ValueError, match="n_max"):
        scaling_path(0.5, 1.0, -1)


def test_exchange_phase_constant_along_path():
    points = scaling_path(1.0, 1.5, 10)
    ref = points[0].exchange_phase()
    assert all(pt.exchange_phase() == ref for pt in points)
    assert ref == cmath.exp(-1j)


# ---------------------------------------------------------------------------
# periodicity of the prefactor factor
# ---------------------------------------------------------------------------


def test_reduced_deviation_vanishes():
    assert prefactor_periodicity(0.0, range(50)) == 0.0
    assert prefactor_periodicity(math.pi / 2.0, range(101)) <= 1e-11


def test_periodicity_at_large_n():
    assert prefactor_periodicity(3.0, [0, 10, 10**4]) <= 1e-9


def test_naive_evaluation_loses_digits():
    # the documented failure mode: forming (alpha + 2 pi n)/2 in floating
    # point first leaves a representation error that grows linearly in n
    # (libm's internal reduction is exact, so the damage at n = 1e4 is
    # ~1e-10, and by n = 1e10 it has eaten half the digits)
    naive_small = prefactor_periodicity(3.0, [10**4], reduced=False)
    assert naive_small > 1e-12
    naive_large = prefactor_periodicity(3.0, [10**10], reduced=False)
    assert naive_large > 1e-7
    assert prefactor_periodicity(3.0, [10**4, 10**10], reduced=True) == 0.0


def test_pair_alpha_property():
    pair = build_pair(16, 3)
    assert isinstance(pair, ClockShiftPair)
    assert abs(pair.alpha - 2.0 * math.pi * 3 / 16) <= 1e-15
