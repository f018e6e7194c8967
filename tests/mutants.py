"""Mutant runner: checks that the tests catch a fixed list of source mutations.

Run from anywhere, with pytest installed:

    python tests/mutants.py

It copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` (a
test reads its example config) into a temporary directory and runs every
mutant's tests there once unmutated.  Then for each mutant it replaces
one exact string in one source file, runs that mutant's tests with pytest
(stopping at the first failure), puts the file back and prints
``killed`` or ``survived``.  A mutant names its tests as pytest node ids:
mostly the one or two test functions that kill it, so that each run
starts few tests, and a whole file only where its random draws are the
witness.  It exits 1 when a mutant survives or when its pattern no
longer occurs exactly once in the source.  A survivor is a missing test,
and a pattern that stopped matching means the code moved: rewrite the
mutant, do not drop it.  The patterns alone are checked on every test
run, by tests/test_mutants.py.  Only the standard library is used, and
pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # source file, relative to the checkout
    old: str  # must occur exactly once in that file
    new: str
    tests: tuple[str, ...]  # pytest node ids (file or file::test) that must catch it


MUTANTS = (
    Mutant(
        "mixed-type column formatted by its first cell's type",
        "src/qdeform/report.py",
        "if len(kinds) > 1 or not kinds",
        "if not kinds",
        ("tests/test_report.py::test_column_cases_outside_ints_or_floats_are_refused",),
    ),
    Mutant(
        "a column of another cell type than int or float is not refused",
        "src/qdeform/report.py",
        " or not kinds <= _CELLS.keys():",
        ":",
        ("tests/test_report.py::test_non_plain_repeated_cell_is_refused",),
    ),
    Mutant(
        "a table takes a range column of any step and start",
        "src/qdeform/report.py",
        "if any(isinstance(c, range) and (c.step != 1 or c.start < 0) for c in cells):",
        "if False:",
        (
            "tests/test_report.py::"
            "test_range_column_other_than_step_1_from_0_up_is_refused",
        ),
    ),
    Mutant(
        "a non-finite float cell is rendered",
        "src/qdeform/report.py",
        "if kind is float and not _NON_FINITE.isdisjoint(every):",
        "if False:",
        ("tests/test_report.py::test_non_finite_column_cell_is_refused",),
    ),
    Mutant(
        "unprefixed head of a range stops at 10 instead of 100",
        "src/qdeform/report.py",
        "first = max(start, 100)",
        "first = max(start, 10)",
        ("tests/test_report.py::test_column_cases_render_as_the_reference",),
    ),
    Mutant(
        "a block's digit slice of a range ends one early",
        "src/qdeform/report.py",
        "_TAILS[max(first - base, 0) : min(stop - base, 100)]",
        "_TAILS[max(first - base, 0) : min(stop - base, 100) - 1]",
        ("tests/test_report.py::test_column_cases_render_as_the_reference",),
    ),
    Mutant(
        "a table with a repeated-cell column counts one row",
        "src/qdeform/report.py",
        "else repeat(c, count) for c in self.cells",
        "else repeat(c, 1) for c in self.cells",
        ("tests/test_report.py::test_column_table_reads_row_by_row",),
    ),
    Mutant(
        "add skips the gcd",
        "src/qdeform/rational.py",
        "return _reduced(\n            self._a * d2",
        "return _raw(\n            self._a * d2",
        ("tests/test_rational.py::test_agrees_with_fraction_pair_oracle",),
    ),
    Mutant(
        "scaling path divides by beta as a product with 1/beta",
        "src/qdeform/clockshift.py",
        "return root / beta, beta * root",
        "return root * (1 / beta), beta * root",
        ("tests/test_clockshift.py::test_scaling_columns_match_points_bit_for_bit",),
    ),
    Mutant(
        "row separator folds the tail columns in after the head",
        "src/qdeform/report.py",
        "sep = tail + row_sep + head",
        "sep = row_sep + head + tail",
        ("tests/test_report.py::test_column_cases_render_as_the_reference",),
    ),
    Mutant(
        "shared column texts keyed by value",
        "src/qdeform/report.py",
        "_bits(earlier) == _bits(values)",
        "earlier == values",
        (
            "tests/test_report.py::"
            "test_columns_equal_but_not_bit_for_bit_keep_their_own_texts",
        ),
    ),
    Mutant(
        "omega-to-0 divides t, not nu, by mu0",
        "src/qdeform/params.py",
        '"omega_ratio": [x / mu0 for x in nu],',
        '"omega_ratio": [x / mu0 for x in t],',
        ("tests/test_params.py::test_path_columns_match_the_formulas_bit_for_bit",),
    ),
    Mutant(
        "contraction paths take any mu0 and nu0",
        "src/qdeform/params.py",
        "if not (math.isfinite(value) and value >= 0):",
        "if False:",
        (
            "tests/test_cli.py::test_path_config_outside_domain_is_named_error",
            "tests/test_cli_grammar.py",
        ),
    ),
    Mutant(
        "parity basis drops the zero mode of odd N",
        "src/qdeform/matrixrep.py",
        "return u, np.concatenate((s, np.zeros(even - odd))), w",
        "return u[:, :odd], s, w",
        ("tests/test_matrixrep.py::test_parity_basis_diagonalizes_x",),
    ),
    Mutant(
        "Gram diagonal of B B^T drops the subdiagonal's squares",
        "src/qdeform/matrixrep.py",
        "    gram_diag[1:] += sub**2\n",
        "",
        ("tests/test_matrixrep.py::test_parity_basis_diagonalizes_x",),
    ),
    Mutant(
        "w = B^T u / s drops the subdiagonal term of B^T u",
        "src/qdeform/matrixrep.py",
        "    w[: sub.size] += sub[:, None] * u[1 : sub.size + 1, :odd]\n",
        "",
        ("tests/test_matrixrep.py::test_parity_basis_diagonalizes_x",),
    ),
    Mutant(
        "singular values taken as the eigenvalues of B B^T, not their roots",
        "src/qdeform/matrixrep.py",
        "s = np.sqrt(np.maximum(lam[:odd], 0.0))",
        "s = np.maximum(lam[:odd], 0.0)",
        ("tests/test_matrixrep.py::test_parity_basis_diagonalizes_x",),
    ),
    Mutant(
        "odd-sector sign vector of D flipped",
        "src/qdeform/matrixrep.py",
        "wp = _signs(odd)[:, None] * w",
        "wp = -_signs(odd)[:, None] * w",
        ("tests/test_matrixrep.py::test_residual_matches_dense_oracle",),
    ),
    Mutant(
        "odd-sector anticommutator enters with the even sector's sign",
        "src/qdeform/matrixrep.py",
        "k_o += c *",
        "k_o -= c *",
        ("tests/test_matrixrep.py::test_residual_matches_dense_oracle",),
    ),
    Mutant(
        "leading block takes a third of the degree K",
        "src/qdeform/matrixrep.py",
        "interior_dim + _reach(max(max(mu, nu) * radius, 1.0)))",
        "interior_dim + _reach(max(max(mu, nu) * radius, 1.0)) // 3)",
        (
            "tests/test_matrixrep.py::test_solved_dim_at_the_documented_points",
            "tests/test_matrixrep.py::test_leading_block_matches_full_solve",
        ),
    ),
    Mutant(
        "leading block leaves the interior out of M + K",
        "src/qdeform/matrixrep.py",
        "min(dim, interior_dim + _reach(",
        "min(dim, _reach(",
        (
            "tests/test_matrixrep.py::test_solved_dim_at_the_documented_points",
            "tests/test_matrixrep.py::test_leading_block_matches_full_solve",
        ),
    ),
    Mutant(
        "leading block sized by the smaller deformation parameter",
        "src/qdeform/matrixrep.py",
        "_reach(max(max(mu, nu)",
        "_reach(max(min(mu, nu)",
        (
            "tests/test_matrixrep.py::test_solved_dim_at_the_documented_points",
            "tests/test_matrixrep.py::test_leading_block_matches_full_solve",
        ),
    ),
    Mutant(
        "symbolic degree bound one past MAX_DEGREE",
        "src/qdeform/cli.py",
        "_within(degree, 0, MAX_DEGREE, source)",
        "_within(degree, 0, MAX_DEGREE + 1, source)",
        ("tests/test_cli.py::test_degree_beyond_bound_is_named_error",),
    ),
    Mutant(
        "symbolic degree bound from -1",
        "src/qdeform/cli.py",
        "_within(degree, 0, MAX_DEGREE, source)",
        "_within(degree, -1, MAX_DEGREE, source)",
        ("tests/test_cli.py::test_degree_beyond_bound_is_named_error",),
    ),
    Mutant(
        "periodicity --n bound one past MAX_N",
        "src/qdeform/cli.py",
        "MAX_N)\n    if not math.isfinite(alpha)",
        "MAX_N + 1)\n    if not math.isfinite(alpha)",
        (
            "tests/test_cli.py::test_size_beyond_bound_is_named_error",
            "tests/test_cli_grammar.py",
        ),
    ),
    Mutant(
        "periodicity --n bound from -1",
        "src/qdeform/cli.py",
        "0, MAX_N)\n    if not math.isfinite(alpha)",
        "-1, MAX_N)\n    if not math.isfinite(alpha)",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "hbar-to-0 --n bound one past MAX_N",
        "src/qdeform/cli.py",
        'MAX_N)\n    command = f"scan --path hbar-to-0',
        'MAX_N + 1)\n    command = f"scan --path hbar-to-0',
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "hbar-to-0 --n bound from -1",
        "src/qdeform/cli.py",
        '0, MAX_N)\n    command = f"scan --path hbar-to-0',
        '-1, MAX_N)\n    command = f"scan --path hbar-to-0',
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "contraction step bound one past MAX_STEP",
        "src/qdeform/cli.py",
        '"--n", 0, MAX_STEP)',
        '"--n", 0, MAX_STEP + 1)',
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "contraction step bound from -1",
        "src/qdeform/cli.py",
        '"--n", 0, MAX_STEP)',
        '"--n", -1, MAX_STEP)',
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "bounds refuse their upper end",
        "src/qdeform/cli.py",
        "if not lo <= value <= hi:",
        "if not lo <= value < hi:",
        (
            "tests/test_cli.py::test_dimension_at_bound_passes_the_bound",
            "tests/test_cli.py::test_n_list_at_length_bound_runs",
        ),
    ),
    Mutant(
        "bounds refuse their lower end",
        "src/qdeform/cli.py",
        "if not lo <= value <= hi:",
        "if not lo < value <= hi:",
        (
            "tests/test_cli.py::test_parse_int_list_forms",
            "tests/test_cli.py::test_verify_matrix_at_the_smallest_dims",
        ),
    ),
    Mutant(
        "a list's least value left unbounded",
        "src/qdeform/cli.py",
        "_within(least, lo, hi, flag)",
        "_within(largest, lo, hi, flag)",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "a list's largest value left unbounded",
        "src/qdeform/cli.py",
        "_within(largest, lo, hi, flag)",
        "_within(least, lo, hi, flag)",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "least value of a comma list read from its start",
        "src/qdeform/cli.py",
        "least, largest = min(values), max(values)",
        "least, largest = values[0], max(values)",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "largest value of a comma list read from its end",
        "src/qdeform/cli.py",
        "least, largest = min(values), max(values)",
        "least, largest = min(values), values[-1]",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "a..b ranges counted one short",
        "src/qdeform/cli.py",
        "largest - least + 1",
        "largest - least",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "comma lists counted one short",
        "src/qdeform/cli.py",
        "count = len(values)\n",
        "count = len(values) - 1\n",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "list length bound one past MAX_POINTS",
        "src/qdeform/cli.py",
        'MAX_POINTS, f"{flag} length")',
        'MAX_POINTS + 1, f"{flag} length")',
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "verify --engine matrix dimension bound one past MAX_MATRIX_DIM",
        "src/qdeform/cli.py",
        "_within(dim, 3, MAX_MATRIX_DIM, source)",
        "_within(dim, 3, MAX_MATRIX_DIM + 1, source)",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "verify --engine matrix dimension bound from 2",
        "src/qdeform/cli.py",
        "_within(dim, 3, MAX_MATRIX_DIM, source)",
        "_within(dim, 2, MAX_MATRIX_DIM, source)",
        ("tests/test_cli.py::test_verify_matrix_at_the_smallest_dims",),
    ),
    Mutant(
        "scan --engine matrix dimension bound one past MAX_MATRIX_DIM",
        "src/qdeform/cli.py",
        '"--dims", 3, MAX_MATRIX_DIM)',
        '"--dims", 3, MAX_MATRIX_DIM + 1)',
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "scan --engine matrix dimension bound from 2",
        "src/qdeform/cli.py",
        '"--dims", 3, MAX_MATRIX_DIM)',
        '"--dims", 2, MAX_MATRIX_DIM)',
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "verify --engine clock-shift dimension bound one past MAX_PAIR_DIM",
        "src/qdeform/cli.py",
        '2, MAX_PAIR_DIM, "--dim")',
        '2, MAX_PAIR_DIM + 1, "--dim")',
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "verify --engine clock-shift dimension bound from 1",
        "src/qdeform/cli.py",
        '2, MAX_PAIR_DIM, "--dim")',
        '1, MAX_PAIR_DIM, "--dim")',
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "clock-shift grid dimension bound one past MAX_GRID_DIM",
        "src/qdeform/cli.py",
        '"--dims", 2, MAX_GRID_DIM)',
        '"--dims", 2, MAX_GRID_DIM + 1)',
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "clock-shift grid dimension bound from 1",
        "src/qdeform/cli.py",
        '"--dims", 2, MAX_GRID_DIM)',
        '"--dims", 1, MAX_GRID_DIM)',
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "clock-shift grid pair-count bound one past MAX_POINTS",
        "src/qdeform/cli.py",
        '1, MAX_POINTS, "--dims pair count")',
        '1, MAX_POINTS + 1, "--dims pair count")',
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "V V^dag read as re*re - im*im",
        "src/qdeform/clockshift.py",
        "c.real * c.real + c.imag * c.imag - 1.0",
        "c.real * c.real - c.imag * c.imag - 1.0",
        ("tests/test_clockshift.py::test_v_unitary_defect_matches_dense_oracle",),
    ),
    Mutant(
        "eq. 8 residual takes q-bar for q",
        "src/qdeform/clockshift.py",
        "q = cmath.exp(-1j * pair.alpha)",
        "q = cmath.exp(1j * pair.alpha)",
        ("tests/test_clockshift.py::test_eq8_residual_matches_dense_oracle",),
    ),
    Mutant(
        "eq. 8 anticommutator takes k_j - k_(j+1)",
        "src/qdeform/clockshift.py",
        "(k + _next(k))",
        "(k - _next(k))",
        ("tests/test_clockshift.py::test_eq8_residual_matches_dense_oracle",),
    ),
    Mutant(
        "q-plane check shifts the clock phases the wrong way",
        "src/qdeform/clockshift.py",
        "np.concatenate((values[..., 1:], values[..., :1]), axis=-1)",
        "np.concatenate((values[..., -1:], values[..., :-1]), axis=-1)",
        ("tests/test_clockshift.py::test_qplane_residual",),
    ),
    Mutant(
        "least n of a range read from its start alone",
        "src/qdeform/clockshift.py",
        "return min(ns[0], ns[-1])",
        "return ns[0]",
        ("tests/test_clockshift.py::test_scaling_columns_refuse_as_points_do",),
    ),
    Mutant(
        "a range of n is spread in float, not in int64",
        "src/qdeform/clockshift.py",
        "n = np.arange(ns.start, ns.stop, ns.step, dtype=np.int64)",
        "n = np.arange(ns.start, ns.stop, ns.step, dtype=float)",
        ("tests/test_clockshift.py::test_scaling_columns_match_points_bit_for_bit",),
    ),
    Mutant(
        "clock phases at the quadrant angles left to cos and sin",
        "src/qdeform/clockshift.py",
        "roots[quadrant] = _QUADRANT_ROOTS[quarters[quadrant] // order]",
        "pass",
        ("tests/test_clockshift.py::test_pauli_pair",),
    ),
    Mutant(
        "p-derivative step takes +i for -i",
        "src/qdeform/weyl.py",
        "b * p, -a * p",
        "-b * p, a * p",
        ("tests/test_weyl.py::test_commutator_p_x",),
    ),
    Mutant(
        "p-derivative step drops the 1/k of 1/k!",
        "src/qdeform/weyl.py",
        "d * k)",
        "d)",
        (
            "tests/test_weyl.py::test_p2_x2_reordering",
            "tests/test_weyl_properties.py::test_high_order_words_match_the_oracle_from_k_zero_and_one",
        ),
    ),
    Mutant(
        "x-derivative step drops the falling factorial",
        "src/qdeform/weyl.py",
        "a * x, b * x",
        "a, b",
        (
            "tests/test_weyl.py::test_p2_x2_reordering",
            "tests/test_weyl_properties.py::test_high_order_words_match_the_oracle_from_k_zero_and_one",
        ),
    ),
    Mutant(
        "product results keep their unreduced accumulator triples",
        "src/qdeform/weyl.py",
        "{key: _reduced(a, b, d) for key",
        "{key: _raw(a, b, d) for key",
        ("tests/test_weyl_properties.py::test_associativity_at_degree_six_randomized",),
    ),
    Mutant(
        "constructor keeps terms past the truncation degree",
        "src/qdeform/weyl.py",
        "key[2] + key[3] <= self.degree and ",
        "",
        ("tests/test_weyl.py::test_constructor_drops_zeros_and_terms_past_the_degree",),
    ),
    Mutant(
        "square-root check squares against 1 - mu^2 P^2",
        "src/qdeform/weyl.py",
        "[(m, n, -1, 0, 1)]",
        "[(m, n, 1, 0, 1)]",
        ("tests/test_weyl.py::test_cosh_is_the_principal_root",),
    ),
    Mutant(
        "square-root check drops the branch element",
        "src/qdeform/weyl.py",
        "_from_accumulator(branch, degree)",
        "WeylSeriesElement(degree)",
        ("tests/test_weyl.py::test_sqrt_defects_refuse_every_other_root",),
    ),
    Mutant(
        "raw sum over unequal denominators keeps the old denominator",
        "src/qdeform/weyl.py",
        "cur[2] = e * d",
        "cur[2] = e",
        ("tests/test_weyl_properties.py::test_jacobi_at_degree_six_randomized",),
    ),
    Mutant(
        "product kernel flips the sign of the weight's imaginary part",
        "src/qdeform/weyl.py",
        "c._a * re - c._b * im, c._a * im + c._b * re",
        "c._a * re + c._b * im, -c._a * im + c._b * re",
        ("tests/test_weyl_properties.py::test_linear_operations_match_coefficientwise_oracle",),
    ),
    Mutant(
        "q-oscillator target divides its quadratic terms by 3, not 2",
        "src/qdeform/weyl.py",
        "half = _raw(0, -1, 2)",
        "half = _raw(0, -1, 3)",
        ("tests/test_weyl.py::test_leading_order_target_form",),
    ),
    Mutant(
        "exchange residual adds the phased product instead of subtracting it",
        "src/qdeform/weyl.py",
        "_terms(exp_x, -1, 0)",
        "_terms(exp_x, 1, 0)",
        ("tests/test_weyl.py::test_exchange_residual_zero",),
    ),
    Mutant(
        "exchange phase enters its central product with the sign flipped",
        "src/qdeform/weyl.py",
        "phase.append((j, j, re, im, factorial(j)))",
        "phase.append((j, j, -re, -im, factorial(j)))",
        ("tests/test_weyl.py::test_exchange_residual_zero",),
    ),
    Mutant(
        "exchange phase keeps its j = 0 term",
        "src/qdeform/weyl.py",
        "for j in range(1, degree // 2 + 1):",
        "for j in range(degree // 2 + 1):",
        ("tests/test_weyl.py::test_exchange_residual_zero",),
    ),
    Mutant(
        "bracket keeps the k = 0 term",
        "src/qdeform/weyl.py",
        "_add_terms(identity, p, x, degree, 1)",
        "_add_terms(identity, p, x, degree, 0)",
        ("tests/test_weyl.py::test_identity_residual_heisenberg_corner",),
    ),
    Mutant(
        "a central factor leaves its own degree out of the term's total",
        "src/qdeform/weyl.py",
        "(deg + m + n, x, p,",
        "(deg, x, p,",
        ("tests/test_weyl_properties.py::test_reordering_terms_from_k_one_give_both_brackets",),
    ),
    Mutant(
        "right-hand side counts the k = 0 product of its anticommutator once",
        "src/qdeform/weyl.py",
        "twice = [(m, n, 0, 2 * b, d)",
        "twice = [(m, n, 0, b, d)",
        ("tests/test_weyl.py::test_identity_residual_heisenberg_corner",),
    ),
    Mutant(
        "element subtraction adds instead of subtracting",
        "src/qdeform/weyl.py",
        "_add_scaled(acc, other.terms, -1)",
        "_add_scaled(acc, other.terms, 1)",
        ("tests/test_weyl_properties.py::test_linear_operations_match_coefficientwise_oracle",),
    ),
    Mutant(
        "product kernel drops term pairs whose total degree is the cap",
        "src/qdeform/weyl.py",
        "if deg2 > room:",
        "if deg2 >= room:",
        ("tests/test_weyl_properties.py::test_canonical_generators_commutation",),
    ),
    Mutant(
        "product kernel drops a left term whose degree meets the cap exactly",
        "src/qdeform/weyl.py",
        "if p and deg <= top",
        "if p and deg < top",
        (
            "tests/test_weyl_properties.py::"
            "test_product_at_the_cap_on_its_last_order_matches_the_oracle",
        ),
    ),
    Mutant(
        "product kernel stops one order early, once no right term has an x left",
        "src/qdeform/weyl.py",
        "        if not right:\n",
        "        if not [t for t in right if t[1]]:\n",
        (
            "tests/test_weyl_properties.py::"
            "test_product_at_the_cap_on_its_last_order_matches_the_oracle",
        ),
    ),
    Mutant(
        "prefactor recurrence adds the inner sum",
        "src/qdeform/weyl.py",
        "acc -= (-1) ** (j // 2)",
        "acc += (-1) ** (j // 2)",
        ("tests/test_weyl.py::test_prefactor_frozen_values",),
    ),
    Mutant(
        "prefactor recurrence shifts by j/2 instead of j/2 - 1",
        "src/qdeform/weyl.py",
        "<< (j // 2 - 1)",
        "<< (j // 2)",
        ("tests/test_weyl.py::test_prefactor_frozen_values",),
    ),
    Mutant(
        "term text pulls the sign out whenever b < 0, also when a != 0",
        "src/qdeform/weyl.py",
        "(b < 0 and not a)",
        "b < 0",
        ("tests/test_weyl_properties.py::test_theta_text_matches_fraction_pair_oracle",),
    ),
    Mutant(
        "ratio text skips its gcd",
        "src/qdeform/rational.py",
        "n, d = n // g, d // g",
        "pass",
        ("tests/test_weyl_properties.py::test_theta_text_matches_fraction_pair_oracle",),
    ),
    Mutant(
        "residual_at_smallest_dim gets a gate that no witness shows can fail",
        "src/qdeform/cli.py",
        'Metric("residual_at_smallest_dim", first, None)',
        'Metric("residual_at_smallest_dim", first, 1.0)',
        (
            "tests/test_cli.py::test_every_gated_metric_has_one_witness",
            "tests/test_cli.py::test_every_gate_sits_at_its_stated_value",
        ),
    ),
    Mutant(
        "excess measured from the last residual",
        "src/qdeform/cli.py",
        "max(0.0, last - max(first, MATRIX_NOISE_FLOOR))",
        "max(0.0, last - max(last, MATRIX_NOISE_FLOOR))",
        ("tests/test_cli.py::test_input_witness_fails_its_metric",),
    ),
    Mutant(
        "matrix residual gate loosened tenfold",
        "src/qdeform/cli.py",
        "MATRIX_RESIDUAL_TOL = 1e-8",
        "MATRIX_RESIDUAL_TOL = 1e-7",
        (
            "tests/test_cli.py::test_verify_failure_exit_code",
            "tests/test_cli.py::test_every_gate_sits_at_its_stated_value",
        ),
    ),
    Mutant(
        "matrix noise floor raised tenfold",
        "src/qdeform/cli.py",
        "MATRIX_NOISE_FLOOR = 1e-12",
        "MATRIX_NOISE_FLOOR = 1e-11",
        ("tests/test_cli.py::test_scan_bytes_match_per_point_route",),
    ),
    Mutant(
        "clock-shift residual gate loosened tenfold",
        "src/qdeform/cli.py",
        "CLOCKSHIFT_RESIDUAL_TOL = 1e-12",
        "CLOCKSHIFT_RESIDUAL_TOL = 1e-11",
        ("tests/test_cli.py::test_every_gate_sits_at_its_stated_value",),
    ),
    Mutant(
        "V unitarity gate loosened tenfold",
        "src/qdeform/cli.py",
        "CLOCKSHIFT_UNITARY_TOL = 1e-13",
        "CLOCKSHIFT_UNITARY_TOL = 1e-12",
        ("tests/test_cli.py::test_every_gate_sits_at_its_stated_value",),
    ),
    Mutant(
        "the M column echoes N",
        "src/qdeform/cli.py",
        "[dims, interior, mu, nu,",
        "[dims, dims, mu, nu,",
        ("tests/test_cli.py::test_scan_matrix_csv",),
    ),
    Mutant(
        "the default interior may reach N",
        "src/qdeform/cli.py",
        "min(max(4, dim // 4), dim - 1)",
        "max(4, dim // 4)",
        ("tests/test_cli.py::test_verify_matrix_at_the_smallest_dims",),
    ),
    Mutant(
        "a subnormal mu divides sinh(mu*s) by mu",
        "src/qdeform/matrixrep.py",
        "s_mu / mu if mu >= sys.float_info.min else spectrum",
        "s_mu / mu if mu > 0 else spectrum",
        ("tests/test_cli.py::test_subnormal_parameter_gives_the_undeformed_operator",),
    ),
    Mutant(
        "a subnormal nu divides sinh(nu*s) by nu",
        "src/qdeform/matrixrep.py",
        "s_nu / nu if nu >= sys.float_info.min else spectrum",
        "s_nu / nu if nu > 0 else spectrum",
        ("tests/test_cli.py::test_subnormal_parameter_gives_the_undeformed_operator",),
    ),
    Mutant(
        "a repeated config key overrides the first",
        "src/qdeform/config.py",
        "if key in first_line:",
        "if False:",
        (
            "tests/test_cli.py::test_config_parsing",
            "tests/test_cli.py::test_repeated_config_key_is_named_error",
        ),
    ),
    Mutant(
        "clock-shift grid row also reads --alpha",
        "src/qdeform/cli.py",
        '--dims": (("dims",), _scan_clockshift_grid),',
        '--dims": (("dims", "alpha"), _scan_clockshift_grid),',
        ("tests/test_cli.py::test_scan_selector_errors_name_both_flags",),
    ),
    Mutant(
        "route table drops the clock-shift verify row",
        "src/qdeform/cli.py",
        '    "verify --engine clock-shift": (("dim", "level"), _verify_clockshift),\n',
        "",
        (
            "tests/test_cli.py::test_verify_clockshift_passes",
            "tests/test_cli.py::test_flag_table_has_one_row_per_command_route",
        ),
    ),
    Mutant(
        "row finder sends --dims to the periodicity table",
        "src/qdeform/cli.py",
        '("--alpha" if args.dims is None else "--dims")',
        '"--alpha"',
        ("tests/test_cli.py::test_scan_clockshift_grid",),
    ),
    Mutant(
        "cli imports numpy and the numeric engines eagerly",
        "src/qdeform/cli.py",
        "from . import config, params\n",
        "import numpy as np\n\nfrom . import clockshift, config, matrixrep, params\n",
        ("tests/test_cli.py::test_cli_import_loads_no_engine_numpy_or_dataclasses",),
    ),
    Mutant(
        "verify counts coefficients instead of words",
        "src/qdeform/cli.py",
        "len({(x, p) for x, p, _, _ in element.terms})",
        "len(element.terms)",
        (
            "tests/test_cli.py::test_verify_symbolic_counts_words_but_low_degree_coefficients",
        ),
    ),
    Mutant(
        "periodicity scan decides the pole through the clock-shift engine",
        "src/qdeform/cli.py",
        "    alpha = args.alpha  # the periodicity row",
        "    from .clockshift import q_from_alpha  # noqa: F401\n\n"
        "    alpha = args.alpha  # the periodicity row",
        ("tests/test_cli.py::test_periodicity_scan_never_loads_numpy",),
    ),
    Mutant(
        "cli imports the symbolic engine eagerly",
        "src/qdeform/cli.py",
        "from . import config, params\n",
        "from . import config, params, weyl\n",
        (
            "tests/test_cli.py::test_cli_import_loads_no_engine_numpy_or_dataclasses",
            "tests/test_cli.py::test_non_symbolic_rows_never_load_the_symbolic_engine",
        ),
    ),
    Mutant(
        "a flag unknown to its command is read as text",
        "src/qdeform/cli.py",
        'kind = flags.get(flag[2:]) if flag.startswith("--") else None',
        'kind = flags.get(flag[2:], str) if flag.startswith("--") else None',
        (
            "tests/test_cli_grammar.py::test_usage_error_names_its_token_on_stderr",
            "tests/test_cli.py::test_unknown_flag_is_usage_error",
        ),
    ),
    Mutant(
        "a token that begins with -- is read as the value of the flag before it",
        "src/qdeform/cli.py",
        'if value is None or value.startswith("--"):',
        "if value is None:",
        ("tests/test_cli_grammar.py::test_usage_error_names_its_token_on_stderr",),
    ),
    Mutant(
        "periodicity row keeps a pole band of its own, 1e-12 wide",
        "src/qdeform/cli.py",
        "if params.near_pole(alpha):",
        "if abs(1.0 + math.cos(alpha)) <= 1e-12:",
        ("tests/test_cli.py::test_one_pole_band_for_prefactor_periodicity_row_and_q",),
    ),
    Mutant(
        "q's quotient form refused by |1 + e^(i alpha)|, not by the pole band",
        "src/qdeform/clockshift.py",
        "if near_pole(alpha):",
        "if abs(1.0 + cmath.exp(1j * alpha)) <= 1e-9:",
        ("tests/test_cli.py::test_one_pole_band_for_prefactor_periodicity_row_and_q",),
    ),
    Mutant(
        "--level left to the engine's own refusal, not _within",
        "src/qdeform/cli.py",
        'level = _within(args.level if args.level is not None else 1, 1, dim - 1, "--level")',
        "level = args.level if args.level is not None else 1",
        (
            "tests/test_cli.py::test_size_beyond_bound_is_named_error",
            "tests/test_cli_grammar.py::test_every_argv_ends_in_a_verdict_or_a_named_error",
        ),
    ),
    Mutant(
        "a literal past int()'s digits taken without _within",
        "src/qdeform/cli.py",
        "values.append(int(_within(Decimal(tok), lo, hi, flag)))",
        "values.append(int(Decimal(tok)))",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "matrix scan shares the solve of the smallest dim's N' with every N",
        "src/qdeform/cli.py",
        "block = matrixrep.solved_dim(n, interior, mu, nu)",
        "block = matrixrep.solved_dim(dims[0], interior, mu, nu)",
        (
            "tests/test_cli.py::"
            "test_matrix_scan_solving_each_leading_block_once_matches_per_n_calls",
        ),
    ),
    Mutant(
        "clock-shift pair phases built at the pole level N/2",
        "src/qdeform/clockshift.py",
        "phases = _roots_of_unity(dim, np.arange(dim) * level)",
        "phases = _roots_of_unity(dim, np.arange(dim) * (dim // 2))",
        ("tests/test_cli.py::test_verify_clockshift_passes",),
    ),
)


def _pytest(work: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    # a plain assert fails a mutant's test just as well, and pytest then
    # skips rewriting the asserts of every plugin module at start-up (one
    # test took 0.85 s instead of 2.1 s on a 2-vCPU x86-64 host)
    command = [
        sys.executable, "-m", "pytest", "-q", "-x",
        "-p", "no:cacheprovider", "--assert=plain",
    ]
    return subprocess.run(
        command + list(tests),
        cwd=work,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def _outcome(work: Path, mutant: Mutant) -> str:
    target = work / mutant.path
    source = target.read_text(encoding="utf-8")
    count = source.count(mutant.old)
    if count != 1:
        return f"pattern occurs {count} times"
    target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        code = _pytest(work, mutant.tests)
    finally:
        target.write_text(source, encoding="utf-8")
    # pytest exits 1 on failed tests and 2 on errors in collecting them
    if code in (1, 2):
        return "killed"
    return "survived" if code == 0 else f"pytest exit {code}"


def main() -> int:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="qdeform-mutants-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, work)
        tests = tuple(sorted({t for mutant in MUTANTS for t in mutant.tests}))
        if _pytest(work, tests) != 0:
            print("the tests fail without a mutant; nothing to judge")
            return 1
        failed = 0
        for mutant in MUTANTS:
            outcome = _outcome(work, mutant)
            failed += outcome != "killed"
            print(f"{outcome:<9} {mutant.name} ({mutant.path})", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
