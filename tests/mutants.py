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
        "equal-denominator add skips the gcd",
        "src/qdeform/rational.py",
        "return _reduced(self._a + other._a, self._b + other._b, d1)",
        "return _raw(self._a + other._a, self._b + other._b, d1)",
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
        "symbolic degree without its upper bound",
        "src/qdeform/cli.py",
        "if not 0 <= degree <= MAX_DEGREE:",
        "if degree < 0:",
        ("tests/test_cli.py::test_degree_beyond_bound_is_named_error",),
    ),
    Mutant(
        "scan --n without its upper bound",
        "src/qdeform/cli.py",
        "if largest > MAX_N:",
        "if False:",
        (
            "tests/test_cli.py::test_n_beyond_bound_is_named_error",
            "tests/test_cli_grammar.py",
        ),
    ),
    Mutant(
        "largest n of a comma list read from its end",
        "src/qdeform/cli.py",
        "largest = ns[-1] if isinstance(ns, range) else max(ns)",
        "largest = ns[-1]",
        ("tests/test_cli.py::test_n_beyond_bound_is_named_error",),
    ),
    Mutant(
        "size bounds refuse the bound itself",
        "src/qdeform/cli.py",
        "if value > bound:",
        "if value >= bound:",
        (
            "tests/test_cli.py::test_dimension_at_bound_passes_the_bound",
            "tests/test_cli.py::test_n_list_at_length_bound_runs",
        ),
    ),
    Mutant(
        "a..b ranges without their length bound",
        "src/qdeform/cli.py",
        '_at_most(hi - lo + 1, MAX_POINTS, f"{flag} length")',
        "pass",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "comma lists without their length bound",
        "src/qdeform/cli.py",
        '_at_most(len(values), MAX_POINTS, f"{flag} length")',
        "pass",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "verify --engine matrix without its dimension bound",
        "src/qdeform/cli.py",
        "_at_most(dim, MAX_MATRIX_DIM, source)",
        "pass",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "scan --engine matrix without its dimension bound",
        "src/qdeform/cli.py",
        '_at_most(max(dims), MAX_MATRIX_DIM, "--dims")',
        "pass",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "verify --engine clock-shift without its dimension bound",
        "src/qdeform/cli.py",
        '_at_most(dim, MAX_PAIR_DIM, "--dim")',
        "pass",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "clock-shift grid without its dimension bound",
        "src/qdeform/cli.py",
        '_at_most(max(dims), MAX_GRID_DIM, "--dims")',
        "pass",
        ("tests/test_cli.py::test_size_beyond_bound_is_named_error",),
    ),
    Mutant(
        "clock-shift grid without its pair-count bound",
        "src/qdeform/cli.py",
        '_at_most(pairs, MAX_POINTS, "--dims pair count")',
        "pass",
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
        "periodicity scan takes the pole tolerance from the clock-shift engine",
        "src/qdeform/cli.py",
        "    alpha = args.alpha  # the periodicity row",
        "    from .clockshift import Q_POLE_TOL  # noqa: F401\n\n"
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
