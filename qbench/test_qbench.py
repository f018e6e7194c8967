"""Tests of the benchmark itself: generator, oracle and span arithmetic.

    python3 -m pytest qbench/test_qbench.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads
from workloads import Command

ROOT = Path(__file__).resolve().parents[1]


# -- generator ----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_generator_does_not_depend_on_hash_randomisation():
    code = (
        "import workloads; "
        "print([c.key for w in workloads.WORKLOADS for c in workloads.generate(w, 3)])"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=Path(__file__).parent,
            env={"PYTHONHASHSEED": hashseed},
            capture_output=True, text=True, check=True,
        ).stdout
        for hashseed in ("1", "2")
    }
    assert len(outs) == 1


@pytest.mark.parametrize("seed", range(20))
def test_generated_inputs_stay_inside_their_documented_ranges(seed):
    reference = oracle.load_reference()
    for workload in workloads.WORKLOADS:
        cmds = workloads.generate(workload, seed)
        assert len(cmds) > run.TAIL_BEYOND + 25
        for cmd in cmds:
            if cmd.exact:
                assert cmd.key in reference
    for cmd in workloads.generate("matrix", seed):
        args = dict(zip(cmd.argv[3::2], cmd.argv[4::2]))
        if "--dims" in args:
            dims = [int(d) for d in args["--dims"].split(",")]
            assert dims == sorted(set(dims)) and 10 <= dims[0] <= 12 and dims[-1] == 256
            top = dims[-1]
        else:
            top = int(args["--dim"])
            assert 64 <= top <= 512
        worst = max(float(args["--mu"]), float(args["--nu"]))
        assert worst * math.sqrt(2 * top) <= workloads.MATRIX_ENVELOPE


def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


# -- oracle -------------------------------------------------------------------


def _report(verdict="pass", value=1e-13, threshold=1e-12, rows=None):
    table = None
    if rows is not None:
        table = {"columns": ["alpha", "n", "deviation"], "rows": rows}
    return json.dumps({
        "schemaVersion": 1,
        "verdict": verdict,
        "metrics": [{"name": "max_residual", "value": value, "threshold": threshold}],
        "table": table,
        "timestamp": "2026-01-01T00:00:00Z",
    }, indent=2)


JSON_CMD = Command(("verify", "--engine", "clock-shift", "--dim", "8", "--level", "3"))


def test_oracle_accepts_a_passing_report():
    assert oracle.Oracle({}).check(JSON_CMD, 0, _report()) is None


def test_oracle_rejects_non_strict_json():
    text = _report().replace("1e-13", "NaN")
    assert "JSON" in oracle.Oracle({}).check(JSON_CMD, 0, text)
    text = _report().replace("1e-12", "Infinity")
    assert "JSON" in oracle.Oracle({}).check(JSON_CMD, 0, text)


def test_oracle_rejects_a_wrong_verdict_and_a_metric_over_threshold():
    assert "verdict" in oracle.Oracle({}).check(JSON_CMD, 0, _report("fail"))
    assert ">" in oracle.Oracle({}).check(JSON_CMD, 0, _report(value=1e-11))


def test_oracle_rejects_a_traceback_and_a_bad_exit_code():
    assert "raised" in oracle.Oracle({}).check(JSON_CMD, None, "", "Traceback\nKeyError: x")
    assert "exit code" in oracle.Oracle({}).check(JSON_CMD, 2, _report())


def test_oracle_rejects_a_changed_exact_output_but_ignores_the_timestamp():
    cmd = Command(("verify", "--engine", "symbolic", "--degree", "10"), exact=True)
    reference = {cmd.key: oracle.digest(_report(value=0, threshold=0))}
    check = oracle.Oracle(reference)
    later = _report(value=0, threshold=0).replace("2026-01-01", "2027-05-05")
    assert check.check(cmd, 0, later) is None
    assert "reference" in check.check(cmd, 0, _report(value=1, threshold=1))
    assert "reference" in oracle.Oracle({}).check(cmd, 0, later)


def test_oracle_compares_a_csv_table_with_the_json_one():
    rows = [[1.0, 0, 0.0], [1.0, 1, 0.0]]
    json_cmd = Command(("scan", "--alpha", "1.0", "--n", "0..1"), rows=2)
    csv_cmd = Command(json_cmd.argv + ("--format", "csv"), fmt="csv", rows=2)
    check = oracle.Oracle({}, [json_cmd, csv_cmd])
    assert check.check(json_cmd, 0, _report(rows=rows)) is None
    assert check.check(csv_cmd, 0, "alpha,n,deviation\n1.0,0,0.0\n1.0,1,0.0\n") is None
    # either order; a changed value is caught
    check = oracle.Oracle({}, [json_cmd, csv_cmd])
    assert check.check(csv_cmd, 0, "alpha,n,deviation\n1.0,0,0.0\n1.0,1,0.5\n") is None
    assert "differ" in check.check(json_cmd, 0, _report(rows=rows))
    assert "rows" in check.check(csv_cmd, 0, "alpha,n,deviation\n1.0,0,0.0\n")
    assert "non-finite" in check.check(csv_cmd, 0, "alpha,n,deviation\n1.0,0,nan\n1,1,0\n")


# -- spans --------------------------------------------------------------------

# cli.main [0, 10] -> weyl.identity_residual [1, 6] -> two normal_products,
#                  -> report.render [7, 8]
TREE = [
    ["cli.main", 0.0, 10.0, -1],
    ["weyl.identity_residual", 1.0, 6.0, 0],
    ["weyl.normal_product", 2.0, 3.0, 1],
    ["weyl.normal_product", 3.5, 5.0, 1],
    ["report.render", 7.0, 8.0, 0],
]


def test_self_time_on_a_hand_built_tree():
    assert spans.self_times(TREE) == [4.0, 2.5, 1.0, 1.5, 1.0]


def test_busy_time_counts_outermost_spans_only():
    assert spans.busy(TREE, lambda n: n.startswith("weyl.")) == 5.0
    assert spans.busy(TREE, lambda n: n == "weyl.normal_product") == 2.5
    nested = [["weyl.f", 0.0, 4.0, -1], ["weyl.f", 1.0, 2.0, 0]]
    assert spans.busy(nested, lambda n: n == "weyl.f") == 4.0


def test_layer_figures_from_a_hand_built_tree():
    figures = spans.layer_figures(TREE, {"report.bytes_out": 12})
    assert figures["cli.self_s"] == 4.0
    assert figures["weyl.normal_product.calls"] == 2
    assert figures["weyl.normal_product.self_s"] == 2.5
    assert figures["weyl.identity_residual.busy_s"] == 5.0
    assert figures["report.render.busy_s"] == 1.0
    assert figures["report.bytes_out"] == 12
    assert figures["numpy.eigh.calls"] == 0


def test_coefficient_bits_reads_an_element():
    sys.path.insert(0, str(ROOT / "src"))
    from qdeform import weyl

    # cosh(mu p) to degree 4: 1, 1/2, 1/24
    assert spans.coefficient_bits(weyl.cosh_element("momentum", 4)) == 5


def test_tail_keeps_ten_samples_beyond_it():
    value, percentile = run.tail_value([float(i) for i in range(40)])
    assert value == 29.0 and percentile == 75.0
    with pytest.raises(ValueError):
        run.tail_value([1.0] * 10)


def test_traced_worker_records_spans_and_counts():
    argv = ("verify", "--engine", "clock-shift", "--dim", "8", "--level", "3")
    with run.Worker(ROOT / "src", blas_threads=1, traced=True, kernel="eigh") as w:
        code, out, _, error, seconds, calibration = w.call(argv)
        summary = w.call(None)
    assert code == 0 and error is None and seconds > 0 and calibration > 0
    figures = spans.layer_figures(summary["spans"], summary["counts"])
    assert figures["clockshift.build_pair.calls"] == 1
    assert figures["clockshift.dense_bytes_computed"] == 2 * 8 * 8 * 16
    assert figures["report.render.calls"] == 1
    assert figures["report.bytes_out"] == len(out.encode())
    assert figures["cli.self_s"] > 0
    assert figures["numpy.eigh.calls"] == 0  # the calibration eigh is not traced
    assert summary["spans"][0][spans.NAME] == "config.load_config"  # set-up


def test_every_workload_has_a_calibration_kernel_with_a_reference_time():
    import worker

    for workload in workloads.WORKLOADS:
        kernel = workloads.CALIBRATION[workload]
        assert kernel in worker.KERNELS and run.CAL_REFERENCE_S[kernel] > 0
