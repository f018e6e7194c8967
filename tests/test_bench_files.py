"""The performance trajectory: every BENCH_<pr>.json at the root of the
checkout carries the fields that BENCH_36.json, the first of them, set.

Each file holds, for the seeds it lists and for every workload that
BENCHMARK.json declares: the exact argv of each seed's run, the host, the
attempted and failed command counts (no command may fail), and for each
end-to-end metric of BENCHMARK.json its median, quartiles and per-seed
values.  The quartiles are statistics.quantiles(n=4, method="inclusive")
of the per-seed values, as the files' description states.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
METRICS = [metric["name"] for metric in BENCHMARK["end_to_end"]]
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_trajectory_starts_at_bench_36():
    assert ROOT / "BENCH_36.json" in FILES


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_bench_file_carries_every_field(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    seeds = bench["seeds"]
    assert seeds and all(isinstance(seed, int) for seed in seeds)
    assert sorted(bench["workloads"]) == sorted(WORKLOADS)
    for name, workload in bench["workloads"].items():
        assert len(workload["argv"]) == len(seeds)
        for argv, seed in zip(workload["argv"], seeds):
            assert argv[:2] == ["python3", "qbench/run.py"]
            flags = dict(zip(argv[2::2], argv[3::2]))
            assert flags["--workload"] == name and flags["--seed"] == str(seed)
        assert {"python", "numpy", "openblas", "nproc"} <= set(workload["host"])
        assert len(workload["attempted"]) == len(seeds)
        assert all(count > 0 for count in workload["attempted"])
        assert workload["failed"] == [0] * len(seeds)
        assert sorted(workload["metrics"]) == sorted(METRICS)
        for metric in workload["metrics"].values():
            values = metric["per_seed"]
            assert len(values) == len(seeds)
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            assert (metric["q1"], metric["median"], metric["q3"]) == (q1, median, q3)
