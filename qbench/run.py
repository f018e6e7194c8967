"""qdeform benchmark: seeded CLI workloads, closed loop, checked outputs.

Run from the root of a qdeform checkout:

    python3 qbench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0

One client drives one worker process at a time, and each command starts
only after the previous one returned and its output was checked (see
oracle.py).  A repetition is the workload's whole command list in a
fresh worker; repetitions run as long as another one ends within
``--seconds`` (at least three).

The host is shared, and its speed changes by up to a factor of two over
seconds to minutes (see README.md).  Right before each command the
worker times a fixed calibration kernel of the workload's kind of work
(worker.KERNELS, chosen by workloads.CALIBRATION); a command's time is
the median over the repetitions of its measured time divided by that
kernel time, expressed in *reference seconds* by multiplying with the
kernel's fastest time on the host the benchmark was tuned on
(CAL_REFERENCE_S).  The end-to-end metrics are then:

* ``wall_s``: the sum of the command times, the time the whole list takes;
* ``cmd_p50_s``: the median command time;
* ``cmd_tail_s``: the highest command-time percentile with ten commands
  beyond it (about the 73rd for the 37-38 commands of a list);
* ``setup_s``: the median, over every worker of the run, of importing
  ``qdeform.cli`` with numpy and running ``config.load_config``, in
  reference seconds (scaled by the kernel's time right after set-up);
* ``peak_rss_mb``: the median peak resident memory of a repetition's worker.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (see spans.py), after checking that every count
repeats exactly between the traced repetitions.  The last line of
standard output is the result object; the lines before it give each
metric with its unit and a ``context`` object with the seed, the
generated argv lists, the pinned thread count, the versions and the
sample counts.  Exits 2, printing no result, when the directory is not
a qdeform checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path

import oracle
import spans
import workloads

WORKER_PY = Path(__file__).resolve().with_name("worker.py")

# Per-command medians need a few repetitions even when --seconds is short.
MIN_REPETITIONS = 3
MIN_TRACED_REPETITIONS = 2
# Workers that only set up, started before each repetition so that the
# set-up samples spread over the whole run.
SETUP_ONLY_PER_REPETITION = 2
REPLY_TIMEOUT_S = 150
# Each calibration kernel's (worker.KERNELS) fastest time on the 2-vCPU
# Xeon VM the benchmark was tuned on: times are reported as if the host
# ran at that speed.
CAL_REFERENCE_S = {"fraction": 0.0035, "eigh": 0.0021}
# A tail percentile needs at least this many commands beyond it.
TAIL_BEYOND = 10

END_TO_END = (
    ("wall_s", "s"),
    ("cmd_p50_s", "s"),
    ("cmd_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    pass


# Workers started and not yet waited for; a signal handler kills them.
_LIVE: set[subprocess.Popen] = set()


class Worker:
    """One worker process, started with ``subprocess`` and talked to over
    two pipes; stopped and waited for on every way out.

    ``multiprocessing`` is not used: its ``spawn`` start method leaves a
    resource-tracker process behind that outlives the client briefly.
    """

    def __init__(self, src_dir: Path, blas_threads: int, traced: bool, kernel: str):
        to_child_r, to_child_w = os.pipe()
        from_child_r, from_child_w = os.pipe()
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable, str(WORKER_PY), str(to_child_r), str(from_child_w),
                    str(src_dir), str(blas_threads), str(int(traced)), kernel,
                ],
                pass_fds=(to_child_r, from_child_w),
                stdin=subprocess.DEVNULL,
                stdout=sys.stderr.fileno(),  # stray prints stay off the result stream
            )
        except BaseException:
            for fd in (to_child_r, to_child_w, from_child_r, from_child_w):
                os.close(fd)
            raise
        _LIVE.add(self.proc)
        os.close(to_child_r)
        os.close(from_child_w)
        self.conn = Connection(from_child_r, readable=True, writable=False)
        self.out = Connection(to_child_w, readable=False, writable=True)
        try:
            self.hello = self._receive()
        except BaseException:
            self._stop(at_once=True)
            raise

    def _receive(self):
        if not self.conn.poll(REPLY_TIMEOUT_S):
            raise WorkerError(f"worker gave no reply within {REPLY_TIMEOUT_S} s")
        try:
            return self.conn.recv()
        except EOFError:
            self.proc.wait(10)
            raise WorkerError(
                f"worker died (exit code {self.proc.returncode})"
            ) from None

    def call(self, message):
        self.out.send(message)
        return self._receive()

    def _stop(self, at_once: bool) -> None:
        self.out.close()  # a waiting worker reads end of file and exits
        try:
            self.proc.wait(0.1 if at_once else 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        _LIVE.discard(self.proc)
        self.conn.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # a worker still busy when the client gives up is killed at once
        self._stop(at_once=exc_type is not None)


def tail_value(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND
    samples above it."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the tail sample
    if rank < 1:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {len(ordered)}")
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Session:
    """Repetitions of one workload's command list, with their checks."""

    def __init__(
        self, src_dir: Path, workload: str, seed: int, blas_threads: int, reference
    ):
        self.src_dir = src_dir
        self.commands = workloads.generate(workload, seed)
        self.kernel = workloads.CALIBRATION[workload]
        # each repetition runs the list in its own order, so that what ran
        # before a command (and left garbage or a fragmented heap) changes
        # between its samples
        self.order_rng = random.Random(f"qbench:order:{seed}")
        self.blas_threads = blas_threads
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.environment: dict = {}

    def setup_only(self) -> float:
        with Worker(self.src_dir, self.blas_threads, False, self.kernel) as w:
            self.environment = w.hello["environment"]
            w.call(None)
            return self.reference_setup(w.hello)

    def repetition(self, traced: bool) -> dict:
        """Run the list once in a fresh worker, in a new order, checking each
        output.  ``seconds`` is indexed like the list, not like the order."""
        check = oracle.Oracle(self.reference, self.commands)
        seconds = [0.0] * len(self.commands)
        calibration = [0.0] * len(self.commands)
        order = list(range(len(self.commands)))
        self.order_rng.shuffle(order)
        with Worker(self.src_dir, self.blas_threads, traced, self.kernel) as w:
            self.environment = w.hello["environment"]
            for i in order:
                cmd = self.commands[i]
                code, out, err, error, elapsed, cal = w.call(cmd.argv)
                seconds[i] = elapsed
                calibration[i] = cal
                self.attempted += 1
                problem = check.check(cmd, code, out, error)
                if problem:
                    self.failures.append(f"{cmd.key}: {problem}")
            summary = w.call(None)
        summary["setup_s"] = self.reference_setup(w.hello)
        summary["seconds"] = seconds
        summary["calibration"] = calibration
        return summary

    def reference_setup(self, hello: dict) -> float:
        """A worker's set-up time in reference seconds, scaled by the
        calibration kernel's time right after the set-up."""
        return CAL_REFERENCE_S[self.kernel] * hello["setup_s"] / hello["calibration_s"]

    def reference_times(self, reps: list[dict]) -> list[float]:
        """Each command's time in reference seconds: the median over the
        repetitions of its time divided by the calibration kernel's time
        just before it, times the kernel's reference time."""
        return [
            CAL_REFERENCE_S[self.kernel] * statistics.median(t / c for t, c in zip(times, cals))
            for times, cals in zip(
                zip(*(r["seconds"] for r in reps)), zip(*(r["calibration"] for r in reps))
            )
        ]


def fastest(reps: list[dict]) -> list[float]:
    """Each command's fastest measured time over the repetitions."""
    return [min(times) for times in zip(*(r["seconds"] for r in reps))]


def rounds(minimum: int, seconds: float):
    """Yield round numbers: at least ``minimum``, then as long as a round
    of the mean length so far still ends within ``seconds``."""
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed + elapsed / done > seconds:
            return
        yield done
        done += 1


def measure(session: Session, seconds: float) -> dict:
    setups, reps = [], []
    for _ in rounds(MIN_REPETITIONS, seconds):
        setups += [session.setup_only() for _ in range(SETUP_ONLY_PER_REPETITION)]
        reps.append(session.repetition(traced=False))
    setups += [r["setup_s"] for r in reps]
    per_command = session.reference_times(reps)
    tail, percentile = tail_value(per_command)
    metrics = {
        "wall_s": sum(per_command),
        "cmd_p50_s": statistics.median(per_command),
        "cmd_tail_s": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    context = {
        "repetitions": len(reps),
        "repetition_wall_s": [sum(r["seconds"]) for r in reps],
        "fastest_wall_s": sum(fastest(reps)),
        "calibration_median_s": statistics.median(
            c for r in reps for c in r["calibration"]
        ),
        "cmd_samples": (
            f"{len(per_command)} commands, each the median of {len(reps)} repetitions"
        ),
        "cmd_tail_percentile": percentile,
        "setup_samples": len(setups),
    }
    return {"metrics": metrics, "units": dict(END_TO_END), "context": context}


def measure_traced(session: Session, seconds: float, spans_path: Path) -> dict:
    plain, traced = [], []
    for _ in rounds(MIN_TRACED_REPETITIONS, seconds):
        plain.append(session.repetition(traced=False))
        traced.append(session.repetition(traced=True))
    figures = [spans.layer_figures(r["spans"], r["counts"]) for r in traced]
    mismatched = [
        name for name in spans.EXACT_COUNTS if len({f[name] for f in figures}) != 1
    ]
    metrics = {
        name: (
            figures[0][name]
            if name in spans.EXACT_COUNTS
            else statistics.median(f[name] for f in figures)
        )
        for name, _ in spans.PER_LAYER
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = sum(session.reference_times(traced)) - sum(
        session.reference_times(plain)
    )
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(
        json.dumps({
            "fields": ["name", "start", "end", "parent"],
            "repetitions": [r["spans"] for r in traced],
        }),
        encoding="utf-8",
    )
    context = {
        "traced_repetitions": len(traced),
        "untraced_repetitions": len(plain),
        "spans_file": str(spans_path),
        "count_mismatches": mismatched,
    }
    return {"metrics": metrics, "units": dict(spans.PER_LAYER), "context": context}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blas-threads", type=int, default=1,
        help="BLAS/OpenMP threads in the worker (default 1, the steadiest)",
    )
    return parser.parse_args(argv)


def _terminate(signum, frame):
    for proc in list(_LIVE):
        proc.kill()
        proc.wait()
    sys.exit(128 + signum)  # unwinds through Worker.__exit__ too


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src_dir = root / "src"
    if not (src_dir / "qdeform" / "cli.py").is_file():
        print(f"qbench: no qdeform source under {src_dir}; run from a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    session = Session(
        src_dir, args.workload, args.seed, args.blas_threads, oracle.load_reference()
    )
    commands = session.commands
    try:
        if args.trace:
            spans_path = root / ".qbench" / f"spans-{args.workload}-{args.seed}.json"
            outcome = measure_traced(session, args.seconds, spans_path)
        else:
            outcome = measure(session, args.seconds)
    except WorkerError as exc:
        print(f"qbench: {exc}", file=sys.stderr)
        return 1

    failed = len(session.failures)
    mismatched = outcome["context"].get("count_mismatches", [])
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": args.blas_threads,
        **session.environment,
        "failed_ratio": failed / session.attempted,
        "failures": session.failures[:20],
        "commands_per_repetition": len(commands),
        **outcome["context"],
        "argv": [list(c.argv) for c in commands],
    }
    units = outcome["units"]
    for name, value in outcome["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"context": context}))
    result = {
        "correct": failed == 0 and not mismatched,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome["metrics"].items()
        },
    }
    print(json.dumps(result))
    if mismatched:
        print(
            "qbench: counts differ between traced repetitions of one seed: "
            + ", ".join(mismatched),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
