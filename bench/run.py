"""
The dominocells benchmark: how long an exhaustive `dominocells verify`
suite takes to reach its verdict, how much memory it needs, and how long
the command takes to start.

    python3 bench/run.py --workload insertion-n4 --seed 1 --seconds 10 --trace 0

Each repetition runs the CLI in a fresh interpreter (bench/worker.py), so
it pays the cold cost of the per-process memos a user pays on every run.
Repetitions are whole exhaustive walks: the run starts them until
`--seconds` have been measured, and always makes at least one.  The
inputs are whole groups W_n, so `--seed` changes nothing.  Every report
is checked against counts computed in bench/checks.py.

`--trace 0` reports `wall_s`, `peak_rss_mb` and `setup_s` (medians); the
two times are rescaled to the reference speed of bench/speed.py, and the
times as the clock read them go to standard error.
`--trace 1` makes one untraced and one traced repetition and reports the
per-layer metrics of bench/tracer.py, writing the spans and the summary to
bench/out/<run>/traced/.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List

from checks import check_classes, check_conjecture, check_insertion

BENCH_DIR = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_LAUNCHES = 10  # set-up-only interpreters per untraced run


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True)
class Workload:
    suite: str
    n: int

    @property
    def reports(self) -> int:
        """Reports (operations) one repetition produces."""
        return self.n + 1 if self.suite == "classes" else 1

    def argv(self, run_dir: str) -> List[str]:
        argv = ["verify", self.suite, "--n", str(self.n)]
        if self.suite == "insertion":
            argv += ["--rank", str(self.n)]
        if self.suite == "conjecture":
            argv += ["--ratio", "all", "--cache", os.path.join(run_dir, "kl-cache")]
        return argv + ["--json", os.path.join(run_dir, "report.json")]

    def check(self, index: int, report: dict) -> List[str]:
        if self.suite == "insertion":
            return check_insertion(report, self.n, self.n)
        if self.suite == "classes":
            return check_classes(report, self.n, index)
        return check_conjecture(report, self.n)


WORKLOADS = {
    "insertion-n4": Workload("insertion", 4),
    "classes-n5": Workload("classes", 5),
    "conjecture-n4": Workload("conjecture", 4),
}


def launch(spec: dict, deadline: float) -> dict:
    """Run bench/worker.py on `spec` in a fresh interpreter and return its
    result; its `setup_s` runs from here until the CLI arguments were parsed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    spec = dict(spec, launched=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(spec)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("the run did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err[-4000:]}")
    return json.loads(lines[-1])


class Tally:
    """Operations (verify reports) attempted and failed, and problems found
    in the reports that did not fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, workload: Workload, run_dir: str, exit_code: int) -> None:
        self.attempted += workload.reports
        try:
            with open(os.path.join(run_dir, "report.json")) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            self.problems.append(f"{run_dir}: no report ({exc})")
            return
        reports = payload if isinstance(payload, list) else [payload]
        if len(reports) != workload.reports:
            self.problems.append(
                f"{run_dir}: {len(reports)} reports, expected {workload.reports}")
        failed = 0
        for index, report in enumerate(reports):
            if report.get("status") != "pass":
                failed += 1
                continue
            self.problems += [f"{run_dir} report {index}: {p}"
                              for p in workload.check(index, report)]
        if (exit_code == 0) != (failed == 0):
            self.problems.append(f"{run_dir}: exit code {exit_code} with {failed} failed reports")
        self.failed += failed


def repetition(workload: Workload, run_dir: str, mode: str, deadline: float,
               tally: Tally) -> dict:
    os.makedirs(run_dir)
    result = launch({"argv": workload.argv(run_dir), "mode": mode, "out_dir": run_dir},
                    deadline)
    tally.add(workload, run_dir, result["exit_code"])
    cache = os.path.join(run_dir, "kl-cache")
    result["cache_bytes"] = sum(
        entry.stat().st_size for entry in os.scandir(cache)
    ) if os.path.isdir(cache) else 0
    shutil.rmtree(cache, ignore_errors=True)
    print(f"{run_dir}: {mode} {result['wall_s']:.3f} s at the reference speed, "
          f"{result['wall_raw_s']:.3f} s on the clock", file=sys.stderr)
    return result


def measure(workload: Workload, out_dir: str, seconds: float, deadline: float,
            tally: Tally) -> dict:
    """The end-to-end metrics: medians over fresh-interpreter repetitions."""
    setup = [launch({"argv": workload.argv(out_dir), "mode": "setup"}, deadline)["setup_s"]
             for _ in range(SETUP_LAUNCHES)]
    walls, raw_walls, rss = [], [], []
    start = time.monotonic()
    while not walls or (time.monotonic() - start < seconds
                        and time.monotonic() + 2 * max(raw_walls) < deadline):
        result = repetition(workload, os.path.join(out_dir, f"rep{len(walls)}"),
                            "run", deadline, tally)
        walls.append(result["wall_s"])
        raw_walls.append(result["wall_raw_s"])
        rss.append(result["peak_rss_mb"])
        setup.append(result["setup_s"])
    return {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def trace(workload: Workload, out_dir: str, deadline: float, tally: Tally) -> dict:
    """The per-layer metrics of one traced repetition; the overhead is its
    wall time minus that of an untraced repetition."""
    plain = repetition(workload, os.path.join(out_dir, "plain"), "run", deadline, tally)
    traced_dir = os.path.join(out_dir, "traced")
    traced = repetition(workload, traced_dir, "trace", deadline, tally)
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    metrics["hecke.cache.bytes"] = (traced["cache_bytes"], "bytes")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    with open(os.path.join(traced_dir, "layers.json"), "w") as fh:
        json.dump({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
                  fh, indent=1, sort_keys=True)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="the inputs are whole groups, so every seed runs the same input")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(BENCH_DIR, "out",
                           f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    tally = Tally()
    try:
        if args.trace:
            metrics = trace(workload, out_dir, deadline, tally)
        else:
            metrics = measure(workload, out_dir, args.seconds, deadline, tally)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in tally.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if not tally.problems else 1


if __name__ == "__main__":
    sys.exit(main())
