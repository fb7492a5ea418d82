"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload hulls --seed 1 --seconds 20 --trace 0

One process is one closed-loop client: it sends the next request only
after the previous one has returned and its output has been checked.  The
loop runs whole rounds (every round is the same list of requests) until
``--seconds`` have passed, so the share of failed requests is the same in
every run.  ``--trace 1`` alternates untraced and traced rounds and reports
per-layer metrics and the tracing overhead instead of the end-to-end ones.
The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import compileall
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Compile the package and the benchmark to bytecode before the clock
# starts, whatever PYTHONDONTWRITEBYTECODE says.  Otherwise set-up time
# depends on whether an earlier run left bytecode in the checkout (a cold
# import compiles from source), which is a state of the checkout and not a
# cost of the program.  Files already compiled are only checked.
for _tree in (SRC / "beurling", BENCH):
    if _tree.is_dir():
        compileall.compile_dir(_tree, quiet=2)

START = time.perf_counter()

# One BLAS/LAPACK thread, set before numpy loads: the client is a single
# closed loop, and a second BLAS thread on a two-core machine adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
from dataclasses import dataclass, field

from workloads import NAMES

#: Set-up runs in fresh interpreters this many times besides the run's own;
#: setup_s is the median of all of them.
SETUP_CHILDREN = 2


def import_package() -> None:
    """Put the checkout's src/ first on the path and import the package
    from there, never from anywhere else."""
    if not (SRC / "beurling" / "__init__.py").is_file():
        sys.exit(f"run.py: {SRC / 'beurling'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import beurling

    if Path(beurling.__file__).resolve().parent != SRC / "beurling":
        sys.exit(f"run.py: imported beurling from {beurling.__file__}, not from {SRC}")


def set_up(name: str, seed: int, work_dir: Path):
    """Import, build one round of inputs, and run the warm-up requests.
    Returns (round, warm-up problems)."""
    import_package()
    module = importlib.import_module(f"workloads.{name}")
    if name == "cli":  # the only workload that writes files: its descriptors
        round_ = module.requests(seed, module.SLOTS, work_dir / "round")
        warmup = module.requests(seed, module.WARMUP, work_dir / "warmup")
    else:
        round_ = module.requests(seed, module.SLOTS)
        warmup = module.requests(seed, module.WARMUP)
    problems = [p for p in (attempt(r) for r in warmup) if p]
    return round_, problems


def attempt(req) -> str | None:
    """Run and check one request; None when its output is right."""
    try:
        req.check(req.call())
    except Exception as exc:  # a request boundary: record the failure, go on
        return f"{req.kind}: {type(exc).__name__}: {exc}"
    return None


@dataclass
class Phase:
    """Latencies of the requests of each round, and the failures."""

    rounds: list[list[float]] = field(default_factory=list)
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    known: set[str] = field(default_factory=set)

    def run(self, round_) -> None:
        latencies = []
        for req in round_:
            start = time.perf_counter()
            problem = attempt(req)
            latencies.append(time.perf_counter() - start)
            if problem:
                self.failed += 1
                if req.known_fault:
                    self.known.add(req.known_fault)
                else:
                    self.unexpected.append(problem)
        self.rounds.append(latencies)

    @property
    def requests(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def seconds(self) -> float:
        return sum(sum(r) for r in self.rounds)


def run_rounds(round_, seconds: float, tracer=None) -> tuple[Phase, Phase]:
    """Whole rounds until ``seconds`` have passed.  With a tracer, rounds
    alternate untraced/traced and the loop stops after a traced one, so
    both phases ran the same requests equally often."""
    plain, traced = Phase(), Phase()
    start = time.perf_counter()
    while True:
        plain.run(round_)
        if tracer is not None:
            tracer.install()
            try:
                traced.run(round_)
            finally:
                tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return plain, traced


def child_setup_seconds(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work_dir = ROOT / ".bench_work" / str(os.getpid())
    try:
        round_, warm_problems = set_up(args.workload, args.seed, work_dir)
        own_setup = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        plain, traced = run_rounds(round_, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = plain.requests + traced.requests
    failed = plain.failed + traced.failed
    timed_unexpected = plain.unexpected + traced.unexpected
    unexpected = warm_problems + timed_unexpected
    if tracer is None:
        # Medians over rounds: every round is the same work, and the median
        # ignores rounds that a burst of machine noise made slow or fast.
        metrics = {
            "throughput_ops_s": (statistics.median(len(r) / sum(r) for r in plain.rounds), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(statistics.median(r) for r in plain.rounds), "ms"),
            "setup_s": (statistics.median([own_setup] + [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.metrics(traced.requests)
        metrics["tracing_overhead_pct"] = (100.0 * (traced.seconds / plain.seconds - 1.0), "%")

    print(f"{args.workload}: {attempted} requests in {plain.seconds + traced.seconds:.2f} s, {failed} failed "
          f"({failed - len(timed_unexpected)} of them known faults)", file=sys.stderr)
    for fault in sorted(plain.known | traced.known):
        print(f"  known fault: {fault}", file=sys.stderr)
    for problem in unexpected[:5]:
        print(f"  unexpected failure: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
