"""Self-test of the benchmark: python -m pytest bench/test_bench.py

Runs every workload briefly through the real command line, and shows that
a wrong answer from the program is counted as a failed request.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (sets the one-thread BLAS environment first)

run.import_package()

from beurling import cli as bcli  # noqa: E402
from beurling import finite_oracle as fo  # noqa: E402
from beurling import signals as sg  # noqa: E402
from beurling import spectra as sp  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())



def run_command(workload: str, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "0.1",
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_reports_every_metric(workload):
    result = run_command(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    slots = importlib.import_module(f"workloads.{workload}").SLOTS
    per_round, failed = len(slots), sum(1 for slot in slots if slot[0] == "fault")
    assert result["attempted"] % per_round == 0
    assert result["failed"] * per_round == failed * result["attempted"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = run_command("cli", trace=1)
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["cli.main.calls"]["value"] == 1.0


def _scaled(fn, factor):
    return lambda *args, **kwargs: sg.scale_signal(fn(*args, **kwargs), factor)


#: One wrong answer per workload, patched in where the workload calls it.
SABOTAGE = {
    "hulls": (sp, "polynomial_circle_roots", lambda *args, **kwargs: []),
    "kernels": (fo, "dft", lambda phi: np.conj(np.fft.fft(phi.array()))),
    "recovery": (sp, "decompose_finite_spectrum", _scaled(sp.decompose_finite_spectrum, 1 + 1e-5)),
    "cli": (bcli, "weighted_norm", lambda f, w: float("nan")),
}


@pytest.mark.parametrize("workload", sorted(SABOTAGE))
def test_wrong_result_counts_as_failed(workload, tmp_path, monkeypatch):
    module = importlib.import_module(f"workloads.{workload}")
    files = (tmp_path / "files",) if workload == "cli" else ()
    requests = module.requests(3, module.WARMUP, *files)
    plain, _ = run.run_rounds(requests, 0.0)
    assert plain.failed == 0, plain.unexpected

    owner, name, wrong = SABOTAGE[workload]
    monkeypatch.setattr(owner, name, wrong)
    plain, _ = run.run_rounds(requests, 0.0)
    assert plain.failed >= 1
    assert len(plain.unexpected) == plain.failed
