"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import WORKLOAD_NAMES, OpRunner  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference, pass_keys, prepare_inputs  # noqa: E402

REFERENCE = load_reference()
# enough of each pass to cover every kind of op: two power iterations, a
# loaded symbol, random and row-of-squares Journe ops, both BMO methods
PREFIX = {"norm-compare": 2, "norm-compare-fullband": 1, "journe-scan": 4, "bmo-scan": 3}


def _traced_counts(name: str, seed: int, workdir: Path) -> dict:
    keys = pass_keys(WORKLOADS[name], seed, REFERENCE)[: PREFIX[name]]
    prepare_inputs(keys, workdir)
    runner = OpRunner(name, seed, workdir, REFERENCE)
    tracer = Tracer()
    with tracer:
        for op, key in enumerate(keys):
            tracer.op = op
            runner.run(key)
    assert runner.failed == 0
    return {metric: value for metric, (value, unit) in tracer.metrics().items() if unit != "s"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = _traced_counts(name, 3, tmp_path)
    second = _traced_counts(name, 3, tmp_path)
    assert first == second
    assert first["cli.run.calls"] == PREFIX[name]


def test_traced_counts_cover_the_named_layers(tmp_path):
    nc = _traced_counts("norm-compare", 3, tmp_path)
    assert nc["commutator.operator_norm.calls"] == 2
    assert nc["commutator.operator_norm.iterations"] > 0
    assert nc["transforms.fft_bytes_computed"] > 0
    bmo = _traced_counts("bmo-scan", 3, tmp_path)
    assert bmo["bmo.product_bmo_lower.calls"] == 2 * PREFIX["bmo-scan"]
    assert 0.0 < bmo["bmo.exhaustive_frac"] < 1.0


def test_per_layer_metrics_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    produced = set(Tracer().metrics()) | {"trace.overhead_frac"}
    assert {m["name"] for m in declared} == produced


def test_pass_is_seeded_and_stratified():
    assert WORKLOAD_NAMES == tuple(WORKLOADS)
    for workload in WORKLOADS.values():
        a = pass_keys(workload, 5, REFERENCE)
        assert a == pass_keys(workload, 5, REFERENCE)
        assert len(a) == len(workload.pattern)
        assert len(set(a)) == len(a) or workload.name == "journe-scan"
    nc = WORKLOADS["norm-compare"]
    assert pass_keys(nc, 5, REFERENCE) != pass_keys(nc, 6, REFERENCE)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bmo-scan", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
