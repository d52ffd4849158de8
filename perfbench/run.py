"""Benchmark of bicomm: closed-loop `bicomm.cli.run` ops, one client, jobs=1.

Usage, from the repository root:

    python3 perfbench/run.py --workload norm-compare --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each op is one single-instance command config (see workloads.py), run in
this process after an untimed warm-up op and checked against the recorded
reference row.  With --trace 0 the run repeats its pass of ops while the
next pass, as long as the last one, still ends within --seconds (it always
runs at least one pass).  It reports ops_per_s, setup_s (the median over
fresh processes that import bicomm and finish the warm-up op) and
peak_rss_mb, and prints the median and tail op latency beside them.  With
--trace 1 it runs exactly one pass untraced and then one pass traced, so
its counts depend only on the seed, and reports the per-layer metrics.
The last line of output is one JSON object; `--workload all` runs every
workload in its own process and prints a table instead.  BENCHMARK.json
names the workloads the benchmark gates on; the other two stay runnable.

Report CSVs and symbol files go to a work directory under .perfbench_runs/
that is removed at the end; the result record (environment, pass, per-op
latencies, and the spans of a traced run) stays there.
"""

from __future__ import annotations

import os

# the plain single-threaded baseline: no BLAS or OpenMP worker threads
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = Path(".perfbench_runs")
WORKLOAD_NAMES = ("norm-compare", "norm-compare-fullband", "journe-scan", "bmo-scan")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120

_WARMUP_CHILD = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import bicomm.cli
from workloads import WORKLOADS, op_config
bicomm.cli.run(op_config(WORKLOADS[{name!r}].warmup, {workdir!r}))
"""


class OpRunner:
    """Runs population ops through bicomm.cli.run and checks their rows."""

    def __init__(self, workload: str, seed: int, workdir: Path, reference: dict):
        import bicomm.cli

        self.cli = bicomm.cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, key: str) -> float | None:
        """One op; returns its latency in seconds, or None if it failed."""
        from workloads import check_row, config_fields, op_config

        cfg = op_config(key, self.workdir)
        self.attempted += 1
        start = time.perf_counter()
        try:
            # looked up on the module, so that a traced pass sees the wrapper
            csv_path, _ = self.cli.run(cfg)
        except Exception as exc:  # an op failure is counted, not fatal
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            latency = time.perf_counter() - start
            with open(csv_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) == 1:
                problems = check_row(key, cfg, rows[0], self.reference)
            else:
                problems = [f"expected one CSV row, found {len(rows)}"]
            if not problems:
                return latency
        self.failed += 1
        print(
            f"op failed: workload={self.workload} seed={self.seed} op={key} "
            f"config={json.dumps(config_fields(key, self.workdir), sort_keys=True)}: "
            + "; ".join(problems),
            file=sys.stderr,
        )
        return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(keys, workdir) -> dict:
    import numpy

    from workloads import op_config

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "jobs": 1,
        "threads": SINGLE_THREAD,
        "config_hashes": {key: op_config(key, workdir).config_hash() for key in sorted(set(keys))},
    }


def setup_seconds(workload: str, workdir: Path) -> list[float]:
    """Wall time of fresh processes that import bicomm and finish the warm-up op."""
    code = _WARMUP_CHILD.format(src=str(SRC), here=str(HERE), name=workload, workdir=str(workdir))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
    return samples


def end_to_end(runner: OpRunner, keys: list[str], seconds: float, workdir: Path, record: dict) -> dict:
    from tracing import tail_latency
    from workloads import WORKLOADS

    setup = setup_seconds(runner.workload, workdir)
    runner.run(WORKLOADS[runner.workload].warmup)
    latencies = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for key in keys:
            latency = runner.run(key)
            if latency is not None:
                latencies.append(latency)
        now = time.perf_counter()
        # whole passes only, so every run of a seed times the same ops
        if 2 * now - pass_start - start > seconds:
            break
    window = now - start
    if latencies:
        tail, pct, beyond = tail_latency(latencies)
        # The median and tail of a few dozen ops of mixed cost follow single
        # ops, which the machine's speed swings move by a quarter between
        # runs: too much to gate, so they are reported beside the metrics.
        record["reported"] = {
            "op_p50_s": [statistics.median(latencies), "s"],
            "op_tail_s": [tail, "s", f"p{pct:.1f} of {len(latencies)} ops, {beyond} beyond it"],
        }
    record.update(window_s=window, setup_samples_s=setup, latencies_s=latencies)
    return {
        "ops_per_s": (len(latencies) / window, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(runner: OpRunner, keys: list[str], record: dict) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    runner.run(WORKLOADS[runner.workload].warmup)
    start = time.perf_counter()
    for key in keys:
        runner.run(key)
    untraced = time.perf_counter() - start
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        for op, key in enumerate(keys):
            tracer.op = op
            runner.run(key)
        traced = time.perf_counter() - start
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "fraction")
    spans_path = RUNS / f"{runner.workload}-seed{runner.seed}-spans.json"
    tracer.write_spans(spans_path)
    op_time = metrics["cli.run.busy_s"][0]
    record.update(
        untraced_s=untraced,
        traced_s=traced,
        spans=str(spans_path),
        share_of_op_time={
            name[: -len(".busy_s")]: value / op_time
            for name, (value, _) in metrics.items()
            if name.endswith(".busy_s") and op_time > 0
        },
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    from workloads import WORKLOADS, load_reference, pass_keys, prepare_inputs

    workload = WORKLOADS[name]
    reference = load_reference()
    keys = pass_keys(workload, seed, reference)
    workdir = RUNS / f"work-{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced), "pass": keys}
    try:
        prepare_inputs(keys + [workload.warmup], workdir)
        record["environment"] = environment(keys, workdir)
        runner = OpRunner(name, seed, workdir, reference)
        if traced:
            metrics = per_layer(runner, keys, record)
        else:
            metrics = end_to_end(runner, keys, seconds, workdir, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = runner.attempted, runner.failed
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(attempted=attempted, failed=failed, error_rate=failed / attempted, metrics=as_json)
    with open(RUNS / f"{name}-seed{seed}-trace{int(traced)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value!r} {unit}")
    for metric, (value, unit, *note) in record.get("reported", {}).items():
        print(f"{metric} {value!r} {unit} (reported, not gated{''.join('; ' + n for n in note)})")
    for func, share in record.get("share_of_op_time", {}).items():
        print(f"{func} share of op time {share:.3f}")
    print(f"error_rate {failed / attempted!r} ({failed} of {attempted} ops failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": as_json}))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; prints one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        record = json.loads((RUNS / f"{name}-seed{seed}-trace{trace}.json").read_text())
        entries = [(m, e["value"], e["unit"]) for m, e in record["metrics"].items()]
        entries += [(m, v, u) for m, (v, u, *_) in record.get("reported", {}).items()]
        entries.append(("error_rate", record["error_rate"], "fraction"))
        rows += [(name, metric, f"{value:.6g}", unit) for metric, value, unit in entries]
    width = [max(len(row[i]) for row in rows) for i in range(4)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, width)).rstrip())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bicomm" / "__init__.py").is_file():
        print(f"error: no bicomm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.chdir(ROOT)
    RUNS.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
