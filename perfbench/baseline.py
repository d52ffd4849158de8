"""Measure every workload on several seeds and write medians and quartiles.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

It measures the workloads and run length of BENCHMARK.json unless told
otherwise.  Each seed is one `run.py --trace 0` process per workload, and each
workload gets one `run.py --trace 1` process on the first seed.  The output
holds, per workload and end-to-end metric, the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and their distance as a
share of the median, the traced run's per-layer metrics, and the
environment of the first run.  It takes about 20 minutes for ten seeds
and the two workloads of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import RUNS, ROOT, WORKLOAD_NAMES  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="range such as 1-10")
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument(
        "--workloads",
        nargs="+",
        choices=WORKLOAD_NAMES,
        default=[w["name"] for w in bench["workloads"]],
    )
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    out = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for name in args.workloads:
        runs = [_run(name, seed, args.seconds, 0) for seed in args.seeds]
        values: dict[str, list[float]] = {}
        for result in runs:
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        summary = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "median": statistics.median(vals),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals),
                "values": vals,
            }
        traced = _run(name, args.seeds[0], args.seconds, 1)
        first = json.loads((ROOT / RUNS / f"{name}-seed{args.seeds[0]}-trace0.json").read_text())
        out["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "environment": first["environment"],
        }
        print(name, {m: round(s["median"], 4) for m, s in summary.items()}, flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
