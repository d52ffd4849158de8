"""Record reference.json: the CSV row and cost of every population op.

Run from the repository root with `python3 perfbench/reference.py`.  It
records only the keys missing from an existing reference.json, so that a
grown population keeps the rows recorded before; a full recording takes a
few minutes on one core.  The cost is the op's power-iteration
count for norm-compare ops, the maximal-rectangle count for random Journe
ops and 0 otherwise; the benchmark stratifies its draws on it.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402,F401  (sets the single-threaded environment before numpy loads)
import bicomm.cli as cli  # noqa: E402
from workloads import REFERENCE_PATH, WORKLOADS, op_config, prepare_inputs  # noqa: E402


def main() -> int:
    iterations: list[int] = []
    operator_norm = cli.operator_norm

    def counting_norm(*args, **kwargs):
        result = operator_norm(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    cli.operator_norm = counting_norm
    reference = {}
    if REFERENCE_PATH.exists():
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as workdir:
        for workload in WORKLOADS.values():
            keys = [k for members in workload.groups.values() for k in members if k not in reference]
            prepare_inputs(keys, workdir)
            for key in keys:
                cfg = op_config(key, workdir)
                iterations.clear()
                csv_path, _ = cli.run(cfg)
                with open(csv_path, newline="", encoding="utf-8") as fh:
                    (row,) = list(csv.DictReader(fh))
                if cfg.command == "norm-compare":
                    cost = iterations[0]
                elif cfg.command == "journe-scan" and "maximal_count" in row:
                    cost = int(row["maximal_count"])
                else:
                    cost = 0
                reference[key] = {"cost": cost, "row": row}
                print(key, cost, flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
