"""Acceptance gate: eight checks covering identities, audits and scans.

Each test prints one [PASS]/[FAIL] line ending in the criterion's elapsed
seconds; the same lines go to reports/acceptance.txt, which each run starts
afresh, so a full run leaves a readable record next to the CSV reports.
reports/ is not tracked.  Timings go to this log only, never into a CSV.
"""

import csv
import json
import math
import statistics
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from bmo_oracle import exhaustive_product_bmo

from bicomm.bmo import product_bmo_lower
from bicomm.cli import ExperimentConfig, run
from bicomm.grid import CellSet, maximal_1d_level
from bicomm.journe import (
    bad_class,
    embeddedness,
    enlargement,
    journe_sum,
    maximal_rectangles,
    row_of_squares,
    stratify,
    thin_collection,
)
from bicomm.wavelets import WaveletCoefficients

REPORTS = Path(__file__).resolve().parent.parent / "reports"


@pytest.fixture(scope="module", autouse=True)
def fresh_acceptance_log():
    REPORTS.mkdir(exist_ok=True)
    (REPORTS / "acceptance.txt").write_text("", encoding="utf-8")


_criterion_start = time.monotonic()


@pytest.fixture(autouse=True)
def criterion_clock():
    global _criterion_start
    _criterion_start = time.monotonic()


def report(num: int, ok: bool, detail: str) -> None:
    elapsed = time.monotonic() - _criterion_start
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail} [{elapsed:.1f}s]"
    print(line)
    REPORTS.mkdir(exist_ok=True)
    with open(REPORTS / "acceptance.txt", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert ok, line


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def col(rows, name):
    return [float(r[name]) for r in rows]


def test_criterion_1_identity_suite(tmp_path):
    cfg = ExperimentConfig("identity-check", N=256, instances=100, out=str(tmp_path))
    t0 = time.monotonic()
    csv_path, _ = run(cfg, jobs=4)
    elapsed = time.monotonic() - t0
    rows = read_rows(csv_path)
    basic = max(col(rows, "e_basic_residual"))
    comm = max(col(rows, "e_commutator_residual"))
    two = max(col(rows, "two_parameter_residual"))
    ok = len(rows) >= 100 and basic <= 1e-10 and comm <= 1e-9 and two <= 1e-9 and elapsed < 60.0
    report(
        1,
        ok,
        f"identity residuals over {len(rows)} symbols at N=256: basic {basic:.2e} "
        f"(<=1e-10), commutator {comm:.2e}, two-parameter {two:.2e} (<=1e-9), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_2_wavelet_audit(tmp_path):
    cfg = ExperimentConfig("wavelet-audit", N=1024, instances=20, out=str(tmp_path))
    csv_path, _ = run(cfg, jobs=2)
    worst = {}
    for row in read_rows(csv_path):
        key = row["item"].rstrip("0123456789_")
        worst[key] = max(worst.get(key, 0.0), abs(float(row["value"])))
    gram = worst["gram_deviation"]
    zero = worst["wij_zero"]
    ortho = worst["orthoI"]
    part = worst["partition_residual"]
    ok = gram <= 1e-6 and zero <= 1e-8 and ortho <= 1e-10 and part <= 1e-12
    report(
        2,
        ok,
        f"N=1024 audit: gram {gram:.2e} (<=1e-6), cancellation zero case {zero:.2e} "
        f"(<=1e-8), kernel overlap {ortho:.2e} (<=1e-10), partition {part:.2e} (<=1e-12)",
    )


def test_criterion_3_oracle_equivalence(tmp_path):
    cfg = ExperimentConfig("oracle-audit", N=16, instances=20, out=str(tmp_path))
    csv_path, _ = run(cfg, jobs=2)
    rows = read_rows(csv_path)
    diff = max(col(rows, "definition_block_diff"))
    ratios = col(rows, "hankel_ratio")
    ratio_err = max(abs(r - 1.0) for r in ratios)
    ok = len(rows) == 20 and diff <= 1e-6 and ratio_err <= 1e-6
    report(
        3,
        ok,
        f"definition vs block norm diff {diff:.2e} (<=1e-6) on 20 symbols at N=16; "
        f"4*Hankel/commutator ratio in [{min(ratios):.9f}, {max(ratios):.9f}] "
        f"(deviation {ratio_err:.2e} <= 1e-6)",
    )


def test_criterion_4_weak_maximal_bound():
    """Constant-one weak bound, in the rising-sun (one-sided) form where it
    is a theorem; the two-sided maximal function has constant two, and a
    single cell already violates the constant-one version."""
    rng = np.random.default_rng(104)
    n = 6
    m = 1 << n
    deltas = (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5))
    checked = 0
    for _ in range(500):
        U = CellSet(n, rng.random((m, m)) < rng.uniform(0.05, 0.6))
        if U.cell_count == 0:
            U = CellSet.from_cells(n, [(0, 0)])
        count_u = U.cell_count
        for d in deltas:
            level = maximal_1d_level(U, 1, d, one_sided=True).cell_count
            assert level * d <= count_u, f"weak bound failed: {level}*{d} > {count_u}"
            t = 1 - d
            inner = maximal_1d_level(U, 2, t, one_sided=True)
            outer = maximal_1d_level(inner, 1, t, one_sided=True).cell_count
            assert outer * t * t <= count_u, (
                f"composed bound failed: {outer}*({t})^2 > {count_u}"
            )
            checked += 1
    report(
        4,
        checked == 1500,
        "measure{M 1_U > d} <= measure(U)/d and the composed level set <= "
        f"measure(U)/(1-d)^2 for the rising-sun maximal function, exact in "
        f"rational arithmetic by the integer level kernel, over 500 random U "
        f"at n=6 and d in "
        f"(1/10, 1/4, 2/5): {checked} comparisons",
    )


def test_criterion_5_journe_scan():
    rng = np.random.default_rng(105)
    n = 6
    m = 1 << n
    worst = 0.0
    for _ in range(200):
        U = CellSet(n, rng.random((m, m)) < rng.uniform(0.2, 0.7))
        if U.cell_count == 0:
            U = CellSet.from_cells(n, [(0, 0)])
        js = journe_sum(U, 0.5, 0.5)
        assert math.isfinite(js.ratio)
        worst = max(worst, js.ratio)

    vals = []
    for K in (4, 8, 16):
        row = row_of_squares(K)
        V = enlargement(row.cells, 0.5)
        rep = embeddedness(row.middle, V, U=row.cells)
        vals.append(rep.nu / rep.mu)
    ok = worst <= 100.0 and vals[1] >= 2.0 and vals[0] <= vals[1] <= vals[2]
    report(
        5,
        ok,
        f"discounted rectangle sum ratio finite over 200 open sets at n=6, max "
        f"{worst:.3f} (<=100); row-of-squares nu/mu = "
        f"{vals[0]:.3f}, {vals[1]:.3f}, {vals[2]:.3f} at K=4,8,16 "
        f"(>=2 at K=8, nondecreasing)",
    )


def test_criterion_6_thinning_property():
    rng = np.random.default_rng(106)
    delta = 0.5
    gamma = delta ** (1.0 / 3.0)
    failures = []
    subclasses_seen = 0
    for i in range(500):
        n = int(rng.integers(3, 7))
        m = 1 << n
        U = CellSet(n, rng.random((m, m)) < rng.uniform(0.2, 0.7))
        if U.cell_count == 0:
            U = CellSet.from_cells(n, [(0, 0)])
        V = enlargement(U, delta)
        strata = stratify(maximal_rectangles(U), V)
        for k, S in strata.items():
            for sub in thin_collection(S, max(1.0, 2.0**k), gamma):
                subclasses_seen += 1
                leftover = bad_class(bad_class(sub, 1, gamma), 1, gamma)
                if len(leftover) > 0:
                    failures.append((i, k, U, sub, leftover))
    if failures:
        archive = REPORTS / "counterexamples"
        archive.mkdir(parents=True, exist_ok=True)
        for i, k, U, sub, leftover in failures:
            payload = {
                "instance": i,
                "stratum": k,
                "open_set": {"n": U.n, "cells": np.argwhere(U.mask).tolist()},
                "subclass": [
                    [R.interval1.j, R.interval1.k, R.interval2.j, R.interval2.k]
                    for R in sub
                ],
                "still_bad": [
                    [R.interval1.j, R.interval1.k, R.interval2.j, R.interval2.k]
                    for R in leftover
                ],
            }
            with open(archive / f"thinning_{i}_{k}.json", "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
    report(
        6,
        not failures,
        f"twice-iterated bad class empty for all {subclasses_seen} thinned "
        f"subclasses over 500 instances at n<=6, gamma=delta^(1/3), delta=1/2"
        + (f"; {len(failures)} counterexamples archived" if failures else ""),
    )


def test_criterion_7_two_sided_direction():
    REPORTS.mkdir(exist_ok=True)
    cfg = ExperimentConfig("norm-compare", N=128, instances=200, out=str(REPORTS))
    csv_path, _ = run(cfg, jobs=4)
    rows = read_rows(csv_path)
    up = col(rows, "norm_over_bmo")
    down = col(rows, "bmo_over_norm")
    med_up = statistics.median(up)
    med_down = statistics.median(down)
    bounded = max(up) <= 10.0 * med_up and max(down) <= 10.0 * med_down

    scatter = ExperimentConfig(
        "plot-data",
        source=csv_path,
        kind="scatter",
        metrics=("product_bmo_lower", "operator_norm"),
        out=str(REPORTS),
    )
    scatter_path, _ = run(scatter)

    rng = np.random.default_rng(107)
    worst_diff = 0.0
    for _ in range(20):
        mat = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        c = WaveletCoefficients(2, mat)
        exact = exhaustive_product_bmo(c).value
        worst_diff = max(worst_diff, abs(product_bmo_lower(c).value - exact) / exact)

    ok = len(rows) == 200 and bounded and worst_diff <= 1e-12
    report(
        7,
        ok,
        f"200-symbol corpus at N=128: norm/lower-bound in [{min(up):.3f}, {max(up):.3f}] "
        f"(median {med_up:.3f}), inverse max {max(down):.3f} (median {med_down:.3f}), "
        f"both within 10x median; scatter at {Path(scatter_path).relative_to(REPORTS)} "
        f"in reports/; min cut against the exhaustive scan at n=2: "
        f"worst relative difference {worst_diff:.1e} (<=1e-12)",
    )


def test_criterion_8_determinism(tmp_path):
    configs = [
        ExperimentConfig("identity-check", N=32, instances=3),
        ExperimentConfig("wavelet-audit", N=256, instances=2),
        ExperimentConfig("bmo-scan", N=64, instances=3),
        ExperimentConfig("norm-compare", N=32, instances=3),
        ExperimentConfig("journe-scan", N=64, instances=3),
        ExperimentConfig(
            "journe-scan", N=64, family="row-of-squares-dual", K=4, instances=2
        ),
        ExperimentConfig("decomposition", N=32, n=1, instances=2),
        ExperimentConfig("oracle-audit", N=16, instances=2),
    ]
    import dataclasses

    checked = []
    for idx, cfg in enumerate(configs):
        a = dataclasses.replace(cfg, out=str(tmp_path / f"{idx}a"))
        b = dataclasses.replace(cfg, out=str(tmp_path / f"{idx}b"))
        pa, _ = run(a, jobs=1)
        pb, _ = run(b, jobs=3)
        same = Path(pa).read_bytes() == Path(pb).read_bytes()
        checked.append(same)
        if cfg.command == "norm-compare":
            for out, src in (("pa2", pa), ("pb2", pb)):
                plot = ExperimentConfig(
                    "plot-data",
                    source=src,
                    kind="scatter",
                    metrics=("operator_norm", "rect_bmo"),
                    out=str(tmp_path / out),
                )
                run(plot)
            same_plot = (
                (tmp_path / "pa2" / "plot_data.txt").read_bytes()
                == (tmp_path / "pb2" / "plot_data.txt").read_bytes()
            )
            checked.append(same_plot)
    report(
        8,
        all(checked),
        f"identical config+seed reruns byte-identical across "
        f"{len(configs)} command configurations (including cross-job-count) "
        f"plus the plot-data text output",
    )
