"""Config handling, report format, determinism and the command surface."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bicomm
from bicomm import cli
from bicomm.bmo import product_bmo_lower, rect_bmo
from bicomm.cli import ExperimentConfig, _family_coefficients, _run_instances, main, run
from bicomm.grid import GridSignal2D, save_signal


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def write_config(tmp_path, **kw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kw))
    return str(path)


def test_config_defaults():
    cfg = ExperimentConfig("identity-check")
    assert cfg.N == 256
    assert cfg.n == 4
    assert cfg.seed == 0
    cfg = ExperimentConfig("identity-check", N=64)
    assert cfg.n == 2


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("fft-everything")
    with pytest.raises(ValueError):
        ExperimentConfig("identity-check", N=100)
    with pytest.raises(ValueError):
        ExperimentConfig("identity-check", N=8)
    with pytest.raises(ValueError):
        ExperimentConfig("identity-check", N=64, n=3)
    with pytest.raises(ValueError):
        ExperimentConfig("identity-check", family="sobolev")
    with pytest.raises(ValueError):
        ExperimentConfig("identity-check", instances=0)
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"command": "identity-check", "colour": 3})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"command": "bmo-scan"}, command="identity-check")


def test_config_rejects_a_family_its_command_does_not_draw():
    """A command takes only the families it draws symbols from: journe-scan
    its open sets and rows of squares, bmo-scan every coefficient family,
    norm-compare all five, and every other command only the default, so no
    report names a family whose rows it did not compute."""
    draws = {
        "journe-scan": {"random-carleson", "row-of-squares-dual"},
        "bmo-scan": set(cli._FAMILIES) - {"file"},
        "norm-compare": set(cli._FAMILIES),
    }
    for command in cli._COMMANDS:
        # large enough for a row of K=2 squares, small enough for oracle-audit
        N = 32 if command == "oracle-audit" else 256
        for family in cli._FAMILIES:
            fields = dict(N=N, family=family, K=2, instances=1)
            if family in draws.get(command, {"random-carleson"}):
                ExperimentConfig(command, **fields)
            else:
                with pytest.raises(ValueError, match=f"{command} takes a family in .*{family}"):
                    ExperimentConfig(command, **fields)


def test_readme_configs_load():
    """Every JSON config in README.md is a valid config, so removing a field
    cannot leave the README stale."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) >= 2
    for block in blocks:
        # the command comes from the command line; any command checks the fields
        ExperimentConfig.from_dict(json.loads(block), command="norm-compare")


def test_config_hash_sensitivity(tmp_path):
    base = {"command": "norm-compare", "N": 64, "seed": 1}
    h = ExperimentConfig.from_dict(base).config_hash()
    assert h == ExperimentConfig.from_dict(dict(base)).config_hash()
    assert len(h) == 12
    other = ExperimentConfig.from_dict({**base, "seed": 2}).config_hash()
    assert other != h
    # the output directory is bookkeeping, not part of the experiment
    moved = ExperimentConfig.from_dict({**base, "out": "elsewhere"}).config_hash()
    assert moved == h
    # plot-data output depends on its source report
    plot = {"command": "plot-data", "kind": "scatter", "metrics": ["a", "b"]}
    hashes = {
        ExperimentConfig.from_dict({**plot, "source": src}).config_hash()
        for src in ("a.csv", "b.csv")
    }
    assert len(hashes) == 2
    # restarts and gamma were hashed and validated but read by no command;
    # budget capped a greedy search that always stops well before it;
    # max_iter, decay, density, bins, delta and epsilon only ever took their one value
    dead_keys = ("restarts", "gamma", "budget", "max_iter", "decay", "density", "bins")
    for dead in dead_keys + ("delta", "epsilon"):
        with pytest.raises(ValueError, match=f"unknown config keys.*{dead}"):
            ExperimentConfig.from_dict({**base, dead: 4})
    # every field but out is hashed: changing any single one changes the hash
    cfg = ExperimentConfig.from_dict(base)
    changed = {
        "command": "bmo-scan",
        "N": 128,
        "n": 1,
        "family": "single-rectangle",
        "file": "x.sig",
        "source": "a.csv",
        "kind": "scatter",
        "metrics": ("a",),
        "out": "elsewhere",
    }
    for f in dataclasses.fields(cfg):
        old = getattr(cfg, f.name)
        if f.name not in changed:
            changed[f.name] = old / 2 if isinstance(old, float) else old + 1
    assert len(changed) == len(dataclasses.fields(cfg))
    hashes = {k: dataclasses.replace(cfg, **{k: v}).config_hash() for k, v in changed.items()}
    assert hashes.pop("out") == h
    assert h not in hashes.values()
    # a file symbol is hashed by content: the same path with other bytes differs
    sig_path = tmp_path / "b.sig"
    cfg = ExperimentConfig.from_dict({**base, "family": "file", "file": str(sig_path)})
    hashes = set()
    for scale in (1.0, 2.0):
        save_signal(sig_path, GridSignal2D(scale * np.ones((64, 64))))
        hashes.add(cfg.config_hash())
    assert len(hashes) == 2


def test_worker_failure_names_instance_and_cancels_pending():
    cfg = ExperimentConfig("identity-check", seed=7, instances=20)
    started = []

    def worker(i):
        started.append(i)
        if i == 0:
            raise ValueError("boom")
        time.sleep(0.05)
        return [i]

    for jobs in (1, 2):
        started.clear()
        with pytest.raises(RuntimeError, match=r"instance 0 \(seed 7\) failed: ValueError: boom"):
            _run_instances(cfg, jobs, worker)
        assert len(started) < cfg.instances


def test_threaded_failure_names_the_lowest_failing_instance():
    """At jobs=2, instance 3 fails at once while instance 1 fails later: the
    error names instance 1, as at jobs=1, and the instances not started when
    it surfaces never run."""
    cfg = ExperimentConfig("identity-check", seed=7, instances=40)
    started = []

    def worker(i):
        started.append(i)
        if i == 1:
            time.sleep(0.3)
            raise ValueError("late")
        if i == 3:
            raise ValueError("early")
        time.sleep(0.02)
        return [i]

    with pytest.raises(RuntimeError, match=r"instance 1 \(seed 7\) failed: ValueError: late"):
        _run_instances(cfg, 2, worker)
    assert len(started) < cfg.instances


def test_jobs_below_one_rejected(tmp_path, capsys):
    """--jobs below 1 exits 2 with one error line, before any instance runs
    or the output directory is made."""
    cfg_path = write_config(tmp_path, N=32, instances=2)
    out = tmp_path / "r"
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="--jobs"):
            run(ExperimentConfig("bmo-scan", N=32, instances=2, out=str(out)), jobs=jobs)
        assert main(["bmo-scan", "--config", cfg_path, "--out", str(out), "--jobs", str(jobs)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--jobs" in err and err.count("\n") == 1
        assert not out.exists()


def test_identity_check_report(tmp_path):
    cfg = ExperimentConfig("identity-check", N=64, instances=5, out=str(tmp_path / "r"))
    csv_path, json_path = run(cfg)
    fields, rows = read_csv(csv_path)
    assert fields == [
        "instance",
        "e_basic_residual",
        "e_commutator_residual",
        "two_parameter_residual",
        "config_hash",
        "version",
    ]
    assert len(rows) == 5
    for row in rows:
        assert float(row["e_basic_residual"]) < 1e-10
        assert float(row["e_commutator_residual"]) < 1e-9
        assert float(row["two_parameter_residual"]) < 1e-9
        assert row["config_hash"] == cfg.config_hash()
        assert row["version"] == bicomm.__version__
    summary = json.loads(Path(json_path).read_text())
    assert summary["command"] == "identity-check"
    assert summary["config_hash"] == cfg.config_hash()
    stats = summary["metrics"]["e_basic_residual"]
    assert stats["min"] <= stats["mean"] <= stats["max"]


def test_summary_text_matches_json_dumps():
    """The summary formatter gives json.dumps's indented, sorted, strict bytes."""
    tiny = 5e-324
    corpus = [
        {},
        {"command": "journe-scan", "config_hash": "0123456789ab", "version": "0.1.0", "metrics": {}},
        {"metrics": {"bmo_over_norm": {"nonfinite": 1}, "x": {"nonfinite": 0}, "e": {}}},
        {
            "metrics": {
                "signs": {"min": -0.0, "max": 0.0, "mean": -0.0},
                "subnormal": {"min": tiny, "max": 2.2250738585072009e-308, "mean": -tiny},
                "huge": {"min": -1e300, "max": 1e300, "mean": 1e-300, "nonfinite": 2**70},
                "round": {"min": 0.1, "max": 1 / 3, "mean": 1e16, "nonfinite": 0},
            }
        },
        {
            "k\u00e9y \"q\" \\ /\t\n\u2028 \U0001f600": {"\u00fc": "v\u00e1lue \"q\" \x00", "z": 3},
            "a": -7,
        },
        {"b": {"c": {"d": {}}, "a": {"e": 1.5}}, "a": ""},
    ]
    for obj in corpus:
        want = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert cli._json_text(obj) + "\n" == want
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            cli._json_text({"metrics": {"x": {"min": bad}}})
    for bad in (None, True, [1.0], (1,), np.float32(1.0), np.int64(1)):
        with pytest.raises(TypeError):
            cli._json_text({"metrics": {"x": {"min": bad}}})


def test_every_summary_round_trips_through_json(tmp_path):
    """Each command's real summary is strict JSON in json.dumps's exact layout."""
    configs = [
        ExperimentConfig("identity-check", N=32, instances=2),
        ExperimentConfig("wavelet-audit", N=32, instances=1),
        ExperimentConfig("bmo-scan", N=32, instances=2),
        ExperimentConfig("norm-compare", N=64, n=2, family="single-rectangle", instances=3),
        ExperimentConfig("journe-scan", N=64, instances=2),
        ExperimentConfig("journe-scan", N=64, family="row-of-squares-dual", K=4, instances=2),
        ExperimentConfig("decomposition", N=32, n=1, instances=2),
        ExperimentConfig("oracle-audit", N=16, instances=1),
    ]
    for idx, cfg in enumerate(configs):
        _, json_path = run(dataclasses.replace(cfg, out=str(tmp_path / str(idx))))
        text = Path(json_path).read_text(encoding="ascii")
        summary = json.loads(text, parse_constant=pytest.fail)
        assert summary["command"] == cfg.command and summary["metrics"]
        assert text == json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"


def test_rerun_byte_identical(tmp_path):
    cfg1 = ExperimentConfig("norm-compare", N=32, instances=4, out=str(tmp_path / "a"))
    cfg2 = ExperimentConfig("norm-compare", N=32, instances=4, out=str(tmp_path / "b"))
    p1, _ = run(cfg1, jobs=1)
    p2, _ = run(cfg2, jobs=3)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_wavelet_audit_small_grid(tmp_path):
    cfg = ExperimentConfig("wavelet-audit", N=256, instances=3, out=str(tmp_path / "r"))
    csv_path, _ = run(cfg)
    fields, rows = read_csv(csv_path)
    assert fields[:3] == ["instance", "item", "value"]
    items = {row["item"]: float(row["value"]) for row in rows}
    assert items["gram_deviation"] < 1e-6
    assert items["partition_residual"] < 1e-12
    assert any(k.startswith("decay_constant_j") for k in items)
    assert all(v < 1e-8 for k, v in items.items() if k.startswith("wij_zero"))
    # the kernel-orthogonality quadruples need scales past this grid
    assert not any(k.startswith("orthoI") for k in items)
    # the zero and coarse items draw two scales at least 2 apart: j_max >= 2
    with pytest.raises(ValueError, match="N >= 32.*N=16"):
        run(ExperimentConfig("wavelet-audit", N=16, instances=1, out=str(tmp_path / "16")))
    assert not (tmp_path / "16").exists()


def test_bmo_scan_exact_at_small_scale(tmp_path):
    cfg = ExperimentConfig("bmo-scan", N=64, instances=6, out=str(tmp_path / "r"))
    csv_path, _ = run(cfg)
    fields, rows = read_csv(csv_path)
    assert fields[:4] == ["instance", "rect_value", "product_value", "product_exact"]
    for row in rows:
        assert row["product_exact"] == "1"
        assert float(row["product_value"]) >= float(row["rect_value"])


def test_bmo_scan_columns_are_the_two_searches(tmp_path):
    """rect_value is rect_bmo(c), the scan of every dyadic rectangle, and
    product_value is product_bmo_lower(c), the min cut over every cell
    union, bit for bit, at n = 2 and 3."""
    for n, N in ((2, 64), (3, 128)):
        cfg = ExperimentConfig("bmo-scan", N=N, n=n, instances=6, out=str(tmp_path / str(n)))
        _, rows = read_csv(run(cfg)[0])
        for i, row in enumerate(rows):
            c = _family_coefficients(cfg, np.random.default_rng([cfg.seed, i]))
            assert float(row["rect_value"]) == rect_bmo(c).value
            assert float(row["product_value"]) == product_bmo_lower(c).value


def test_norm_compare_keeps_a_zero_norm_row(tmp_path):
    """Instance 2 is a rectangle with a side at scale 0: its spectrum sits on
    |k_i| <= 1 in that axis, where no quadrant Hankel entry lies, so the norm
    is exactly 0 and bmo_over_norm is inf."""
    cfg = ExperimentConfig(
        "norm-compare", N=128, n=2, family="single-rectangle", instances=3, out=str(tmp_path)
    )
    csv_path, json_path = run(cfg)
    _, rows = read_csv(csv_path)
    assert [float(row["operator_norm"]) == 0.0 for row in rows] == [False, False, True]
    assert rows[2]["bmo_over_norm"] == "inf" and float(rows[2]["norm_over_bmo"]) == 0.0
    assert float(rows[2]["product_bmo_lower"]) > 0.0
    # the summary is strict JSON: statistics over the finite values, inf counted apart
    stats = json.loads(Path(json_path).read_text(), parse_constant=pytest.fail)["metrics"]
    finite = [float(row["bmo_over_norm"]) for row in rows[:2]]
    assert stats["bmo_over_norm"] == {
        "min": min(finite),
        "max": max(finite),
        "mean": sum(finite) / 2,
        "nonfinite": 1,
    }
    hist = ExperimentConfig(
        "plot-data", source=csv_path, kind="histogram", metrics=("bmo_over_norm",), out=str(tmp_path)
    )
    lines = Path(run(hist)[0]).read_text().splitlines()
    assert lines[:2] == ["# bmo_over_norm_bin_center count", "# 1 non-finite values not binned"]
    assert len(lines) == 2 + 20 and sum(int(line.split()[1]) for line in lines[2:]) == 2
    # multiscale-square at n = 0 has no squares: the zero symbol, 0 / 0 both ways
    cfg = ExperimentConfig(
        "norm-compare", N=16, family="multiscale-square", instances=1, out=str(tmp_path)
    )
    csv_path, json_path = run(cfg)
    _, rows = read_csv(csv_path)
    assert rows[0]["norm_over_bmo"] == rows[0]["bmo_over_norm"] == "nan"
    stats = json.loads(Path(json_path).read_text(), parse_constant=pytest.fail)["metrics"]
    assert stats["bmo_over_norm"] == {"nonfinite": 1}
    lines = Path(run(dataclasses.replace(hist, source=csv_path))[0]).read_text().splitlines()
    assert lines == ["# bmo_over_norm_bin_center count", "# 1 non-finite values not binned"]


def test_norm_compare_and_plot_data(tmp_path):
    out = tmp_path / "r"
    cfg = ExperimentConfig("norm-compare", N=32, instances=4, out=str(out))
    csv_path, _ = run(cfg)
    fields, rows = read_csv(csv_path)
    for row in rows:
        assert float(row["operator_norm"]) > 0.0
        ratio = float(row["norm_over_bmo"]) * float(row["bmo_over_norm"])
        assert abs(ratio - 1.0) < 1e-12

    scatter = ExperimentConfig(
        "plot-data",
        source=csv_path,
        kind="scatter",
        metrics=("operator_norm", "product_bmo_lower"),
        out=str(out),
    )
    path, _ = run(scatter)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "# operator_norm product_bmo_lower"
    assert len(lines) == 1 + len(rows)

    hist = ExperimentConfig(
        "plot-data", source=csv_path, kind="histogram", metrics=("rect_bmo",), out=str(out)
    )
    path, _ = run(hist)
    lines = Path(path).read_text().splitlines()
    assert len(lines) == 1 + 20
    counts = [int(line.split()[1]) for line in lines[1:]]
    assert sum(counts) == len(rows)

    bad = ExperimentConfig(
        "plot-data", source=csv_path, kind="scatter", metrics=("no_such", "rect_bmo"), out=str(out)
    )
    with pytest.raises(ValueError, match="no_such"):
        run(bad)
    # a bad arity is rejected before the previous plot is overwritten
    before = Path(path).read_text()
    for kind, metrics in (("scatter", ("rect_bmo",)), ("histogram", ("rect_bmo", "operator_norm"))):
        with pytest.raises(ValueError, match="exactly"):
            run(
                ExperimentConfig(
                    "plot-data", source=csv_path, kind=kind, metrics=metrics, out=str(out)
                )
            )
        assert Path(path).read_text() == before
    with pytest.raises(ValueError):
        run(ExperimentConfig("plot-data", kind="scatter", metrics=("a", "b"), out=str(out)))


def test_reports_rewritten_in_place_match_a_fresh_directory(tmp_path):
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    names = ("norm-compare.csv", "norm-compare_summary.json")
    run(ExperimentConfig("norm-compare", N=32, instances=4, out=str(shared)))
    # the summaries of 4 and of 1 instance differ in length by a digit or
    # so either way; padding makes each earlier report the longer one
    for name in names:
        with open(shared / name, "ab") as fh:
            fh.write(b"x" * 64)
    for out in (shared, fresh):
        run(ExperimentConfig("norm-compare", N=32, instances=1, out=str(out)))
    for name in names:
        assert (shared / name).read_bytes() == (fresh / name).read_bytes()

    src = tmp_path / "source.csv"
    src.write_text(
        "instance,x,y,config_hash,version\n"
        + "".join(f"{i},{i / 7!r},{i * i / 3!r},h,v\n" for i in range(60))
    )
    plot = ExperimentConfig("plot-data", source=str(src), kind="scatter", metrics=("x", "y"))
    run(dataclasses.replace(plot, out=str(shared)))
    longer = (shared / "plot_data.txt").stat().st_size
    for out in (shared, fresh):
        run(dataclasses.replace(plot, kind="histogram", metrics=("x",), out=str(out)))
    assert (shared / "plot_data.txt").stat().st_size < longer
    assert (shared / "plot_data.txt").read_bytes() == (fresh / "plot_data.txt").read_bytes()

    # a new report file gets the permissions a plain open(path, "w") gives it
    with open(tmp_path / "plain", "w"):
        pass
    mode = (tmp_path / "plain").stat().st_mode
    for name in (*names, "plot_data.txt"):
        assert (fresh / name).stat().st_mode == mode


def test_plot_data_empty_source(tmp_path):
    src = tmp_path / "empty.csv"
    src.write_text("instance,value,config_hash,version\n")
    cfg = ExperimentConfig(
        "plot-data", source=str(src), kind="histogram", metrics=("value",), out=str(tmp_path)
    )
    path, _ = run(cfg)
    lines = Path(path).read_text().splitlines()
    assert lines == ["# value_bin_center count"]


def test_journe_scan_random_family(tmp_path):
    cfg = ExperimentConfig("journe-scan", N=64, instances=5, out=str(tmp_path / "r"))
    csv_path, _ = run(cfg)
    _, rows = read_csv(csv_path)
    for row in rows:
        assert float(row["journe_ratio"]) <= float("inf")
        assert float(row["max_mu"]) >= 1.0 or float(row["maximal_count"]) == 0.0


def test_journe_scan_row_family(tmp_path):
    cfg = ExperimentConfig(
        "journe-scan", N=64, family="row-of-squares-dual", K=4, instances=2, out=str(tmp_path / "r")
    )
    csv_path, _ = run(cfg)
    _, rows = read_csv(csv_path)
    assert [row["K"] for row in rows] == ["4", "8"]
    assert abs(float(rows[0]["nu_middle"]) - 23.0 / 3.0) < 1e-12
    assert abs(float(rows[1]["nu_middle"]) - 43.0 / 3.0) < 1e-12
    assert float(rows[0]["mu_middle"]) == 1.0
    assert float(rows[1]["nu_over_mu"]) >= 2.0


def test_journe_scan_row_family_rejects_too_fine_layout(tmp_path):
    """Instance i lays out K * 2^i squares; a grid finer than N cells per
    side is rejected before any instance runs."""
    # instance 2 has K = 16 squares of period 5: 80 cells need n = 7 > log2(64)
    fields = dict(N=64, family="row-of-squares-dual", K=4, instances=3, out=str(tmp_path / "r"))
    with pytest.raises(ValueError, match="too fine"):
        run(ExperimentConfig("journe-scan", **fields))
    assert not (tmp_path / "r").exists()
    # the default 100 instances would reach K = 4 * 2^99
    with pytest.raises(ValueError, match="too fine"):
        run(ExperimentConfig("journe-scan", **{**fields, "N": 1024, "instances": 100}))
    # K = 1 is no row, although instance 1 would be
    with pytest.raises(ValueError, match="two squares"):
        ExperimentConfig("journe-scan", **{**fields, "N": 1024, "K": 1})


def test_cli_import_loads_no_scipy():
    """Every command run imports bicomm.cli; scipy.optimize or
    scipy.sparse.linalg would add tens of MB of peak RSS and tenths of a
    second of start-up to each one."""
    src = str(Path(bicomm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, bicomm.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """run pins numpy's OpenBLAS to one thread and restores the old count
    after.  So criterion 7's config (norm-compare, N=128, 200 instances,
    jobs=4) writes the same bytes in a child process started under
    OPENBLAS_NUM_THREADS=1 as under =2; unpinned, the LAPACK calls of
    operator_norm give many rows other last digits."""
    blas = cli._openblas()
    if blas is None:
        pytest.skip("this numpy bundles no OpenBLAS whose thread count can be set")
    assert cli._openblas() is cli._openblas()
    src = str(Path(bicomm.__file__).resolve().parents[1])
    config = write_config(tmp_path, command="norm-compare", N=128, instances=200)
    reports = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            "OPENBLAS_NUM_THREADS": threads,
        }
        out = tmp_path / f"threads-{threads}"
        argv = ["norm-compare", "--config", config, "--out", str(out), "--jobs", "4"]
        subprocess.run([sys.executable, "-m", "bicomm.cli", *argv], env=env, check=True)
        reports.append((out / "norm-compare.csv").read_bytes())
    assert reports[0] == reports[1]
    get, put = blas
    old = get()
    try:
        put(2)
        with cli._one_blas_thread():
            assert get() == 1
        assert get() == 2
    finally:
        put(old)


def test_oracle_audit(tmp_path):
    with pytest.raises(ValueError):
        run(ExperimentConfig("oracle-audit", N=64, instances=1, out=str(tmp_path)))
    cfg = ExperimentConfig("oracle-audit", N=16, instances=3, out=str(tmp_path / "r"))
    csv_path, _ = run(cfg)
    _, rows = read_csv(csv_path)
    for row in rows:
        assert float(row["definition_block_diff"]) < 1e-6
        assert abs(float(row["hankel_ratio"]) - 1.0) < 1e-6


def test_decomposition_chain(tmp_path):
    cfg = ExperimentConfig("decomposition", N=32, n=1, instances=3, out=str(tmp_path / "r"))
    csv_path, _ = run(cfg)
    fields, rows = read_csv(csv_path)
    assert fields[:10] == [
        "instance",
        "measure_u",
        "measure_v",
        "rect_bmo",
        "bracket_uu",
        "bracket_vu",
        "bracket_wu",
        "bracket_uv_u",
        "bracket_b_u",
        "operator_norm",
    ]
    for row in rows:
        mu = float(row["measure_u"])
        assert 0.5 <= mu <= 1.0
        assert float(row["measure_v"]) >= mu
        # {b, bU} splits into the three window pieces
        assert float(row["bracket_b_u"]) <= (
            float(row["bracket_uu"]) + float(row["bracket_vu"]) + float(row["bracket_wu"]) + 1e-9
        )
        assert float(row["operator_norm"]) > 0.0


def test_file_family_roundtrip(tmp_path):
    rng = np.random.default_rng(90)
    N = 32
    sig = GridSignal2D(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    sig_path = tmp_path / "symbol.sig"
    save_signal(str(sig_path), sig)
    cfg = ExperimentConfig(
        "norm-compare", N=N, family="file", file=str(sig_path), instances=2, out=str(tmp_path / "r")
    )
    csv_path, _ = run(cfg)
    _, rows = read_csv(csv_path)
    # the file symbol is fixed; instances differ only in the power-iteration
    # start vector, so the norms agree to the iteration tolerance
    a = float(rows[0]["operator_norm"])
    b = float(rows[1]["operator_norm"])
    assert abs(a - b) < 1e-6 * max(1.0, a)

    wrong = ExperimentConfig(
        "norm-compare", N=64, family="file", file=str(sig_path), instances=1, out=str(tmp_path / "r")
    )
    with pytest.raises(ValueError):
        run(wrong)
    with pytest.raises(ValueError):
        run(ExperimentConfig("norm-compare", N=N, family="file", instances=1, out=str(tmp_path)))


def test_main_rejects_bad_signal_header(tmp_path, capsys):
    """A file-family symbol whose header is not an object with dims, a list
    of one or two positive ints, exits 2 with an error line, not a traceback."""
    cfg_path = write_config(tmp_path, N=16, family="file", file=str(tmp_path / "symbol.sig"), instances=1)
    for header in ({"dimz": [16, 16]}, {"dims": 16}, {"dims": ["a", "b"]}, {"dims": [16.0, 16.0]}, [16, 16]):
        with open(tmp_path / "symbol.sig", "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8") + bytes(16 * 16 * 16))
        assert main(["norm-compare", "--config", cfg_path, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "positive ints" in err


def test_main_rejects_short_plot_data_row(tmp_path, capsys):
    """A source row with fewer cells than the header exits 2 with an error
    line naming the row and the metric, not a traceback, and writes no plot."""
    src = tmp_path / "short.csv"
    src.write_text("a,b\n1.0,2.0\n3.0\n")
    cfg_path = write_config(tmp_path, source=str(src), kind="scatter", metrics=["a", "b"])
    out = tmp_path / "r"
    assert main(["plot-data", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 2" in err and "'b'" in err
    assert not (out / "plot_data.txt").exists()


def test_main_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, N=32, instances=2)
    assert main(["identity-check", "--config", good, "--out", str(tmp_path / "r")]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out

    assert main(["identity-check", "--config", str(tmp_path / "missing.json")]) == 2
    bad = write_config(tmp_path, N=100)
    assert main(["identity-check", "--config", bad]) == 2
    mismatched = write_config(tmp_path, command="bmo-scan")
    assert main(["identity-check", "--config", mismatched]) == 2


@pytest.mark.parametrize(
    "config, named",
    [
        ({"N": "128"}, "'N'"),
        ({"N": 128.0}, "'N'"),
        ({"instances": "3"}, "'instances'"),
        ({"n": 2.0, "N": 64}, "'n'"),
        ({"seed": 1.5}, "'seed'"),
        ({"instances": True}, "'instances'"),
        ({"tol": "1e-8"}, "'tol'"),
        ({"family": 3}, "'family'"),
        ({"metrics": "operator_norm"}, "'metrics'"),
        ({"metrics": ["a", 2]}, "'metrics'"),
        # a row of K=2 squares needs 2^4 cells per side, which synthesis puts at N >= 256
        ({"N": 128, "n": 3, "family": "row-of-squares-dual", "K": 2, "instances": 3}, "too fine"),
        ([1, 2], "JSON object"),
        ("directory", "config"),
        ("out under a file", "blocker"),
        ({"seed": -1}, "'seed'"),
        ({"tol": -1.0}, "'tol'"),
        ({"tol": float("nan")}, "'tol'"),
    ],
)
def test_main_rejects_bad_config_input(tmp_path, capsys, monkeypatch, config, named):
    """Bad config input exits 2 with an error that names what is wrong,
    before any instance runs, and makes no output directory."""
    monkeypatch.setitem(cli._RUNNERS, "bmo-scan", lambda cfg, jobs: pytest.fail("an instance ran"))
    out = tmp_path / "r"
    if config == "directory":
        cfg_path = tmp_path / "config"
        cfg_path.mkdir()
    else:
        cfg_path = write_config(tmp_path, N=32, instances=1)
        if config == "out under a file":
            (tmp_path / "blocker").write_text("")
            out = tmp_path / "blocker" / "r"
        else:
            Path(cfg_path).write_text(json.dumps(config))
    assert main(["bmo-scan", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "failed" not in err
    assert not out.exists()


def test_config_hash_is_pinned(tmp_path, monkeypatch):
    """The hash of two fixed configs: a change that moves every hash shows here."""
    cfg = ExperimentConfig.from_dict({"command": "norm-compare", "N": 128, "n": 3, "seed": 5})
    assert cfg.config_hash() == "88370ab76500"
    monkeypatch.chdir(tmp_path)
    save_signal("symbol.sig", GridSignal2D(np.arange(32 * 32, dtype=float).reshape(32, 32)))
    cfg = ExperimentConfig("norm-compare", N=32, family="file", file="symbol.sig", instances=2)
    assert cfg.config_hash() == "95ab776079cf"


def test_main_seed_override(tmp_path):
    cfg_path = write_config(tmp_path, N=32, instances=2)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["norm-compare", "--config", cfg_path, "--out", str(out1), "--seed", "7"]) == 0
    assert main(["norm-compare", "--config", cfg_path, "--out", str(out2), "--seed", "8"]) == 0
    rows1 = read_csv(out1 / "norm-compare.csv")[1]
    rows2 = read_csv(out2 / "norm-compare.csv")[1]
    assert rows1[0]["operator_norm"] != rows2[0]["operator_norm"]
    assert rows1[0]["config_hash"] != rows2[0]["config_hash"]
