"""Experiment runner: configuration-driven batches with CSV/JSON reports.

Each command executes a batch of seeded instances and writes a CSV report
(one row per instance or audit item) plus a JSON summary with min/max/mean
per numeric column.  All randomness flows from the config seed through
per-instance generators seeded with [seed, instance], so reruns with the
same config produce byte-identical reports regardless of --jobs.

Commands: identity-check, wavelet-audit, bmo-scan, norm-compare,
journe-scan, decomposition, oracle-audit, plot-data.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor, as_completed
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .bmo import product_bmo_lower, rect_bmo, rectangles_inside
from .commutator import (
    bracket,
    commutator_apply,
    dense_hankel_matrix,
    operator_norm,
    power_iteration_norm,
)
from .grid import CellSet, DyadicInterval, DyadicRectangle, GridSignal1D, GridSignal2D, load_signal
from .journe import embeddedness, enlargement, journe_sum, row_of_squares, row_resolution
from .transforms import (
    project_admissible_1d,
    project_halfline,
    project_quadrant,
)
from .wavelets import (
    WaveletCoefficients,
    analyze,
    commutator_kernel,
    decay_envelope_constant,
    gram_deviation,
    j_max,
    meyer_profile,
    synthesize,
    wavelet_sample,
)

_FAMILIES = (
    "random-carleson",
    "single-rectangle",
    "row-of-squares-dual",
    "multiscale-square",
    "file",
)
# multiscale-square: the scale-j square's coefficient has modulus _MULTISCALE_DECAY**j
_MULTISCALE_DECAY = 0.5
_HISTOGRAM_BINS = 20
# the enlargement threshold and the Journe exponent of journe-scan and decomposition
_DELTA = 0.5
_EPSILON = 0.5
# rectangular BMO norm of decomposition's background
_BACKGROUND_BMO = 0.5


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the value test of each field annotation of ExperimentConfig; "T | None" also admits None
_FIELD_TYPES = {
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "str": lambda v: isinstance(v, str),
    "tuple[str, ...]": lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v),
}

@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Everything a command run depends on; hashed into every report row."""

    command: str
    N: int = 256
    n: int | None = None
    seed: int = 0
    family: str = "random-carleson"
    instances: int = 100
    tol: float = 1e-8
    K: int = 4
    file: str | None = None
    source: str | None = None
    kind: str | None = None
    metrics: tuple[str, ...] = ()
    out: str = "reports"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if not (value is None and optional == "None" or _FIELD_TYPES[kind](value)):
                raise ValueError(f"config field {f.name!r} must be {f.type}, got {value!r}")
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.N < 16 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two, at least 16")
        log2N = int(math.log2(self.N))
        if self.n is None:
            object.__setattr__(self, "n", log2N - 4)
        if self.n < 0 or self.n > log2N - 4:
            raise ValueError("need 0 <= n <= log2(N) - 4")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.command == "wavelet-audit" and self.N < 32:
            # the zero and coarse items draw two scales at least 2 apart
            raise ValueError(f"wavelet-audit needs N >= 32 (j_max >= 2), got N={self.N}")
        if self.command == "oracle-audit" and self.N > 32:
            raise ValueError("oracle-audit needs N <= 32 for the dense Hankel matrix")
        if self.instances < 1:
            raise ValueError("instances must be positive")
        if self.seed < 0:
            raise ValueError(f"config field 'seed' must be nonnegative, got {self.seed}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"config field 'tol' must be finite and positive, got {self.tol!r}")
        if self.family == "row-of-squares-dual" and self.command in ("bmo-scan", "norm-compare"):
            # one row of K squares, synthesized on the N grid
            if row_resolution(self.K) > log2N - 4:
                raise ValueError(f"a row of K={self.K} squares is too fine for N={self.N}")
        if self.family == "row-of-squares-dual" and self.command == "journe-scan":
            # instance i lays out K * 2^i squares on a grid of its own: instance 0
            # needs K >= 2, and the last must fit (the shift is capped, since
            # K * 2^log2(N) squares never fit)
            row_resolution(self.K)
            if row_resolution(self.K << min(self.instances - 1, log2N)) > log2N:
                raise ValueError(f"a row of K * 2^(instances - 1) squares is too fine for N={self.N}")

    @classmethod
    def from_dict(cls, obj: dict, command: str | None = None) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ValueError(f"a config must be a JSON object, got {type(obj).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data = dict(obj)
        if command is not None:
            if "command" in data and data["command"] != command:
                raise ValueError(
                    f"config command {data['command']!r} does not match {command!r}"
                )
            data["command"] = command
        return cls(**data)

    @classmethod
    def from_file(cls, path: str, command: str | None = None) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), command)

    def config_hash(self) -> str:
        """Hash of every field but out and, for the file family, of the symbol file's bytes."""
        fields = [f.name for f in dataclasses.fields(self) if f.name != "out"]
        payload = {k: getattr(self, k) for k in fields}
        if self.family == "file" and self.file is not None:
            with open(self.file, "rb") as fh:
                payload["file_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write_in_place(path: str, text: str) -> None:
    """Write text to path over any earlier file there, then cut the file to it.

    The file is opened without O_TRUNC, so an earlier report's blocks are
    overwritten rather than freed and allocated afresh: on a filesystem that
    discards freed blocks or forces writeback of a truncated file on close,
    truncating to zero costs more than the write. A run killed between the
    write and the truncate can leave the tail of a longer earlier report.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def _json_text(value, indent: str = "\n") -> str:
    """The bytes of json.dumps(value, indent=2, sort_keys=True, allow_nan=False).

    json.dumps runs its pure-Python encoder whenever it indents.  This covers
    the dict/str/int/float values of a report summary: keys and strings go
    through json's own ASCII escaper and numbers through repr, as there; a
    non-finite float raises ValueError, as allow_nan=False does, and any
    other type, bool included, raises TypeError.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [
            f"{inner}{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())
        ]
        return "{" + ",".join(items) + indent + "}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"out of range float value is not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    raise TypeError(f"object of type {type(value).__name__} is not in the report summary schema")


def _write_report(cfg: ExperimentConfig, columns: list[str], rows: list[list]) -> tuple[str, str]:
    """Write `<command>.csv` and `<command>_summary.json` into cfg.out.

    The summary holds the command, config hash, version and, per numeric
    column, min/max/mean over its finite values and a count of the rest.
    Its bytes are those of json.dumps(indent=2, sort_keys=True,
    allow_nan=False) plus a newline, written by _json_text.
    """
    chash = cfg.config_hash()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns + ["config_hash", "version"])
    for row in rows:
        writer.writerow(row + [chash, __version__])
    csv_path = os.path.join(cfg.out, f"{cfg.command}.csv")
    _write_in_place(csv_path, buf.getvalue())
    stats = {}
    for idx, name in enumerate(columns):
        if name == "instance":
            continue
        vals = [row[idx] for row in rows if isinstance(row[idx], (int, float))]
        if vals and len(vals) == len(rows):
            # inf and nan (ratios to a zero norm) are counted apart: strict JSON
            finite = [float(v) for v in vals if math.isfinite(v)]
            entry = {"nonfinite": len(vals) - len(finite)} if len(finite) < len(vals) else {}
            if finite:
                entry.update(min=min(finite), max=max(finite), mean=sum(finite) / len(finite))
            stats[name] = entry
    summary = {
        "command": cfg.command,
        "config_hash": chash,
        "version": __version__,
        "metrics": stats,
    }
    json_path = os.path.join(cfg.out, f"{cfg.command}_summary.json")
    _write_in_place(json_path, _json_text(summary) + "\n")
    return csv_path, json_path


def _run_instances(cfg: ExperimentConfig, jobs: int, worker) -> list[list]:
    """worker(i) for every instance i, on up to `jobs` threads.

    A failing instance raises RuntimeError naming the instance and the
    config seed; with jobs > 1 the instances not yet started are cancelled.
    """

    def failure(i: int, exc: Exception) -> RuntimeError:
        return RuntimeError(f"instance {i} (seed {cfg.seed}) failed: {type(exc).__name__}: {exc}")

    if jobs <= 1:
        rows = []
        for i in range(cfg.instances):
            try:
                rows.append(worker(i))
            except Exception as exc:
                raise failure(i, exc) from exc
        return rows
    results: dict[int, list] = {}
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(worker, i): i for i in range(cfg.instances)}
        for fut in as_completed(futures):
            i = futures[fut]
            try:
                results[i] = fut.result()
            except Exception as exc:
                for pending in futures:
                    pending.cancel()
                raise failure(i, exc) from exc
    return [results[i] for i in range(cfg.instances)]


# ---------------------------------------------------------------------------
# symbol families


def _band_limited(cls, rng: np.random.Generator, N: int, band):
    """Unit-norm signal of class cls with Gaussian coefficients at k_i in band."""
    ks = np.array(band) % N
    shape = (ks.size,) * cls.ndim
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec = np.zeros((N,) * cls.ndim, dtype=complex)
    spec[np.ix_(*(ks,) * cls.ndim)] = block
    sig = cls.from_spectrum(spec)
    return sig * (1.0 / sig.norm2())


def _punctured_band(N: int) -> list[int]:
    """The frequencies 0 < |k| <= N/4."""
    return [k for k in range(-(N // 4), N // 4 + 1) if k != 0]


def _random_open_set(rng: np.random.Generator, n: int) -> CellSet:
    """Bernoulli(1/2) cell mask, topped up to measure at least 1/2."""
    m = 1 << n
    mask = rng.random((m, m)) < 0.5
    need = (m * m + 1) // 2
    short = need - int(mask.sum())
    if short > 0:
        empty = np.argwhere(~mask)
        picks = rng.permutation(len(empty))[:short]
        for idx in picks:
            mask[tuple(empty[idx])] = True
    return CellSet(n, mask)


def _carleson_coefficients(rng: np.random.Generator, U: CellSet) -> WaveletCoefficients:
    """Random coefficients on the rectangles inside U with total energy |U|."""
    n = U.n
    inside = rectangles_inside(U, n)
    K = inside.shape[0]
    mat = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
    mat = np.where(inside, mat, 0.0)
    mat *= math.sqrt(U.measure() / float(np.sum(np.abs(mat) ** 2)))
    return WaveletCoefficients(n, mat)


def _family_coefficients(cfg: ExperimentConfig, rng: np.random.Generator) -> WaveletCoefficients:
    n = cfg.n
    if cfg.family == "random-carleson":
        return _carleson_coefficients(rng, _random_open_set(rng, n))
    if cfg.family == "single-rectangle":
        j1 = int(rng.integers(0, n + 1))
        j2 = int(rng.integers(0, n + 1))
        R = DyadicRectangle.from_indices(
            j1, int(rng.integers(0, 2**j1)), j2, int(rng.integers(0, 2**j2))
        )
        return WaveletCoefficients.from_dict(n, {R: 1.0})
    if cfg.family == "multiscale-square":
        vals = {}
        for j in range(1, n + 1):
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            vals[DyadicRectangle.from_indices(j, 0, j, 0)] = _MULTISCALE_DECAY**j * complex(
                math.cos(phase), math.sin(phase)
            )
        return WaveletCoefficients.from_dict(n, vals)
    if cfg.family == "row-of-squares-dual":
        return _carleson_coefficients(rng, row_of_squares(cfg.K).cells)
    raise ValueError(f"family {cfg.family!r} does not generate coefficients")


def _family_symbol(cfg: ExperimentConfig, rng: np.random.Generator | None):
    if cfg.family == "file":
        if cfg.file is None:
            raise ValueError("family 'file' requires the file field")
        sig = load_signal(cfg.file)
        if not isinstance(sig, GridSignal2D) or sig.n_points != cfg.N:
            raise ValueError("loaded signal does not match the configured grid")
        return sig, analyze(sig, cfg.n)
    c = _family_coefficients(cfg, rng)
    return synthesize(c, cfg.N), c


# ---------------------------------------------------------------------------
# command runners


def _axis_sign_transform(s: GridSignal1D) -> GridSignal1D:
    return project_halfline(s, 1) - project_halfline(s, -1)


def _halfline_energy_difference(minus: GridSignal1D, plus: GridSignal1D) -> GridSignal1D:
    """P-(|b-|^2) - P+(|b+|^2) for the half-line parts b- = P- b and b+ = P+ b."""
    return project_halfline(GridSignal1D(np.abs(minus.samples) ** 2), -1) - project_halfline(
        GridSignal1D(np.abs(plus.samples) ** 2), 1
    )


def _basic_identity_residual(b: GridSignal1D) -> float:
    lhs = (b * _axis_sign_transform(b.conj()) - _axis_sign_transform(b * b.conj())) * 0.5
    lhs = project_admissible_1d(lhs)
    rhs = _halfline_energy_difference(project_halfline(b, -1), project_halfline(b, 1))
    return (lhs - rhs).norm2()


def _commutator_form_residual(b: GridSignal2D, f: GridSignal2D) -> float:
    lhs = commutator_apply(b, f)
    rhs = (
        project_quadrant(b * project_quadrant(f, -1, -1), 1, 1)
        - project_quadrant(b * project_quadrant(f, -1, 1), 1, -1)
        - project_quadrant(b * project_quadrant(f, 1, -1), -1, 1)
        + project_quadrant(b * project_quadrant(f, 1, 1), -1, -1)
    ) * 4.0
    return (lhs - rhs).norm2()


def _two_parameter_residual(b: GridSignal2D) -> float:
    lhs = bracket(b, b) * 0.25
    rhs = None
    for s1, s2, sign in ((1, 1, 1.0), (1, -1, -1.0), (-1, 1, -1.0), (-1, -1, 1.0)):
        pb = project_quadrant(b, s1, s2)
        term = project_quadrant(GridSignal2D(np.abs(pb.samples) ** 2), s1, s2) * sign
        rhs = term if rhs is None else rhs + term
    return (lhs - rhs).norm2()


def _run_identity_check(cfg: ExperimentConfig, jobs: int):
    def worker(i: int) -> list:
        rng = np.random.default_rng([cfg.seed, i])
        band = _punctured_band(cfg.N)
        e_basic = _basic_identity_residual(_band_limited(GridSignal1D, rng, cfg.N, band))
        b = _band_limited(GridSignal2D, rng, cfg.N, band)
        f = _band_limited(GridSignal2D, rng, cfg.N, band)
        return [
            i,
            e_basic,
            _commutator_form_residual(b, f),
            _two_parameter_residual(b),
        ]

    cols = ["instance", "e_basic_residual", "e_commutator_residual", "two_parameter_residual"]
    return cols, _run_instances(cfg, jobs, worker)


def _run_wavelet_audit(cfg: ExperimentConfig, jobs: int):
    N = cfg.N
    J = j_max(N)
    rows: list[list] = []

    def add(item: str, value: float):
        rows.append([len(rows), item, float(value)])

    add("gram_deviation", gram_deviation(N))
    w1, w2 = meyer_profile(1.0), meyer_profile(2.0)
    add("partition_residual", abs(abs(w1) ** 2 + abs(w2) ** 2 - 1.0))
    consts = {}
    for j in range(max(0, J - 2), J + 1):
        consts[j] = decay_envelope_constant(DyadicInterval(j, 0), N)
        add(f"decay_constant_j{j}", consts[j])
    add("decay_spread", max(consts.values()) / min(consts.values()) - 1.0)

    rng = np.random.default_rng([cfg.seed, 1])
    for idx in range(cfg.instances):
        jI = int(rng.integers(0, J - 1))
        jJ = int(rng.integers(jI + 2, J + 1))
        I = DyadicInterval(jI, int(rng.integers(0, 2**jI)))
        Jv = DyadicInterval(jJ, int(rng.integers(0, 2**jJ)))
        add(f"wij_zero_{idx}", commutator_kernel(I, Jv, N).signal.norm2())
    rng = np.random.default_rng([cfg.seed, 2])
    for idx in range(cfg.instances):
        j = int(rng.integers(1, J + 1))
        I = DyadicInterval(j, int(rng.integers(0, 2**j)))
        sw = wavelet_sample(I, N)
        kern = project_admissible_1d(commutator_kernel(I, I, N).signal)
        rhs = _halfline_energy_difference(sw.minus, sw.plus)
        add(f"wij_diagonal_{idx}", (kern - rhs).norm2())
    rng = np.random.default_rng([cfg.seed, 3])
    for idx in range(cfg.instances):
        jI = int(rng.integers(2, J + 1))
        jJ = int(rng.integers(0, jI - 1))
        I = DyadicInterval(jI, int(rng.integers(0, 2**jI)))
        Jv = DyadicInterval(jJ, int(rng.integers(0, 2**jJ)))
        wI = wavelet_sample(I, N)
        wJ = wavelet_sample(Jv, N)
        kern = commutator_kernel(I, Jv, N).signal
        rhs = wI.minus * wJ.plus - wI.plus * wJ.minus
        add(f"wij_coarse_{idx}", (kern - rhs).norm2())
    rng = np.random.default_rng([cfg.seed, 4])
    # kernel-spectra disjointness under 8x gaps in all three scale
    # relations; the quadruples need j_max >= 6, so N >= 512
    for idx in range(cfg.instances if J >= 6 else 0):
        jI = int(rng.integers(6, J + 1))
        jJ = int(rng.integers(0, jI - 2))
        jIp = int(rng.integers(3, jI - 2))
        jJp = int(rng.integers(0, jIp - 2))
        I = DyadicInterval(jI, int(rng.integers(0, 2**jI)))
        Jv = DyadicInterval(jJ, int(rng.integers(0, 2**jJ)))
        Ip = DyadicInterval(jIp, int(rng.integers(0, 2**jIp)))
        Jp = DyadicInterval(jJp, int(rng.integers(0, 2**jJp)))
        k1 = commutator_kernel(I, Jv, N).signal
        k2 = commutator_kernel(Ip, Jp, N).signal
        overlap = float(np.sum(np.abs(k1.spectrum()) * np.abs(k2.spectrum())))
        add(f"orthoI_{idx}", overlap)
    return ["instance", "item", "value"], rows


def _run_bmo_scan(cfg: ExperimentConfig, jobs: int):
    def worker(i: int) -> list:
        c = _family_coefficients(cfg, np.random.default_rng([cfg.seed, i]))
        best = product_bmo_lower(c)
        return [i, rect_bmo(c).value, best.value, int(best.exact)]

    return ["instance", "rect_value", "product_value", "product_exact"], _run_instances(cfg, jobs, worker)


def _ratio(a: float, b: float) -> float:
    """a / b of norms, x / 0 = inf and 0 / 0 = nan (|k_i| <= 1 on one axis gives norm 0)."""
    return a / b if b else (math.inf if a else math.nan)


def _run_norm_compare(cfg: ExperimentConfig, jobs: int):
    # a file symbol is the same for every instance: load and check it once
    loaded = _family_symbol(cfg, None) if cfg.family == "file" else None

    def worker(i: int) -> list:
        rng = np.random.default_rng([cfg.seed, i])
        b, c = loaded or _family_symbol(cfg, rng)
        norm = operator_norm(b, tol=cfg.tol, seed=[cfg.seed, i, 1]).value
        rect = rect_bmo(c).value
        prod = product_bmo_lower(c).value
        return [i, norm, rect, prod, _ratio(norm, prod), _ratio(prod, norm)]

    cols = [
        "instance",
        "operator_norm",
        "rect_bmo",
        "product_bmo_lower",
        "norm_over_bmo",
        "bmo_over_norm",
    ]
    return cols, _run_instances(cfg, jobs, worker)


def _run_journe_scan(cfg: ExperimentConfig, jobs: int):
    if cfg.family == "row-of-squares-dual":
        def worker(i: int) -> list:
            K = cfg.K * 2**i
            row = row_of_squares(K)
            V = enlargement(row.cells, _DELTA)
            rep = embeddedness(row.middle, V, row.cells)
            return [i, K, rep.mu, rep.nu, rep.nu / rep.mu]

        cols = ["instance", "K", "mu_middle", "nu_middle", "nu_over_mu"]
        return cols, _run_instances(cfg, jobs, worker)

    def worker(i: int) -> list:
        rng = np.random.default_rng([cfg.seed, i])
        m = 1 << cfg.n
        U = CellSet(cfg.n, rng.random((m, m)) < 0.5)
        js = journe_sum(U, _DELTA, _EPSILON)
        return [i, U.measure(), js.value, js.ratio, max(js.mus, default=0.0), len(js.mus)]

    cols = ["instance", "measure", "journe_value", "journe_ratio", "max_mu", "maximal_count"]
    return cols, _run_instances(cfg, jobs, worker)


def _run_decomposition(cfg: ExperimentConfig, jobs: int):
    """Split a symbol along an open set U and measure the bracket chain.

    The symbol is built in normal form: a concentrated part on the
    rectangles inside a random U with measure in [1/2, 1], plus a
    background spread over all rectangles with rectangular BMO norm
    _BACKGROUND_BMO, rescaled so that the coefficient mass inside U equals
    the measure of U exactly.  V is the _DELTA-enlargement of U.
    """

    def worker(i: int) -> list:
        rng = np.random.default_rng([cfg.seed, i])
        U = _random_open_set(rng, cfg.n)
        c_in = _carleson_coefficients(rng, U)
        K = c_in.matrix.shape[0]
        bg = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
        bg *= _BACKGROUND_BMO / rect_bmo(WaveletCoefficients(cfg.n, bg)).value
        mat = c_in.matrix + bg
        in_u = rectangles_inside(U, cfg.n)
        mass_u = float(np.sum(np.abs(mat) ** 2 * in_u))
        mat = mat * math.sqrt(U.measure() / mass_u)
        c = WaveletCoefficients(cfg.n, mat)
        b = synthesize(c, cfg.N)
        V = enlargement(U, _DELTA)
        in_v = rectangles_inside(V, cfg.n) & ~in_u
        in_w = ~(in_u | in_v)
        bU = synthesize(WaveletCoefficients(cfg.n, np.where(in_u, mat, 0.0)), cfg.N)
        bV = synthesize(WaveletCoefficients(cfg.n, np.where(in_v, mat, 0.0)), cfg.N)
        bW = synthesize(WaveletCoefficients(cfg.n, np.where(in_w, mat, 0.0)), cfg.N)
        norm = operator_norm(b, tol=cfg.tol, seed=[cfg.seed, i, 1]).value
        return [
            i,
            U.measure(),
            V.measure(),
            rect_bmo(c).value,
            bracket(bU, bU).norm2(),
            bracket(bV, bU).norm2(),
            bracket(bW, bU).norm2(),
            bracket(bU + bV, bU).norm2(),
            bracket(b, bU).norm2(),
            norm,
        ]

    cols = [
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
    return cols, _run_instances(cfg, jobs, worker)


def _run_oracle_audit(cfg: ExperimentConfig, jobs: int):
    def worker(i: int) -> list:
        rng = np.random.default_rng([cfg.seed, i])
        b = _band_limited(GridSignal2D, rng, cfg.N, _punctured_band(cfg.N))
        # each comparison sets the definition (commutator_apply, through the
        # power iteration) against the quadrant-Hankel blocks
        svd = operator_norm(b).value
        power = power_iteration_norm(b, tol=1e-12, max_iter=20000, seed=[cfg.seed, i, 1]).value
        h = _band_limited(GridSignal2D, rng, cfg.N, range(cfg.N // 4 + 1))
        hankel = float(np.linalg.svd(dense_hankel_matrix(h), compute_uv=False)[0])
        comm = power_iteration_norm(
            h.conj(), tol=1e-12, max_iter=20000, seed=[cfg.seed, i, 2]
        ).value
        return [i, power, svd, abs(power - svd), hankel, comm, 4.0 * hankel / comm]

    cols = [
        "instance",
        "power_norm",
        "svd_norm",
        "power_svd_diff",
        "hankel_norm",
        "commutator_norm",
        "hankel_ratio",
    ]
    return cols, _run_instances(cfg, jobs, worker)


def _run_plot_data(cfg: ExperimentConfig, jobs: int) -> tuple[str, None]:
    if cfg.source is None:
        raise ValueError("plot-data requires the source field (a report CSV)")
    if cfg.kind not in ("scatter", "histogram"):
        raise ValueError("plot-data kind must be 'scatter' or 'histogram'")
    if cfg.kind == "scatter" and len(cfg.metrics) != 2:
        raise ValueError("scatter needs exactly two metric names")
    if cfg.kind == "histogram" and len(cfg.metrics) != 1:
        raise ValueError("histogram needs exactly one metric name")
    with open(cfg.source, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        for name in cfg.metrics:
            if name not in fields:
                raise ValueError(f"unknown metric {name!r}; report has {fields}")
        data = {name: [] for name in cfg.metrics}
        for row in reader:
            for name in cfg.metrics:
                data[name].append(float(row[name]))
    if cfg.kind == "scatter":
        x, y = cfg.metrics
        lines = [f"# {x} {y}"]
        lines += [f"{a} {bval}" for a, bval in zip(data[x], data[y])]
    else:
        (name,) = cfg.metrics
        lines = [f"# {name}_bin_center count"]
        vals = [v for v in data[name] if math.isfinite(v)]
        if len(vals) < len(data[name]):
            lines.append(f"# {len(data[name]) - len(vals)} non-finite values not binned")
        if vals:
            lo, hi = min(vals), max(vals)
            width = (hi - lo) / _HISTOGRAM_BINS or 1.0
            counts = [0] * _HISTOGRAM_BINS
            for v in vals:
                idx = min(int((v - lo) / width), _HISTOGRAM_BINS - 1)
                counts[idx] += 1
            for idx, count in enumerate(counts):
                center = lo + (idx + 0.5) * width
                lines.append(f"{center} {count}")
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "plot_data.txt")
    _write_in_place(path, "".join(line + "\n" for line in lines))
    return path, None


_RUNNERS = {
    "identity-check": _run_identity_check,
    "wavelet-audit": _run_wavelet_audit,
    "bmo-scan": _run_bmo_scan,
    "norm-compare": _run_norm_compare,
    "journe-scan": _run_journe_scan,
    "decomposition": _run_decomposition,
    "oracle-audit": _run_oracle_audit,
}
_COMMANDS = (*_RUNNERS, "plot-data")


def run(cfg: ExperimentConfig, jobs: int = 1) -> tuple[str, str | None]:
    """Execute one command; returns the paths of the written report files."""
    if cfg.command == "plot-data":
        return _run_plot_data(cfg, jobs)
    # an output directory that cannot be made fails before any instance runs
    os.makedirs(cfg.out, exist_ok=True)
    columns, rows = _RUNNERS[cfg.command](cfg, jobs)
    return _write_report(cfg, columns, rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bicomm",
        description="Batch experiments for commutator, wavelet and rectangle-geometry checks.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--jobs", type=int, default=1, help="concurrent instances")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config, args.command)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out=args.out)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        paths = run(cfg, jobs=args.jobs)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        if path is not None:
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
