"""Workloads of the bicomm benchmark: which ops run, on which inputs, and their checks.

An op is one single-instance `bicomm.cli.run` config.  Each workload draws
its ops from a fixed population of op configs whose CSV rows were recorded
in `reference.json` (by `reference.py`) at the commit that introduced the
benchmark.  A run repeats one *pass*: a list of ops drawn from the
population by the benchmark seed.  At the commit that introduced the
benchmark, on a 2-core x86 machine, a pass takes about 40 s on the two
workloads BENCHMARK.json gates on (norm-compare, journe-scan) and about
20 s on the other two.

Op cost varies a lot inside a population: a norm-compare op needs 13 to
2375 power iterations.  A pass therefore draws by stratified
sampling: each group of the population is sorted by its recorded cost
(iterations, or maximal-rectangle count), cut into as many equal strata as
the pass has slots for the group, and the seed picks one op per stratum.
Different seeds give different inputs with the same cost mix, so a run's
throughput measures the program rather than the luck of the draw.  The
strata enter the pass in bit-reversed order, so that cheap and costly ops
alternate and any prefix of a pass also spans the cost range.

The two norm-compare populations leave out symbols that need more than
MAX_ITERATIONS power iterations: 5 of 96 random-carleson symbols (nc-84,
nc-41, nc-27, nc-52 and nc-23, at 407 to 2375 iterations) and 2 of 32
full-band symbols (fb-6 and fb-21, at 419 and 621).  One such op takes 5
to 30 s on a 2-core x86 machine, so a pass that drew one would time little
else.  The iteration counts of the others still span 13 to 393.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np

from bicomm.cli import ExperimentConfig
from bicomm.grid import GridSignal2D, save_signal

REFERENCE_PATH = Path(__file__).with_name("reference.json")
MAX_ITERATIONS = 400

# relative tolerance of operator_norm against the reference: power iteration
# at tol 1e-8 reads up to 5e-8 low, and an exact norm has to pass too
NORM_RTOL = 1e-6
# nu/mu of the middle square of a row of K squares (criterion 5)
ROW_NU_OVER_MU = {8: 14.333, 16: 27.667}
JOURNE_RATIO_MAX = 100.0
# rounding allowance of the rect_bmo <= product_bmo_lower invariant
ROUNDING_RTOL = 1e-12


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # group name -> population keys
    groups: dict[str, tuple[str, ...]]
    # one pass, as a sequence of group names
    pattern: tuple[str, ...]
    # population key of the untimed warm-up op
    warmup: str
    # members whose recorded cost exceeds this are left out of the population
    max_cost: float = math.inf


def _keys(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}-{i}" for i in range(count))


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 7's corpus: norm-compare at N=128, n=3, random-carleson,
        # tol 1e-8.  operator_norm is ~98% of op time and commutator_apply
        # ~95%, so this is the hot path of the planned Hankel-block norm; it
        # barely touches journe or bmo.
        Workload(
            name="norm-compare",
            why="criterion 7 corpus (N=128, random-carleson): the power-iteration operator norm, "
            "hot path of the planned Hankel-block norm",
            groups={"nc": _keys("nc", 96)},
            pattern=("nc",) * 32,
            warmup="nc-45",
            max_cost=MAX_ITERATIONS,
        ),
        # The same command through family 'file', on symbols whose spectrum
        # fills the whole admissible band at N=128.  They break the
        # |k| < N/4 band limit the Hankel-block norm relies on and take its
        # fallback path, so a gain on norm-compare that costs the fallback
        # shows here.  It also runs grid.load_signal and wavelets.analyze
        # instead of synthesize.
        Workload(
            name="norm-compare-fullband",
            why="norm-compare on full-band symbols loaded from files: the commutator path "
            "without the band limit, plus load_signal and analyze",
            groups={"fb": _keys("fb", 32)},
            pattern=("fb",) * 10,
            warmup="fb-16",
            max_cost=MAX_ITERATIONS,
        ),
        # Random open sets at n=6 (~1250 maximal rectangles, embeddedness
        # ~97% of op time) interleaved with the non-dyadic row-of-squares
        # rectangles at K=8 and K=16, whose nu goes through strong_maximal.
        # This is the hot path of criteria 5-6 and of integer-exact
        # embeddedness; the row ops are the case such a rewrite must keep
        # exact.  It never calls commutator or bmo.
        Workload(
            name="journe-scan",
            why="Journe sums on random open sets at n=6 with non-dyadic row-of-squares ops: "
            "embeddedness and the maximal functions, no commutator or bmo",
            groups={"open": _keys("open", 48), "row8": ("row-8",), "row16": ("row-16",)},
            pattern=("open", "row8", "open", "row16", "open", "row8", "open", "row8") * 3,
            warmup="row-8",
        ),
        # bmo is under 1% of norm-compare, so only this workload measures it:
        # product_bmo_lower is ~99% of op time.  n=2 takes the exhaustive
        # scan and n=4, 5 the greedy search, the two sides of
        # method='auto'; the greedy inner loop is where a shared box-count
        # kernel would replace _masked_energy.
        Workload(
            name="bmo-scan",
            why="product BMO on random-carleson at n=2 (exhaustive scan) and n=4, 5 "
            "(greedy search): the only workload where bmo dominates",
            groups={"n2": _keys("b2", 64), "n4": _keys("b4", 64), "n5": _keys("b5", 64)},
            pattern=("n2", "n4", "n5") * 36,
            warmup="b2-0",
        ),
    )
}


def config_fields(key: str, workdir: str | os.PathLike) -> dict:
    """ExperimentConfig fields of a population key; outputs go to workdir."""
    prefix, idx = key.rsplit("-", 1)
    i = int(idx)
    out = {"instances": 1, "out": str(workdir)}
    if prefix == "nc":
        return {**out, "command": "norm-compare", "N": 128, "n": 3, "seed": i, "tol": 1e-8}
    if prefix == "fb":
        return {
            **out,
            "command": "norm-compare",
            "N": 128,
            "n": 3,
            "seed": i,
            "tol": 1e-8,
            "family": "file",
            "file": str(symbol_path(key, workdir)),
        }
    if prefix == "open":
        return {**out, "command": "journe-scan", "N": 1024, "n": 6, "seed": i}
    if prefix == "row":
        return {
            **out,
            "command": "journe-scan",
            "N": 1024,
            "n": 6,
            "family": "row-of-squares-dual",
            "K": i,
        }
    if prefix in ("b2", "b4", "b5"):
        n = int(prefix[1])
        return {**out, "command": "bmo-scan", "N": 16 << n, "n": n, "seed": i}
    raise ValueError(f"unknown population key {key!r}")


def op_config(key: str, workdir) -> ExperimentConfig:
    return ExperimentConfig(**config_fields(key, workdir))


def symbol_path(key: str, workdir) -> Path:
    return Path(workdir) / f"symbol-{key}.bin"


def fullband_symbol(seed: int, N: int = 128) -> GridSignal2D:
    """Unit-norm symbol with independent complex Gaussian coefficients on every
    admissible mode (k1, k2 nonzero and off Nyquist)."""
    k = np.fft.fftfreq(N, 1.0 / N).astype(np.int64)
    line = (k != 0) & (np.abs(k) != N // 2)
    band = line[:, None] & line[None, :]
    rng = np.random.default_rng([0xFB, seed])
    spec = np.zeros((N, N), dtype=complex)
    spec[band] = rng.standard_normal(int(band.sum())) + 1j * rng.standard_normal(int(band.sum()))
    sig = GridSignal2D.from_spectrum(spec)
    return sig * (1.0 / sig.norm2())


def prepare_inputs(keys, workdir) -> None:
    """Write the symbol files the 'file'-family ops read."""
    for key in set(keys):
        if key.startswith("fb-"):
            save_signal(symbol_path(key, workdir), fullband_symbol(int(key.rsplit("-", 1)[1])))


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _bit_reversed_order(count: int) -> list[int]:
    bits = max(1, math.ceil(math.log2(count)))
    return sorted(range(count), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


def pass_keys(workload: Workload, seed: int, reference: dict) -> list[str]:
    """The population keys of one pass, drawn by stratified sampling from the seed."""
    rng = np.random.default_rng([0xBE, seed])
    picks = {}
    for group, members in workload.groups.items():
        slots = workload.pattern.count(group)
        kept = [k for k in members if reference[k]["cost"] <= workload.max_cost]
        # a group with fewer members than slots repeats them
        kept *= math.ceil(slots / len(kept))
        ranked = sorted(kept, key=lambda k: (reference[k]["cost"], k))
        strata = np.array_split(np.arange(len(ranked)), slots)
        chosen = [ranked[int(rng.choice(stratum))] for stratum in strata]
        picks[group] = iter([chosen[i] for i in _bit_reversed_order(slots)])
    return [next(picks[group]) for group in workload.pattern]


# ---------------------------------------------------------------------------
# correctness of one CSV row


def _finite_numbers(row: dict, names) -> list[str]:
    return [f"{name}={row[name]} is not finite" for name in names if not math.isfinite(float(row[name]))]


def _exact(row: dict, ref: dict, names) -> list[str]:
    return [
        f"{name}={row[name]} differs from reference {ref[name]}"
        for name in names
        if float(row[name]) != float(ref[name])
    ]


def _not_below(row: dict, ref: dict, names) -> list[str]:
    return [
        f"{name}={row[name]} fell below reference {ref[name]}"
        for name in names
        if float(row[name]) < float(ref[name])
    ]


def _ratio(row: dict, name: str, num: str, den: str) -> list[str]:
    if float(row[den]) == 0.0:
        return [f"{den} is zero"]
    want = float(row[num]) / float(row[den])
    if not math.isclose(float(row[name]), want, rel_tol=1e-12):
        return [f"{name}={row[name]} is not {num}/{den}={want!r}"]
    return []


def _at_most(row: dict, small: str, large: str) -> list[str]:
    # Both the greedy search (which starts from rect_bmo's witness) and the
    # exhaustive scan sum the witness energy on another path than rect_bmo,
    # so equal values can differ in the last bit: product reads 1 ulp below
    # rect on fb-3, b2-39 and b2-58 at the reference commit.
    if float(row[small]) > float(row[large]) * (1.0 + ROUNDING_RTOL):
        return [f"{small}={row[small]} exceeds {large}={row[large]}"]
    return []


def check_row(key: str, cfg: ExperimentConfig, row: dict, reference: dict) -> list[str]:
    """Problems with one op's CSV row; an empty list means the row is correct."""
    ref = reference[key]["row"]
    problems = []
    if row.get("config_hash") != cfg.config_hash():
        problems.append(f"config_hash {row.get('config_hash')} is not {cfg.config_hash()}")
    numeric = [name for name in ref if name not in ("config_hash", "version")]
    missing = [name for name in numeric if name not in row]
    if missing:
        return problems + [f"missing columns {missing}"]
    problems += _finite_numbers(row, numeric)
    if problems:
        return problems
    if cfg.command == "norm-compare":
        got, want = float(row["operator_norm"]), float(ref["operator_norm"])
        if abs(got - want) > NORM_RTOL * abs(want):
            problems.append(f"operator_norm={got!r} is not within {NORM_RTOL} of {want!r}")
        problems += _exact(row, ref, ["instance", "rect_bmo"])
        problems += _not_below(row, ref, ["product_bmo_lower"])
        problems += _ratio(row, "norm_over_bmo", "operator_norm", "product_bmo_lower")
        problems += _ratio(row, "bmo_over_norm", "product_bmo_lower", "operator_norm")
        problems += _at_most(row, "rect_bmo", "product_bmo_lower")
    elif cfg.command == "bmo-scan":
        problems += _exact(row, ref, ["instance", "rect_value", "product_exact"])
        problems += _not_below(row, ref, ["greedy_value", "product_value"])
        problems += _ratio(row, "greedy_over_product", "greedy_value", "product_value")
        problems += _at_most(row, "rect_value", "product_value")
    elif cfg.family == "row-of-squares-dual":
        problems += _exact(row, ref, numeric)
        want = ROW_NU_OVER_MU[cfg.K]
        if round(float(row["nu_over_mu"]), 3) != want:
            problems.append(f"nu_over_mu={row['nu_over_mu']} does not round to {want}")
    else:
        problems += _exact(row, ref, numeric)
        if float(row["journe_ratio"]) > JOURNE_RATIO_MAX:
            problems.append(f"journe_ratio={row['journe_ratio']} exceeds {JOURNE_RATIO_MAX}")
    return problems
