"""Scenario configuration, reproducible replication orchestration, and artifact output.

A scenario fixes the population model, the PCR model, the pool size, and the
replication count. Replication r draws every random quantity from streams
derived from (master_seed, r), so results are identical regardless of how
replications are scheduled across workers; both strategies of a replication
share one population draw, making cross-strategy comparisons paired.

simulate, sweep and optimize share one cell loop, run_cells, which resolves
tau once and runs every (alpha, pool size) cell at it. The cells share one
worker pool per command: each task is one replication of every cell, in cell
order, and each cell keeps its own (master_seed, r, tag) streams, so the
results split back per cell are those of the cell run on its own. The cells of
a task share each strategy's assignment per pool size, since it depends on
neither alpha nor tau, and every cell still runs its protocol from the stream
state it would have alone. A malformed config, including its sensitivity
variant, its strategies and its integer, real and boolean fields, and an
infeasible cell fail before any tau calibration.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from itertools import product

import numpy as np

from .dorfman import run_dorfman
from .errors import ConfigError
from .metrics import ReplicationSummary, estimate_fpr, summarize_replications
from .pcr import (
    PiecewiseSensitivity,
    RealisticSensitivity,
    StepSensitivity,
    calibrate_tau,
    check_calibration,
)
from .pooling import assign_correlated, assign_naive
from .population import HOUSEHOLD_DISTS, HouseholdDist, generate_population, household_infection_prob
from .viral import DEFAULT_GMM, GmmParams

WORKERS_ENV = "CORRPOOL_WORKERS"

# sub-stream tags appended to (master_seed, replication)
_TAG_POPULATION = 0
_TAG_STRATEGY = {"naive": 1, "correlated": 2}
_TAG_CALIBRATION = 3

_STRATEGIES = ("naive", "correlated")
# the keys each sensitivity variant takes besides "variant"
_VARIANT_KEYS = {"realistic": (), "step": ("u0",), "piecewise": ("theta1", "theta2")}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _stream(*key) -> np.random.Generator:
    """A fresh generator on SeedSequence(key); every stream of a run is one."""
    return np.random.default_rng(np.random.SeedSequence(key))


def calibration_rng(master_seed: int) -> np.random.Generator:
    """The stream tau is calibrated on for a master seed, at every entry point."""
    return _stream(master_seed, _TAG_CALIBRATION)


@dataclass
class ScenarioConfig:
    """Validated scenario parameters; build from a dict with from_dict."""

    alpha: float = 0.01
    q: float = 0.166
    household_dist: str | tuple[float, ...] = "US"
    pool_size: int = 6
    beta_bar: float | None = 0.05
    tau: int | None = None
    sensitivity_variant: dict = field(default_factory=lambda: {"variant": "realistic"})
    population_size: int = 12000
    replications: int = 2000
    master_seed: int = 0
    strategies: tuple[str, ...] = _STRATEGIES
    pad_last_pool: bool = False
    gmm: GmmParams = DEFAULT_GMM

    def __post_init__(self):
        if not (_is_real(self.alpha) and 0 < self.alpha < 1):
            raise ConfigError(f"alpha must be a number in (0, 1), got {self.alpha!r}")
        if not (_is_real(self.q) and 0 <= self.q <= 1):
            raise ConfigError(f"q must be a number in [0, 1], got {self.q!r}")
        for name in ("pool_size", "population_size", "replications"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.pool_size > self.population_size:
            raise ConfigError(f"pool_size {self.pool_size} exceeds population_size {self.population_size}")
        if not _is_int(self.master_seed) or not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if not isinstance(self.pad_last_pool, bool):
            raise ConfigError(f"pad_last_pool must be true or false, got {self.pad_last_pool!r}")
        if self.tau is None and self.beta_bar is None:
            raise ConfigError("either tau or beta_bar must be given")
        try:
            if self.tau is not None:
                RealisticSensitivity(self.tau)  # the one check of a threshold, whatever the variant
            if self.beta_bar is not None:
                if not _is_real(self.beta_bar):
                    raise TypeError(f"beta_bar must be a number, got {self.beta_bar!r}")
                check_calibration(self.beta_bar)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(self.gmm, GmmParams):
            raise ConfigError(f"gmm must be an object with weights, mus and sigmas, got {self.gmm!r}")
        if not all(map(_is_real, (*self.gmm.weights, *self.gmm.mus, *self.gmm.sigmas))):
            raise ConfigError(f"gmm entries must be numbers, got {self.gmm!r}")
        if not isinstance(self.strategies, (list, tuple)):
            raise ConfigError(f"strategies must be a list of strategy names, got {self.strategies!r}")
        for s in self.strategies:
            if s not in _STRATEGIES:
                raise ConfigError(f"unknown strategy {s!r}")
        if not self.strategies or len(set(self.strategies)) != len(self.strategies):
            raise ConfigError(f"strategies must be distinct and non-empty, got {list(self.strategies)!r}")
        # validate early; any valid tau will do for the realistic model
        self.resolve_sensitivity(1 if self.tau is None else self.tau)
        self.resolve_dist()

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "household_dist" in kwargs and isinstance(kwargs["household_dist"], list):
            kwargs["household_dist"] = tuple(kwargs["household_dist"])
        if isinstance(kwargs.get("strategies"), list):
            kwargs["strategies"] = tuple(kwargs["strategies"])
        try:
            if isinstance(kwargs.get("gmm"), dict):
                kwargs["gmm"] = GmmParams(**{k: tuple(v) for k, v in kwargs["gmm"].items()})
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def resolve_dist(self) -> HouseholdDist:
        if isinstance(self.household_dist, str):
            try:
                return HOUSEHOLD_DISTS[self.household_dist]
            except KeyError:
                raise ConfigError(
                    f"unknown household distribution {self.household_dist!r}; "
                    f"known: {sorted(HOUSEHOLD_DISTS)}"
                ) from None
        if not all(map(_is_real, self.household_dist)):
            raise ConfigError(f"household_dist entries must be numbers, got {self.household_dist!r}")
        try:
            return HouseholdDist(tuple(self.household_dist))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def resolve_tau(self) -> int:
        """Explicit tau, or tau calibrated to beta_bar on a dedicated stream."""
        if self.tau is not None:
            return int(self.tau)
        (tau,) = calibrate_tau([self.beta_bar], self.gmm, calibration_rng(self.master_seed))
        return tau

    def resolve_sensitivity(self, tau: int):
        """The PCR model named by sensitivity_variant; the only parser of that field."""
        v = self.sensitivity_variant
        if not isinstance(v, dict):
            raise ConfigError(f"sensitivity_variant must be an object, got {v!r}")
        variant = v.get("variant")
        if not isinstance(variant, str) or variant not in _VARIANT_KEYS:
            raise ConfigError("sensitivity_variant.variant must be realistic, step, or piecewise")
        unknown = set(v) - {"variant", *_VARIANT_KEYS[variant]}
        if unknown:
            raise ConfigError(f"unknown sensitivity_variant keys for {variant}: {sorted(unknown)}")
        try:
            params = [v[key] for key in _VARIANT_KEYS[variant]]
            if not all(map(_is_real, params)):
                raise TypeError("its parameters must be numbers")
            if variant == "realistic":
                return RealisticSensitivity(tau)
            if variant == "step":
                return StepSensitivity(*params)
            return PiecewiseSensitivity(*params)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid sensitivity_variant {v!r}: {exc!r}") from exc

    def echo(self, tau: int) -> dict:
        """Resolved configuration embedded in every output artifact."""
        # the default gmm is left out, which from_dict reads back as the
        # default: recording it would change the golden summary hash
        echo = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "gmm"}
        if self.gmm != DEFAULT_GMM:
            echo["gmm"] = asdict(self.gmm)
        echo["tau"] = tau
        return echo


@dataclass
class StrategyTallies:
    """Per-replication raw tallies for one strategy, ordered by replication."""

    S: np.ndarray
    D: np.ndarray
    pooled: np.ndarray
    followup: np.ndarray

    def summarize(self, N: int) -> ReplicationSummary:
        return summarize_replications(self.S, self.D, self.pooled, self.followup, N)


def _replication_tallies(config: ScenarioConfig, cells, tau: int, rep: int) -> list[dict[str, tuple]]:
    """Replication rep of every (alpha, pool size) cell, in cell order.

    Each cell draws its own population, but an assignment depends on neither
    alpha nor tau: a strategy's stream starts with a permutation, and the
    household sizes come off the population stream before any alpha-dependent
    draw. So each strategy is assigned once per pool size, from a fresh
    stream, and each cell's protocol run resumes that stream from the state
    the assignment left: every cell draws what it would alone.
    """
    dist = config.resolve_dist()
    sensitivity = config.resolve_sensitivity(tau)
    assigned = {}  # (strategy, pool size) -> (assignment, its stream, the state after it)
    out = []
    for alpha, n in cells:
        rng_pop = _stream(config.master_seed, rep, _TAG_POPULATION)
        pop = generate_population(config.population_size, dist, alpha, config.q, config.gmm, rng=rng_pop)
        cell = {}
        for strategy in config.strategies:
            if (strategy, n) not in assigned:
                rng = _stream(config.master_seed, rep, _TAG_STRATEGY[strategy])
                if strategy == "naive":
                    assignment = assign_naive(pop.size, n, rng)
                else:
                    assignment = assign_correlated(pop, n, rng)
                assigned[strategy, n] = (assignment, rng, rng.bit_generator.state)
            assignment, rng, state = assigned[strategy, n]
            rng.bit_generator.state = state
            outcome = run_dorfman(pop, assignment, sensitivity, rng, config.pad_last_pool)
            cell[strategy] = (
                outcome.total_S,
                outcome.total_D,
                outcome.pooled_tests,
                outcome.total_followup,
            )
        out.append(cell)
    return out


def worker_count() -> int:
    """Worker processes from CORRPOOL_WORKERS, by default the CPUs this
    process may run on (its affinity mask where the platform has one, else
    os.cpu_count()); any value but an integer of at least 1 is a
    ConfigError."""
    value = os.environ.get(WORKERS_ENV)
    if value is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        workers = int(value)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {value!r}") from None
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be at least 1, got {value!r}")
    return workers


def _trim_heap():
    """Return the C heap's free pages to the OS with glibc's malloc_trim(0);
    a no-op where the C library has no malloc_trim."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):  # TypeError: no CDLL(None) on Windows
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def run_replications(config: ScenarioConfig, cells, tau: int) -> list[dict[str, StrategyTallies]]:
    """Run all replications of every (alpha, pool size) cell of config at
    threshold tau, one tallies dict per cell.

    With more than one worker (CORRPOOL_WORKERS, by default the CPUs this
    process may run on; see worker_count) one process pool runs them, a task
    being one replication of every cell. Results come back in replication
    order and are split per cell, so output is identical for any worker
    count. The pool forks its workers by name, not by the platform's default
    start method, and the heap is trimmed just before the pool is created,
    because a forked child inherits every mapped page of the parent, freed
    calibration memory included.
    """
    workers = worker_count()
    one = partial(_replication_tallies, config, cells, tau)
    reps = range(config.replications)
    if workers == 1 or len(reps) < 2 * workers:
        rows = list(map(one, reps))
    else:
        _trim_heap()
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
            rows = list(pool.map(one, reps, chunksize=math.ceil(len(reps) / workers)))

    # columns S, D, pooled, followup
    return [
        {
            strategy: StrategyTallies(*np.array([row[c][strategy] for row in rows], dtype=np.int64).T)
            for strategy in config.strategies
        }
        for c in range(len(cells))
    ]


def run_cells(config: ScenarioConfig, cells) -> tuple[int, list[dict[str, StrategyTallies]]]:
    """Run every (alpha, pool size) cell at one tau, which depends on neither.

    Every cell's config, its household infection probability, that no cell
    repeats and the worker count are checked first, so a bad or repeated cell
    or a malformed CORRPOOL_WORKERS fails before tau calibration.
    """
    cells = list(cells)
    if not cells:
        raise ConfigError("no (alpha, pool size) cells to run")
    for alpha, n in cells:
        replace(config, alpha=alpha, pool_size=n)  # validates the cell
    for i, (alpha, n) in enumerate(cells):
        if (alpha, n) in cells[:i]:
            raise ConfigError(f"repeated (alpha, pool size) cell {(alpha, n)}")
        household_infection_prob(alpha, config.q, config.resolve_dist())
    worker_count()
    tau = config.resolve_tau()
    return tau, run_replications(config, cells, tau)


@dataclass
class ScenarioResult:
    config_echo: dict
    tallies: dict[str, StrategyTallies]
    summaries: dict[str, ReplicationSummary]
    fpr: dict[str, float | None]

    def summary_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "strategies": {
                strategy: {**asdict(s), "objective": s.objective, "fpr_estimate": self.fpr[strategy]}
                for strategy, s in self.summaries.items()
            },
        }


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run a scenario and summarize per-strategy metrics."""
    tau, (tallies,) = run_cells(config, [(config.alpha, config.pool_size)])
    summaries = {s: t.summarize(config.population_size) for s, t in tallies.items()}
    fpr = {}
    for strategy, summary in summaries.items():
        if summary.sensitivity is None:
            fpr[strategy] = None
        else:
            fpr[strategy] = estimate_fpr(
                summary.sensitivity, summary.efficiency, config.pool_size, config.alpha
            )
    return ScenarioResult(config.echo(tau), tallies, summaries, fpr)


def run_sweep(config: ScenarioConfig, alphas, pool_sizes) -> list[dict]:
    """Run a grid of (alpha, pool size) scenarios at one tau; one row per strategy and cell."""
    cells = list(product(alphas, pool_sizes))
    _, results = run_cells(config, cells)
    rows = []
    for (alpha, n), tallies in zip(cells, results):
        for strategy, t in tallies.items():
            s = t.summarize(config.population_size)
            rows.append(
                {
                    "strategy": strategy,
                    "alpha": alpha,
                    "pool_size": n,
                    "sensitivity": s.sensitivity,
                    "sensitivity_se": s.sensitivity_se,
                    "efficiency": s.efficiency,
                    "efficiency_se": s.efficiency_se,
                }
            )
    return rows


def format_number(x) -> str:
    """Serialize a number with 12 significant digits."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(format_number(obj))
    return obj


def write_summary_json(result_dict: dict, path: str):
    """Write the summary as strict JSON: a NaN or infinity raises ValueError
    before the file is opened."""
    text = json.dumps(_jsonify(result_dict), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")


def write_csv(rows: list[dict], path: str):
    """RFC-4180 CSV with 12-significant-digit numbers."""
    if not rows:
        raise ValueError("no rows to write")
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, quoting=csv.QUOTE_MINIMAL)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    k: format_number(v) if isinstance(v, (int, float, np.number)) else v
                    for k, v in row.items()
                }
            )


def replication_rows(config_echo: dict, tallies: dict[str, StrategyTallies]) -> list[dict]:
    rows = []
    for strategy, t in tallies.items():
        for r in range(t.S.size):
            rows.append(
                {
                    "replication": r,
                    "strategy": strategy,
                    "pool_size": config_echo["pool_size"],
                    "S_total": int(t.S[r]),
                    "D_total": int(t.D[r]),
                    "pooled_tests": int(t.pooled[r]),
                    "followup_tests": int(t.followup[r]),
                }
            )
    return rows
