"""The corrpool functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

Each function is wrapped at the name its caller looks it up by: the CLI calls
`corrpool.cli.calibrate_tau`, the runner calls `corrpool.runner.calibrate_tau`,
and `binomial_tail` is reached as `corrpool.pcr.binomial_tail` from pcr and as
`corrpool.theory.binomial_tail` from theory. Only functions that a per-layer
metric or the replication check reads are wrapped. Nothing under src/ changes.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict

import numpy as np

from spans import Span, Tracer, self_times
from stats import median, percentile


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tail_counts(args, kwargs, out):
    K = np.asarray(_arg(args, kwargs, 0, "counts"), dtype=float)
    return {
        "elems": int(K.size),
        "betainc_elems": int(np.count_nonzero(K >= _arg(args, kwargs, 2, "tau"))),
        # K < tau gives exactly 0, so every exact 1.0 came from betainc
        "sure_one": int(np.count_nonzero(np.asarray(out) == 1.0)),
    }


def _draw_counts(args, kwargs, loads):
    return {"draws": int(np.size(loads))}


def _population_counts(args, kwargs, population):
    return {"infected": int(population.infected.sum())}


def _split_counts(args, kwargs, assignment):
    population = _arg(args, kwargs, 0, "population")
    return {"splits": assignment.split_households, "households": int(population.household_sizes.size)}


def _dorfman_counts(args, kwargs, outcome):
    return {
        "positive_pools": int(outcome.pool_positive.sum()),
        "pools": outcome.pooled_tests,
        "followup": outcome.total_followup,
    }


def _tau_key(args, kwargs, tau):
    config = args[0]
    return {"key": (config.master_seed, config.beta_bar)}


def _written_bytes(args, kwargs, _):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _delta_counts(args, kwargs, estimate):
    n = _arg(args, kwargs, 0, "n")
    return {"kept": _arg(args, kwargs, 4, "B") + estimate.achieved_b * n}


# (module, attribute, span name, counter, replication boundary)
WRAPS = (
    ("corrpool.cli", "write_summary_json", "runner.write", _written_bytes, None),
    ("corrpool.cli", "write_csv", "runner.write", _written_bytes, None),
    ("corrpool.cli", "calibrate_tau", "pcr.calibrate_tau", None, None),
    ("corrpool.cli", "estimate_delta_prime", "theory.delta_prime", _delta_counts, None),
    ("corrpool.runner", "ScenarioConfig.resolve_tau", "runner.resolve_tau", _tau_key, None),
    ("corrpool.runner", "calibrate_tau", "pcr.calibrate_tau", None, None),
    ("corrpool.runner", "run_replications", "runner.run_replications", None, "end"),
    ("corrpool.runner", "generate_population", "population.generate", _population_counts, "start"),
    ("corrpool.runner", "assign_naive", "pooling.naive", None, None),
    ("corrpool.runner", "assign_correlated", "pooling.correlated", _split_counts, None),
    ("corrpool.runner", "run_dorfman", "dorfman.run", _dorfman_counts, None),
    ("corrpool.runner", "summarize_replications", "metrics.summarize", None, None),
    ("corrpool.pcr", "binomial_tail", "pcr.binomial_tail", _tail_counts, None),
    ("corrpool.pcr", "draw_positive", "pcr.draw_positive", None, None),
    ("corrpool.pcr", "sample_viral_load", "viral.sample", _draw_counts, None),
    ("corrpool.theory", "binomial_tail", "pcr.binomial_tail", _tail_counts, None),
    ("corrpool.theory", "sample_viral_load", "viral.sample", _draw_counts, None),
    ("corrpool.population", "sample_viral_load", "viral.sample", _draw_counts, None),
)

# name -> unit, in the order they are printed
PER_LAYER_UNITS = {
    "pooling.correlated.ms_p50": "ms",
    "pooling.correlated.ms_p99": "ms",
    "pooling.naive.ms_p50": "ms",
    "pooling.correlated.split_ratio": "ratio",
    "population.generate.ms_p50": "ms",
    "population.infected": "count",
    "dorfman.run.ms_p50": "ms",
    "dorfman.positive_pool_ratio": "ratio",
    "dorfman.followup_tests": "count",
    "pcr.binomial_tail.calls": "count",
    "pcr.binomial_tail.elems": "count",
    "pcr.binomial_tail.betainc_elems": "count",
    "pcr.binomial_tail.sure_one_ratio": "ratio",
    "pcr.binomial_tail.self_s": "s",
    "pcr.calibrate_tau.calls": "count",
    "pcr.calibrate_tau.s": "s",
    "pcr.draw_positive.self_s": "s",
    "runner.resolve_tau.calls": "count",
    "runner.resolve_tau.redundant_ratio": "ratio",
    "runner.run_replications.s": "s",
    "runner.write.s": "s",
    "runner.write.bytes": "bytes",
    "runner.workers": "count",
    "viral.sample.draws": "count",
    "viral.sample.s": "s",
    "theory.delta_prime.self_s": "s",
    "theory.delta_prime.accept_ratio": "ratio",
    "metrics.summarize.s": "s",
    "trace.overhead_ratio": "ratio",
}


def install(tracer: Tracer):
    """Wrap every function in WRAPS; tracer.restore() undoes it."""
    for module, attribute, name, count, boundary in WRAPS:
        owner = importlib.import_module(module)
        *path, last = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        tracer.wrap(owner, last, name, count,
                    starts_replication=boundary == "start", ends_replication=boundary == "end")


class _Index:
    """Outermost spans by name (a span inside one of the same name is not
    counted twice) and their self times."""

    def __init__(self, spans: list[Span], iterations: int):
        self.spans = spans
        self.iterations = iterations
        self.self_s = self_times(spans)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            if not self.inside(i, span.name):
                self.by_name[span.name].append(i)

    def inside(self, i: int, name: str) -> bool:
        parent = self.spans[i].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def per_iteration(self, name: str, value) -> tuple[float, int]:
        """Median over iterations of the per-iteration sum of value(i)."""
        totals = [0.0] * self.iterations
        for i in self.by_name[name]:
            totals[self.spans[i].iteration] += value(i)
        return median(totals)

    def calls(self, name: str) -> tuple[float, int]:
        return self.per_iteration(name, lambda i: 1)

    def seconds(self, name: str) -> tuple[float, int]:
        return self.per_iteration(name, lambda i: self.spans[i].duration)

    def self_seconds(self, name: str) -> tuple[float, int]:
        return self.per_iteration(name, lambda i: self.self_s[i])

    def attr(self, name: str, key: str) -> tuple[float, int]:
        return self.per_iteration(name, lambda i: self.spans[i].attrs[key])

    def total(self, name: str, key: str) -> float:
        return sum(self.spans[i].attrs[key] for i in self.by_name[name])

    def ratio(self, num: float, den: float) -> tuple[float, int]:
        return (num / den if den else 0.0), self.iterations

    def ms(self, name: str, q: float) -> tuple[float, int]:
        return percentile([self.spans[i].duration * 1e3 for i in self.by_name[name]], q)


def per_layer_metrics(spans: list[Span], iterations: int, workers: int,
                      overhead_ratio: float) -> dict[str, tuple[float, int]]:
    """Per-layer metrics as name -> (value, sample count), in PER_LAYER_UNITS order.

    Counts and seconds are per iteration of the workload (the median over
    the traced iterations); ratios pool every traced iteration. A layer the
    workload never reaches reads 0.
    """
    ix = _Index(spans, iterations)
    taus = ix.by_name["runner.resolve_tau"]
    distinct_taus = {(spans[i].iteration, spans[i].attrs["key"]) for i in taus}
    delta_draws = sum(
        spans[i].attrs["draws"] for i in ix.by_name["viral.sample"] if ix.inside(i, "theory.delta_prime")
    )
    return {
        "pooling.correlated.ms_p50": ix.ms("pooling.correlated", 50),
        "pooling.correlated.ms_p99": ix.ms("pooling.correlated", 99),
        "pooling.naive.ms_p50": ix.ms("pooling.naive", 50),
        "pooling.correlated.split_ratio": ix.ratio(
            ix.total("pooling.correlated", "splits"), ix.total("pooling.correlated", "households")),
        "population.generate.ms_p50": ix.ms("population.generate", 50),
        "population.infected": ix.attr("population.generate", "infected"),
        "dorfman.run.ms_p50": ix.ms("dorfman.run", 50),
        "dorfman.positive_pool_ratio": ix.ratio(
            ix.total("dorfman.run", "positive_pools"), ix.total("dorfman.run", "pools")),
        "dorfman.followup_tests": ix.attr("dorfman.run", "followup"),
        "pcr.binomial_tail.calls": ix.calls("pcr.binomial_tail"),
        "pcr.binomial_tail.elems": ix.attr("pcr.binomial_tail", "elems"),
        "pcr.binomial_tail.betainc_elems": ix.attr("pcr.binomial_tail", "betainc_elems"),
        "pcr.binomial_tail.sure_one_ratio": ix.ratio(
            ix.total("pcr.binomial_tail", "sure_one"), ix.total("pcr.binomial_tail", "betainc_elems")),
        "pcr.binomial_tail.self_s": ix.self_seconds("pcr.binomial_tail"),
        "pcr.calibrate_tau.calls": ix.calls("pcr.calibrate_tau"),
        "pcr.calibrate_tau.s": ix.seconds("pcr.calibrate_tau"),
        "pcr.draw_positive.self_s": ix.self_seconds("pcr.draw_positive"),
        "runner.resolve_tau.calls": ix.calls("runner.resolve_tau"),
        "runner.resolve_tau.redundant_ratio": ix.ratio(len(taus) - len(distinct_taus), len(taus)),
        "runner.run_replications.s": ix.seconds("runner.run_replications"),
        "runner.write.s": ix.seconds("runner.write"),
        "runner.write.bytes": ix.attr("runner.write", "bytes"),
        "runner.workers": (float(workers), 1),
        "viral.sample.draws": ix.attr("viral.sample", "draws"),
        "viral.sample.s": ix.seconds("viral.sample"),
        "theory.delta_prime.self_s": ix.self_seconds("theory.delta_prime"),
        "theory.delta_prime.accept_ratio": ix.ratio(ix.total("theory.delta_prime", "kept"), delta_draws),
        "metrics.summarize.s": ix.seconds("metrics.summarize"),
        "trace.overhead_ratio": (overhead_ratio, iterations),
    }


def replication_problems(spans: list[Span], iterations: int, replications: int) -> list[str]:
    """Check that every iteration traced `replications` replications, each one
    population draw followed by one protocol run per strategy (naive and
    correlated, as every workload runs both)."""
    populations = defaultdict(set)
    protocols = defaultdict(int)
    for span in spans:
        if span.name == "population.generate":
            populations[span.iteration].add(span.replication)
        elif span.name == "dorfman.run":
            protocols[(span.iteration, span.replication)] += 1
    problems = []
    for it in range(iterations):
        if len(populations[it]) != replications:
            problems.append(f"traced iteration {it}: {len(populations[it])} replications, expected {replications}")
        if any(protocols[(it, r)] != 2 for r in populations[it]):
            problems.append(f"traced iteration {it}: a replication lacks a protocol run per strategy")
    return problems
