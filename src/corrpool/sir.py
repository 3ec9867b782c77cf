"""SIR epidemic layer with pooled-testing screening.

Discrete-time SIR where screening at per-day frequency f removes infected
individuals at rate f * sensitivity. The growth factor lambda = b_I*S/(b_R +
f*sens) has time-invariant upper bound lambda' = b_I/(b_R + f*sens); the
critical screening frequency f* makes lambda' = 1. Since f* is inversely
proportional to sensitivity, daily test consumption at the critical frequency
scales like 1/(sensitivity * efficiency), so pool sizes are chosen to maximize
sensitivity * efficiency.
"""

import math
from dataclasses import dataclass

from .runner import ScenarioConfig, run_cells


@dataclass(frozen=True)
class SirState:
    """Population fractions susceptible/infected/removed at day t."""

    s: float
    i: float
    r: float
    t: int = 0

    def __post_init__(self):
        for name, x in (("s", self.s), ("i", self.i), ("r", self.r)):
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if abs(self.s + self.i + self.r - 1.0) > 1e-12:
            raise ValueError("s + i + r must equal 1")


def _validate_rates(b_i: float, b_r: float, f: float, sensitivity: float):
    if not all(0 <= x < math.inf for x in (b_i, b_r, f)):
        raise ValueError("rates must be non-negative and finite")
    if not 0.0 <= sensitivity <= 1.0:
        raise ValueError("sensitivity must be in [0, 1]")
    if b_r + f * sensitivity > 1.0:
        raise ValueError("removal fraction b_R + f*sensitivity cannot exceed 1")


def sir_step(state: SirState, b_i: float, b_r: float, f: float, sensitivity: float) -> SirState:
    """One day of the discrete-time SIR update with screening removal."""
    _validate_rates(b_i, b_r, f, sensitivity)
    new_cases = b_i * state.s * state.i
    removed = (b_r + f * sensitivity) * state.i
    s = state.s - new_cases
    i = state.i + new_cases - removed
    r = state.r + removed
    if min(s, i, r) < -1e-15:
        raise ValueError("update would drive a compartment negative")
    return SirState(max(s, 0.0), max(i, 0.0), min(r, 1.0), state.t + 1)


def simulate_sir(
    state: SirState, b_i: float, b_r: float, f: float, sensitivity: float, days: int
) -> list[SirState]:
    """Trajectory of `days` updates, starting from (and including) `state`."""
    if days < 0:
        raise ValueError(f"days must be non-negative, got {days}")
    _validate_rates(b_i, b_r, f, sensitivity)  # also with no step to run
    path = [state]
    for _ in range(days):
        state = sir_step(state, b_i, b_r, f, sensitivity)
        path.append(state)
    return path


def growth_factor(state: SirState, b_i: float, b_r: float, f: float, sensitivity: float) -> float:
    """lambda(t): new cases per removed case at the current state."""
    denom = b_r + f * sensitivity
    if denom <= 0:
        raise ValueError("b_R + f*sensitivity must be positive")
    return b_i * state.s / denom


def growth_factor_bound(b_i: float, b_r: float, f: float, sensitivity: float) -> float:
    """lambda': time-invariant upper bound on lambda(t) (set S = 1)."""
    denom = b_r + f * sensitivity
    if denom <= 0:
        raise ValueError("b_R + f*sensitivity must be positive")
    return b_i / denom


def critical_frequency(b_i: float, b_r: float, sensitivity: float) -> float:
    """Smallest screening frequency with lambda' <= 1; 0 if the epidemic dies naturally."""
    if sensitivity <= 0:
        raise ValueError("screening cannot control the epidemic with zero sensitivity")
    if b_i <= b_r:
        return 0.0
    return (b_i - b_r) / sensitivity


@dataclass
class PolicyResult:
    """Optimal pool size for one strategy and the quantities behind it."""

    pool_size: int
    sensitivity: float
    efficiency: float
    objective: float
    f_star: float | None = None
    relative_consumption: float | None = None


def optimize_pool_size(
    config: ScenarioConfig,
    candidate_sizes,
    b_i: float | None = None,
    b_r: float | None = None,
) -> tuple[int, dict[str, PolicyResult]]:
    """Pick the pool size maximizing mean sensitivity x mean efficiency per strategy.

    Returns the tau every candidate ran at and the best result per strategy.
    Every candidate size reuses the same replication seeds (common random
    numbers), so candidates are compared on identical populations. Ties break
    toward the smaller pool size. The relative daily test consumption
    (proportional to 1/objective) is always filled in; the critical screening
    frequency only when b_i and b_r are given, which must come together.
    """
    candidate_sizes = sorted(set(int(n) for n in candidate_sizes))
    if config.replications < 500:
        raise ValueError("pool-size optimization needs at least 500 replications")
    if (b_i is None) != (b_r is None):
        raise ValueError("b_i and b_r must be given together")
    if b_i is not None and not (0 <= b_i < math.inf and 0 <= b_r < math.inf):
        raise ValueError("b_i and b_r must be non-negative and finite")

    tau, results = run_cells(config, [(config.alpha, n) for n in candidate_sizes])
    best: dict[str, PolicyResult] = {}
    for n, tallies in zip(candidate_sizes, results):
        for strategy, t in tallies.items():
            summary = t.summarize(config.population_size)
            if summary.sensitivity is None:
                continue
            objective = summary.objective
            if strategy not in best or objective > best[strategy].objective:
                best[strategy] = PolicyResult(
                    pool_size=n,
                    sensitivity=summary.sensitivity,
                    efficiency=summary.efficiency,
                    objective=objective,
                )
    for strategy, result in best.items():
        if result.objective == 0:
            raise ValueError(f"{strategy} pooling has zero sensitivity at every candidate pool size")
        result.relative_consumption = 1.0 / result.objective
        if b_i is not None:
            result.f_star = critical_frequency(b_i, b_r, result.sensitivity)
    return tau, best


def consumption_reduction(objective_naive: float, objective_correlated: float) -> float:
    """Fractional reduction in daily test consumption from correlated pooling."""
    if objective_naive <= 0 or objective_correlated <= 0:
        raise ValueError("objectives must be positive")
    return 1.0 - objective_naive / objective_correlated
