"""Acceptance suite: one test per acceptance criterion, each reporting a
single pass/fail line (via pytest -v) for the headline numerical targets.

Expensive simulations are shared across criteria through module-scoped
fixtures. Statistical claims use one-sided 95% normal bounds over paired
replications (both strategies of a replication share one population draw).
"""

from dataclasses import astuple

import numpy as np
import pytest

from corrpool.dorfman import run_dorfman
from corrpool.metrics import _mean_se, estimate_fpr
from corrpool.pcr import RealisticSensitivity, calibrate_tau
from corrpool.pooling import assign_correlated, assign_naive
from corrpool.population import HOUSEHOLD_DISTS, HouseholdDist, generate_population
from corrpool.runner import (
    ScenarioConfig,
    WORKERS_ENV,
    replication_rows,
    run_replications,
    run_scenario,
    write_csv,
    write_summary_json,
)
from corrpool.sir import SirState, consumption_reduction, optimize_pool_size, sir_step
from corrpool.theory import counterexample_closed_form, counterexample_enumerate, estimate_delta_prime
from corrpool.viral import DEFAULT_GMM

Z_95_ONE_SIDED = 1.6449  # one-sided 95% normal quantile
N_POP = 12000
BASE = dict(q=0.166, household_dist="US", population_size=N_POP)


def _run(alpha, pool_size, tau, replications, seed, variant=None):
    kwargs = dict(BASE, alpha=alpha, pool_size=pool_size, tau=tau, beta_bar=None,
                  replications=replications, master_seed=seed)
    if variant is not None:
        kwargs["sensitivity_variant"] = variant
    cfg = ScenarioConfig(**kwargs)
    (tallies,) = run_replications(cfg, [(alpha, pool_size)], tau)
    return cfg, tallies


@pytest.fixture(scope="module")
def tau_by_target():
    out = {}
    for i, target in enumerate((0.025, 0.05, 0.1, 0.2)):
        rng = np.random.default_rng(1000 + i)
        (out[target],) = calibrate_tau([target], DEFAULT_GMM, rng)
    return out


@pytest.fixture(scope="module")
def baseline(tau_by_target):
    cfg, tallies = _run(0.01, 6, tau_by_target[0.05], 2000, seed=11)
    summaries = {s: t.summarize(N_POP) for s, t in tallies.items()}
    return cfg, tallies, summaries


@pytest.fixture(scope="module")
def low_alpha_n40(tau_by_target):
    cfg, tallies = _run(0.001, 40, tau_by_target[0.05], 2000, seed=17)
    return cfg, tallies, {s: t.summarize(N_POP) for s, t in tallies.items()}


@pytest.fixture(scope="module")
def high_alpha_n40(tau_by_target):
    cfg, tallies = _run(0.10, 40, tau_by_target[0.05], 2000, seed=19)
    return cfg, tallies, {s: t.summarize(N_POP) for s, t in tallies.items()}


@pytest.fixture(scope="module")
def delta_prime_cells(tau_by_target):
    cells = {}
    for n, target, seed in ((2, 0.025, 23), (6, 0.05, 29)):
        rng = np.random.default_rng(seed)
        cells[(n, target)] = estimate_delta_prime(
            n,
            target,
            tau_by_target[target],
            DEFAULT_GMM,
            B=10**6,
            bootstrap_reps=400,
            rng=rng,
        )
    return cells


def test_criterion_1_baseline_reproduction(baseline):
    _, _, summaries = baseline
    naive, corr = summaries["naive"], summaries["correlated"]
    assert naive.sensitivity == pytest.approx(0.819, abs=0.005)
    assert naive.efficiency == pytest.approx(4.67, abs=0.05)
    assert corr.sensitivity == pytest.approx(0.860, abs=0.005)
    assert corr.efficiency == pytest.approx(4.83, abs=0.05)
    print(
        f"\nPASS criterion 1: naive {naive.sensitivity:.4f}/{naive.efficiency:.3f}, "
        f"correlated {corr.sensitivity:.4f}/{corr.efficiency:.3f}"
    )


def test_criterion_2_tau_calibration(tau_by_target):
    expected = {0.025: 108, 0.05: 174, 0.1: 342, 0.2: 1240}
    for target, ref in expected.items():
        assert abs(tau_by_target[target] - ref) <= 0.03 * ref, target
    print(f"\nPASS criterion 2: tau = {[tau_by_target[t] for t in expected]}")


def test_criterion_3_delta_prime_table(delta_prime_cells):
    est2 = delta_prime_cells[(2, 0.025)]
    est6 = delta_prime_cells[(6, 0.05)]
    assert est2.delta_prime_hat == pytest.approx(8.96e-4, rel=0.10)
    assert est6.delta_prime_hat == pytest.approx(2.96e-5, rel=0.15)
    for est in (est2, est6):
        assert est.ci_low <= est.delta_prime_hat <= est.ci_high
    print(
        f"\nPASS criterion 3: delta'(2, 2.5%) = {est2.delta_prime_hat:.3e} "
        f"[{est2.ci_low:.3e}, {est2.ci_high:.3e}]; "
        f"delta'(6, 5%) = {est6.delta_prime_hat:.3e}"
    )


def test_criterion_4_policy_table(tau_by_target, low_alpha_n40):
    cfg = ScenarioConfig(**dict(BASE, alpha=0.01, pool_size=6, tau=tau_by_target[0.05],
                                beta_bar=None, replications=800, master_seed=31))
    _, results = optimize_pool_size(cfg, [4, 6, 8, 10, 12, 15, 20])
    naive, corr = results["naive"], results["correlated"]
    assert naive.pool_size == 12
    assert corr.pool_size == 12
    assert naive.objective == pytest.approx(4.56, abs=0.1)
    assert corr.objective == pytest.approx(5.23, abs=0.1)
    reduction = consumption_reduction(naive.objective, corr.objective)
    assert reduction == pytest.approx(0.129, abs=0.015)

    _, _, summaries = low_alpha_n40
    reduction_low = consumption_reduction(
        summaries["naive"].objective, summaries["correlated"].objective
    )
    assert reduction_low == pytest.approx(0.148, abs=0.015)
    print(
        f"\nPASS criterion 4: argmax n=12/12, objectives {naive.objective:.3f}/{corr.objective:.3f}, "
        f"reduction {reduction:.3f} (alpha=1%), {reduction_low:.3f} (alpha=0.1%)"
    )


def test_criterion_5_fpr_estimates(baseline):
    cfg, _, summaries = baseline
    fpr_corr = estimate_fpr(
        summaries["correlated"].sensitivity, summaries["correlated"].efficiency, 6, cfg.alpha
    )
    fpr_naive = estimate_fpr(
        summaries["naive"].sensitivity, summaries["naive"].efficiency, 6, cfg.alpha
    )
    assert fpr_corr == pytest.approx(3.20e-6, rel=0.10)
    assert fpr_naive == pytest.approx(3.97e-6, rel=0.10)
    print(f"\nPASS criterion 5: FPR correlated {fpr_corr:.3e}, naive {fpr_naive:.3e}")


def test_criterion_6_counterexample_oracle_equivalence():
    thetas = np.linspace(0.0, 1.0, 22)[1:-1]  # 20 interior grid points per axis
    region_a = region_b = 0
    for alpha in (0.001, 0.01, 0.1):
        for t1 in thetas:
            for t2 in thetas:
                if not t1 < t2:
                    continue
                cf = counterexample_closed_form(float(t1), float(t2), alpha)
                en = counterexample_enumerate(float(t1), float(t2), alpha)
                assert np.allclose(astuple(cf), astuple(en), atol=1e-12, rtol=0), (t1, t2, alpha)
                if alpha == 0.01:
                    region_a += en.eff1 < en.eff0
                    region_b += en.eta1 > en.eta0
    assert region_a > 0
    assert region_b > 0
    print(
        f"\nPASS criterion 6: closed form == enumeration to 1e-12; "
        f"region A points {region_a}, region B points {region_b} at alpha=1%"
    )


def test_criterion_7_theorem_property_tests(tau_by_target, baseline, delta_prime_cells):
    tau = tau_by_target[0.05]

    # Overall FNR is strictly lower under correlated pooling (alpha = 0.1%)
    _, tallies = _run(0.001, 6, tau, 2000, seed=7)
    sn, sc = tallies["naive"], tallies["correlated"]
    both = (sn.S > 0) & (sc.S > 0)
    adv, adv_se = _mean_se(sc.D[both] / sc.S[both] - sn.D[both] / sn.S[both])
    assert adv - Z_95_ONE_SIDED * adv_se > 0

    # Step sensitivity: correlated pooling needs no more follow-ups per positive
    _, tallies = _run(0.001, 6, tau, 2000, seed=7, variant={"variant": "step", "u0": 1e4})
    sn, sc = tallies["naive"], tallies["correlated"]
    both = (sn.D > 0) & (sc.D > 0)
    eta_diff, eta_se = _mean_se(sc.followup[both] / sc.D[both] - sn.followup[both] / sn.D[both])
    assert eta_diff + Z_95_ONE_SIDED * eta_se <= 0

    # Follow-up cost ratio bounded by 1 + delta' (alpha = 1%, realistic PCR)
    _, tallies_base, _ = baseline
    delta = delta_prime_cells[(6, 0.05)].delta_prime_hat
    bn, bc = tallies_base["naive"], tallies_base["correlated"]
    both = (bn.D > 0) & (bc.D > 0)
    eta_n = bn.followup[both] / bn.D[both]
    eta_c = bc.followup[both] / bc.D[both]
    bound_diff, bound_se = _mean_se(eta_c - (1.0 + delta) * eta_n)
    assert bound_diff + Z_95_ONE_SIDED * bound_se <= 0
    ratio = eta_c.mean() / eta_n.mean()
    print(
        f"\nPASS criterion 7: FNR advantage {adv:.4f} (se {adv_se:.4f}); "
        f"step eta diff {eta_diff:.3f}; eta ratio {ratio:.3f} <= 1 + {delta:.2e}"
    )


def test_criterion_8_structural_invariants(tmp_path, monkeypatch):
    # partition validity on 1e3 randomized instances
    rng = np.random.default_rng(41)
    for _ in range(1000):
        weights = rng.dirichlet(np.ones(6))
        dist = HouseholdDist(tuple(weights / weights.sum()))
        big_n = int(rng.integers(1, 400))
        n = int(rng.integers(1, 13))
        pop = generate_population(big_n, dist, 0.05, 0.3, rng=rng)
        assign_naive(big_n, n, rng).validate()
        assign_correlated(pop, n, rng).validate()

    # detected positives never exceed infected or individually-positive members
    sens = RealisticSensitivity(174)
    for _ in range(100):
        pop = generate_population(600, HOUSEHOLD_DISTS["US"], 0.05, 0.3, rng=rng)
        for assignment in (assign_naive(600, 6, rng), assign_correlated(pop, 6, rng)):
            out = run_dorfman(pop, assignment, sens, rng)
            assert np.all(out.detected <= np.minimum(out.s_count, out.individual_positive_count))

    # SIR conservation over 1e4 steps
    state = SirState(0.99, 0.01, 0.0)
    for _ in range(10**4):
        state = sir_step(state, 0.15, 0.05, 0.1, 0.9)
        assert abs(state.s + state.i + state.r - 1.0) < 1e-9

    # byte-identical outputs for any worker count
    blobs = {}
    for workers in ("1", "2", "4"):
        monkeypatch.setenv(WORKERS_ENV, workers)
        result = run_scenario(
            ScenarioConfig(**dict(BASE, alpha=0.05, pool_size=6, tau=174, beta_bar=None,
                                  population_size=1200, replications=40, master_seed=47))
        )
        jpath = tmp_path / f"w{workers}.json"
        cpath = tmp_path / f"w{workers}.csv"
        write_summary_json(result.summary_dict(), str(jpath))
        write_csv(replication_rows(result.config_echo, result.tallies), str(cpath))
        blobs[workers] = jpath.read_bytes() + cpath.read_bytes()
    assert blobs["1"] == blobs["2"] == blobs["4"]
    print("\nPASS criterion 8: partitions valid, tallies bounded, SIR conserved, outputs worker-invariant")


def test_criterion_9_pareto_exception_cell(high_alpha_n40, low_alpha_n40):
    # alpha = 10%, n = 40: the correlated advantage is non-positive in at
    # least one metric (sensitivity), with 95% confidence
    _, tallies, _ = high_alpha_n40
    sn, sc = tallies["naive"], tallies["correlated"]
    sens_adv, sens_se = _mean_se(sc.D / sc.S - sn.D / sn.S)
    eff_adv, eff_se = _mean_se(
        N_POP / (sc.pooled + sc.followup) - N_POP / (sn.pooled + sn.followup)
    )
    non_positive = (sens_adv + Z_95_ONE_SIDED * sens_se <= 0) or (
        eff_adv + Z_95_ONE_SIDED * eff_se <= 0
    )
    assert non_positive

    # alpha = 0.1%, n = 40: positive advantage in both metrics
    _, tallies, _ = low_alpha_n40
    sn, sc = tallies["naive"], tallies["correlated"]
    both = (sn.S > 0) & (sc.S > 0)
    low_sens_adv, low_sens_se = _mean_se(sc.D[both] / sc.S[both] - sn.D[both] / sn.S[both])
    low_eff_adv, low_eff_se = _mean_se(
        N_POP / (sc.pooled + sc.followup) - N_POP / (sn.pooled + sn.followup)
    )
    assert low_sens_adv - Z_95_ONE_SIDED * low_sens_se > 0
    assert low_eff_adv - Z_95_ONE_SIDED * low_eff_se > 0
    print(
        f"\nPASS criterion 9: alpha=10% sens adv {sens_adv:.4f} (se {sens_se:.4f}) non-positive; "
        f"alpha=0.1% advs {low_sens_adv:.4f}/{low_eff_adv:.3f} both positive"
    )
