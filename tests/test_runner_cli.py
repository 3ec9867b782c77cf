"""Tests for scenario orchestration, determinism, serialization, and the CLI."""

import csv
import ctypes
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import corrpool.cli
import corrpool.pcr
import corrpool.runner
from corrpool.cli import build_parser, main
from corrpool.errors import ConfigError
from corrpool.pcr import _BLOCK, calibrate_tau
from corrpool.runner import (
    WORKERS_ENV,
    ScenarioConfig,
    format_number,
    replication_rows,
    run_scenario,
    run_sweep,
    worker_count,
    write_csv,
    write_summary_json,
)
from corrpool.sir import optimize_pool_size
from corrpool.theory import estimate_delta_prime
from corrpool.viral import DEFAULT_GMM
from oracles import counterexample_enumerate

SMALL = dict(
    alpha=0.05,
    q=0.3,
    pool_size=6,
    tau=174,
    beta_bar=None,
    population_size=300,
    replications=30,
    master_seed=123,
)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"alpha": 0.01, "prevalence": 0.01})


def test_config_validates_ranges():
    with pytest.raises(ConfigError):
        ScenarioConfig(alpha=1.5)
    with pytest.raises(ConfigError):
        ScenarioConfig(q=-0.1)
    with pytest.raises(ConfigError):
        ScenarioConfig(pool_size=0)
    with pytest.raises(ConfigError, match="pool_size 7 exceeds population_size 6"):
        ScenarioConfig(pool_size=7, population_size=6)
    assert ScenarioConfig(pool_size=6, population_size=6).pool_size == 6
    with pytest.raises(ConfigError):
        ScenarioConfig(tau=None, beta_bar=None)
    with pytest.raises(ConfigError, match=r"\(0, 0\.5\]"):
        ScenarioConfig(beta_bar=0.7)
    with pytest.raises(ConfigError):
        ScenarioConfig(household_dist="ATLANTIS")
    with pytest.raises(ConfigError):
        ScenarioConfig(sensitivity_variant={"variant": "step"})  # missing u0
    with pytest.raises(ConfigError, match="list of strategy names"):
        ScenarioConfig.from_dict({"strategies": "naive"})


MALFORMED_CONFIGS = {
    "variant_string": ("sensitivity_variant", "step"),
    "variant_u0": ("sensitivity_variant", {"variant": "step", "u0": "abc"}),
    "variant_thetas": ("sensitivity_variant", {"variant": "piecewise", "theta1": 0.9, "theta2": 0.2}),
    "realistic_extra_key": ("sensitivity_variant", {"variant": "realistic", "tau": 174}),
    "step_extra_key": ("sensitivity_variant", {"variant": "step", "u0": 100.0, "theta1": 0.2}),
    "pool_size": ("pool_size", 6.5),
    "replications": ("replications", 2.5),
    "population_size": ("population_size", 100.5),
    "master_seed": ("master_seed", True),
    "pad_last_pool": ("pad_last_pool", "no"),
    "tau_bool": ("tau", True),
    "strategies_string": ("strategies", "naive"),
    "strategies_empty": ("strategies", []),
    "strategies_duplicate": ("strategies", ["naive", "naive"]),
    "gmm_list": ("gmm", [1, 2, 3]),
    "gmm_string": ("gmm", "abc"),
    "variant_u0_nan": ("sensitivity_variant", {"variant": "step", "u0": float("nan")}),
    "variant_u0_inf": ("sensitivity_variant", {"variant": "step", "u0": float("inf")}),
    "gmm_nan_weight": ("gmm", {"weights": [float("nan"), 1.0], "mus": [4.0, 6.0], "sigmas": [1.0, 1.0]}),
    "gmm_nan_mean": ("gmm", {"weights": [1.0], "mus": [float("nan")], "sigmas": [1.0]}),
    "gmm_inf_mean": ("gmm", {"weights": [1.0], "mus": [float("-inf")], "sigmas": [1.0]}),
    "gmm_inf_sigma": ("gmm", {"weights": [1.0], "mus": [5.0], "sigmas": [float("inf")]}),
    "household_nan": ("household_dist", [float("nan"), 0.5, 0.5, 0, 0, 0]),
    "q_bool": ("q", True),
    "variant_u0_bool": ("sensitivity_variant", {"variant": "step", "u0": True}),
    "variant_theta_strings": ("sensitivity_variant", {"variant": "piecewise", "theta1": "0.2", "theta2": "0.5"}),
    "gmm_bool_weight": ("gmm", {"weights": [True], "mus": [5.0], "sigmas": [1.0]}),
    "household_bools": ("household_dist", [True, False, False, False, False, False]),
}


@pytest.mark.parametrize("key,value", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
def test_malformed_config_fails_before_tau_calibration(monkeypatch, tmp_path, capsys, key, value):
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({key: value})

    def never_calibrate(*args, **kwargs):
        raise AssertionError("calibrate_tau called for a malformed config")

    monkeypatch.setattr(corrpool.runner, "calibrate_tau", never_calibrate)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    assert main(["simulate", "--config", str(cfg_path), "--beta-bar", "0.05"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_custom_household_weights_accepted():
    cfg = ScenarioConfig.from_dict({"household_dist": [0.5, 0.5, 0, 0, 0, 0]})
    assert cfg.resolve_dist().mean_size() == pytest.approx(1.5)


def test_run_scenario_deterministic():
    a = run_scenario(ScenarioConfig(**SMALL))
    b = run_scenario(ScenarioConfig(**SMALL))
    assert a.summary_dict() == b.summary_dict()
    for strategy in a.tallies:
        assert np.array_equal(a.tallies[strategy].S, b.tallies[strategy].S)
        assert np.array_equal(a.tallies[strategy].D, b.tallies[strategy].D)


def test_worker_count_does_not_change_results(tmp_path, monkeypatch):
    # 31 and 501 replications split evenly over none of the worker counts, and
    # pool sizes 2 and 40 make cells of unequal cost
    config = ScenarioConfig(**{**SMALL, "replications": 31})
    artifacts = {}
    for workers in ("1", "2", "3"):
        monkeypatch.setenv(WORKERS_ENV, workers)
        result = run_scenario(config)
        simulate = tmp_path / f"summary_{workers}.json"
        write_summary_json(result.summary_dict(), str(simulate))
        reps = tmp_path / f"reps_{workers}.csv"
        write_csv(replication_rows(result.config_echo, result.tallies), str(reps))
        sweep = tmp_path / f"sweep_{workers}.csv"
        write_csv(run_sweep(config, [0.02, 0.05], [2, 40]), str(sweep))
        optimize = tmp_path / f"optimize_{workers}.json"
        argv = [
            "optimize", "--alpha", "0.05", "--tau", "174", "--population-size", "60",
            "--replications", "501", "--seed", "4", "--candidates", "2,40",
            "--output-json", str(optimize),
        ]
        assert main(argv) == 0
        artifacts[workers] = [p.read_bytes() for p in (simulate, reps, sweep, optimize)]
    assert artifacts["1"] == artifacts["2"] == artifacts["3"]


def _record_pools(monkeypatch, events):
    """Append "pool" to events whenever the runner creates a worker pool."""

    class RecordingPool(corrpool.runner.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            events.append("pool")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(corrpool.runner, "ProcessPoolExecutor", RecordingPool)


@pytest.mark.parametrize("workers, pools", [("1", 0), ("2", 1)])
def test_one_worker_pool_per_command(monkeypatch, workers, pools):
    created = []
    _record_pools(monkeypatch, created)
    monkeypatch.setenv(WORKERS_ENV, workers)
    assert len(run_sweep(ScenarioConfig(**SMALL), [0.02, 0.05], [3, 6])) == 2 * 2 * 2
    assert len(created) == pools
    config = ScenarioConfig(**{**SMALL, "population_size": 60, "replications": 500})
    assert set(optimize_pool_size(config, [3, 6, 9])[1]) == {"naive", "correlated"}
    assert len(created) == 2 * pools


def test_replication_pool_forks_its_workers(monkeypatch):
    # named, not left to the platform default (forkserver on Linux from
    # Python 3.14), so workers inherit the trimmed parent without pickling
    contexts = []

    class RecordingPool(corrpool.runner.ProcessPoolExecutor):
        def __init__(self, *args, mp_context=None, **kwargs):
            contexts.append(mp_context)
            super().__init__(*args, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(corrpool.runner, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv(WORKERS_ENV, "2")
    run_scenario(ScenarioConfig(**SMALL))
    assert [ctx.get_start_method() for ctx in contexts] == ["fork"]


@pytest.mark.parametrize("workers, pools", [("1", 0), ("2", 2)])
def test_heap_trimmed_once_before_each_pool(monkeypatch, workers, pools):
    events = []

    def malloc_trim(pad):
        events.append(("malloc_trim", pad))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(malloc_trim=malloc_trim))
    _record_pools(monkeypatch, events)
    monkeypatch.setenv(WORKERS_ENV, workers)
    run_sweep(ScenarioConfig(**SMALL), [0.02, 0.05], [3, 6])
    run_scenario(ScenarioConfig(**SMALL))
    assert events == [("malloc_trim", 0), "pool"] * pools


def test_pool_runs_where_the_c_library_has_no_malloc_trim(monkeypatch, tmp_path):
    config = ScenarioConfig(**SMALL)
    monkeypatch.setenv(WORKERS_ENV, "2")

    def artifacts(name):
        summary, sweep = tmp_path / f"summary_{name}.json", tmp_path / f"sweep_{name}.csv"
        write_summary_json(run_scenario(config).summary_dict(), str(summary))
        write_csv(run_sweep(config, [0.02, 0.05], [2, 40]), str(sweep))
        return summary.read_bytes(), sweep.read_bytes()

    trimmed = artifacts("trimmed")
    events = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    _record_pools(monkeypatch, events)
    assert artifacts("untrimmed") == trimmed
    assert events == ["pool", "pool"]


def test_no_infection_scenario_flags_undefined_sensitivity():
    cfg = ScenarioConfig(
        alpha=1e-9,
        q=0.0,
        pool_size=6,
        tau=174,
        beta_bar=None,
        population_size=6,
        replications=1,
        master_seed=7,
    )
    result = run_scenario(cfg)
    for strategy, s in result.summaries.items():
        assert s.sensitivity is None
        assert s.undefined_sensitivity == 1
        assert s.efficiency == 6.0
        assert result.fpr[strategy] is None


def test_sweep_rejects_empty_grid():
    with pytest.raises(ConfigError):
        run_sweep(ScenarioConfig(**SMALL), [], [6])


def test_sweep_rows_shape():
    rows = run_sweep(
        ScenarioConfig(**{**SMALL, "replications": 5}), [0.02, 0.05], [3, 6]
    )
    assert len(rows) == 2 * 2 * 2
    assert {r["strategy"] for r in rows} == {"naive", "correlated"}


def test_sweep_calibrates_tau_once_and_matches_standalone_cells(monkeypatch):
    calls = []
    calibrate = corrpool.runner.calibrate_tau

    def counting_calibrate(*args, **kwargs):
        calls.append(args)
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(corrpool.runner, "calibrate_tau", counting_calibrate)
    config = ScenarioConfig(**{**SMALL, "tau": None, "beta_bar": 0.05, "replications": 4})
    rows = run_sweep(config, [0.02, 0.05], [3, 6])
    assert len(calls) == 1
    assert len(rows) == 2 * 2 * 2
    for alpha in (0.02, 0.05):
        for n in (3, 6):
            cell = run_scenario(replace(config, alpha=alpha, pool_size=n))
            for strategy, s in cell.summaries.items():
                (row,) = [
                    r for r in rows
                    if (r["alpha"], r["pool_size"], r["strategy"]) == (alpha, n, strategy)
                ]
                assert row["sensitivity"] == s.sensitivity
                assert row["sensitivity_se"] == s.sensitivity_se
                assert row["efficiency"] == s.efficiency
                assert row["efficiency_se"] == s.efficiency_se


def test_sweep_assigns_once_per_strategy_and_pool_size(monkeypatch):
    calls = {"naive": [], "correlated": []}
    for strategy in calls:
        assign = getattr(corrpool.runner, f"assign_{strategy}")

        def counting(*args, _assign=assign, _calls=calls[strategy]):
            _calls.append(args[1])
            return _assign(*args)

        monkeypatch.setattr(corrpool.runner, f"assign_{strategy}", counting)
    monkeypatch.setenv(WORKERS_ENV, "1")
    config = ScenarioConfig(**{**SMALL, "replications": 3})
    run_sweep(config, [0.02, 0.05], [3, 6])
    for strategy, pool_sizes in calls.items():
        assert pool_sizes == [3, 6] * 3, strategy


def test_optimize_calibrates_tau_once_and_matches_standalone_cells(monkeypatch):
    calls = []
    calibrate = corrpool.runner.calibrate_tau

    def counting_calibrate(*args, **kwargs):
        calls.append(args)
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(corrpool.runner, "calibrate_tau", counting_calibrate)
    config = ScenarioConfig(
        **{**SMALL, "tau": None, "beta_bar": 0.05, "population_size": 60, "replications": 500}
    )
    tau, results = optimize_pool_size(config, [6, 3])
    assert len(calls) == 1
    assert set(results) == {"naive", "correlated"}
    objectives = {strategy: [] for strategy in results}
    for n in (3, 6):
        cell = run_scenario(replace(config, pool_size=n))
        assert cell.config_echo["tau"] == tau
        for strategy, s in cell.summaries.items():
            objectives[strategy].append((s.objective, n))
    for strategy, r in results.items():
        best = max(objectives[strategy], key=lambda item: (item[0], -item[1]))
        assert (r.objective, r.pool_size) == best


def test_format_number_twelve_significant_digits():
    assert format_number(1.0 / 3.0) == "0.333333333333"
    assert format_number(123456789) == "123456789"
    assert format_number(None) == ""
    assert format_number(3.2e-06) == "3.2e-06"


def test_write_csv_rfc4180_quoting(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv([{"name": 'a,"b"', "value": 0.5}], str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "name,value"
    assert '"a,""b"""' in text


def test_cli_simulate_outputs(tmp_path):
    json_path = tmp_path / "summary.json"
    csv_path = tmp_path / "reps.csv"
    rc = main(
        [
            "simulate",
            "--alpha", "0.05", "--q", "0.3", "--pool-size", "6",
            "--tau", "174", "--population-size", "300",
            "--replications", "10", "--seed", "5",
            "--output-json", str(json_path),
            "--output-csv", str(csv_path),
        ]
    )
    assert rc == 0
    payload = json.loads(json_path.read_text())
    assert payload["config"]["tau"] == 174
    assert set(payload["strategies"]) == {"naive", "correlated"}
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("replication,strategy")
    assert len(lines) == 1 + 2 * 10


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "alpha": 0.05, "q": 0.3, "pool_size": 6, "tau": 174, "beta_bar": None,
                "population_size": 300, "replications": 10, "master_seed": 5,
            }
        )
    )
    out = tmp_path / "s.json"
    rc = main(["simulate", "--config", str(cfg_path), "--replications", "3",
               "--output-json", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["config"]["replications"] == 3


def test_cli_scenario_flags_land_in_config_echo(tmp_path):
    out = tmp_path / "s.json"
    argv = [
        "simulate", "--alpha", "0.05", "--q", "0.3",
        "--household-dist", "0.5,0.5,0,0,0,0", "--pool-size", "7",
        "--beta-bar", "0.1", "--tau", "174", "--population-size", "61",
        "--replications", "3", "--seed", "11", "--strategies", "correlated",
        "--pad-last-pool", "--output-json", str(out),
    ]
    assert main(argv) == 0
    assert json.loads(out.read_text())["config"] == {
        "alpha": 0.05,
        "q": 0.3,
        "household_dist": [0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
        "pool_size": 7,
        "beta_bar": 0.1,
        "tau": 174,
        "sensitivity_variant": {"variant": "realistic"},
        "population_size": 61,
        "replications": 3,
        "master_seed": 11,
        "strategies": ["correlated"],
        "pad_last_pool": True,
    }
    # every scenario flag except --config is covered above
    dests = set(vars(build_parser().parse_args(["simulate"])))
    assert dests - {"command", "func", "config", "output_json", "output_csv"} == set(
        json.loads(out.read_text())["config"]
    ) - {"sensitivity_variant"}


def test_cli_exit_code_config_error(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"alpha": 0.05, "bogus_key": 1}))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert main(["simulate", "--alpha", "2.0", "--replications", "1"]) == 2


def test_worker_count_defaults_to_the_cpus_the_process_may_run_on(monkeypatch):
    # counted only: no pool is started
    monkeypatch.delenv(WORKERS_ENV)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert worker_count() == 3
    monkeypatch.setenv(WORKERS_ENV, "2")
    assert worker_count() == 2
    # without an affinity mask the CPU count, or 1 when it is unknown
    monkeypatch.delenv(WORKERS_ENV)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1


def test_worker_count_parses_env(monkeypatch):
    for value, expected in (("1", 1), ("3", 3)):
        monkeypatch.setenv(WORKERS_ENV, value)
        assert worker_count() == expected
    # a count below 1 is malformed, not replaced by 1
    for value in ("0", "-2"):
        monkeypatch.setenv(WORKERS_ENV, value)
        with pytest.raises(ConfigError, match=f"{WORKERS_ENV} must be at least 1, got '{value}'"):
            worker_count()


def test_cli_malformed_workers_env_exits_2(monkeypatch, capsys):
    for value in ("abc", "0", "-2"):
        monkeypatch.setenv(WORKERS_ENV, value)
        rc = main(["simulate", "--tau", "174", "--population-size", "60", "--replications", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert WORKERS_ENV in err and repr(value) in err


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate", "--output-json"], "--output-json"),
        (["simulate", "--output-csv"], "--output-csv"),
        (["sweep", "--alphas", "0.01", "--pool-sizes", "6", "--output"], "--output"),
        (["calibrate", "--beta-bar", "0.05", "--output"], "--output"),
        (["delta-bound", "--output"], "--output"),
        (["counterexample", "--output"], "--output"),
        (["sir", "--b-i", "0.3", "--b-r", "0.1", "--sensitivity", "0.9", "--output"], "--output"),
        (["optimize", "--candidates", "4,6", "--output-json"], "--output-json"),
    ],
    ids=[
        "simulate_json", "simulate_csv", "sweep", "calibrate", "delta_bound", "counterexample", "sir", "optimize",
    ],
)
def test_unwritable_output_path_fails_before_any_work(monkeypatch, capsys, tmp_path, argv, flag, where):
    def never_calibrate(*args, **kwargs):
        raise AssertionError("calibrate_tau called before the output paths were checked")

    monkeypatch.setattr(corrpool.cli, "calibrate_tau", never_calibrate)
    monkeypatch.setattr(corrpool.runner, "calibrate_tau", never_calibrate)
    path = tmp_path / "missing" / "out" if where == "missing_directory" else tmp_path
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {flag} {path}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate"],
        ["sweep", "--alphas", "0.01", "--pool-sizes", "6", "--output", os.devnull],
        ["optimize", "--candidates", "4,6", "--replications", "500"],
    ],
    ids=["simulate", "sweep", "optimize"],
)
def test_cli_malformed_workers_env_fails_before_tau_calibration(monkeypatch, capsys, argv):
    def never_calibrate(*args, **kwargs):
        raise AssertionError("calibrate_tau called before the worker count was read")

    monkeypatch.setattr(corrpool.runner, "calibrate_tau", never_calibrate)
    monkeypatch.setenv(WORKERS_ENV, "abc")
    rc = main(argv + ["--beta-bar", "0.05", "--population-size", "60"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {WORKERS_ENV} must be an integer, got 'abc'\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sweep", "--alphas", "0.01,1.5", "--pool-sizes", "6", "--output", os.devnull], 2),
        (["sweep", "--alphas", "0.01,0.9", "--pool-sizes", "6", "--output", os.devnull], 3),
        (["optimize", "--candidates", "6,0", "--replications", "500"], 2),
        (["optimize", "--alpha", "0.9", "--candidates", "4,6", "--replications", "500"], 3),
        (["simulate", "--alpha", "0.9"], 3),
        (["sweep", "--alphas", "0.01", "--pool-sizes", "6,6", "--output", os.devnull], 2),
        (["sweep", "--alphas", "0.01,0.010", "--pool-sizes", "6", "--output", os.devnull], 2),
        (["optimize", "--candidates", "4,6", "--replications", "500", "--b-i", "0.15"], 2),
        (["optimize", "--candidates", "4,6", "--replications", "500", "--b-r", "0.05"], 2),
        (["optimize", "--candidates", "4,6", "--replications", "500", "--b-i", "-1", "--b-r", "0.1"], 2),
        (["optimize", "--candidates", "4,6", "--replications", "500", "--b-i", "0.3", "--b-r", "-0.1"], 2),
        (["optimize", "--candidates", "2,4", "--replications", "500", "--b-i", "nan", "--b-r", "0.1"], 2),
        (["optimize", "--candidates", "2,4", "--replications", "500", "--b-i", "0.3", "--b-r", "inf"], 2),
        (["simulate", "--household-dist", "nan,0.5,0.5,0,0,0"], 2),
        (["sweep", "--alphas", "0.01", "--pool-sizes", "6,61", "--output", os.devnull], 2),
        (["optimize", "--candidates", "6,61", "--replications", "500"], 2),
    ],
    ids=[
        "sweep_alpha", "sweep_infeasible", "optimize_pool_size", "optimize_infeasible", "simulate_infeasible",
        "sweep_repeated_pool_size", "sweep_repeated_alpha", "optimize_b_i_alone", "optimize_b_r_alone",
        "optimize_b_i_negative", "optimize_b_r_negative", "optimize_b_i_nan", "optimize_b_r_inf",
        "simulate_household_nan", "sweep_pool_above_population", "optimize_pool_above_population",
    ],
)
def test_bad_cell_fails_before_tau_calibration(monkeypatch, argv, code):
    def never_calibrate(*args, **kwargs):
        raise AssertionError("calibrate_tau called before every cell was checked")

    monkeypatch.setattr(corrpool.runner, "calibrate_tau", never_calibrate)
    assert main(argv + ["--beta-bar", "0.05", "--population-size", "60"]) == code


def test_calibrate_has_no_draw_count_flag(capsys):
    # calibrate draws as a scenario run does, so it has no --draws to differ by
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--beta-bar", "0.05", "--draws", "10"])
    assert exc.value.code == 2 and "--draws" in capsys.readouterr().err


# a pool of 10**13 would allocate per-pool lists in first-fit or, padded,
# dilute to a capture probability of 5e-15
_HUGE_POOL = ["simulate", "--pool-size", str(10**13), "--population-size", "600", "--tau", "176", "--replications", "2"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["delta-bound", "--bootstrap-reps", "0"], "bootstrap_reps"),
        (["delta-bound", "--bootstrap-reps", "-3"], "bootstrap_reps"),
        (["delta-bound", "--n", "1"], "n must"),
        (["delta-bound", "--b", "10"], "B must"),
        (["delta-bound", "--beta-bar", "0.7"], "beta_bar"),
        (["calibrate", "--beta-bar", "0.05,0.7"], "beta_bar"),
        (["calibrate", "--beta-bar", ",", "--output", os.devnull], "--beta-bar"),
        (["counterexample", "--grid", "-3", "--output", os.devnull], "--grid"),
        (["counterexample", "--grid", "0", "--output", os.devnull], "--grid"),
        (["counterexample", "--grid", "1", "--output", os.devnull], "--grid"),
        (["calibrate", "--beta-bar", "0.05", "--seed", str(2**64)], "--seed"),
        (["calibrate", "--beta-bar", "0.05", "--seed", "-1"], "--seed"),
        (["delta-bound", "--seed", str(2**64)], "--seed"),
        (["delta-bound", "--seed", "-1"], "--seed"),
        (["delta-bound", "--full-table", "--n", "6"], "--n"),
        (["delta-bound", "--full-table", "--beta-bar", "0.05"], "--beta-bar"),
        (_HUGE_POOL, "pool_size"),
        (_HUGE_POOL + ["--pad-last-pool"], "pool_size"),
    ],
    ids=[
        "reps_zero", "reps_negative", "n_one", "b_small", "delta_beta_bar", "calibrate_beta_bar",
        "calibrate_no_target", "grid_negative", "grid_zero", "grid_one", "calibrate_seed_2_64",
        "calibrate_seed_negative", "delta_seed_2_64", "delta_seed_negative", "full_table_n", "full_table_beta_bar",
        "pool_above_population", "padded_pool_above_population",
    ],
)
def test_bad_argument_fails_before_tau_calibration(monkeypatch, capsys, argv, named):
    def never_calibrate(*args, **kwargs):
        raise AssertionError("calibrate_tau called before every argument was checked")

    monkeypatch.setattr(corrpool.cli, "calibrate_tau", never_calibrate)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(("error: ", "configuration error: ")) and "Traceback" not in captured.err
    assert named in captured.err


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_calibrate_uses_the_runner_calibration_stream(tmp_path, seed):
    # the same (seed, beta_bar) gives the same tau from calibrate as from a
    # scenario run at that master seed
    targets = (0.025, 0.05, 0.2)
    out = tmp_path / "tau.csv"
    assert main(["calibrate", "--seed", str(seed), "--beta-bar", ",".join(map(str, targets)),
                 "--output", str(out)]) == 0
    got = [int(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    expected = [ScenarioConfig(beta_bar=b, master_seed=seed).resolve_tau() for b in targets]
    assert got == expected


def test_cli_calibrate_draws_the_loads_once(monkeypatch, capsys):
    sizes = []
    sample = corrpool.pcr.sample_viral_load

    def counting_sample(*args, **kwargs):
        loads = sample(*args, **kwargs)
        sizes.append(loads.size)
        return loads

    monkeypatch.setattr(corrpool.pcr, "sample_viral_load", counting_sample)
    assert main(["calibrate", "--beta-bar", "0.025,0.05,0.1,0.2"]) == 0
    # one draw of 10**6 loads, block by block
    assert sum(sizes) == 10**6 and max(sizes) == _BLOCK
    assert capsys.readouterr().out.splitlines() == [
        "beta_bar=0.025 -> tau=108",
        "beta_bar=0.05 -> tau=176",
        "beta_bar=0.1 -> tau=343",
        "beta_bar=0.2 -> tau=1234",
    ]


# a delta' cell at B = 10**5 with 5 bootstrap replicates takes about 0.3 s
_DELTA_SMALL = ["--b", "100000", "--bootstrap-reps", "5", "--seed", "0"]


def test_delta_bound_full_table_rows_equal_cells_run_alone(monkeypatch, tmp_path):
    ns, betas = (2, 4), (0.05, 0.1)
    monkeypatch.setattr(corrpool.cli, "_DELTA_TABLE_NS", ns)
    monkeypatch.setattr(corrpool.cli, "_DELTA_TABLE_BETAS", betas)
    calls = []
    calibrate = corrpool.cli.calibrate_tau

    def counting_calibrate(*args, **kwargs):
        calls.append(args)
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(corrpool.cli, "calibrate_tau", counting_calibrate)
    table = tmp_path / "table.csv"
    assert main(["delta-bound", "--full-table", *_DELTA_SMALL, "--output", str(table)]) == 0
    assert len(calls) == 1
    header, *rows = table.read_text().splitlines()
    assert len(rows) == len(ns) * len(betas)
    for (n, beta_bar), row in zip(product(ns, betas), rows):
        cell = tmp_path / f"cell_{n}_{beta_bar}.csv"
        argv = ["delta-bound", "--n", str(n), "--beta-bar", str(beta_bar), *_DELTA_SMALL, "--output", str(cell)]
        assert main(argv) == 0
        assert cell.read_text().splitlines() == [header, row]


def test_delta_bound_flags_an_interval_that_misses_its_estimate(tmp_path, capsys):
    # one bootstrap replicate gives an interval that lies beside the point
    # estimate: neither the row nor the printed line may call it reliable
    out = tmp_path / "cell.csv"
    argv = ["delta-bound", "--n", "2", "--b", "100000", "--bootstrap-reps", "1", "--seed", "0"]
    assert main(argv + ["--output", str(out)]) == 0
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert not float(row["ci_low"]) <= float(row["delta_prime"]) <= float(row["ci_high"])
    assert row["ci_reliable"] == "False"
    (line,) = capsys.readouterr().out.splitlines()
    assert line.endswith(f"CI=[{row['ci_low']}, {row['ci_high']}] (interval unreliable)")


def test_delta_bound_cell_keeps_its_bytes(tmp_path):
    # reference: calibration and the estimate drawn in turn from one
    # default_rng(seed), the stream perfbench's golden delta_bound_n6 hash pins
    n, beta_bar, B, reps, seed = 4, 0.1, 100000, 5, 0
    out = tmp_path / "cell.csv"
    argv = [
        "delta-bound", "--n", str(n), "--beta-bar", str(beta_bar), "--b", str(B),
        "--bootstrap-reps", str(reps), "--seed", str(seed), "--output", str(out),
    ]
    assert main(argv) == 0
    rng = np.random.default_rng(seed)
    (tau,) = calibrate_tau([beta_bar], DEFAULT_GMM, rng)
    est = estimate_delta_prime(n, beta_bar, tau, DEFAULT_GMM, B=B, bootstrap_reps=reps, rng=rng)
    reference = tmp_path / "reference.csv"
    row = {
        "n": n,
        "beta_bar": beta_bar,
        "delta_prime": est.delta_prime_hat,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "achieved_b": est.achieved_b,
        "ci_reliable": est.ci_reliable,
    }
    write_csv([row], str(reference))
    assert out.read_bytes() == reference.read_bytes()


def test_cli_exit_code_infeasible():
    rc = main(
        ["simulate", "--alpha", "0.9", "--q", "0.0", "--tau", "174",
         "--population-size", "100", "--replications", "1"]
    )
    assert rc == 3


def _prints(text: str, value: float, rel: float) -> bool:
    """Whether `text`, a number printed to 12 significant digits, rounds a
    value within `rel` relative of `value`."""
    printed = float(text)
    half_digit = 0.0 if printed == 0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(printed))) - 11)
    return abs(printed - value) <= rel * abs(value) + half_digit


def test_cli_counterexample(tmp_path, capsys):
    # the command runs the closed form; the enumeration oracle gives the same
    # region counts on the default 50-point grid and every value to 2e-12
    regions = {0.001: (600, 22), 0.01: (600, 36), 0.1: (575, 153), 0.5: (0, 1225)}
    grid = [float(t) for t in np.linspace(0.0, 1.0, 52)[1:-1]]
    cells = [(t1, t2) for t1 in grid for t2 in grid if t1 < t2]
    for alpha, (region_a, region_b) in regions.items():
        out = tmp_path / f"ce_{alpha}.csv"
        assert main(["counterexample", "--grid", "50", "--alpha", str(alpha), "--output", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"wrote 1225 grid points to {out}; {region_a} with eff1<eff0, {region_b} with eta1>eta0\n"
        )
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(r["theta1"], r["theta2"]) for r in rows] == [tuple(map(format_number, c)) for c in cells]
        for row, (t1, t2) in zip(rows, cells):
            en = counterexample_enumerate(t1, t2, alpha)
            assert _prints(row["eff_diff"], en.eff1 - en.eff0, 2e-12), (alpha, row)
            assert _prints(row["eta_ratio"], en.eta1 / en.eta0, 2e-12), (alpha, row)


def test_cli_sir(tmp_path):
    out = tmp_path / "sir.csv"
    rc = main(
        ["sir", "--b-i", "0.15", "--b-r", "0.05", "--sensitivity", "0.8",
         "--days", "30", "--output", str(out)]
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 32  # header + day 0..30


def test_cli_sir_negative_days_exits_2(tmp_path, capsys):
    # bad rates are rejected even when there is no day to step through
    out = tmp_path / "sir.csv"
    for args, error in [
        (["--b-i", "0.15", "--b-r", "0.05", "--sensitivity", "0.8", "--days", "-3"], "days must be non-negative"),
        (["--b-i", "0.3", "--b-r", "0.1", "--sensitivity", "0.9", "--f", "-1", "--days", "0"],
         "rates must be non-negative"),
        (["--b-i", "0.3", "--b-r", "0.1", "--sensitivity", "1.5", "--f", "0.1", "--days", "0"],
         "sensitivity must be in [0, 1]"),
        (["--b-i", "nan", "--b-r", "0.1", "--sensitivity", "0.9", "--f", "0.1", "--days", "0"],
         "rates must be non-negative and finite"),
    ]:
        assert main(["sir", *args, "--output", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {error}")
        assert captured.out == ""


def test_simulate_config_echo_with_a_custom_gmm_reruns_byte_for_byte(tmp_path):
    # a non-default mixture is echoed, so the summary's config block alone
    # reruns the command
    cfg, first, echo, second = (tmp_path / name for name in ("cfg.json", "a.json", "echo.json", "b.json"))
    gmm = {"weights": [0.3, 0.7], "mus": [4.0, 6.5], "sigmas": [1.0, 1.5]}
    cfg.write_text(json.dumps({"gmm": gmm, "population_size": 60, "replications": 5}))
    assert main(["simulate", "--config", str(cfg), "--output-json", str(first)]) == 0
    config = json.loads(first.read_text())["config"]
    assert config["gmm"] == gmm
    echo.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(echo), "--output-json", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


def test_optimize_config_echo_reruns_byte_for_byte(tmp_path, monkeypatch):
    # the JSON carries the calibrated tau, the candidates and the rates, so the
    # rerun built from it alone skips calibration and writes the same JSON
    first, config, second = (tmp_path / name for name in ("first.json", "config.json", "second.json"))
    assert main(
        ["optimize", "--candidates", "3,2,3", "--b-i", "0.15", "--b-r", "0.05", "--beta-bar", "0.05",
         "--population-size", "60", "--replications", "500", "--seed", "0", "--output-json", str(first)]
    ) == 0
    payload = json.loads(first.read_text())
    echo = payload["config"]
    assert echo["tau"] == 176 and echo["beta_bar"] == 0.05 and echo["master_seed"] == 0
    assert payload["candidates"] == [2, 3]
    config.write_text(json.dumps(echo))
    argv = ["optimize", "--config", str(config), "--candidates", ",".join(map(str, payload["candidates"]))]
    for flag, key in (("--b-i", "b_i"), ("--b-r", "b_r")):
        if payload[key] is not None:
            argv += [flag, repr(payload[key])]

    def never_calibrate(*args, **kwargs):
        raise AssertionError("calibrate_tau called although the config carries tau")

    monkeypatch.setattr(corrpool.runner, "calibrate_tau", never_calibrate)
    assert main([*argv, "--output-json", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


def test_optimize_json_without_rates_holds_null(tmp_path):
    out = tmp_path / "opt.json"
    assert main(
        ["optimize", "--candidates", "2", "--tau", "176", "--population-size", "60",
         "--replications", "500", "--output-json", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["candidates"] == [2]
    assert payload["b_i"] is None and payload["b_r"] is None


def test_optimize_with_a_test_that_never_detects_exits_2(tmp_path, capsys):
    # a step threshold no pool reaches: every strategy's best objective is 0,
    # which has no relative consumption
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sensitivity_variant": {"variant": "step", "u0": 1e30}}))
    out = tmp_path / "opt.json"
    argv = ["optimize", "--config", str(cfg), "--tau", "174", "--population-size", "60",
            "--replications", "500", "--candidates", "2,4", "--output-json", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: naive pooling has zero sensitivity at every candidate pool size\n"
    assert not out.exists()


def test_summary_json_rejects_non_finite_numbers(tmp_path):
    # a NaN or infinity is no JSON token: nothing is written
    for value in (float("nan"), float("inf")):
        out = tmp_path / "summary.json"
        with pytest.raises(ValueError):
            write_summary_json({"f_star": value}, str(out))
        assert not out.exists()


def test_replication_rows_roundtrip():
    result = run_scenario(ScenarioConfig(**{**SMALL, "replications": 4}))
    rows = replication_rows(result.config_echo, result.tallies)
    assert len(rows) == 2 * 4
    assert all(row["pooled_tests"] == 50 for row in rows)


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(corrpool.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "corrpool", "--help"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: corrpool")


def test_simulate_at_a_tau_beyond_exact_doubles_returns():
    # the certain count of tau = 10**17 lies past 2**53; the run must end
    # (every count is below tau, so nothing is detected)
    src = os.path.dirname(os.path.dirname(corrpool.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["simulate", "--tau", str(10**17), "--population-size", "600", "--replications", "2"]
    done = subprocess.run(
        [sys.executable, "-m", "corrpool", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"{s}: sensitivity=0 efficiency=6 fpr=0" for s in ("naive", "correlated")]
