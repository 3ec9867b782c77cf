"""Command-line interface.

Subcommands: simulate, sweep, calibrate, delta-bound, counterexample, sir,
optimize. Scenario parameters come from an optional JSON config file; CLI
flags override file values. Exit codes: 0 success, 2 configuration error,
3 infeasible scenario. Worker count for replication-level parallelism comes
from the CORRPOOL_WORKERS environment variable.

calibrate and delta-bound check every target and cell first and then make one
calibrate_tau call, so one draw of calibration loads serves every target of
the command. Each delta-bound cell then estimates delta' on its own copy of
the generator as calibration left it, so a --full-table cell equals the same
cell run alone. --full-table runs every cell of the table, so it refuses an
explicit --n or --beta-bar rather than ignore it.
"""

import argparse
import copy
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from .errors import ConfigError, InfeasibleScenarioError
from .pcr import calibrate_tau, check_calibration
from .runner import (
    ScenarioConfig,
    calibration_rng,
    format_number,
    replication_rows,
    run_scenario,
    run_sweep,
    write_csv,
    write_summary_json,
)
from .sir import (
    SirState,
    consumption_reduction,
    critical_frequency,
    optimize_pool_size,
    simulate_sir,
)
from .theory import check_delta_prime, counterexample_enumerate, estimate_delta_prime
from .viral import DEFAULT_GMM

_DELTA_TABLE_NS = (2, 4, 6, 12)
_DELTA_TABLE_BETAS = (0.025, 0.05, 0.1, 0.2)


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _check_seed(seed: int):
    """Raise ConfigError unless --seed is in the range master_seed accepts."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"--seed must be a 64-bit unsigned integer, got {seed}")


def _scenario_args(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON scenario config; flags override file values")
    sub.add_argument("--alpha", type=float, help="population prevalence")
    sub.add_argument("--q", type=float, help="secondary attack rate")
    sub.add_argument("--household-dist", help="named distribution (e.g. US) or 6 comma-separated weights")
    sub.add_argument("--pool-size", type=int)
    sub.add_argument("--beta-bar", type=float, help="target individual-test FNR (calibrates tau)")
    sub.add_argument("--tau", type=int, help="explicit detection threshold")
    sub.add_argument("--population-size", type=int)
    sub.add_argument("--replications", type=int)
    sub.add_argument("--seed", type=int, dest="master_seed", metavar="SEED", help="master seed")
    sub.add_argument("--strategies", help="comma-separated subset of naive,correlated")
    sub.add_argument("--pad-last-pool", action="store_true", default=None)


def _build_config(args) -> ScenarioConfig:
    data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    for f in fields(ScenarioConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        if f.name == "household_dist" and "," in value:
            value = _parse_floats(value)
        elif f.name == "strategies":
            value = [s.strip() for s in value.split(",") if s.strip()]
        data[f.name] = value
    return ScenarioConfig.from_dict(data)


def _cmd_simulate(args) -> int:
    config = _build_config(args)
    result = run_scenario(config)
    if args.output_json:
        write_summary_json(result.summary_dict(), args.output_json)
    if args.output_csv:
        write_csv(replication_rows(result.config_echo, result.tallies), args.output_csv)
    for strategy, s in result.summaries.items():
        sens = "undefined" if s.sensitivity is None else format_number(s.sensitivity)
        print(
            f"{strategy}: sensitivity={sens} efficiency={format_number(s.efficiency)} "
            f"fpr={format_number(result.fpr[strategy])}"
        )
    return 0


def _cmd_sweep(args) -> int:
    config = _build_config(args)
    alphas = _parse_floats(args.alphas)
    pool_sizes = _parse_ints(args.pool_sizes)
    rows = run_sweep(config, alphas, pool_sizes)
    write_csv(rows, args.output)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _cmd_calibrate(args) -> int:
    targets = _parse_floats(args.beta_bar)
    if not targets:
        raise ConfigError("--beta-bar needs at least one target")
    _check_seed(args.seed)
    for target in targets:
        check_calibration(target, args.draws)
    taus = calibrate_tau(targets, DEFAULT_GMM, calibration_rng(args.seed), draws=args.draws)
    rows = []
    for target, tau in zip(targets, taus):
        rows.append({"target_beta_bar": target, "tau": tau})
        print(f"beta_bar={format_number(target)} -> tau={tau}")
    if args.output:
        write_csv(rows, args.output)
    return 0


def _cmd_delta_bound(args) -> int:
    if args.full_table:
        for flag, value in (("--n", args.n), ("--beta-bar", args.beta_bar)):
            if value is not None:
                raise ConfigError(f"--full-table runs every n and beta_bar of the table; drop {flag}")
        cells = [(n, b) for n in _DELTA_TABLE_NS for b in _DELTA_TABLE_BETAS]
    else:
        cells = [(2 if args.n is None else args.n, 0.025 if args.beta_bar is None else args.beta_bar)]
    for n, beta_bar in cells:
        check_calibration(beta_bar)
        check_delta_prime(n, args.b, args.bootstrap_reps)
    _check_seed(args.seed)
    betas = list(dict.fromkeys(beta_bar for _, beta_bar in cells))
    rng = np.random.default_rng(args.seed)
    tau = dict(zip(betas, calibrate_tau(betas, DEFAULT_GMM, rng)))
    rows = []
    for n, beta_bar in cells:
        est = estimate_delta_prime(
            n,
            beta_bar,
            tau[beta_bar],
            DEFAULT_GMM,
            B=args.b,
            bootstrap_reps=args.bootstrap_reps,
            rng=copy.deepcopy(rng),
        )
        rows.append(
            {
                "n": n,
                "beta_bar": beta_bar,
                "delta_prime": est.delta_prime_hat,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
                "achieved_b": est.achieved_b,
                "ci_reliable": est.ci_reliable,
            }
        )
        print(
            f"n={n} beta_bar={format_number(beta_bar)}: delta'={format_number(est.delta_prime_hat)} "
            f"CI=[{format_number(est.ci_low)}, {format_number(est.ci_high)}]"
        )
    if args.output:
        write_csv(rows, args.output)
    return 0


def _cmd_counterexample(args) -> int:
    if args.grid < 2:
        raise ConfigError(f"--grid must be at least 2, got {args.grid}")
    grid = np.linspace(0.0, 1.0, args.grid + 2)[1:-1]
    rows = []
    for t1 in grid:
        for t2 in grid:
            if not t1 < t2:
                continue
            res = counterexample_enumerate(float(t1), float(t2), args.alpha)
            rows.append(
                {
                    "theta1": float(t1),
                    "theta2": float(t2),
                    "eff_diff": res.eff1 - res.eff0,
                    "eta_ratio": res.eta1 / res.eta0,
                }
            )
    write_csv(rows, args.output)
    region_a = sum(1 for r in rows if r["eff_diff"] < 0)
    region_b = sum(1 for r in rows if r["eta_ratio"] > 1)
    print(
        f"wrote {len(rows)} grid points to {args.output}; "
        f"{region_a} with eff1<eff0, {region_b} with eta1>eta0"
    )
    return 0


def _cmd_sir(args) -> int:
    state = SirState(args.s0, args.i0, 1.0 - args.s0 - args.i0)
    f = args.f
    if f is None:
        f = critical_frequency(args.b_i, args.b_r, args.sensitivity)
    # simulate before printing, so a rejected run (days < 0) prints nothing
    path = simulate_sir(state, args.b_i, args.b_r, f, args.sensitivity, args.days)
    if args.f is None:
        print(f"using critical frequency f*={format_number(f)}")
    rows = [{"t": st.t, "s": st.s, "i": st.i, "r": st.r} for st in path]
    write_csv(rows, args.output)
    print(f"wrote {len(rows)} days to {args.output}; final i={format_number(path[-1].i)}")
    return 0


def _cmd_optimize(args) -> int:
    config = _build_config(args)
    candidates = _parse_ints(args.candidates)
    tau, results = optimize_pool_size(config, candidates, b_i=args.b_i, b_r=args.b_r)
    payload = {strategy: asdict(r) for strategy, r in results.items()}
    # with the config block these rerun the command from this file alone
    payload["config"] = config.echo(tau)
    payload["candidates"] = sorted(set(candidates))
    payload["b_i"] = args.b_i
    payload["b_r"] = args.b_r
    if "naive" in results and "correlated" in results:
        payload["consumption_reduction"] = consumption_reduction(
            results["naive"].objective, results["correlated"].objective
        )
    if args.output_json:
        write_summary_json(payload, args.output_json)
    for strategy, r in results.items():
        print(
            f"{strategy}: pool_size={r.pool_size} objective={format_number(r.objective)} "
            f"(sensitivity={format_number(r.sensitivity)}, efficiency={format_number(r.efficiency)})"
        )
    if "consumption_reduction" in payload:
        print(f"consumption_reduction={format_number(payload['consumption_reduction'])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrpool",
        description="Pooled PCR testing simulations under household-correlated infections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and report per-strategy metrics")
    _scenario_args(p)
    p.add_argument("--output-json", help="write summary JSON here")
    p.add_argument("--output-csv", help="write per-replication tallies here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="grid of (alpha, pool size) cells to CSV")
    _scenario_args(p)
    p.add_argument("--alphas", required=True, help="comma-separated prevalences")
    p.add_argument("--pool-sizes", required=True, help="comma-separated pool sizes")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("calibrate", help="calibrate detection threshold tau")
    p.add_argument("--beta-bar", required=True, help="comma-separated target FNRs")
    p.add_argument("--draws", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("delta-bound", help="estimate the delta' follow-up-cost bound")
    p.add_argument("--n", type=int, help="pool size (default 2; not with --full-table)")
    p.add_argument("--beta-bar", type=float, help="target individual-test FNR (default 0.025; not with --full-table)")
    p.add_argument("--full-table", action="store_true", help="emit the full n x beta_bar grid")
    p.add_argument("--b", type=int, default=10**6, help="Monte-Carlo sample size")
    p.add_argument("--bootstrap-reps", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_delta_bound)

    p = sub.add_parser("counterexample", help="scan the size-2 counterexample over a theta grid")
    p.add_argument("--grid", type=int, default=50, help="grid points per theta axis")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("sir", help="simulate the screening SIR model")
    p.add_argument("--b-i", type=float, required=True, help="infection rate per day")
    p.add_argument("--b-r", type=float, required=True, help="natural removal rate per day")
    p.add_argument("--sensitivity", type=float, required=True)
    p.add_argument("--f", type=float, help="screening frequency per day (default: critical f*)")
    p.add_argument("--days", type=int, default=180)
    p.add_argument("--s0", type=float, default=0.99)
    p.add_argument("--i0", type=float, default=0.01)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_sir)

    p = sub.add_parser("optimize", help="choose the pool size maximizing sensitivity x efficiency")
    _scenario_args(p)
    p.add_argument("--candidates", required=True, help="comma-separated candidate pool sizes")
    p.add_argument("--b-i", type=float, help="infection rate (for f*)")
    p.add_argument("--b-r", type=float, help="natural removal rate (for f*)")
    p.add_argument("--output-json")
    p.set_defaults(func=_cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleScenarioError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
