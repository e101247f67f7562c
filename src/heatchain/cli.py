"""Command-line interface: scenario orchestration and artifact emission.

    heatchain <subcommand> --config <path> [--out <dir>]

Subcommands: dispersion, coefficients, relax, compare, conductivity, verify.
Each run writes CSV artifacts plus one JSON run report; the output directory
comes from --out, the HEATCHAIN_OUT environment variable, or meta.output_dir
in the config (in that order of precedence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .chain import ModelMatrices, dispersion, mode_grid
from .config import ConfigError, ScenarioConfig, load_config, require_run_keys, run_value
from .continuum import (
    CompareScenario,
    compare_discrete_continuum,
    diffusion_constant,
    klemens_conductivity,
)
from .covariance import FourierGram, PSDViolationError
from .diffusion import (
    gibbs_covariance,
    gibbs_energy_density,
    heat_capacity_density,
    mode_sum_diffusion,
    quad_diffusion,
    source_density,
    thermal_matrices,
)
from .dynamics import (
    evolve,
    gaussian_site_weights,
    hotspot_state,
    sample_grid,
    site_observables,
    uniform_state,
)
from .params import ChainParams
from .report import RunReport, write_csv

OUT_ENV = "HEATCHAIN_OUT"
# The fewest bytes a subcommand holds at once, as counted by `_require_fits`:
# the measured count rounded down, so that no run that fits is refused.
# verify: dense 2N x 2N matrices.  It holds one factored sample at a time and
# its observers read each sample's eigenvalues densely (tracemalloc read 6.19
# and 6.09 such arrays at N = 256 and 512 on the compare_n128 chain).
DENSE_MATRICES = {"verify": 6}
# compare and relax from a hot spot: `FourierGram.window_bytes`; a uniform relax holds no heating
# relax and compare, also: floats per site and sample alive together, the
# observations that evolve collects and the arrays stacked from them (tracemalloc
# read 8.3 and 5.8 for relax at N = 16 and 64 on the relax_hotspot_n64 chain, and
# 12.0 and 11.1 for compare at N = 64 and 256 on the compare_n128 chain, from
# the peaks of runs 88548 and 7922 samples apart)
SAMPLE_FLOATS = {"relax": 5, "compare": 10}
# coefficients and conductivity: float columns of t_steps entries alive together
# in a temperature sweep (tracemalloc read 12.2 (quad) and 13.6 (mode_sum) for
# coefficients and 6.6 for conductivity at t_steps = 4e5, toy coefficients_sweep chain)
SWEEP_COLUMNS = {"coefficients": 12, "conductivity": 6}


def _relax_grid(cfg: ScenarioConfig) -> "tuple[float, float | None, int]":
    """t_final, dt_max and sample_stride of a relax run."""
    require_run_keys(cfg, ["scenario", "t_final"], "relax")
    return run_value(cfg, "t_final"), run_value(cfg, "dt_max"), run_value(cfg, "sample_stride", int, 10)


def _sample_count(command: str, cfg: ScenarioConfig) -> int:
    """The samples that `evolve` takes in a relax or compare run of `cfg` (`dynamics.sample_grid`)."""
    zero = np.zeros(cfg.chain.n_sites)
    matrices = ModelMatrices.of_chain(cfg.chain, zero, zero)  # the grid reads stiffness and friction alone
    if command == "relax":
        t_final, dt_max, stride = _relax_grid(cfg)
    else:
        scenario = _compare_scenario(cfg)
        t_final, dt_max, stride = scenario.t_final, scenario.dt_max, scenario.sample_stride(matrices)
    return len(sample_grid(matrices, t_final, dt_max, stride)[0]) + 1


def _require_fits(command: str, cfg: ScenarioConfig) -> None:
    """Config error, before any allocation, when the fewest bytes that
    `command` holds at once exceed physical memory, for the ring's size
    (`chain.n_sites`), for the samples of a run (`run.t_final`) or for a
    sweep's length (`run.t_steps`)."""
    n = cfg.chain.n_sites
    dense = {c: (k * 8 * (2 * n) ** 2, f"{k} dense 2N x 2N matrices") for c, k in DENSE_MATRICES.items()}
    heated = FourierGram.window_bytes(n)
    # the others: their CSV text is written in chunks (`report.CHUNK_LINES`)
    modes = (8 * 2 * n, "the mode grid and its frequencies, 2 length-N arrays")
    uniform = command == "relax" and str(cfg.run.get("scenario")) != "hotspot"
    need, what = {**dense, "compare": heated, "relax": modes if uniform else heated}.get(command, modes)
    steps, columns = run_value(cfg, "t_steps", int, 0), SWEEP_COLUMNS.get(command, 0)
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    above = f"above the {total / 2**30:.3g} GiB of physical memory"
    problems = []
    if need > total:
        problems.append(f"chain.n_sites: {n} sites need at least {need / 2**30:.3g} GiB "
                        f"for {what}, {above}")
    elif command in SAMPLE_FLOATS:  # counted once the ring fits, as the count builds its symbols
        samples, floats = _sample_count(command, cfg), SAMPLE_FLOATS[command]
        if 8 * floats * n * samples > total:
            problems.append(f"run.t_final: {samples} samples need at least {8 * floats * n * samples / 2**30:.3g} "
                            f"GiB for {floats} N floats each, {above}")
    if 8 * columns * steps > total:
        problems.append(f"run.t_steps: {steps} temperatures need at least "
                        f"{8 * columns * steps / 2**30:.3g} GiB for {columns} columns of the sweep, {above}")
    if problems:
        raise ConfigError(problems)


def _run_choice(cfg: ScenarioConfig, key: str, choices: "tuple[str, str]", default: "str | None" = None) -> str:
    """`cfg.run[key]` (`default` if absent) as a string; ConfigError naming the key unless in `choices`."""
    value = str(cfg.run.get(key, default))
    if value not in choices:
        raise ConfigError([f"run.{key}: expected {choices[0]!r} or {choices[1]!r}, got {value!r}"])
    return value


def _config_echo(cfg: ScenarioConfig) -> dict:
    return {"chain": asdict(cfg.chain), "run": dict(cfg.run), "meta": dict(cfg.meta)}


def _temperature_sweep(cfg: ScenarioConfig, subcommand: str) -> np.ndarray:
    require_run_keys(cfg, ["t_min", "t_max", "t_steps"], subcommand)
    t_min = run_value(cfg, "t_min")
    t_max = run_value(cfg, "t_max")
    steps = run_value(cfg, "t_steps", int)
    if steps < 1:
        raise ConfigError(["run.t_steps: must be >= 1"])
    scale = _run_choice(cfg, "scale", ("linear", "log"), "linear")
    bounds = {"t_min": t_min} if steps == 1 else {"t_min": t_min, "t_max": t_max}
    log = steps > 1 and scale == "log"
    bad = [f"run.{key}: must be {'> 0 for log scale' if log else '>= 0'}, got {value}"
           for key, value in bounds.items() if value < 0 or (log and value == 0)]
    if bad:
        raise ConfigError(bad)
    if steps == 1:
        return np.array([t_min])
    return np.geomspace(t_min, t_max, steps) if log else np.linspace(t_min, t_max, steps)


def cmd_dispersion(cfg: ScenarioConfig, outdir: Path) -> RunReport:
    p = cfg.chain
    q = np.sort(mode_grid(p))
    w = dispersion(p, q)
    path = write_csv(outdir / "dispersion.csv", ["q", "omega"], [q, w])
    summary = {
        "omega_zone_edge": float(dispersion(p, np.pi)),
        "omega_zone_center": float(dispersion(p, 0.0)),
        "sound_speed": p.sound_speed,
    }
    return RunReport("dispersion", _config_echo(cfg), summary, artifacts=[str(path)])


def cmd_coefficients(cfg: ScenarioConfig, outdir: Path) -> RunReport:
    p = cfg.chain
    temps = _temperature_sweep(cfg, "coefficients")
    method = _run_choice(cfg, "method", ("quad", "mode_sum"), "quad")
    diff = quad_diffusion(p, temps) if method == "quad" else mode_sum_diffusion(p, temps)
    columns = (temps, diff.d_xx, diff.d_pp, diff.d_ex, source_density(p, diff),
               gibbs_energy_density(p, temps), heat_capacity_density(p, temps))
    path = write_csv(outdir / "coefficients.csv", ["T", "D_xx", "D_pp", "D_ex", "s", "u_eq", "C"], columns)
    newton = 2.0 * p.lambda_fric * p.k_boltz * float(temps[-1])  # the high-T limit of s a, 0 at T = 0
    summary = {
        "temperatures": len(temps),
        "method": method,
        "source_over_newton_limit_at_t_max": float(columns[4][-1]) * p.lattice_const / newton if newton else None,
    }
    return RunReport("coefficients", _config_echo(cfg), summary, artifacts=[str(path)])


def _relax_start(cfg: ScenarioConfig, p: ChainParams):
    """The initial state of a relax run, as its config's scenario describes it."""
    scenario = _run_choice(cfg, "scenario", ("uniform", "hotspot"))
    require_run_keys(cfg, ["t_hot"], "relax")
    t_hot = run_value(cfg, "t_hot")
    if scenario == "uniform":
        return uniform_state(p, t_hot)
    t_cold = run_value(cfg, "t_cold", float, p.bath_temp)
    if "hotspot_width" in cfg.run:
        if "hot_sites" in cfg.run:
            raise ConfigError(["run.hot_sites, run.hotspot_width: a hot spot takes one of them, not both"])
        weights = gaussian_site_weights(p.n_sites, p.n_sites / 2.0, run_value(cfg, "hotspot_width"))
    else:
        require_run_keys(cfg, ["hot_sites"], "relax")
        count = run_value(cfg, "hot_sites", int)
        if not 0 < count <= p.n_sites:
            raise ConfigError(["run.hot_sites: must be in (0, n_sites]"])
        weights = np.zeros(p.n_sites)
        start = (p.n_sites - count) // 2
        weights[start : start + count] = 1.0
    mode = _run_choice(cfg, "hotspot_mode", ("thermal", "diagonal"), "thermal")
    return hotspot_state(p, t_cold, t_hot, weights, mode=mode)


def cmd_relax(cfg: ScenarioConfig, outdir: Path) -> RunReport:
    p = cfg.chain
    t_final, dt_max, stride = _relax_grid(cfg)

    last = []

    def observer(state):
        last[:] = [state]  # its deviation from Gibbs is read below
        obs = site_observables(state, p)
        return obs.energies, obs.currents, obs.total_energy

    traj = evolve(_relax_start(cfg, p), thermal_matrices(p), t_final=t_final, dt_max=dt_max,
                  sample_stride=stride, observer=observer)
    energies, currents, u = (np.array(c) for c in zip(*traj.observations))
    path = write_csv(outdir / "relax_sites.csv", ["t", "k", "E_k", "J_k", "u_k"],
                     [traj.times[:, None], np.arange(p.n_sites), energies, currents,
                      energies / p.lattice_const])

    u_eq = p.n_sites * p.lattice_const * gibbs_energy_density(p, p.bath_temp)
    mask = np.abs(u - u_eq) > 1e-300
    slope = np.nan
    if mask.sum() >= 2:
        a = np.vstack([traj.times[mask], np.ones(mask.sum())]).T
        slope = float(np.linalg.lstsq(a, np.log(np.abs(u[mask] - u_eq)), rcond=None)[0][0])
    final_dev = last[0].max_deviation(gibbs_covariance(p, p.bath_temp))
    summary = {
        "decay_rate_fit": -slope,
        "decay_rate_expected": 2.0 * p.lambda_fric,
        "total_energy_initial": float(u[0]),
        "total_energy_equilibrium": u_eq,
        "final_max_deviation_from_gibbs": final_dev,
    }
    return RunReport("relax", _config_echo(cfg), summary, artifacts=[str(path)])


def _compare_scenario(cfg: ScenarioConfig) -> CompareScenario:
    require_run_keys(cfg, ["hotspot_width", "t_hot", "t_cold", "t_final"], "compare")
    return CompareScenario(
        t_hot=run_value(cfg, "t_hot"),
        t_cold=run_value(cfg, "t_cold"),
        width_sites=run_value(cfg, "hotspot_width"),
        t_final=run_value(cfg, "t_final"),
        hotspot_mode=_run_choice(cfg, "hotspot_mode", ("thermal", "diagonal"), "thermal"),
        dt_max=run_value(cfg, "dt_max"),
        sample_interval=run_value(cfg, "sample_interval"),
        fit_t_min=run_value(cfg, "fit_t_min"),
        fit_t_max=run_value(cfg, "fit_t_max"),
    )


def cmd_compare(cfg: ScenarioConfig, outdir: Path) -> RunReport:
    p = cfg.chain
    rep = compare_discrete_continuum(p, _compare_scenario(cfg))

    t, k = rep.times[:, None], np.arange(p.n_sites)
    chain_path = write_csv(outdir / "compare_chain.csv", ["t", "k", "u_k", "J_k"], [t, k, rep.u_disc, rep.j_disc])
    pde_path = write_csv(outdir / "compare_pde.csv", ["t", "x", "u"], [t, k * p.lattice_const, rep.u_pde])
    dev_path = write_csv(outdir / "compare_deviation.csv", ["t", "dev_field", "dev_transient", "slope_per_time"],
                         [rep.times, rep.dev_field, rep.dev_transient, rep.slope_per_time])

    summary = {
        "max_dev_field": rep.max_dev_field,
        "max_dev_transient": float(np.max(rep.dev_transient)),
        "fourier_fit_slope": rep.fit_slope,
        "predicted_diff_const": rep.diff_const,
        "slope_over_predicted": rep.slope_ratio,
        "u_eq": rep.u_eq,
    }
    return RunReport(
        "compare",
        _config_echo(cfg),
        summary,
        warnings=list(rep.warnings),
        artifacts=[str(chain_path), str(pde_path), str(dev_path)],
    )


def cmd_conductivity(cfg: ScenarioConfig, outdir: Path) -> RunReport:
    p = cfg.chain
    temps = _temperature_sweep(cfg, "conductivity")
    velocity = _run_choice(cfg, "velocity", ("sound", "dispersion"), "sound")
    c = heat_capacity_density(p, temps)
    diff = diffusion_constant(p)
    columns = (temps, c, diff * c, klemens_conductivity(p, temps, velocity=velocity), np.full_like(temps, diff))
    path = write_csv(outdir / "conductivity.csv", ["T", "C", "kappa_continuum", "kappa_klemens", "sigma"], columns)
    summary = {
        "range_b": p.propagation_range,
        "eff_velocity": p.sound_speed,
        "diff_const": diff,
        "velocity_convention": velocity,
    }
    return RunReport("conductivity", _config_echo(cfg), summary, artifacts=[str(path)])


def cmd_verify(cfg: "ScenarioConfig | None", outdir: Path) -> RunReport:
    from .verify import DEFAULT_PARAMS, run_verify  # here, so that only verify compiles and loads it

    params = cfg.chain if cfg is not None else DEFAULT_PARAMS
    seed = cfg.seed if cfg is not None else 1234
    results = run_verify(params, seed=seed)
    for res in results:
        print(res.line())
    criteria = [
        {"name": r.name, "passed": r.passed, "value": r.value, "tolerance": r.tolerance,
         "detail": r.detail}
        for r in results
    ]
    summary = {
        "checks_total": len(results),
        "checks_passed": sum(r.passed for r in results),
    }
    echo = _config_echo(cfg) if cfg is not None else {"chain": asdict(params), "run": {}, "meta": {}}
    return RunReport("verify", echo, summary, criteria=criteria)


COMMANDS = {
    "dispersion": cmd_dispersion,
    "coefficients": cmd_coefficients,
    "relax": cmd_relax,
    "compare": cmd_compare,
    "conductivity": cmd_conductivity,
    "verify": cmd_verify,
}


def _error_record(kind: str, message, code: int) -> int:
    record = {"error": kind, "detail": message}
    print(json.dumps(record), file=sys.stderr)
    return code


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatchain",
        description="Heat transport in a damped harmonic ring: moment dynamics, "
        "bath coefficients, and the continuum heat equation.",
    )
    parser.add_argument("--version", action="version", version=f"heatchain {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} workflow")
        sp.add_argument("--config", required=(name != "verify"), default=None,
                        help="path to the scenario configuration file")
        sp.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config is not None else None
    except ConfigError as exc:
        return _error_record("config", exc.problems, 2)

    outdir = Path(args.out or os.environ.get(OUT_ENV) or (cfg.output_dir if cfg is not None else "out"))

    try:
        outdir.mkdir(parents=True, exist_ok=True)
        if cfg is not None:
            _require_fits(args.subcommand, cfg)
        report = COMMANDS[args.subcommand](cfg, outdir)
        report_path = report.write(outdir / f"{args.subcommand}_report.json")
    except ConfigError as exc:
        return _error_record("config", exc.problems, 2)
    # OSError: an output directory or artifact that cannot be written
    except (PSDViolationError, ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        return _error_record(type(exc).__name__, str(exc), 3)
    except MemoryError as exc:  # NumPy's allocation failures among them
        return _error_record("MemoryError", str(exc) or "out of memory", 3)

    print(f"wrote {report_path}")
    for artifact in report.artifacts:
        print(f"wrote {artifact}")
    failed = [c for c in report.criteria or [] if not c["passed"]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
