#!/usr/bin/env python3
"""The heatchain benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout.  The package is imported from
./src; nothing is built or installed.  BLAS threads are pinned to
min(2, nproc) before numpy loads.

Each run of a workload is one `heatchain.cli.main` call on the workload's
config from benchmarks/configs/ (each config says why the workload was
chosen).  Runs go closed loop with one caller: the next run starts when the
previous one has returned, until --seconds have passed (at least MIN_RUNS
runs).  Every run's outputs pass through gate.py; a run that fails it counts
as failed.  BENCHMARK.json lists compare_n128 and coefficients_sweep;
relax_hotspot_n64 runs only when named (see its config).

--trace 0 prints the end-to-end metrics:
  wall_s       wall time of one run, on the reference host scale (below)
  setup_s      wall time of a fresh interpreter that imports heatchain.cli
               and loads the workload config, on the same scale
  peak_rss_mb  peak resident memory of this process after its first run,
               which is of the current sources and precedes any reference
               run (--workload all starts one process per workload)
  error_rate   failed runs over attempted runs; it is also carried by the
               "failed" and "attempted" fields of the result line

The reference host scale.  The shared host the benchmark was tuned on
changes speed by up to 1.6x over 10-20 minutes, for the program, for a
fresh interpreter and for a fixed pure-Python loop alike (CPU time slows
with wall time), so raw times of runs made minutes apart differ by more
than any bound could allow.  The window therefore alternates each run of
the current sources with a run of reference/heatchain_ref, a frozen copy
of the package, on the same config, and each setup interpreter with one
that imports the copy (every second cycle), swapping which goes first.  A
host slowdown slows both sides of a pair alike; a change to src/ moves
only the current side.  wall_s is the median over the window of
current/reference wall, the first (warm-up) pair left out, times the
workload's `ref_wall_s`, the reference's wall time measured on the tuning
host (2 vCPUs, Intel Xeon, see the result files' environment); setup_s is
the median setup ratio times REF_SETUP_S.  The raw medians of both sides
are printed and kept in the result files.

--trace 1 alternates untraced and traced runs and prints the per-layer
metrics of `layer_metrics` (spans.py records them), the tracing overhead
(traced minus untraced median wall) and the share of the untraced median
wall that the top-level spans cover.

The seed jitters only physical inputs that leave the amount of work
unchanged (temperatures, hotspot width, sweep end points; never N, t_final,
strides, step counts, lambda, omega0 or xi).  It selects one of VARIANTS
input variants: seed 0 is the canonical config, any other seed one of the
variants 1..VARIANTS-1, each scaling the workload's `jitter` inputs by
factors drawn from [1 - JITTER, 1 + JITTER].  gate.py compares each variant
with references recorded by record_references.py.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Results, with the environment they were measured in,
are written under .bench_out/results/; the spans of the last traced run go
next to them.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import configparser
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "heatchain" / "cli.py").is_file():
    sys.exit(f"run.py: no heatchain sources under {SRC}; run from the root of a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np

import heatchain
import heatchain.cli as cli
import heatchain.continuum
import heatchain.dynamics
import heatchain.report
from heatchain.config import load_config

import gate
import spans

MIN_RUNS = 3
VARIANTS = 16
JITTER = 0.1
REFERENCE = BENCH / "reference"
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import {package}.cli; "
    "{package}.cli.load_config(sys.argv[2])"
)
REF_SETUP_S = 0.80  # reference setup interpreter on the tuning host


@dataclass(frozen=True)
class Workload:
    subcommand: str
    jitter: "tuple[str, ...]"  # "section.key" inputs the seed may scale
    ref_wall_s: float  # reference wall time of one run on the tuning host


WORKLOADS = {
    "compare_n128": Workload("compare", ("run.t_cold", "run.t_hot", "run.hotspot_width"), 3.6),
    "relax_hotspot_n64": Workload("relax", ("run.t_cold", "run.t_hot", "run.hotspot_width"), 3.4),
    "coefficients_sweep": Workload("coefficients", ("run.t_min", "run.t_max"), 2.1),
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def variant_of(seed: int) -> int:
    return 0 if seed == 0 else 1 + (seed - 1) % (VARIANTS - 1)


def _read_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not parser.read(path):
        raise BenchmarkError(f"cannot read workload config {path}")
    return parser


def workload_inputs(config: Path, workload: Workload, variant: int) -> "dict[str, float]":
    """The jittered inputs of one variant; variant 0 keeps the canonical values."""
    parser = _read_ini(config)
    n = len(workload.jitter)
    factors = np.random.default_rng(variant).uniform(1.0 - JITTER, 1.0 + JITTER, n) if variant else np.ones(n)
    inputs = {}
    for key, factor in zip(workload.jitter, factors):
        section, name = key.split(".")
        inputs[key] = float(parser[section][name]) * float(factor)
    return inputs


def prepare(name: str, config: Path, inputs: "dict[str, float]") -> "tuple[Path, Path]":
    """Write the workload config with `inputs` applied; return it and the output dir.

    Files go to .bench_out/<config dir>/<workload>/, so toy runs of the
    self-test never share a directory with the real workloads.
    """
    parser = _read_ini(config)
    for key, value in inputs.items():
        section, option = key.split(".")
        parser[section][option] = repr(value)
    workdir = OUT / config.parent.name / name
    outdir = workdir / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "config.ini"
    with path.open("w", encoding="utf-8") as fh:
        parser.write(fh)
    return path, outdir


def run_once(workload: Workload, config: Path, outdir: Path, main=cli.main) -> "tuple[float, object]":
    """One CLI run; returns its wall time and exit code (an exception's name if it raised)."""
    for old in outdir.iterdir():
        old.unlink()
    argv = [workload.subcommand, "--config", str(config), "--out", str(outdir)]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except Exception as exc:  # a crashing run is a failed run, not a dead benchmark
        traceback.print_exc()
        code = type(exc).__name__
    return time.perf_counter() - start, code


def measure_setup(config: Path, package: str = "heatchain", path: Path = SRC) -> float:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(package=package), str(path), str(config)],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"setup interpreter failed:\n{proc.stderr}")
    return elapsed


def reference_main():
    """The frozen reference copy's CLI entry point, imported on first use."""
    if str(REFERENCE) not in sys.path:
        sys.path.insert(0, str(REFERENCE))
    import heatchain_ref.cli

    return heatchain_ref.cli.main


def trace_points() -> "list[spans.TracePoint]":
    """Public functions of each layer, wrapped where their callers look them up."""
    dyn, cont, rep = heatchain.dynamics, heatchain.continuum, heatchain.report

    def trajectory(traj) -> dict:
        retained = sum(s.sigma.nbytes for s in traj.states) if traj.states else 0
        return {"samples": len(traj.times), "retained_bytes": retained}

    def csv_file(path) -> dict:
        return {"bytes": path.stat().st_size}

    P = spans.TracePoint
    points = [
        P(cli, "load_config", "config.load"),
        P(cli, "compare_discrete_continuum", "continuum.compare"),
        P(cli, "evolve", "dynamics.evolve", trajectory),
        P(cont, "evolve", "dynamics.evolve", trajectory),
        P(dyn, "check_psd", "covariance.check_psd"),
        P(cli, "site_observables", "dynamics.observables"),
        P(cont, "site_observables", "dynamics.observables"),
        P(cli, "quad_diffusion", "diffusion.quad"),
        P(cli, "write_csv", "report.csv", csv_file),
        P(rep.RunReport, "write", "report.json"),
    ]
    for owner in (cli, cont):
        points += [P(owner, f, "dynamics.init_state") for f in ("hotspot_state", "gaussian_site_weights")]
    points.append(P(cli, "uniform_state", "dynamics.init_state"))
    thermal = {
        cli: ("thermal_matrices", "gibbs_covariance", "gibbs_energy_density",
              "heat_capacity_density", "source_density", "mode_sum_diffusion"),
        cont: ("thermal_matrices", "gibbs_energy_density", "heat_capacity_density"),
        dyn: ("gibbs_covariance",),
    }
    for owner, names in thermal.items():
        points += [P(owner, f, "diffusion.thermal") for f in names]
    points += [P(cli.COMMANDS, name, "cli.command") for name in cli.COMMANDS]
    return points


def layer_metrics(span_list: "list[spans.Span]") -> "dict[str, tuple[float, str]]":
    """Per-layer metrics of one traced run; times are self times."""
    totals = spans.layer_totals(span_list)

    def layer(name: str) -> spans.LayerTotals:
        return totals.get(name, spans.LayerTotals())

    evolve = layer("dynamics.evolve")
    return {
        "dynamics.evolve_self_s": (evolve.self_s, "s"),
        "dynamics.samples": (evolve.attrs.get("samples", 0), "count"),
        "dynamics.retained_state_mb": (evolve.attrs.get("retained_bytes", 0) / 1e6, "MB"),
        "dynamics.observables_s": (layer("dynamics.observables").self_s, "s"),
        "dynamics.observables_calls": (layer("dynamics.observables").calls, "count"),
        "dynamics.init_state_s": (layer("dynamics.init_state").self_s, "s"),
        "covariance.check_psd_s": (layer("covariance.check_psd").self_s, "s"),
        "covariance.check_psd_calls": (layer("covariance.check_psd").calls, "count"),
        "continuum.compare_self_s": (layer("continuum.compare").self_s, "s"),
        "diffusion.quad_s": (layer("diffusion.quad").self_s, "s"),
        "diffusion.quad_calls": (layer("diffusion.quad").calls, "count"),
        "diffusion.thermal_s": (layer("diffusion.thermal").self_s, "s"),
        "diffusion.thermal_calls": (layer("diffusion.thermal").calls, "count"),
        "report.csv_s": (layer("report.csv").self_s, "s"),
        "report.csv_bytes": (layer("report.csv").attrs.get("bytes", 0), "bytes"),
        "report.json_s": (layer("report.json").self_s, "s"),
        "cli.self_s": (layer("cli.command").self_s, "s"),
        "config.load_s": (layer("config.load").self_s, "s"),
    }


def expected_samples(subcommand: str, ref: dict, n_sites: int) -> int:
    if subcommand == "compare":
        return ref["rows"]["compare_deviation.csv"]
    if subcommand == "relax":
        return ref["rows"]["relax_sites.csv"] // n_sites
    return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_runtime_threads() -> "int | None":
    """Thread count reported by the OpenBLAS that numpy bundles, if it is one."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit() -> "str | None":
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    pkg = SRC / "heatchain"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".json")):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {"pinned": BLAS_THREADS, "runtime": _blas_runtime_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "heatchain": {
            "version": heatchain.__version__,
            "commit": _git_commit(),
            "source_sha256": _source_digest(),
        },
    }


class Runner:
    """Runs one workload variant and checks every run with the gate."""

    def __init__(self, name: str, seed: int, configs: Path, references: dict):
        if name not in WORKLOADS:
            raise BenchmarkError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.variant = variant_of(seed)
        self.inputs = workload_inputs(configs / f"{name}.ini", self.workload, self.variant)
        try:
            self.ref = references[name][str(self.variant)]
        except KeyError:
            raise BenchmarkError(f"no reference for {name} variant {self.variant}") from None
        if self.ref["inputs"] != self.inputs:
            raise BenchmarkError(
                f"references for {name} variant {self.variant} were recorded for inputs "
                f"{self.ref['inputs']}, not {self.inputs}; re-record them"
            )
        self.config, self.outdir = prepare(name, configs / f"{name}.ini", self.inputs)
        self.n_sites = load_config(self.config).chain.n_sites
        self.attempted = 0
        self.problems: "list[str]" = []

    def run(self) -> float:
        wall, code = run_once(self.workload, self.config, self.outdir)
        self._record(gate.check(self.workload.subcommand, self.outdir, code, self.config, self.ref))
        return wall

    def _record(self, problems: "list[str]") -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"run {self.attempted}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.problems)

    def reference_run(self) -> float:
        wall, code = run_once(self.workload, self.config, self.outdir, reference_main())
        if code != 0:
            raise BenchmarkError(f"the reference copy failed on {self.name} (exit {code})")
        return wall

    def end_to_end(self, seconds: float) -> "tuple[dict, dict]":
        start = time.perf_counter()
        walls = [self.run()]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        ref_walls = [self.reference_run()]
        setups: "list[float]" = []
        ref_setups: "list[float]" = []
        last = 0.0
        while time.perf_counter() - start + last < seconds or len(walls) < MIN_RUNS:
            begin = time.perf_counter()
            if len(walls) % 2:  # swap which side of a pair goes first
                ref_walls.append(self.reference_run())
                walls.append(self.run())
            else:
                walls.append(self.run())
                ref_walls.append(self.reference_run())
            if len(walls) % 2 == 0:  # a setup pair every second cycle
                pair = [(setups, {}), (ref_setups, {"package": "heatchain_ref", "path": REFERENCE})]
                for times, where in pair[:: 1 if len(setups) % 2 else -1]:
                    times.append(measure_setup(self.config, **where))
            last = time.perf_counter() - begin
        # the first pair is the warm-up: lazy imports and cold caches
        wall_ratio = statistics.median(w / r for w, r in zip(walls[1:], ref_walls[1:]))
        setup_ratio = statistics.median(s / r for s, r in zip(setups, ref_setups))
        metrics = {
            "wall_s": (wall_ratio * self.workload.ref_wall_s, "s"),
            "setup_s": (setup_ratio * REF_SETUP_S, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        detail = {"walls_s": walls, "reference_walls_s": ref_walls,
                  "setups_s": setups, "reference_setups_s": ref_setups}
        return metrics, detail

    def traced(self, seconds: float) -> "tuple[dict, dict]":
        tracer = spans.Tracer(trace_points())
        walls: "list[float]" = []
        traced_walls: "list[float]" = []
        per_run: "list[dict]" = []
        covered: "list[float]" = []
        start = time.perf_counter()
        last = 0.0
        while time.perf_counter() - start + last < seconds or len(walls) < MIN_RUNS:
            begin = time.perf_counter()
            walls.append(self.run())
            tracer.reset()
            with tracer:
                wall, code = run_once(self.workload, self.config, self.outdir)
            traced_walls.append(wall)
            layers = layer_metrics(tracer.spans)
            problems = gate.check(self.workload.subcommand, self.outdir, code, self.config, self.ref)
            want = expected_samples(self.workload.subcommand, self.ref, self.n_sites)
            if layers["dynamics.samples"][0] != want:
                problems.append(f"dynamics.samples = {layers['dynamics.samples'][0]}, expected {want}")
            self._record(problems)
            per_run.append(layers)
            covered.append(spans.top_level_time(tracer.spans))
            last = time.perf_counter() - begin
        wall = statistics.median(walls)
        metrics = {
            name: (statistics.median_low(run[name][0] for run in per_run), unit)
            for name, (_, unit) in per_run[0].items()
        }
        metrics["trace.overhead_s"] = (statistics.median(traced_walls) - wall, "s")
        metrics["trace.span_share"] = (100.0 * statistics.median(covered) / wall, "%")
        spans.write_spans(tracer.spans, OUT / "results" / f"{self.name}-seed{self.seed}-spans.json")
        detail = {"untraced_walls_s": walls, "traced_walls_s": traced_walls, "untraced_wall_s": wall}
        return metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: int, configs: Path, references: dict) -> int:
    runner = Runner(name, seed, configs, references)
    if trace:
        metrics, detail = runner.traced(seconds)
    else:
        metrics, detail = runner.end_to_end(seconds)
    correct = runner.failed == 0

    print(f"workload {name}  seed {seed} (input variant {runner.variant})  "
          f"{'traced' if trace else 'untraced'}, closed loop, one caller")
    print("  inputs " + ", ".join(f"{k} = {v:.6g}" for k, v in runner.inputs.items()))
    env = environment()
    print(f"  environment: {env['nproc']} CPUs ({env['cpu_model']}), {env['blas']['name']} "
          f"{env['blas']['version']} with {env['blas_threads']['runtime']} threads, "
          f"Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"heatchain {env['heatchain']['version']} ({env['heatchain']['source_sha256'][:12]})")
    for metric, (value, unit) in metrics.items():
        note = ""
        if metric == "wall_s":
            note = (f"  ({len(detail['walls_s'])} runs; raw median {statistics.median(detail['walls_s']):.4g} s,"
                    f" reference {statistics.median(detail['reference_walls_s']):.4g} s)")
        elif metric == "setup_s":
            note = (f"  ({len(detail['setups_s'])} interpreters; raw median"
                    f" {statistics.median(detail['setups_s']):.4g} s,"
                    f" reference {statistics.median(detail['reference_setups_s']):.4g} s)")
        elif trace and unit == "s" and metric != "trace.overhead_s":
            note = f"  ({100.0 * value / detail['untraced_wall_s']:.1f}% of the untraced median wall)"
        print(f"  {metric:<28} {value:.6g} {unit}{note}")
    print(f"  {'error_rate':<28} {runner.failed / runner.attempted:.6g} ratio"
          f"  ({runner.failed} of {runner.attempted} runs failed)")
    for problem in runner.problems:
        print(f"FAILED {name}: {problem}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "variant": runner.variant,
        "inputs": runner.inputs,
        "trace": trace,
        "seconds": seconds,
        **result,
        "problems": runner.problems,
        "detail": detail,
        "environment": env,
    }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a process of its own, so peak_rss_mb is that workload's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--configs", str(args.configs), "--references", str(args.references)]
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"run.py: workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--configs", type=Path, default=BENCH / "configs",
                        help="directory of <workload>.ini files (the self-test uses configs/toy)")
    parser.add_argument("--references", type=Path, default=BENCH / "references.json")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        references = json.loads(args.references.read_text())["workloads"]
        return run_workload(args.workload, args.seed, args.seconds, args.trace,
                            args.configs, references)
    except (BenchmarkError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
