import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heatchain
import heatchain.cli
import heatchain.continuum
import heatchain.diffusion
from heatchain import (
    gibbs_energy_density,
    heat_capacity_density,
    klemens_conductivity,
    step_bound,
    thermal_matrices,
    transport_coefficients,
)
from heatchain.cli import main
from heatchain.config import ConfigError, load_config
from heatchain.report import CHUNK_VALUES, RunReport, validate_report, write_csv
from heatchain.verify import CheckResult, check_conservation, check_energy_decay

BASE_CONFIG = """\
[chain]
n_sites = 16
mass = 1.0
omega0 = 1.0
xi = 1.0
lattice_const = 1.0
lambda = 0.1
gamma = 0.0
bath_temp = 2.0
"""


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path


def read_report(path):
    """A run report parsed as strict JSON: NaN and Infinity are refused."""
    def refuse(name):
        raise ValueError(f"{path.name}: {name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def read_csv_columns(path):
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), map(list, zip(*(map(float, r.split(",")) for r in rows)))))


class TestConfig:
    def test_roundtrip_with_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE_CONFIG + "\n[meta]\nseed = 7\n"))
        assert cfg.chain.n_sites == 16
        assert cfg.chain.hbar == 1.0 and cfg.chain.k_boltz == 1.0
        assert cfg.seed == 7
        assert cfg.output_dir == "out"

    def test_missing_keys_all_reported(self, tmp_path):
        path = write_config(tmp_path, "[chain]\nn_sites = 8\nmass = 1.0\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        text = " ".join(err.value.problems)
        for key in ("omega0", "xi", "lattice_const", "lambda", "gamma", "bath_temp"):
            assert f"chain.{key}" in text

    def test_unknown_and_invalid_keys_reported(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.replace("mass = 1.0", "mass = heavy")
                            + "banana = 3\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        text = " ".join(err.value.problems)
        assert "chain.mass" in text
        assert "chain.banana" in text

    def test_fractional_count_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.replace("n_sites = 16", "n_sites = 16.5"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.problems == ["chain.n_sites: cannot parse '16.5' as int"]

    def test_physical_validation_propagates(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.replace("gamma = 0.0", "gamma = 0.2"))
        with pytest.raises(ConfigError, match="gamma"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")


class TestReport:
    def test_shortest_roundtrip_formatting(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", ["x", "k"], [[0.1, 1.0 / 3.0, np.pi], np.array([3, 4, 5])])
        lines = path.read_text().splitlines()
        assert lines[:3] == ["x,k", "0.1,3", "0.3333333333333333,4"]
        assert float(lines[3].split(",")[0]) == np.pi

    def test_column_writer_matches_rowwise_formatting(self, tmp_path):
        # one float column of awkward values, an int column, and a samples x
        # sites table whose per-sample and per-site columns broadcast
        floats = np.array([-1.5, 1e-300, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                           3.0, -0.0, 0.0, 0.1, 1.0 / 3.0, -123456789.0, 1e16, 1e22, -7e-7,
                           np.nan, np.inf, -np.inf])
        ints = np.arange(floats.size) - 5
        path = write_csv(tmp_path / "c.csv", ["k", "x", "y"], [ints, floats, floats[::-1]])
        want = "k,x,y\n" + "".join(f"{str(k)},{repr(x)},{repr(y)}\n" for k, x, y in
                                    zip(ints.tolist(), floats.tolist(), floats[::-1].tolist()))
        assert path.read_bytes() == want.encode()

        times, table = floats[:4], np.outer(floats[:4], floats[9:14])
        path = write_csv(tmp_path / "t.csv", ["t", "k", "u"], [times[:, None], np.arange(5), table])
        want = "t,k,u\n" + "".join(f"{repr(float(t))},{k},{repr(float(table[i, k]))}\n"
                                    for i, t in enumerate(times) for k in range(5))
        assert path.read_bytes() == want.encode()

    def test_chunked_table_matches_one_shot_formatting(self, tmp_path):
        # a samples x sites table crossing at least two chunk boundaries, with a
        # per-sample float column, a per-site int column and full-size float
        # columns of awkward values: four columns, so chunks of CHUNK_VALUES // 4 lines
        n, lines = 64, CHUNK_VALUES // 4
        samples = 2 * lines // n + 3
        rng = np.random.default_rng(7)
        times = rng.standard_normal((samples, 1))
        special = np.resize([-0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, -1e300], (samples, n))
        noise = rng.standard_normal((samples, n)) * 1e-3
        path = write_csv(tmp_path / "t.csv", ["t", "k", "a", "b"], [times, np.arange(n), special, noise])
        want = "t,k,a,b\n" + "".join(
            f"{repr(t)},{k},{repr(a)},{repr(b)}\n"
            for (t,), srow, nrow in zip(times.tolist(), special.tolist(), noise.tolist())
            for k, a, b in zip(range(n), srow, nrow))
        assert samples * n > 2 * lines
        assert path.read_bytes() == want.encode()

    def test_empty_and_zero_dimensional_tables(self, tmp_path):
        path = write_csv(tmp_path / "e.csv", ["t", "k"], [np.zeros((0, 1)), np.arange(5)])
        assert path.read_bytes() == b"t,k\n"
        path = write_csv(tmp_path / "z.csv", ["c", "k"], [np.float64(-0.0), np.arange(3)])
        assert path.read_bytes() == b"c,k\n-0.0,0\n-0.0,1\n-0.0,2\n"
        path = write_csv(tmp_path / "s.csv", ["c"], [np.float64(5e-324)])
        assert path.read_bytes() == b"c\n5e-324\n"

    def test_csv_memory_does_not_grow_with_the_table(self, tmp_path):
        # 102400 lines, 100 chunks; the writer holds one chunk's text at a time
        # (0.3 MB measured), where formatting the whole table at once read tens of MB
        n = 64
        samples = 1600
        times = np.linspace(0.0, 1.0, samples)[:, None]
        rng = np.random.default_rng(3)
        energies, currents = rng.standard_normal((2, samples, n))
        tracemalloc.start()
        try:
            path = write_csv(tmp_path / "m.csv", ["t", "k", "E_k", "J_k"],
                             [times, np.arange(n), energies, currents])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 4e6 and samples * n > 50 * CHUNK_VALUES // 4
        assert peak < 1e6

    def test_csv_deterministic_bytes(self, tmp_path):
        columns = [[0.1, 2.0], [1 / 3, np.pi]]
        p1 = write_csv(tmp_path / "a.csv", ["x", "y"], columns)
        p2 = write_csv(tmp_path / "b.csv", ["x", "y"], columns)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "x,y"

    def test_report_schema_roundtrip(self, tmp_path):
        rep = RunReport("dispersion", {"chain": {}}, {"value": 1.0})
        path = rep.write(tmp_path / "r.json")
        data = read_report(path)
        assert validate_report(data) == []

    def test_undefined_numbers_are_written_as_null(self, tmp_path):
        # a NaN or infinite summary or criterion value is written as null, which
        # the schema accepts for a criterion's value; a string there is refused
        criteria = [{"name": "c", "passed": False, "value": np.nan, "tolerance": 1.0, "detail": ""}]
        rep = RunReport("verify", {"chain": {}}, {"slope": np.float64(np.nan), "rate": -np.inf,
                                                  "pair": (1.0, np.inf), "n": 3}, criteria=criteria)
        data = read_report(rep.write(tmp_path / "r.json"))
        assert data["summary"] == {"slope": None, "rate": None, "pair": [1.0, None], "n": 3}
        assert data["criteria"][0]["value"] is None and validate_report(data) == []
        data["criteria"][0]["value"] = "nan"
        assert validate_report(data) == ["report.criteria[0].value: expected number"]

    def test_schema_catches_missing_fields(self):
        assert any("summary" in p for p in validate_report({"schema_version": "1"}))
        bad = RunReport("x", {}, {}).to_dict()
        bad["warnings"] = "not a list"
        assert any("warnings" in p for p in validate_report(bad))


class TestCli:
    def test_dispersion_zone_edge_value(self, tmp_path):
        body = BASE_CONFIG.replace("omega0 = 1.0", "omega0 = 0.0").replace(
            "n_sites = 16", "n_sites = 64")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["dispersion", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "dispersion.csv").read_text().splitlines()
        assert lines[0] == "q,omega"
        rows = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        q_edge = max(rows)
        assert q_edge == pytest.approx(np.pi)
        assert rows[q_edge] == pytest.approx(2.0, rel=1e-12)
        report = read_report(out / "dispersion_report.json")
        assert validate_report(report) == []

    def test_coefficients_single_row_newton_ratio(self, tmp_path):
        temp = 50.0 * np.sqrt(5.0)
        body = BASE_CONFIG + f"\n[run]\nt_min = {temp}\nt_max = {temp}\nt_steps = 1\n"
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["coefficients", "--config", str(cfg), "--out", str(out)]) == 0
        header, row = (out / "coefficients.csv").read_text().splitlines()
        assert header == "T,D_xx,D_pp,D_ex,s,u_eq,C"
        vals = dict(zip(header.split(","), map(float, row.split(","))))
        ratio = vals["s"] * 1.0 / (2 * 0.1 * vals["T"])
        assert ratio == pytest.approx(1.0, abs=0.005)

    def test_csv_byte_determinism_across_runs(self, tmp_path):
        body = BASE_CONFIG + "\n[run]\nt_min = 0.5\nt_max = 8.0\nt_steps = 4\nscale = log\n"
        cfg = write_config(tmp_path, body)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["coefficients", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["coefficients", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "coefficients.csv").read_bytes() == (out2 / "coefficients.csv").read_bytes()

    def test_relax_uniform_summary(self, tmp_path):
        body = BASE_CONFIG + "\n[run]\nscenario = uniform\nt_hot = 4.0\nt_final = 10.0\n"
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["relax", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out / "relax_report.json")
        assert rep["summary"]["decay_rate_fit"] == pytest.approx(0.2, rel=1e-3)
        lines = (out / "relax_sites.csv").read_text().splitlines()
        assert lines[0] == "t,k,E_k,J_k,u_k"
        assert len(lines) > 16

    def test_relax_with_one_sample_has_no_decay_fit(self, tmp_path):
        body = BASE_CONFIG + "\n[run]\nscenario = uniform\nt_hot = 4.0\nt_final = 0.0\n"
        out = tmp_path / "out"
        assert main(["relax", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == 0
        summary = read_report(out / "relax_report.json")["summary"]
        assert summary["decay_rate_fit"] is None and summary["decay_rate_expected"] == 0.2

    def test_coefficients_at_zero_temperature_has_no_newton_ratio(self, tmp_path):
        # the toy sweep cut to its one row at T = 0, where the Newton limit
        # 2 lambda k_B T of the source is zero
        toy = Path(__file__).resolve().parents[1] / "benchmarks" / "configs" / "toy" / "coefficients_sweep.ini"
        body = toy.read_text().replace("t_min = 0.01\n", "t_min = 0.0\n").replace("t_steps = 5\n", "t_steps = 1\n")
        assert "t_min = 0.0\n" in body and "t_steps = 1\n" in body
        out = tmp_path / "out"
        assert main(["coefficients", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == 0
        summary = read_report(out / "coefficients_report.json")["summary"]
        assert summary["source_over_newton_limit_at_t_max"] is None and summary["temperatures"] == 1

    def test_relax_hotspot_tophat(self, tmp_path):
        body = BASE_CONFIG + ("\n[run]\nscenario = hotspot\nt_hot = 4.0\nt_cold = 2.0\n"
                              "hot_sites = 4\nt_final = 2.0\n")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["relax", "--config", str(cfg), "--out", str(out)]) == 0

    def test_relax_holds_one_sample(self, tmp_path):
        # about 900 samples of an N = 64 hot spot, as in relax_hotspot_n64.ini:
        # relax keeps each sample's site energies and currents and the last state only,
        # well below the one (2N)^2 factor per sample that retaining every
        # state would hold
        body = BASE_CONFIG.replace("n_sites = 16", "n_sites = 64") + (
            "\n[run]\nscenario = hotspot\nt_hot = 5.0\nt_cold = 2.0\nhotspot_width = 4.0\n"
            "t_final = 40.0\nsample_stride = 2\n")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert main(["relax", "--config", str(cfg), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        samples = (len((out / "relax_sites.csv").read_text().splitlines()) - 1) // 64
        assert samples > 850
        assert peak < 0.5 * samples * 8 * (2 * 64) ** 2

    def test_verify_energy_checks_hold_one_sample(self):
        # criteria 3 and 9 on the compare_n128.ini chain (N = 128) observe their
        # samples: criterion 9 read 4.0 MB, where keeping its 51 hot-spot
        # factors of (2N)^2 floats read 28.8 MB
        p = heatchain.ChainParams(n_sites=128, mass=1.0, omega0=0.05, xi=1.0, lattice_const=1.0,
                                  lambda_fric=0.2, gamma_fric=0.0, bath_temp=200.0)
        for check in (check_energy_decay, check_conservation):
            tracemalloc.start()
            try:
                assert check(p).passed
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8e6, check.__name__

    def test_missing_config_exits_2(self, capsys):
        # argparse requires --config for every subcommand but verify
        with pytest.raises(SystemExit) as exc:
            main(["relax"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_relax_acoustic_chain_fails_fast(self, tmp_path, capsys):
        body = BASE_CONFIG.replace("omega0 = 1.0", "omega0 = 0.0") + (
            "\n[run]\nscenario = uniform\nt_hot = 4.0\nt_final = 1.0\n")
        cfg = write_config(tmp_path, body)
        code = main(["relax", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ValueError"
        assert "acoustic zero mode" in record["detail"]

    def test_conductivity_sweep(self, tmp_path):
        # a 12-temperature log sweep through `conductivity` and `coefficients`:
        # every row equals the scalar library calls at its T
        body = BASE_CONFIG + "\n[run]\nt_min = 1.0\nt_max = 100.0\nt_steps = 12\nscale = log\n"
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["conductivity", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["coefficients", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "conductivity.csv").read_text().splitlines()
        assert lines[0] == "T,C,kappa_continuum,kappa_klemens,sigma"
        last = list(map(float, lines[-1].split(",")))
        assert last[2] == pytest.approx(last[3], rel=0.02)  # high-T row
        p = load_config(cfg).chain
        tables = [read_csv_columns(out / name) for name in ("conductivity.csv", "coefficients.csv")]
        assert all(len(t["T"]) == 12 for t in tables)
        cond, coef = tables
        assert coef["T"] == cond["T"]
        for i, temp in enumerate(cond["T"]):
            assert cond["C"][i] == coef["C"][i] == heat_capacity_density(p, temp)
            assert coef["u_eq"][i] == gibbs_energy_density(p, temp)
            assert cond["kappa_continuum"][i] == transport_coefficients(p, temp).kappa
            assert cond["kappa_klemens"][i] == klemens_conductivity(p, temp)

    def test_conductivity_sweep_sums_heat_capacities_twice(self, tmp_path, monkeypatch):
        # 300 temperatures are 5 blocks of 64: one pass for C (kappa_continuum
        # reuses it) and one for the mode-sum conductivity, each a call of the
        # per-block heat-capacity kernel
        calls = []
        original = heatchain.diffusion._capacities

        def counted(params, w, zero, temps):
            calls.append(np.size(temps))
            return original(params, w, zero, temps)

        monkeypatch.setattr(heatchain.diffusion, "_capacities", counted)
        monkeypatch.setattr(heatchain.continuum, "_capacities", counted)
        body = BASE_CONFIG + "\n[run]\nt_min = 0.5\nt_max = 50.0\nt_steps = 300\nscale = log\n"
        cfg = write_config(tmp_path, body)
        assert main(["conductivity", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 10
        assert sum(calls) == 600

    @pytest.mark.parametrize("command", ["relax", "compare", "verify", "dispersion", "coefficients",
                                         "conductivity"])
    def test_ring_too_large_for_memory_is_config_error(self, tmp_path, capsys, command):
        # the estimate alone decides, so nothing of the ring is allocated: at
        # N = 1e15 the 6 dense 2N x 2N matrices of verify need 1.8e23 GiB, the
        # hot spot's Fourier Gram and one N x N array of compare 2.2e22 GiB,
        # the 31 propagator levels of a uniform relax 2.8e9 GiB, the kernel
        # blocks of a 3-temperature sweep 5.1e7 GiB and the mode grid and
        # frequencies of dispersion 1.5e7 GiB; no output directory is made
        n = 10**15
        body = BASE_CONFIG.replace("n_sites = 16", f"n_sites = {n}") + (
            "\n[run]\nscenario = uniform\nhotspot_width = 4.0\nt_hot = 3.0\nt_cold = 2.0\n"
            "t_final = 1.0\nt_min = 0.5\nt_max = 50.0\nt_steps = 3\n")
        cfg = write_config(tmp_path, body)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        modes = "the mode grid and its frequencies, 2 length-N arrays"
        sweep = (2 * 8 * n + 3 * 8 * 3 * (n // 2 + 1),
                 f"{modes}, and 3 kernel blocks of 3 temperatures by N/2 + 1 modes")
        need, what = {
            "verify": (6 * 8 * (2 * n) ** 2, "6 dense 2N x 2N matrices"),
            "compare": (2 * 16 * (n // 2 + 1) * n + 8 * n**2, "the heating's Fourier Gram, 2 part pairs "
                        "of (N/2 + 1) x N complex, and an N x N float array"),
            "relax": (12 * 8 * 31 * n, "the exact map's 31 levels of P_q, 12 length-N arrays each"),
            "coefficients": sweep,
            "conductivity": sweep,
        }.get(command, (2 * 8 * n, modes))
        assert record["error"] == "config"
        assert record["detail"] == [
            f"chain.n_sites: {n} sites need at least {need / 2**30:.3g} GiB for {what}, above the "
            f"{os.sysconf('SC_PAGE_SIZE') * os.sysconf('SC_PHYS_PAGES') / 2**30:.3g} GiB of physical memory"]

    def test_dispersion_counts_its_mode_arrays(self, tmp_path, capsys, monkeypatch):
        # 1 MiB of memory: N = 1e4 sites fit as two float arrays (160 kB), as
        # the CSV is written in chunks; N = 1e5 (1.6 MB) does not
        sysconf = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
                            .get(name) or sysconf(name))
        cfg = write_config(tmp_path, BASE_CONFIG.replace("n_sites = 16", "n_sites = 10000"))
        assert main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        cfg = write_config(tmp_path, BASE_CONFIG.replace("n_sites = 16", "n_sites = 100000"))
        assert main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "refused")]) == 2
        assert not (tmp_path / "refused").exists()
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "config", "detail": [
            "chain.n_sites: 100000 sites need at least 0.00149 GiB for the mode grid and its "
            "frequencies, 2 length-N arrays, above the 0.000977 GiB of physical memory"]}

    def test_relax_counts_its_factored_arrays(self, tmp_path, capsys, monkeypatch):
        # 2.5 MiB of memory at N = 512: a hot spot's heating, its Fourier Gram
        # of 2 pairs of 257 x 512 complex (4.2 MB) and one N x N float array
        # (2.1 MB), does not fit; a uniform start holds no heating and runs
        sysconf = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 640}
                            .get(name) or sysconf(name))
        body = BASE_CONFIG.replace("n_sites = 16", "n_sites = 512") + "\n[run]\nt_hot = 3.0\nt_final = 0.5\n"
        cfg = write_config(tmp_path, body.replace("[run]", "[run]\nscenario = hotspot\nhotspot_width = 4.0"))
        assert main(["relax", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "config", "detail": [
            "chain.n_sites: 512 sites need at least 0.00587 GiB for the heating's Fourier Gram, 2 part "
            "pairs of (N/2 + 1) x N complex, and an N x N float array, above the 0.00244 GiB of physical "
            "memory"]}
        cfg = write_config(tmp_path, body.replace("[run]", "[run]\nscenario = uniform"))
        assert main(["relax", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command, run", [
        ("relax", "scenario = uniform\nt_hot = 3.0\nt_final = 0.5\n"),
        ("coefficients", "t_min = 0.5\nt_max = 50.0\nt_steps = 64\n"),
        ("conductivity", "t_min = 0.5\nt_max = 50.0\nt_steps = 64\n"),
    ])
    def test_linear_commands_count_their_largest_arrays(self, tmp_path, capsys, monkeypatch, command, run):
        # at N = 4096 the count of a uniform relax (its propagator levels, 12 MB)
        # or of a sweep (its kernel blocks, 3 MB) lies between half the run's
        # tracemalloc peak and the peak: the run fits that much memory and is
        # refused, naming chain.n_sites, with half of it
        cfg = write_config(tmp_path, BASE_CONFIG.replace("n_sites = 16", "n_sites = 4096") + "\n[run]\n" + run)
        tracemalloc.start()
        try:
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "measured")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sysconf = os.sysconf
        for pages, code in ((peak // 4096, 0), (peak // 8192, 2)):
            monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}
                                .get(name) or sysconf(name))
            out = tmp_path / f"o{code}"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == code
            assert out.exists() == (code == 0)
        detail = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["detail"]
        assert len(detail) == 1 and detail[0].startswith("chain.n_sites: 4096 sites need at least ")

    @pytest.mark.parametrize("command, columns", [("coefficients", 12), ("conductivity", 6)])
    def test_sweep_counts_its_temperature_columns(self, tmp_path, capsys, monkeypatch, command, columns):
        # 64 KiB of memory: a sweep whose t_steps-long columns fit runs; one
        # step more than fits is refused before anything is allocated, for
        # each quadrature of coefficients (conductivity reads no method)
        sysconf = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}
                            .get(name) or sysconf(name))
        fits = 2**16 // (8 * columns)
        for method in ("quad", "mode_sum") if command == "coefficients" else ("mode_sum",):
            for steps, code in ((fits, 0), (fits + 1, 2)):
                body = BASE_CONFIG + f"\n[run]\nt_min = 0.5\nt_max = 50.0\nt_steps = {steps}\nmethod = {method}\n"
                cfg = write_config(tmp_path, body)
                out = tmp_path / f"{method}{steps}"
                assert main([command, "--config", str(cfg), "--out", str(out)]) == code
                assert out.exists() == (code == 0)
            record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            need = 8 * columns * (fits + 1)
            assert record == {"error": "config", "detail": [
                f"run.t_steps: {fits + 1} temperatures need at least {need / 2**30:.3g} GiB for {columns} "
                "columns of the sweep, above the 6.1e-05 GiB of physical memory"]}

    @pytest.mark.parametrize("command, keys, floats", [
        ("relax", "", 5), ("compare", "sample_interval = 1.0\n", 10)])
    def test_run_too_long_for_memory_is_config_error(self, tmp_path, capsys, command, keys, floats):
        # the toy configs at t_final = 1e12, sampled every second grid step
        # (relax) or every unit of time (compare): counted on the grid that
        # evolve sets, and refused before its sample list is built
        toy = Path(__file__).resolve().parents[1] / "benchmarks" / "configs" / "toy"
        body = (toy / f"{'relax_hotspot_n64' if command == 'relax' else 'compare_n128'}.ini").read_text()
        body = re.sub(r"(?m)^t_final = .*$", "t_final = 1e12\n" + keys, body)
        cfg = write_config(tmp_path, body)
        p = load_config(cfg).chain
        dt = step_bound(thermal_matrices(p))
        stride = 2 if command == "relax" else round(1.0 / dt)
        samples = 1 + math.ceil(math.ceil(1e12 / dt) / stride)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        need = 8 * floats * p.n_sites * samples
        assert record == {"error": "config", "detail": [
            f"run.t_final: {samples} samples need at least {need / 2**30:.3g} GiB for {floats} N floats "
            f"each, above the {os.sysconf('SC_PAGE_SIZE') * os.sysconf('SC_PHYS_PAGES') / 2**30:.3g} GiB "
            "of physical memory"]}

    def test_memory_error_is_a_run_error(self, tmp_path, capsys, monkeypatch):
        # an allocation that fails past the guard: a JSON record with exit 3,
        # not a traceback with verify's "a check failed" exit 1
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(heatchain.cli, "evolve", exhausted)
        body = BASE_CONFIG + "\n[run]\nscenario = uniform\nt_hot = 3.0\nt_final = 0.5\n"
        cfg = write_config(tmp_path, body)
        assert main(["relax", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "MemoryError", "detail": "Unable to allocate 7.28 TiB for an array"}

    def test_compare_small_scale(self, tmp_path):
        body = (BASE_CONFIG
                .replace("n_sites = 16", "n_sites = 32")
                .replace("omega0 = 1.0", "omega0 = 0.05")
                .replace("lambda = 0.1", "lambda = 0.25")
                .replace("bath_temp = 2.0", "bath_temp = 150.0")
                + "\n[run]\nhotspot_width = 8.0\nt_hot = 200.0\nt_cold = 150.0\nt_final = 8.0\n")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out / "compare_report.json")
        assert rep["summary"]["max_dev_field"] < 0.05
        assert (out / "compare_chain.csv").exists()
        assert (out / "compare_pde.csv").exists()

    @pytest.mark.parametrize("run, field", [
        ("sample_interval = 0\n", "sample_interval"),
        ("sample_interval = -2\n", "sample_interval"),
        ("fit_t_min = 3.0\nfit_t_max = 1.0\n", "fit_t_min"),
    ], ids=["zero_interval", "negative_interval", "inverted_fit_window"])
    def test_meaningless_compare_window_is_value_error(self, tmp_path, capsys, run, field):
        # once sampled every grid step, or fitted over no sample (a NaN slope)
        cfg = write_config(tmp_path, BASE_CONFIG + "\n[run]\nhotspot_width = 2.0\nt_hot = 4.0\n"
                           "t_cold = 2.0\nt_final = 1.0\n" + run)
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ValueError" and field in record["detail"]

    @pytest.mark.parametrize("keys", ["fit_t_min = 1000.0\n", "fit_t_max = 1.0\n"],
                             ids=["window_after_t_final", "lone_fit_t_max_before_default_start"])
    def test_empty_fit_window_is_value_error(self, tmp_path, capsys, keys):
        # the toy compare_n128.ini samples t in [0, 4]; its default window
        # starts at 0.5 / lambda = 2.5, so a lone fit_t_max = 1 leaves [2.5, 1]
        toy = Path(__file__).resolve().parents[1] / "benchmarks" / "configs" / "toy" / "compare_n128.ini"
        body = toy.read_text().replace("t_final = 4.0\n", "t_final = 4.0\n" + keys)
        assert keys in body
        cfg = write_config(tmp_path, body)
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ValueError"
        assert "fit_t_min" in record["detail"] and "fit_t_max" in record["detail"]

    def test_compare_with_an_empty_default_fit_window_writes_null(self, tmp_path):
        # the toy compare_n128.ini run to t = 0.01, before its default window
        # [0.5 / lambda, t_final] = [2.5, 0.01] holds a sample: no fitted slope
        toy = Path(__file__).resolve().parents[1] / "benchmarks" / "configs" / "toy" / "compare_n128.ini"
        body = toy.read_text().replace("t_final = 4.0\n", "t_final = 0.01\n")
        assert "t_final = 0.01\n" in body
        out = tmp_path / "out"
        assert main(["compare", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == 0
        summary = read_report(out / "compare_report.json")["summary"]
        assert summary["fourier_fit_slope"] is None and summary["slope_over_predicted"] is None
        assert summary["max_dev_field"] >= 0.0

    def test_bad_config_machine_readable_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[chain]\nn_sites = 2\n")
        code = main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2 and not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "config"

    def test_missing_run_keys_listed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        code = main(["coefficients", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2 and not (tmp_path / "o").exists()
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert any("t_min" in p for p in record["detail"])

    @pytest.mark.parametrize("command, run, problem", [
        ("compare", "hotspot_width = 4.0\nt_hot = 3.0\nt_cold = 2.0\nt_final = twenty\n",
         "run.t_final: cannot parse 'twenty' as float"),
        ("coefficients", "t_min = 0.5\nt_max = 8.0\nt_steps = lots\n",
         "run.t_steps: cannot parse 'lots' as int"),
        ("coefficients", "t_min = 0.5\nt_max = 8.0\nt_steps = 2.5\n",
         "run.t_steps: cannot parse 2.5 as int"),
        ("coefficients", "t_min = 0.5\nt_max = 8.0\nt_steps = inf\n",
         "run.t_steps: cannot parse inf as int"),
        ("verify", "[meta]\nseed = abc\n", "meta.seed: cannot parse 'abc' as int"),
        ("coefficients", "t_min = 0.5\nt_max = 8.0\nt_steps = 1\nscale = bogus\n",
         "run.scale: expected 'linear' or 'log', got 'bogus'"),
        ("conductivity", "t_min = 0.5\nt_max = 8.0\nt_steps = 1\nscale = bogus\n",
         "run.scale: expected 'linear' or 'log', got 'bogus'"),
        ("relax", "scenario = hotspot\nt_hot = 4.0\nhotspot_width = 2.0\nhot_sites = 4\nt_final = 1.0\n",
         "run.hot_sites, run.hotspot_width: a hot spot takes one of them, not both"),
        ("relax", "scenario = hotspot\nt_hot = 4.0\nhot_sites = 4\nt_final = 1.0\nhotspot_mode = tophat\n",
         "run.hotspot_mode: expected 'thermal' or 'diagonal', got 'tophat'"),
        ("compare", "hotspot_width = 2.0\nt_hot = 4.0\nt_cold = 2.0\nt_final = 1.0\nhotspot_mode = tophat\n",
         "run.hotspot_mode: expected 'thermal' or 'diagonal', got 'tophat'"),
        ("conductivity", "t_min = 0.5\nt_max = 8.0\nt_steps = 4\nvelocity = bogus\n",
         "run.velocity: expected 'sound' or 'dispersion', got 'bogus'"),
        ("relax", "scenario = bogus\nt_hot = 4.0\nt_final = 1.0\n",
         "run.scenario: expected 'uniform' or 'hotspot', got 'bogus'"),
        ("coefficients", "t_min = 0.5\nt_max = 8.0\nt_steps = 4\nmethod = bogus\n",
         "run.method: expected 'quad' or 'mode_sum', got 'bogus'"),
    ])
    def test_malformed_run_value_is_config_error(self, tmp_path, capsys, command, run, problem):
        cfg = write_config(tmp_path, BASE_CONFIG + "\n[run]\n" + run)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "config", "detail": [problem]}

    @pytest.mark.parametrize("command", ["coefficients", "conductivity"])
    @pytest.mark.parametrize("run, problems", [
        ("t_min = -1.0\nt_max = 2.0\nt_steps = 4\n", ["run.t_min: must be >= 0, got -1.0"]),
        ("t_min = 1.0\nt_max = -2.0\nt_steps = 4\n", ["run.t_max: must be >= 0, got -2.0"]),
        ("t_min = -1.0\nt_max = -2.0\nt_steps = 4\n",
         ["run.t_min: must be >= 0, got -1.0", "run.t_max: must be >= 0, got -2.0"]),
        ("t_min = -1.0\nt_max = 2.0\nt_steps = 1\n", ["run.t_min: must be >= 0, got -1.0"]),
        ("t_min = 1.0\nt_max = 0.0\nt_steps = 4\nscale = log\n",
         ["run.t_max: must be > 0 for log scale, got 0.0"]),
        ("t_min = -1.0\nt_max = 2.0\nt_steps = 4\nscale = log\n",
         ["run.t_min: must be > 0 for log scale, got -1.0"]),
    ], ids=["t_min", "t_max", "both", "single_row", "log_t_max", "log_t_min"])
    def test_sweep_temperature_out_of_range_is_config_error(self, tmp_path, capsys, command, run,
                                                        problems):
        cfg = write_config(tmp_path, BASE_CONFIG + "\n[run]\n" + run)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "config", "detail": problems}

    def test_simulation_subcommands_run_without_scipy(self, tmp_path):
        # a fresh interpreter in which every import of scipy fails
        runs = {
            "dispersion": "",
            "coefficients": "t_min = 0.5\nt_max = 8.0\nt_steps = 4\n",
            "relax": "scenario = hotspot\nt_hot = 4.0\nt_cold = 2.0\nhot_sites = 4\nt_final = 2.0\n",
            "compare": "hotspot_width = 2.0\nt_hot = 4.0\nt_cold = 2.0\nt_final = 2.0\n",
            "conductivity": "t_min = 0.5\nt_max = 8.0\nt_steps = 4\n",
        }
        for command, run in runs.items():
            write_config(tmp_path, BASE_CONFIG + "\n[run]\n" + run, name=f"{command}.ini")
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from heatchain.cli import main\n"
            "root = sys.argv[1]\n"
            "print(json.dumps({c: main([c, '--config', f'{root}/{c}.ini', '--out', f'{root}/{c}'])"
            " for c in sys.argv[2:]}))\n"
        )
        src = str(Path(heatchain.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), *runs],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == dict.fromkeys(runs, 0)

    @pytest.mark.parametrize("case, error", [("out_file", "FileExistsError"), ("under_file", "NotADirectoryError"),
                                             ("artifact_dir", "IsADirectoryError")])
    def test_unwritable_output_is_a_run_error(self, tmp_path, capsys, case, error):
        # --out an existing file, a path under one, or a directory where the CSV
        # goes: a JSON record with exit 3, not a traceback
        cfg = write_config(tmp_path, BASE_CONFIG)
        taken = tmp_path / "taken"
        if case == "artifact_dir":
            (taken / "dispersion.csv").mkdir(parents=True)
        else:
            taken.write_text("")
        out = taken / "o" if case == "under_file" else taken
        assert main(["dispersion", "--config", str(cfg), "--out", str(out)]) == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == error and str(taken) in record["detail"]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE_CONFIG)
        target = tmp_path / "env_out"
        monkeypatch.setenv("HEATCHAIN_OUT", str(target))
        assert main(["dispersion", "--config", str(cfg)]) == 0
        assert (target / "dispersion.csv").exists()

    def test_verify_runs_clean(self, tmp_path):
        out = tmp_path / "out"
        assert main(["verify", "--out", str(out)]) == 0
        rep = read_report(out / "verify_report.json")
        assert validate_report(rep) == []
        # adding or dropping a check is a deliberate change to this list
        assert [c["name"] for c in rep["criteria"]] == [
            "moment-equation-fidelity", "gibbs-stationarity", "energy-decay-rate",
            "high-temperature-forms", "heat-capacity-limits", "conductivity-consistency",
            "pde-correctness", "discrete-continuum-emergence", "energy-conservation",
            "energy-balance"]
        assert rep["summary"]["checks_passed"] == rep["summary"]["checks_total"]
        assert all(c["passed"] for c in rep["criteria"])
        assert all(c["passed"] == (c["value"] <= c["tolerance"]) for c in rep["criteria"])

    def test_fixed_criteria_ignore_the_config(self, tmp_path):
        # criteria 6-8 run on their own chains: a config with gamma = 0.02 and
        # N = 8 leaves their entries as the default run writes them
        toy = Path(__file__).resolve().parents[1] / "benchmarks" / "configs" / "toy" / "relax_hotspot_n64.ini"
        assert "gamma = 0.02" in toy.read_text()
        fixed = ["conductivity-consistency", "pde-correctness", "discrete-continuum-emergence"]
        entries = []
        for name, config in (("default", []), ("config", ["--config", str(toy)])):
            assert main(["verify", *config, "--out", str(tmp_path / name)]) == 0
            rep = read_report(tmp_path / name / "verify_report.json")
            entries.append([c for c in rep["criteria"] if c["name"] in fixed])
        assert [c["name"] for c in entries[0]] == fixed
        assert entries[1] == entries[0]

    def test_check_reports_the_deciding_clause(self):
        # a source err of 7e-3 fails its 5e-3 bound although it is below the coefficient's 1e-2
        res = CheckResult.from_clauses("high-temperature-forms", [(1e-3, 1e-2), (7e-3, 5e-3)], "")
        assert (res.passed, res.value, res.tolerance) == (False, 7e-3, 5e-3)
        # a plateau ratio of 1.001 leaves the band [0.99, 1] from above
        res = CheckResult.from_clauses("heat-capacity-limits", [(0.0, 0.01), (1e-3, 0.0)], "")
        assert (res.passed, res.value, res.tolerance) == (False, 1e-3, 0.0)
        res = CheckResult.from_clauses("passing", [(2e-5, 1e-2), (2e-5, 5e-3), (-1.0, 0.0)], "")
        assert (res.passed, res.value, res.tolerance) == (True, 2e-5, 5e-3)


# Property tests of the CLI's error contract: a malformed config value exits 2
# with a config record naming the key, a failure inside the library exits 3
# with a record naming the exception.  Derandomized, so every run draws the
# same cases; rings of 8 sites keep each failing run short.
SMALL_CHAIN = BASE_CONFIG.replace("n_sites = 16", "n_sites = 8")
CHAIN_KEYS = ["n_sites", "mass", "omega0", "xi", "lattice_const", "lambda", "gamma", "bath_temp"]
VALID_RUNS = {
    "dispersion": {},
    "coefficients": {"t_min": "0.5", "t_max": "8.0", "t_steps": "4"},
    "conductivity": {"t_min": "0.5", "t_max": "8.0", "t_steps": "4"},
    "relax": {"scenario": "uniform", "t_hot": "4.0", "t_final": "1.0", "dt_max": "0.5",
              "sample_stride": "2"},
    "compare": {"hotspot_width": "2.0", "t_hot": "4.0", "t_cold": "2.0", "t_final": "1.0",
                "dt_max": "0.5", "sample_interval": "0.5"},
    "verify": {},
}
NUMERIC_RUN_KEYS = [(c, k) for c, run in VALID_RUNS.items() for k in run if k != "scenario"]
words = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8).filter(
    lambda w: w not in ("nan", "inf", "infinity"))
bad_chain_values = st.one_of(words, st.sampled_from(["nan", "inf", "-inf", "1e999", "yes", "off"]),
                             st.floats(max_value=-1e-9, allow_infinity=False).map(repr))
CLI_SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def run_cli(command, chain, run):
    """Exit code, the last stderr line, parsed as JSON, and whether the output
    directory exists afterwards, of one CLI run."""
    body = chain + "\n[run]\n" + "".join(f"{k} = {v}\n" for k, v in run.items())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        cfg = write_config(Path(tmp), body)
        code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "o")])
        wrote = (Path(tmp) / "o").exists()
    lines = err.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None, wrote


@CLI_SETTINGS
@given(st.sampled_from(sorted(VALID_RUNS)), st.sampled_from(CHAIN_KEYS), bad_chain_values)
def test_malformed_chain_value_exits_2(command, key, value):
    chain = "".join(f"{key} = {value}\n" if line.startswith(f"{key} =") else line + "\n"
                    for line in SMALL_CHAIN.splitlines())
    code, record, wrote = run_cli(command, chain, VALID_RUNS[command])
    assert code == 2 and not wrote
    assert record["error"] == "config" and key in " ".join(record["detail"])


@CLI_SETTINGS
@given(st.sampled_from(NUMERIC_RUN_KEYS), st.one_of(words, st.sampled_from(["yes", "no", "true"])))
def test_malformed_run_value_exits_2(command_key, value):
    command, key = command_key
    code, record, wrote = run_cli(command, SMALL_CHAIN, {**VALID_RUNS[command], key: value})
    assert code == 2 and not wrote
    assert record["error"] == "config" and any(f"run.{key}" in p for p in record["detail"])


RUNTIME_FAULTS = {
    # (command, chain replacement, run overrides as functions of a drawn magnitude x > 0)
    "acoustic_relax": ("relax", ("omega0 = 1.0", "omega0 = 0.0"), lambda x: {}),
    "acoustic_compare": ("compare", ("omega0 = 1.0", "omega0 = 0.0"), lambda x: {}),
    "cold_hotspot": ("compare", None, lambda x: {"t_hot": repr(2.0 - min(x, 1.9))}),
    "relax_cold_hotspot": ("relax", None, lambda x: {"scenario": "hotspot", "t_cold": "4.0",
                                                     "t_hot": repr(4.0 - min(x, 3.9)),
                                                     "hotspot_width": "2.0"}),
    "negative_width": ("compare", None, lambda x: {"hotspot_width": repr(-x)}),
    "negative_dt_max": ("relax", None, lambda x: {"dt_max": repr(-x)}),
    "zero_dt_max": ("relax", None, lambda x: {"dt_max": "0.0"}),
    "compare_negative_dt_max": ("compare", None, lambda x: {"dt_max": repr(-x)}),
    "compare_zero_dt_max": ("compare", None, lambda x: {"dt_max": "0.0"}),
    "negative_t_final": ("relax", None, lambda x: {"t_final": repr(-x)}),
}


@CLI_SETTINGS
@given(st.sampled_from(sorted(RUNTIME_FAULTS)), st.floats(1e-3, 1e3))
# 40 draws need not reach every fault: the zero cases, which take no magnitude, run once each
@example("zero_dt_max", 1.0)
@example("compare_zero_dt_max", 1.0)
def test_runtime_failure_exits_3(fault, x):
    command, replacement, overrides = RUNTIME_FAULTS[fault]
    chain = SMALL_CHAIN.replace(*replacement) if replacement else SMALL_CHAIN
    code, record, _ = run_cli(command, chain, {**VALID_RUNS[command], **overrides(x)})
    assert code == 3
    assert record["error"] in ("ValueError", "PSDViolationError", "RuntimeError")
    assert isinstance(record["detail"], str) and record["detail"]
