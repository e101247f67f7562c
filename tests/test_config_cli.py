import json

import numpy as np
import pytest

from heatchain import (
    gibbs_energy_density,
    heat_capacity_density,
    klemens_conductivity,
    transport_coefficients,
)
from heatchain.cli import main
from heatchain.config import ConfigError, load_config
from heatchain.report import RunReport, fmt_number, validate_report, write_csv
from heatchain.verify import CheckResult

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
    def test_shortest_roundtrip_formatting(self):
        assert fmt_number(0.1) == "0.1"
        assert fmt_number(1.0 / 3.0) == "0.3333333333333333"
        assert fmt_number(3) == "3"
        assert float(fmt_number(np.pi)) == np.pi

    def test_csv_deterministic_bytes(self, tmp_path):
        rows = [(0.1, 1 / 3), (2.0, np.pi)]
        p1 = write_csv(tmp_path / "a.csv", ["x", "y"], rows)
        p2 = write_csv(tmp_path / "b.csv", ["x", "y"], rows)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "x,y"

    def test_report_schema_roundtrip(self, tmp_path):
        rep = RunReport("dispersion", {"chain": {}}, {"value": 1.0})
        path = rep.write(tmp_path / "r.json")
        data = json.loads(path.read_text())
        assert validate_report(data) == []

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
        report = json.loads((out / "dispersion_report.json").read_text())
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
        rep = json.loads((out / "relax_report.json").read_text())
        assert rep["summary"]["decay_rate_fit"] == pytest.approx(0.2, rel=1e-3)
        lines = (out / "relax_sites.csv").read_text().splitlines()
        assert lines[0] == "t,k,E_k,J_k,u_k"
        assert len(lines) > 16

    def test_relax_hotspot_tophat(self, tmp_path):
        body = BASE_CONFIG + ("\n[run]\nscenario = hotspot\nt_hot = 4.0\nt_cold = 2.0\n"
                              "hot_sites = 4\nt_final = 2.0\n")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["relax", "--config", str(cfg), "--out", str(out)]) == 0

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
        rep = json.loads((out / "compare_report.json").read_text())
        assert rep["summary"]["max_dev_field"] < 0.05
        assert (out / "compare_chain.csv").exists()
        assert (out / "compare_pde.csv").exists()

    def test_bad_config_machine_readable_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[chain]\nn_sites = 2\n")
        code = main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "config"

    def test_missing_run_keys_listed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        code = main(["coefficients", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
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
    ])
    def test_malformed_run_value_is_config_error(self, tmp_path, capsys, command, run, problem):
        cfg = write_config(tmp_path, BASE_CONFIG + "\n[run]\n" + run)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "config", "detail": [problem]}

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE_CONFIG)
        target = tmp_path / "env_out"
        monkeypatch.setenv("HEATCHAIN_OUT", str(target))
        assert main(["dispersion", "--config", str(cfg)]) == 0
        assert (target / "dispersion.csv").exists()

    def test_verify_runs_clean(self, tmp_path):
        out = tmp_path / "out"
        assert main(["verify", "--out", str(out)]) == 0
        rep = json.loads((out / "verify_report.json").read_text())
        assert validate_report(rep) == []
        assert rep["summary"]["checks_passed"] == rep["summary"]["checks_total"]
        assert all(c["passed"] for c in rep["criteria"])
        assert all(c["passed"] == (c["value"] <= c["tolerance"]) for c in rep["criteria"])

    def test_check_reports_the_deciding_clause(self):
        # a source err of 7e-3 fails its 5e-3 bound although it is below the coefficient's 1e-2
        res = CheckResult.from_clauses("high-temperature-forms", [(1e-3, 1e-2), (7e-3, 5e-3)], "")
        assert (res.passed, res.value, res.tolerance) == (False, 7e-3, 5e-3)
        # a plateau ratio of 1.001 leaves the band [0.99, 1] from above
        res = CheckResult.from_clauses("heat-capacity-limits", [(0.0, 0.01), (1e-3, 0.0)], "")
        assert (res.passed, res.value, res.tolerance) == (False, 1e-3, 0.0)
        res = CheckResult.from_clauses("passing", [(2e-5, 1e-2), (2e-5, 5e-3), (-1.0, 0.0)], "")
        assert (res.passed, res.value, res.tolerance) == (True, 2e-5, 5e-3)
