"""Scenario serialization, subcommand behavior, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

import holeburn.cli
import holeburn.propagation
from holeburn.cli import PRESETS, Scenario, main, run_sweep, run_transmit
from holeburn.errors import ConfigurationError, NumericsError
from holeburn.medium import MediumParams
from holeburn.propagation import PulseSpec, auto_grid


class TestScenario:
    def test_roundtrip_lossless(self):
        for scenario in PRESETS.values():
            assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "s.json"
        PRESETS["fig5"].save(path)
        assert Scenario.load(path) == PRESETS["fig5"]

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"kind": "transmit", "alpha0_L": 1.0,
                                "delta0_T": 5.0, "bogus": 3})

    def test_presets_valid(self):
        for name, scenario in PRESETS.items():
            assert scenario.violations() == [], name

    def test_violations_listed(self):
        scenario = Scenario(kind="nonsense", alpha0_L=-1.0, delta0_T=2.0,
                            b=0.6, v_over_c=1.5, method="magic")
        bad = scenario.violations()
        assert len(bad) >= 4
        with pytest.raises(ConfigurationError):
            scenario.validate()

    def test_bandwidth_bound(self):
        scenario = Scenario(kind="store", alpha0_L=10.0, delta0_T=5.0,
                            delta1_over_delta0=0.5)
        assert any("delta1" in b for b in scenario.violations())


class TestPresetCommand:
    def test_writes_scenario(self, tmp_path, capsys):
        assert main(["preset", "fig4b", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "fig4b.json").read_text())
        assert data["delta1_over_delta0"] == 5.0
        assert data["alpha0_L"] == 100.0


class TestTransmit:
    def test_no_medium_identity(self, tmp_path):
        scenario = Scenario(kind="transmit", alpha0_L=0.0, delta0_T=10.0)
        files = run_transmit(scenario, str(tmp_path))
        assert len(files) == 3
        texts = [open(f, "rb").read() for f in files]
        assert texts[0] == texts[1] == texts[2]

    def test_outputs_and_peak(self, tmp_path):
        scenario = Scenario(kind="transmit", alpha0_L=100.0, delta0_T=10.0)
        run_transmit(scenario, str(tmp_path))
        out = np.loadtxt(tmp_path / "transmit_dT10_second_order.csv",
                         delimiter=",")
        peak = float(np.max(np.hypot(out[:, 1], out[:, 2])))
        assert peak == pytest.approx(10.0 / math.sqrt(200.0), rel=1e-3)

    def test_kind_mismatch_exit_code(self, tmp_path):
        path = tmp_path / "s.json"
        PRESETS["fig5"].save(path)
        assert main(["transmit", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 2


class TestStore:
    def test_revival_outputs(self, tmp_path):
        path = tmp_path / "s.json"
        PRESETS["fig4a"].save(path)
        assert main(["store", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 0
        side = json.loads((tmp_path / "store_aL100_restored.csv.json").read_text())
        assert side["method"] == "revival"
        assert side["T_s"] > side["T"]
        assert 0.0 <= side["eta"] <= 1.0
        assert "warnings" in side
        restored = np.loadtxt(tmp_path / "store_aL100_restored.csv",
                              delimiter=",")
        assert restored[0, 1] == 0.0  # zero at t = t_pi2
        original = np.loadtxt(tmp_path / "store_aL100_original.csv",
                              delimiter=",")
        assert original.shape[1] == 3


class TestGridBudget:
    def test_oversized_grid_rejected_before_allocation(self):
        # 4 L/v at alpha0 L = 6e4 needs ~1.35e6 samples at dt = 0.1, one
        # doubling past the budget; the check runs before any array exists
        params = MediumParams.reduced(6e4)
        with pytest.raises(ConfigurationError, match="budget"):
            auto_grid(PulseSpec(duration=10.0), params)

    def test_transmit_over_budget_exit_code(self, tmp_path, capsys,
                                            monkeypatch):
        # the fig2 grid (4096 samples) against a budget lowered to 2048
        monkeypatch.setattr(holeburn.propagation, "MAX_GRID_SAMPLES", 2048)
        path = tmp_path / "s.json"
        Scenario(kind="transmit", alpha0_L=100.0, delta0_T=10.0).save(path)
        assert main(["transmit", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "budget" in err


class TestSweep:
    def scenario(self):
        return Scenario(kind="sweep-efficiency", alpha0_L_values=(4.0, 9.0),
                        b=0.6, method="revival")

    def test_table_and_sidecar(self, tmp_path):
        files = run_sweep(self.scenario(), str(tmp_path))
        table = np.loadtxt(files[0], delimiter=",")
        np.testing.assert_allclose(table[:, 0], np.sqrt(table[:, 1]),
                                   rtol=1e-12)
        assert np.all((table[:, 3] >= 0.0) & (table[:, 3] <= 1.0))
        side = json.loads(open(files[1]).read())
        assert side["failures"] == {}

    def test_deterministic_across_workers(self, tmp_path):
        one = tmp_path / "w1"
        two = tmp_path / "w2"
        one.mkdir(), two.mkdir()
        f1 = run_sweep(self.scenario(), str(one), workers=1)
        f2 = run_sweep(self.scenario(), str(two), workers=2)
        assert open(f1[0], "rb").read() == open(f2[0], "rb").read()
        assert open(f1[1], "rb").read() == open(f2[1], "rb").read()

    def test_convergence_guard_exit_code(self, tmp_path):
        # an impossible tolerance forces the doubled-resolution check to
        # report a numerical failure (exit code 3)
        path = tmp_path / "s.json"
        Scenario(kind="sweep-efficiency", alpha0_L_values=(4.0,), b=0.6,
                 method="full_quadrature").save(path)
        code = main(["sweep-efficiency", "--scenario", str(path),
                     "--out", str(tmp_path), "--tol", "1e-16"])
        assert code == 3

    def test_per_point_failure_recorded(self, tmp_path):
        # full quadrature rejects finite conversion bandwidth; the failing
        # point is recorded and the sweep continues with the valid one
        scenario = Scenario(kind="sweep-efficiency",
                            alpha0_L_values=(4.0, 9.0), b=0.6,
                            method="full_quadrature", delta1_over_delta0=5.0)
        files = run_sweep(scenario, str(tmp_path))
        table = np.loadtxt(files[0], delimiter=",")
        assert table.shape[0] == 2
        assert np.all(np.isnan(table[:, 3]))
        side = json.loads(open(files[1]).read())
        assert set(side["failures"]) == {"4", "9"}


    def test_numerical_failure_recorded_then_exit_3(self, tmp_path, capsys,
                                                    monkeypatch):
        real_retrieve = holeburn.cli.retrieve

        def retrieve(pulse, schedule, params, **kwargs):
            if params.opacity == 9.0:
                raise NumericsError("quadrature diverged", residual=0.25)
            return real_retrieve(pulse, schedule, params, **kwargs)

        monkeypatch.setattr(holeburn.cli, "retrieve", retrieve)
        path = tmp_path / "s.json"
        self.scenario().save(path)
        assert main(["sweep-efficiency", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "numerical failure" in err
        table = np.loadtxt(tmp_path / "efficiency.csv", delimiter=",")
        assert table.shape[0] == 2
        assert 0.0 < table[0, 3] < 1.0 and np.isnan(table[1, 3])
        side = json.loads((tmp_path / "efficiency.csv.json").read_text())
        assert set(side["failures"]) == {"9"}
        assert "quadrature diverged" in side["failures"]["9"]
        assert side["residuals"] == {"9": 0.25}


class TestTolOption:
    @pytest.mark.parametrize("command", ["transmit", "store",
                                         "sweep-efficiency", "validate"])
    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_rejected(self, tmp_path, capsys, command, tol):
        path = tmp_path / "s.json"
        PRESETS["fig2"].save(path)
        assert main([command, "--scenario", str(path), "--out",
                     str(tmp_path), "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--tol" in err


class TestValidateCommand:
    def test_valid(self, tmp_path):
        path = tmp_path / "s.json"
        PRESETS["fig2"].save(path)
        assert main(["validate", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 0

    def test_invalid(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "transmit", "alpha0_L": -5.0,
                                    "delta0_T": 10.0}))
        assert main(["validate", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 2


class TestExitCodeContract:
    """Scenarios that used to pass validation and then raise a traceback."""

    CASES = {
        # MediumParams requires alpha0 > 0
        "store_zero_opacity":
            ("store", '{"kind": "store", "alpha0_L": 0, "delta0_T": 10.0}'),
        # NaN < 0 is False, so a sign check alone lets NaN through
        "sweep_nan_opacity":
            ("sweep-efficiency",
             '{"kind": "sweep-efficiency", "alpha0_L_values": [4.0, NaN], '
             '"b": 0.6, "method": "revival"}'),
        # an infinite window overflows the grid size
        "transmit_infinite_duration":
            ("transmit",
             '{"kind": "transmit", "alpha0_L": 10.0, "delta0_T": Infinity}'),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("validate_only", [False, True],
                             ids=["run", "validate"])
    def test_exit_2_with_one_line(self, tmp_path, capsys, case,
                                  validate_only):
        command, text = self.CASES[case]
        path = tmp_path / "s.json"
        path.write_text(text)
        command = "validate" if validate_only else command
        assert main([command, "--scenario", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation error")
        assert not list(tmp_path.glob("*.csv"))

    def test_transmit_keeps_zero_opacity(self):
        scenario = Scenario(kind="transmit", alpha0_L=0.0, delta0_T=10.0)
        assert scenario.violations() == []

    @pytest.mark.parametrize("values", [[], [4.0, "deep"], 9.0])
    def test_malformed_value_lists_rejected(self, values):
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"kind": "sweep-efficiency", "b": 0.6,
                                "alpha0_L_values": values})

    def test_non_numeric_fields_listed(self):
        scenario = Scenario(kind="store", alpha0_L="10", delta0_T=5.0,
                            n_time=512.0)
        bad = scenario.violations()
        assert any("alpha0_L" in b for b in bad)
        assert any("n_time" in b for b in bad)
