"""Scenario serialization, subcommand behavior, exit codes, determinism."""

import contextlib
import io
import json
import math
from dataclasses import asdict, fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import holeburn.cli
import holeburn.propagation
from holeburn.cli import (_CSV_BLOCK, _KINDS, PRESETS, Scenario, _write_csv,
                          _write_json, main, run_sweep, run_transmit)
from holeburn.errors import ConfigurationError, NumericsError
from holeburn.medium import MediumParams, slow_light_velocity
from holeburn.propagation import MAX_GRID_SAMPLES, PulseSpec, auto_grid
from holeburn.storage import (MAX_DELTA1_OVER_DELTA0, MAX_HOLD, MAX_REFINE,
                              METHODS, default_schedule)


class TestScenario:
    def test_roundtrip_lossless(self):
        for scenario in PRESETS.values():
            assert Scenario.from_dict(asdict(scenario)) == scenario

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
            assert scenario.panels()[1] == [], name

    def test_violations_listed(self):
        scenario = Scenario(kind="store", alpha0_L=-1.0, delta0_T=2.0,
                            b=0.6, v_over_c=1.5, method="magic",
                            tpi1_rule="quarter")
        bad = scenario.panels()[1]
        assert len(bad) >= 4
        with pytest.raises(ConfigurationError):
            scenario.validate()
        # a kind that is none of the kinds is named beside the violations of
        # the fields every kind reads; the storage fields are not judged
        nonsense = Scenario(kind="nonsense", alpha0_L=-1.0, delta0_T=2.0,
                            b=0.6, v_over_c=1.5, method="magic")
        bad = nonsense.panels()[1]
        assert len(bad) >= 3
        assert bad[0].startswith("kind must be one of")
        assert any(b.startswith("exactly one of delta0_T") for b in bad)
        assert any(b.startswith("v_over_c must lie") for b in bad)
        assert not any("method" in b for b in bad)
        # a scenario with no opacity still has its duration judged
        bad = Scenario(kind="store").panels()[1]
        assert [b.split(" /")[0] for b in bad] == ["exactly one of alpha0_L",
                                                   "exactly one of delta0_T"]

    def test_bandwidth_bound(self):
        scenario = Scenario(kind="store", alpha0_L=10.0, delta0_T=5.0,
                            delta1_over_delta0=0.5)
        assert any("delta1" in b for b in scenario.panels()[1])


class TestPulseAndSchedule:
    @pytest.mark.parametrize("duration", [{"b": 0.6}, {"delta0_T": 7.3}],
                             ids=["b", "delta0_T"])
    @pytest.mark.parametrize("rule", ["half-transit", 0.3])
    @pytest.mark.parametrize("delta1", [None, 5.0])
    def test_values_unchanged(self, duration, rule, delta1):
        # the values the matched schedule and the explicit L/v formulas
        # give, bit for bit, over many opacities
        rng = np.random.default_rng(0)
        for alpha0_L in rng.uniform(0.5, 400.0, 50):
            scenario = Scenario(kind="store", alpha0_L=alpha0_L,
                                tpi1_rule=rule, delta1_over_delta0=delta1,
                                hold_times_delta0=12.5, v_over_c=0.2,
                                method="revival", **duration)
            (panel,) = scenario.panels()[0]
            params, (pulse,), schedule = (panel.params, panel.pulses,
                                          panel.schedule)

            hold = 12.5
            transit = params.length / slow_light_velocity(params)
            if "b" in duration:
                want, matched = default_schedule(params, b=0.6)
                t_pi1 = matched.t_pi1
            else:
                want = PulseSpec(duration=7.3)
                t_pi1 = params.length / (2.0 * slow_light_velocity(params))
            if rule != "half-transit":
                t_pi1 = rule * transit
            assert pulse == want
            assert schedule.t_pi1 == t_pi1
            assert schedule.t_pi2 == t_pi1 + hold
            assert schedule.delta1 == (math.inf if delta1 is None
                                       else delta1)


class TestPresetCommand:
    def test_writes_scenario(self, tmp_path, capsys):
        assert main(["preset", "fig4b", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "fig4b.json").read_text())
        assert data["delta1_over_delta0"] == 5.0
        assert data["alpha0_L"] == 100.0


class TestTransmit:
    def test_outputs_and_peak(self, tmp_path):
        scenario = Scenario(kind="transmit", alpha0_L=100.0, delta0_T=10.0)
        run_transmit(scenario, str(tmp_path))
        path = tmp_path / "transmit_dT10_second_order.csv"
        assert path.read_text().splitlines()[0] == "#  t, re, im"
        out = np.loadtxt(path, delimiter=",")
        peak = float(np.max(np.hypot(out[:, 1], out[:, 2])))
        assert peak == pytest.approx(10.0 / math.sqrt(200.0), rel=1e-3)

    def test_exact_peak_keeps_homogeneous_width(self, tmp_path):
        # at gamma/delta0 = 0.009 the exact peak is 0.4300 (Faddeeva form,
        # matched by quadrature_model to 1e-15); 0.7081 is the lossless value
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "transmit", "alpha0_L": 100.0,
                                    "delta0_T": 10.0,
                                    "gamma_over_delta0": 0.009}))
        assert main(["transmit", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 0
        out = np.loadtxt(tmp_path / "transmit_dT10_exact.csv", delimiter=",")
        peak = float(np.max(np.hypot(out[:, 1], out[:, 2])))
        assert peak == pytest.approx(0.430015, abs=1e-6)

    def test_gamma_refused_by_validate_and_transmit(self, tmp_path, capsys):
        # the second-order profile has no gamma term: validate reports what
        # transmit refuses, in the same one stderr line, and nothing is
        # written
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "transmit", "alpha0_L": 25.0,
                                    "delta0_T": 10.0,
                                    "gamma_over_delta0": 0.05}))
        errs = []
        for command in ("validate", "transmit"):
            assert main([command, "--scenario", str(path),
                         "--out", str(tmp_path)]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].count("\n") == 1 and "gamma_over_delta0" in errs[0]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, kind", [
        (command, kind) for command in _KINDS for kind in _KINDS
        if command != kind])
    def test_kind_mismatch_exit_code(self, tmp_path, capsys, command, kind):
        preset = {"transmit": "fig2", "store": "fig5",
                  "sweep-efficiency": "fig6"}[kind]
        path = tmp_path / "s.json"
        PRESETS[preset].save(path)
        assert main([command, "--scenario", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"validation error: scenario kind {kind!r} does not "
                       f"match {command!r}\n")
        assert not list(tmp_path.glob("*.csv"))


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
        assert side["params"]["length"] == 100.0
        assert side["validity"]["spectral_margin"] > 1.0
        for name, column in [("restored", "t_minus_tpi2"),
                             ("original", "t_minus_tpi1")]:
            path = tmp_path / f"store_aL100_{name}.csv"
            assert path.read_text().splitlines()[0] == f"#  {column}, re, im"
        restored = np.loadtxt(tmp_path / "store_aL100_restored.csv",
                              delimiter=",")
        assert restored[0, 1] == 0.0  # zero at t = t_pi2
        original = np.loadtxt(tmp_path / "store_aL100_original.csv",
                              delimiter=",")
        assert original.shape[1] == 3

    def test_hold_bound(self, tmp_path, capsys):
        # the longest hold runs; past it validate and store refuse in one
        # line that names the hold
        path, out = tmp_path / "s.json", tmp_path / "out"
        scenario = {"kind": "store", "alpha0_L": 25.0, "b": 0.6,
                    "method": "revival", "hold_times_delta0": MAX_HOLD}
        path.write_text(json.dumps(scenario))
        assert main(["store", "--scenario", str(path),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        path.write_text(json.dumps({**scenario,
                                    "hold_times_delta0": 2 * MAX_HOLD}))
        errs = []
        for command in ("validate", "store"):
            assert main([command, "--scenario", str(path),
                         "--out", str(out)]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].count("\n") == 1
        assert "hold t_pi2 - t_pi1 must not exceed 1000, got 2000" in errs[0]

    def test_valid_call_after_rejected_arguments(self, tmp_path, capsys):
        # the parser is built once per process; a call argparse rejects
        # must leave nothing behind for the next call
        with pytest.raises(SystemExit):
            main(["store", "--out", str(tmp_path), "--workers", "two"])
        capsys.readouterr()
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "store", "alpha0_L": 25.0,
                                    "b": 0.6, "method": "revival"}))
        assert main(["store", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 0
        side = json.loads(
            (tmp_path / "store_aL25_restored.csv.json").read_text())
        assert side["method"] == "revival"
        assert 0.0 < side["eta"] <= 1.0

    @pytest.mark.parametrize("error, code", [(NumericsError, 3),
                                             (ConfigurationError, 2)])
    def test_failed_panel_leaves_no_file(self, tmp_path, monkeypatch, error,
                                         code):
        def retrieve(*args, **kwargs):
            raise error("retrieval failed")

        monkeypatch.setattr(holeburn.cli, "retrieve", retrieve)
        path = tmp_path / "s.json"
        PRESETS["fig4a"].save(path)
        out = tmp_path / "out"
        assert main(["store", "--scenario", str(path),
                     "--out", str(out)]) == code
        assert not out.exists()

    @pytest.mark.parametrize("fields, code", [
        ({"alpha0_L": 25.0, "b": 1e-300}, 2),
        ({"alpha0_L": 1e-300, "b": 0.6}, 3),
        ({"alpha0_L": 25.0, "delta0_T": 1e-310}, 2),
    ], ids=["duration", "opacity", "subnormal-duration"])
    def test_degenerate_panel_exit_code(self, tmp_path, capsys, fields, code):
        # delta0 T = 1e-300 needs a grid beyond the budget (exit 2), and a
        # subnormal delta0 T overflows the grid's sample count to inf
        # (exit 2); at alpha0 L = 1e-300 the restored waveform is zero
        # (exit 3).  A numpy RuntimeWarning on the way fails the test.
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "store", "method": "revival",
                                    **fields}))
        out = tmp_path / "out"
        assert main(["store", "--scenario", str(path),
                     "--out", str(out)]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("method", METHODS)
    def test_lossy_panel_matches_sweep(self, tmp_path, capsys, method):
        # every route runs at gamma/delta0 = 0.05 (the exact chi is the
        # Faddeeva form at any gamma), and a store reports the eta that a
        # sweep of the same point tabulates; full quadrature reads 0.4294
        doc = {"b": 0.6, "gamma_over_delta0": 0.05, "method": method}
        for kind, opacity in (("store", {"alpha0_L": 25.0}),
                              ("sweep-efficiency",
                               {"alpha0_L_values": [25.0]})):
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps({"kind": kind, **doc, **opacity}))
            assert main([kind, "--scenario", str(path),
                         "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        side = json.loads(
            (tmp_path / "store_aL25_restored.csv.json").read_text())
        table = np.loadtxt(tmp_path / "efficiency.csv", delimiter=",")
        assert side["eta"] == pytest.approx(table[3], rel=1e-12)
        if method == "full_quadrature":
            assert side["eta"] == pytest.approx(0.4294, abs=1e-4)

    @pytest.mark.parametrize("gamma", [3e3, 1e4])
    def test_revival_at_large_linewidth(self, tmp_path, gamma):
        # the revival factor's memory weight lives on delays below
        # 60 / gamma; fitted on [0, 30], its series was refused (exit 3)
        doc = {"b": 0.6, "gamma_over_delta0": gamma, "method": "revival"}
        for kind, opacity in (("store", {"alpha0_L": 25.0}),
                              ("sweep-efficiency",
                               {"alpha0_L_values": [25.0]})):
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps({"kind": kind, **doc, **opacity}))
            assert main([kind, "--scenario", str(path),
                         "--out", str(tmp_path)]) == 0
        side = json.loads(
            (tmp_path / "store_aL25_restored.csv.json").read_text())
        table = np.loadtxt(tmp_path / "efficiency.csv", delimiter=",")
        assert 0.0 < side["eta"] < 1e-14
        assert side["eta"] == pytest.approx(table[3], rel=1e-12)

    @pytest.mark.parametrize("method", ["established", "series",
                                        "full_quadrature"])
    def test_finite_band_refused(self, tmp_path, capsys, method):
        # only the revival route has a conversion-band term; the others
        # once returned their infinite-band eta for a finite band, and
        # validate refuses the scenario in the same line
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "store", "alpha0_L": 25.0,
                                    "b": 0.6, "delta1_over_delta0": 3.0,
                                    "method": method}))
        out = tmp_path / "out"
        errs = []
        for command in ("validate", "store"):
            assert main([command, "--scenario", str(path),
                         "--out", str(out)]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].count("\n") == 1 and f"the {method} route" in errs[0]
        assert not out.exists()


    @pytest.mark.parametrize("gamma", [1e-160, 1e-300])
    def test_subnormal_linewidth_band_matches_zero(self, tmp_path, gamma):
        # the fig4b panel at a linewidth whose square is not a normal float
        # takes the gamma = 0 finite-band rule, so eta and the restored
        # waveform match gamma = 0 within 1e-12 relative
        def store(g):
            path, out = tmp_path / f"{g:g}.json", tmp_path / f"{g:g}"
            replace(PRESETS["fig4b"], gamma_over_delta0=g).save(path)
            assert main(["store", "--scenario", str(path),
                         "--out", str(out)]) == 0
            side = json.loads(
                (out / "store_aL100_restored.csv.json").read_text())
            return side["eta"], np.loadtxt(out / "store_aL100_restored.csv",
                                           delimiter=",")

        (eta0, wave0), (eta, wave) = store(0.0), store(gamma)
        assert eta == pytest.approx(eta0, rel=1e-12)
        np.testing.assert_allclose(wave, wave0, rtol=1e-12,
                                   atol=1e-12 * np.abs(wave0).max())


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

    def test_subnormal_duration_over_budget(self, tmp_path, capsys):
        # window / dt overflows to inf at delta0 T = 1e-310: the budget
        # error alone, with no numpy RuntimeWarning (which fails the test)
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "transmit", "alpha0_L": 25.0,
                                    "delta0_T_values": [1e-310]}))
        assert main(["transmit", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "budget" in err

    @pytest.mark.parametrize("delta0_T", [5e-324, 1e308])
    def test_degenerate_duration_over_budget(self, tmp_path, capsys,
                                             delta0_T):
        # validate accepts the scenario; the slab grid of the smallest
        # subnormal or of a near-overflow duration needs more samples than
        # the budget, and the run exits 2 before allocating
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "transmit", "alpha0_L": 25.0,
                                    "delta0_T": delta0_T}))
        out = str(tmp_path / "out")
        assert main(["validate", "--scenario", str(path), "--out", out]) == 0
        capsys.readouterr()
        assert main(["transmit", "--scenario", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "budget" in err
        assert not list((tmp_path / "out").glob("*.csv"))


class TestSizeCaps:
    """n_time and refine one step past their caps exit 2 before any work."""

    CASES = {
        "store_n_time": ("store", {"kind": "store", "alpha0_L": 25.0,
                                   "delta0_T": 5.0,
                                   "n_time": 2 * MAX_GRID_SAMPLES}),
        "store_refine": ("store", {"kind": "store", "alpha0_L": 25.0,
                                   "delta0_T": 5.0,
                                   "refine": MAX_REFINE + 1}),
        "sweep_refine": ("sweep-efficiency",
                         {"kind": "sweep-efficiency", "alpha0_L_values": [9.0],
                          "b": 0.6, "refine": MAX_REFINE + 1}),
        "store_delta1_over_delta0": (
            "store", {"kind": "store", "alpha0_L": 340.0, "delta0_T": 50.0,
                      "method": "revival",
                      "delta1_over_delta0": 2 * MAX_DELTA1_OVER_DELTA0}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("validate_only", [False, True],
                             ids=["run", "validate"])
    def test_exit_2_with_one_line(self, tmp_path, capsys, monkeypatch, case,
                                  validate_only):
        def unreachable(*args, **kwargs):
            raise AssertionError("work started on an over-cap scenario")

        monkeypatch.setattr(holeburn.cli, "auto_grid", unreachable)
        monkeypatch.setattr(holeburn.cli, "retrieve", unreachable)
        command, data = self.CASES[case]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        command = "validate" if validate_only else command
        assert main([command, "--scenario", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        field = case.split("_", 1)[1]
        assert err.count("\n") == 1 and f"{field} must" in err

    def test_bandwidth_cap_itself_valid(self):
        scenario = Scenario(kind="store", alpha0_L=25.0, delta0_T=5.0,
                            method="revival",
                            delta1_over_delta0=MAX_DELTA1_OVER_DELTA0)
        assert scenario.panels()[1] == []

    def test_caps_themselves_valid(self):
        scenario = Scenario(kind="store", alpha0_L=25.0, delta0_T=5.0,
                            n_time=MAX_GRID_SAMPLES, refine=MAX_REFINE)
        assert scenario.panels()[1] == []


class TestRegimeWarnings:
    """Margins of the double confinement sqrt(alpha0 L) << delta0 T <<
    alpha0 L below 1 are reported in the sidecar whatever the method."""

    @pytest.mark.parametrize("method, alpha0_L, delta0_T, expected", [
        ("established", 100.0, 0.5, "spectrum"),
        ("full_quadrature", 100.0, 0.5, "spectrum"),
        ("established", 25.0, 30.0, "slab"),
        ("full_quadrature", 25.0, 30.0, "slab"),
        ("established", 100.0, 19.0, None),
    ])
    def test_margin_warning(self, tmp_path, method, alpha0_L, delta0_T,
                            expected):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "store", "alpha0_L": alpha0_L,
                                    "delta0_T": delta0_T, "method": method}))
        assert main(["store", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 0
        side = json.loads(
            (tmp_path / f"store_aL{alpha0_L:g}_restored.csv.json").read_text())
        margins = [w for w in side["warnings"] if "not confined" in w]
        if expected is None:
            assert margins == []
        else:
            assert len(margins) == 1 and expected in margins[0]

    @pytest.mark.parametrize("v_over_c", [0.3, 0.0])
    def test_established_route_at_finite_c(self, tmp_path, v_over_c):
        # the established kernel's mass and delay follow v/c, so it holds
        # to 1e-3 of full quadrature there too and carries no warning
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "store", "alpha0_L": 100.0,
                                    "delta0_T": 19.0, "v_over_c": v_over_c,
                                    "method": "established"}))
        assert main(["store", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 0
        side = json.loads(
            (tmp_path / "store_aL100_restored.csv.json").read_text())
        assert side["warnings"] == []


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
        side = json.loads(Path(files[1]).read_text())
        assert side["failures"] == {}

    @pytest.mark.parametrize("method, eta", [("established", 0.4545),
                                             ("revival", 0.5721)])
    def test_lossy_sweep_sees_gamma(self, tmp_path, method, eta):
        # gamma/delta0 = 0.05 at alpha0 L = 25: both approximate routes
        # follow gamma, where they once read their gamma = 0 values (0.5414
        # and 0.6806); full quadrature gives 0.4294 here
        def sweep(gamma):
            out = tmp_path / f"g{gamma:g}"
            out.mkdir()
            files = run_sweep(Scenario(
                kind="sweep-efficiency", alpha0_L_values=(25.0,), b=0.6,
                gamma_over_delta0=gamma, method=method), str(out))
            return float(np.loadtxt(files[0], delimiter=",")[3])

        lossless, lossy = sweep(0.0), sweep(0.05)
        assert lossy == pytest.approx(eta, abs=1e-4)
        assert lossless - lossy > 0.08

    def test_deterministic_across_workers(self, tmp_path):
        one = tmp_path / "w1"
        two = tmp_path / "w2"
        one.mkdir(), two.mkdir()
        f1 = run_sweep(self.scenario(), str(one), workers=1)
        f2 = run_sweep(self.scenario(), str(two), workers=2)
        assert Path(f1[0]).read_bytes() == Path(f2[0]).read_bytes()
        assert Path(f1[1]).read_bytes() == Path(f2[1]).read_bytes()

    def test_pool_no_larger_than_the_sweep(self, tmp_path, monkeypatch):
        # a fork pool starts every worker on the first submit, so --workers
        # far above the point count is cut to one worker per point; the
        # pool here records its size and maps in-process
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, jobs):
                return map(func, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        files = run_sweep(self.scenario(), str(tmp_path), workers=64)
        assert sizes == [2]
        assert np.loadtxt(files[0], delimiter=",").shape == (2, 4)

    def test_convergence_guard_exit_code(self, tmp_path):
        # an impossible tolerance forces the doubled-resolution check to
        # report a numerical failure (exit code 3)
        path = tmp_path / "s.json"
        Scenario(kind="sweep-efficiency", alpha0_L_values=(4.0,), b=0.6,
                 method="full_quadrature").save(path)
        code = main(["sweep-efficiency", "--scenario", str(path),
                     "--out", str(tmp_path), "--tol", "1e-16"])
        assert code == 3

    def test_per_point_failure_recorded(self, tmp_path, capsys):
        # at delta1/delta0 = 50 the revival route's finite-band rule needs
        # more nodes than its cap at alpha0 L = 340 only: that point is
        # recorded, and the sweep writes both files and exits 0
        path = tmp_path / "s.json"
        Scenario(kind="sweep-efficiency", alpha0_L_values=(25.0, 340.0),
                 b=0.6, method="revival", delta1_over_delta0=50.0).save(path)
        assert main(["sweep-efficiency", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        table = np.loadtxt(tmp_path / "efficiency.csv", delimiter=",")
        assert table.shape[0] == 2
        assert table[0, 3] == pytest.approx(0.66499, abs=1e-5)
        assert np.isnan(table[1, 3])
        side = json.loads((tmp_path / "efficiency.csv.json").read_text())
        assert list(side["failures"]) == ["340"]
        assert "needs 6728 Gauss-Legendre nodes" in side["failures"]["340"]
        assert side["residuals"] == {}

    @pytest.mark.parametrize("fields, point, method", [
        pytest.param(fields, point, method,
                     id=name if method == "revival" else f"{name}-{method}")
        for name, fields, point in [
            ("duration", {"alpha0_L_values": [9.0], "b": 1e-300}, "9"),
            ("opacity", {"alpha0_L_values": [1e-300], "b": 0.6}, "1e-300")]
        for method in ("revival", "established", "full_quadrature")])
    def test_degenerate_point_exit_3(self, tmp_path, capsys, fields, point,
                                     method):
        # the restored waveform underflows to zero: a recorded numerical
        # failure, not a clean eta = 0, reported in one stderr line (a
        # numpy RuntimeWarning on the way fails the test)
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "sweep-efficiency",
                                    "method": method, **fields}))
        assert main(["sweep-efficiency", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "numerical failure" in err
        side = json.loads((tmp_path / "efficiency.csv.json").read_text())
        assert set(side["failures"]) == {point}
        assert "restored energy is 0" in side["failures"][point]
        assert side["residuals"] == {point: None}
        table = np.loadtxt(tmp_path / "efficiency.csv", delimiter=",",
                           ndmin=2)
        assert np.isnan(table[0, 3])

    def test_regime_warnings_per_point(self, tmp_path):
        # at b = 0.6, alpha0 L = 4 gives delta0 T = 0.85 below sqrt(alpha0 L):
        # the point carries the warnings a store of it would carry
        files = run_sweep(self.scenario(), str(tmp_path))
        side = json.loads(Path(files[1]).read_text())
        assert list(side["warnings"]) == ["4"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "store", "alpha0_L": 4.0,
                                    "b": 0.6, "method": "revival"}))
        assert main(["store", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 0
        store = json.loads(
            (tmp_path / "store_aL4_restored.csv.json").read_text())
        assert side["warnings"]["4"] == store["warnings"]
        assert any("spectrum not confined" in w for w in store["warnings"])

    def test_no_regime_warnings_in_regime(self, tmp_path):
        scenario = Scenario(kind="sweep-efficiency",
                            alpha0_L_values=(9.0, 25.0), b=0.6,
                            method="full_quadrature")
        files = run_sweep(scenario, str(tmp_path))
        side = json.loads(Path(files[1]).read_text())
        assert side["failures"] == {} and side["warnings"] == {}


    def test_numerical_failure_recorded_then_exit_3(self, tmp_path, capsys,
                                                    monkeypatch):
        real_retrieve = holeburn.cli.retrieve

        def retrieve(pulse, schedule, params, **kwargs):
            if params.length == 9.0:
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


def _percent_csv(header, table):
    """The writer's bytes as one ``%`` per row prints them."""
    row = ", ".join(["%.12e"] * table.shape[1]) + "\n"
    return (f"#  {header}\n"
            + "".join(row % tuple(r) for r in table.tolist())).encode()


class _CountingFormat(str):
    """``_FMT`` that counts the values the CSV kernel sends to ``%``."""
    calls = 0

    def __mod__(self, value):
        self.calls += 1
        return str.__mod__(self, value)


def _kernel_cases():
    """Value families for the CSV kernel, each a 1-D float64 array."""
    rng = np.random.default_rng(12)
    powers = np.array([float(f"1e{k}") for k in range(-100, 101)])
    # every power of ten and its neighbours 1-4 ulp away
    up, down = powers, powers
    near = [powers]
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        near += [up, down]
    # just below each power, where log10 may round up to the power
    near += [powers * (1.0 - k * 1e-14) for k in range(1, 80)]
    ties = []
    for k, j in zip(rng.integers(10**12, 10**13, 40000),
                    rng.integers(-4, 4, 40000)):
        exact = Decimal(f"{k}.5e{j}")
        if Decimal(float(exact)) == exact:
            ties.append(float(exact))
    special = [np.copysign(np.nan, -1.0), np.nan, np.inf, -np.inf, 0.0,
               -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 9.9999999999995e98,
               9.99999999999995e99, -9.99999999999995e99, 1e-99,
               9.99999999999995e-100, 1234567890123.5, 1e300, 0.1]
    near = np.concatenate(near)
    return {
        "random_bits": np.frombuffer(rng.bytes(8 << 20), np.float64),
        "powers_of_ten": np.concatenate([near, -near]),
        "ties": np.array(ties + [-t for t in ties]),
        "special": np.array(special),
        # short binary fractions: exact 13-digit mantissas, none near a tie
        "all_fast": rng.integers(-10**6, 10**6, 4 * 4097) / 8.0
        * 10.0 ** rng.integers(-90, 90, 4 * 4097),
    }


_KERNEL_CASES = _kernel_cases()


@pytest.mark.filterwarnings("error")
class TestWriters:
    # values whose %.12e text is easy to get wrong: signed zero, the
    # smallest subnormal, three-digit exponents, nan and the infinities
    SPECIAL = [-0.0, 5e-324, 1e-300, 1e300, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("ncols", [3, 4])
    @pytest.mark.parametrize("nrows", [0, 1, _CSV_BLOCK, _CSV_BLOCK + 1])
    def test_csv_bytes_match_savetxt(self, tmp_path, nrows, ncols):
        rng = np.random.default_rng(nrows + ncols)
        values = rng.standard_normal(nrows * ncols) * 10.0 ** rng.integers(
            -20, 20, nrows * ncols)
        values[:len(self.SPECIAL)] = self.SPECIAL[:nrows * ncols]
        table = values.reshape(nrows, ncols)
        header = ", ".join(f"c{j}" for j in range(ncols))
        _write_csv(tmp_path / "out.csv", header, list(table.T))
        with open(tmp_path / "ref.csv", "w") as fh:
            np.savetxt(fh, table, delimiter=", ", header=" " + header,
                       fmt="%.12e")
        assert ((tmp_path / "out.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_csv_bytes_match_percent(self, tmp_path, monkeypatch, case):
        values = _KERNEL_CASES[case]
        table = values[:len(values) // 3 * 3].reshape(-1, 3)
        fmt = _CountingFormat("%.12e")
        monkeypatch.setattr(holeburn.cli, "_FMT", fmt)
        _write_csv(tmp_path / "out.csv", "a, b, c", list(table.T))
        assert ((tmp_path / "out.csv").read_bytes()
                == _percent_csv("a, b, c", table))
        # which values the kernel leaves to %: none, all, or some
        if case == "all_fast":
            assert fmt.calls == 0
        elif case == "ties":
            assert fmt.calls == table.size
        else:
            assert 0 < fmt.calls < table.size

    @pytest.mark.parametrize("ncols", [1, 4])
    @pytest.mark.parametrize("nrows", [0, 1, _CSV_BLOCK, _CSV_BLOCK + 1])
    def test_row_counts_match_percent(self, tmp_path, nrows, ncols):
        values = np.concatenate([_KERNEL_CASES["all_fast"],
                                 _KERNEL_CASES["special"]])[-nrows * ncols:]
        table = values[:nrows * ncols].reshape(nrows, ncols)
        _write_csv(tmp_path / "out.csv", "c", list(table.T))
        assert (tmp_path / "out.csv").read_bytes() == _percent_csv("c", table)

    def test_fig2_tables_match_percent(self, tmp_path, monkeypatch):
        tables = []
        write_csv = holeburn.cli._write_csv

        def recording(path, header, columns):
            tables.append((path, header, np.column_stack(columns)))
            write_csv(path, header, columns)

        monkeypatch.setattr(holeburn.cli, "_write_csv", recording)
        run_transmit(PRESETS["fig2"], str(tmp_path))
        assert len(tables) == 6
        for path, header, table in tables:
            assert Path(path).read_bytes() == _percent_csv(header, table)

    def test_failed_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("old\n")
        with pytest.raises(TypeError):
            _write_json(path, {"a": object()})
        assert list(tmp_path.glob("*.tmp")) == []
        assert path.read_text() == "old\n"


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

    # store reads no tolerance, and a sweep's guard doubles refine, which
    # the revival route does not read: it would compare eta with itself
    @pytest.mark.parametrize("scenario", [
        Scenario(kind="store", alpha0_L=25.0, b=0.6),
        Scenario(kind="store", alpha0_L=25.0, b=0.6, method="revival"),
        Scenario(kind="sweep-efficiency", alpha0_L_values=(25.0, 100.0),
                 b=0.6, method="revival")],
        ids=["store", "store_revival", "sweep_revival"])
    def test_unread_tol_refused(self, tmp_path, capsys, scenario):
        path = tmp_path / "s.json"
        scenario.save(path)
        errs = []
        for command in (scenario.kind, "validate"):
            assert main([command, "--scenario", str(path), "--out",
                         str(tmp_path), "--tol", "1e-15"]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "--tol" in err
            errs.append(err)
        assert errs[0] == errs[1]
        assert not list(tmp_path.glob("*.csv*"))

    @pytest.mark.parametrize("preset", ["fig2", "fig6"])
    def test_read_tol_valid(self, tmp_path, preset):
        # transmit's leakage bound, a full-quadrature sweep's guard
        path = tmp_path / "s.json"
        PRESETS[preset].save(path)
        assert main(["validate", "--scenario", str(path), "--out",
                     str(tmp_path), "--tol", "1e-6"]) == 0


class TestWorkersOption:
    @pytest.mark.parametrize("command", ["transmit", "store",
                                         "sweep-efficiency", "validate"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_rejected(self, tmp_path, capsys, command, workers):
        path = tmp_path / "s.json"
        PRESETS["fig6"].save(path)
        assert main([command, "--scenario", str(path), "--out",
                     str(tmp_path), "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--workers" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("preset, kind", [("fig5", "store"),
                                              ("fig2", "transmit")])
    def test_unread_refused(self, tmp_path, capsys, preset, kind):
        # only a sweep runs a pool; --workers 7 elsewhere was once ignored
        path = tmp_path / "s.json"
        PRESETS[preset].save(path)
        for command in (kind, "validate"):
            assert main([command, "--scenario", str(path), "--out",
                         str(tmp_path), "--workers", "7"]) == 2
            assert capsys.readouterr().err == (
                f"validation error: --workers 7 is not read by {kind}, only "
                "by sweep-efficiency\n")
        assert not list(tmp_path.glob("*.csv"))


class TestReadTable:
    """An input that a kind does not read, given away from its default, is
    refused by validate and by the run in the same line, naming it."""

    TRANSMIT = {"kind": "transmit", "alpha0_L": 10.0, "delta0_T": 5.0}
    STORAGE = "only by store and sweep-efficiency"

    @pytest.mark.parametrize("field, value", [
        ("hold_times_delta0", 0), ("delta1_over_delta0", 3),
        ("method", "bogus"), ("method", "series"), ("b", 0.6),
        ("tpi1_rule", 0.3), ("series_order", 1), ("n_time", 1024),
        ("refine", 2), ("alpha0_L_values", [10.0])])
    def test_transmit_refuses_storage_fields(self, tmp_path, capsys, field,
                                             value):
        # a transmit has no pi-pulses, hold, conversion band or route
        doc = {**self.TRANSMIT, field: value}
        if field == "alpha0_L_values":
            del doc["alpha0_L"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "transmit"):
            assert main([command, "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 2
            # the value as the JSON file wrote it
            assert capsys.readouterr().err == (
                f"validation error: invalid scenario: {field} {value!r} is "
                f"not read by transmit, {self.STORAGE}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["store", "sweep-efficiency"])
    def test_storage_kinds_refuse_duration_list(self, tmp_path, capsys, kind):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": kind, "alpha0_L_values": [25.0],
                                    "delta0_T_values": [5.0]}))
        for command in ("validate", kind):
            assert main([command, "--scenario", str(path),
                         "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == (
                "validation error: invalid scenario: delta0_T_values [5.0] "
                f"is not read by {kind}, only by transmit\n")

    def test_transmit_defaults_accepted(self):
        # a storage field at its default is no input: the pinned transmit
        # builds no storage schedule
        scenario = Scenario(**self.TRANSMIT, hold_times_delta0=10,
                            method="full_quadrature", tpi1_rule="half-transit")
        ((_, _, _, schedule),) = scenario.validate()
        assert schedule is None


class TestValidateCommand:
    def test_valid(self, tmp_path):
        path = tmp_path / "s.json"
        PRESETS["fig2"].save(path)
        assert main(["validate", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 0

    def test_missing_out_not_created(self, tmp_path, capsys):
        # validate writes nothing, so it creates no output directory
        path = tmp_path / "s.json"
        PRESETS["fig2"].save(path)
        assert main(["validate", "--scenario", str(path),
                     "--out", str(tmp_path / "made" / "by" / "validate")]) == 0
        assert capsys.readouterr().err == ""
        assert not (tmp_path / "made").exists()

    def test_out_below_a_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        PRESETS["fig2"].save(path)
        assert main(["validate", "--scenario", str(path),
                     "--out", str(path / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation error")

    def test_invalid(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "transmit", "alpha0_L": -5.0,
                                    "delta0_T": 10.0}))
        assert main(["validate", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 2


_STORE = '{"kind": "store", "alpha0_L": 25.0, "delta0_T": 5.0'


class TestExitCodeContract:
    """Scenarios that used to pass validation and then raise a traceback."""

    CASES = {
        # MediumParams requires alpha0 > 0
        "store_zero_opacity":
            ("store", '{"kind": "store", "alpha0_L": 0, "delta0_T": 10.0}'),
        # every kind runs through a slab, transmit too
        "transmit_zero_opacity":
            ("transmit",
             '{"kind": "transmit", "alpha0_L": 0, "delta0_T": 10.0}'),
        # NaN < 0 is False, so a sign check alone lets NaN through
        "sweep_nan_opacity":
            ("sweep-efficiency",
             '{"kind": "sweep-efficiency", "alpha0_L_values": [4.0, NaN], '
             '"b": 0.6, "method": "revival"}'),
        # an infinite window overflows the grid size
        "transmit_infinite_duration":
            ("transmit",
             '{"kind": "transmit", "alpha0_L": 10.0, "delta0_T": Infinity}'),
        # the scenario file cannot be read as a JSON object
        "missing_file": ("store", None),
        "malformed_json": ("store", _STORE),
        "top_level_int": ("store", "5"),
        "top_level_null": ("store", "null"),
        "top_level_false": ("store", "false"),
        "top_level_float": ("store", "0.0"),
        "top_level_list": ("store", "[1, 2]"),
        "missing_kind": ("store", "{}"),
        # fields that have a numeric default may not be null
        "null_v_over_c": ("store", _STORE + ', "v_over_c": null}'),
        "null_gamma_over_delta0":
            ("store", _STORE + ', "gamma_over_delta0": null}'),
        "null_hold_times_delta0":
            ("store", _STORE + ', "hold_times_delta0": null}'),
        # a string is not a list of opacities
        "string_opacity_list":
            ("sweep-efficiency",
             '{"kind": "sweep-efficiency", "alpha0_L_values": "49", '
             '"b": 0.6, "method": "revival"}'),
        # a store or sweep panel takes delta0_T or b, never delta0_T_values
        "store_duration_list":
            ("store", '{"kind": "store", "alpha0_L": 25.0, '
                      '"delta0_T_values": [5.0], "method": "revival"}'),
        "sweep_duration_list":
            ("sweep-efficiency",
             '{"kind": "sweep-efficiency", "alpha0_L_values": [9.0], '
             '"delta0_T_values": [5.0], "method": "revival"}'),
        # --out names an existing file (the scenario itself)
        "out_is_a_file": ("store", _STORE + "}"),
        # --out names no directory at all
        "out_empty": ("store", _STORE + "}"),
        # run_transmit used only the first opacity
        "transmit_opacity_list":
            ("transmit", '{"kind": "transmit", "alpha0_L_values": [10, 60], '
                         '"delta0_T": 5.0}'),
        # two panels whose file names are the same: the first is overwritten
        "store_panel_tags_collide":
            ("store", '{"kind": "store", "alpha0_L_values": '
                      '[25.0000001, 25.0000002], "b": 0.6, '
                      '"method": "revival"}'),
        "transmit_panel_tags_collide":
            ("transmit", '{"kind": "transmit", "alpha0_L": 10.0, '
                         '"delta0_T_values": [5, 5]}'),
        # one range check each, every other field valid
        "zero_duration":
            ("store", '{"kind": "store", "alpha0_L": 25.0, "delta0_T": 0}'),
        "negative_b":
            ("store", '{"kind": "store", "alpha0_L": 25.0, "b": -0.6}'),
        "negative_gamma": ("store", _STORE + ', "gamma_over_delta0": -0.1}'),
        "tpi1_rule_word": ("store", _STORE + ', "tpi1_rule": "quarter"}'),
        "tpi1_rule_zero": ("store", _STORE + ', "tpi1_rule": 0}'),
        "zero_hold": ("store", _STORE + ', "hold_times_delta0": 0}'),
        # once valid to validate, and a "dt must be positive" refusal to store
        "hold_past_bound":
            ("store", _STORE + ', "hold_times_delta0": 1e308}'),
        "series_order_7": ("store", _STORE + ', "series_order": 7}'),
        "n_time_500": ("store", _STORE + ', "n_time": 500}'),
        # only the revival route models a finite conversion band
        **{f"store_finite_band_{method}":
           ("store", _STORE + ', "delta1_over_delta0": 3.0, '
                     f'"method": "{method}"}}')
           for method in ("established", "series", "full_quadrature")},
        "sweep_finite_band_full_quadrature":
            ("sweep-efficiency",
             '{"kind": "sweep-efficiency", "alpha0_L_values": [9.0], '
             '"b": 0.6, "delta1_over_delta0": 3.0}'),
        "transmit_b":
            ("transmit", '{"kind": "transmit", "alpha0_L": 10.0, "b": 0.6}'),
        # t_pi1 + 1e-20 == t_pi1 in floating point: the schedule the run
        # builds has no hold
        "hold_underflow":
            ("store", '{"kind": "store", "alpha0_L": 25.0, "delta0_T": 5.0, '
                      '"hold_times_delta0": 1e-20, "method": "revival"}'),
        # t_pi1 = 10 L/v overflows to inf: a refusal, with no numpy warning
        "write_instant_overflow":
            ("store", '{"kind": "store", "alpha0_L": 1e308, "delta0_T": 5.0, '
                      '"tpi1_rule": 10}'),
        # a JSON integer beyond float range: math.isfinite overflows
        "huge_integer_opacity":
            ("store", '{"kind": "store", "alpha0_L": 1' + "0" * 400
                      + ', "delta0_T": 5.0}'),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("validate_only", [False, True],
                             ids=["run", "validate"])
    def test_exit_2_with_one_line(self, tmp_path, capsys, case,
                                  validate_only):
        command, text = self.CASES[case]
        path = tmp_path / "s.json"
        if text is not None:
            path.write_text(text)
        out = {"out_is_a_file": str(path), "out_empty": ""}.get(
            case, str(tmp_path))
        command = "validate" if validate_only else command
        assert main([command, "--scenario", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation error")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("case", sorted(set(CASES) - {"out_is_a_file",
                                                          "out_empty"}))
    def test_refused_run_creates_no_out(self, tmp_path, capsys, case):
        # validate and the run refuse in the same line, and the run does so
        # before it creates --out
        command, text = self.CASES[case]
        path = tmp_path / "s.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "fresh" / "out"
        errs = []
        for cmd in ("validate", command):
            assert main([cmd, "--scenario", str(path), "--out", str(out)]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("n_time, code", [(32, 2), (64, 0)])
    @pytest.mark.parametrize("kind", ["store", "sweep-efficiency"])
    def test_n_time_floor(self, tmp_path, capsys, kind, n_time, code):
        # a grid of 32 samples put eta up to 10% off: validate and the run
        # refuse it in one line naming n_time; 64 runs
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "kind": kind, "alpha0_L_values": [25.0], "b": 0.6,
            "method": "revival", "n_time": n_time}))
        for command in ("validate", kind):
            assert main([command, "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        if code:
            assert err.count("\n") == 2
            assert ("n_time must be a power of two of at least 64, got 32"
                    in err)

    def test_panel_tag_collision_named(self):
        store = Scenario(kind="store", b=0.6,
                         alpha0_L_values=(25.0000001, 25.0000002))
        assert store.panels()[1] == [
            "alpha0_L_values 25.0000001 and 25.0000002 share the file tag "
            "'25'"]
        # a sweep keys its sidecar's failures and warnings by the same tag
        sweep = Scenario(kind="sweep-efficiency",
                         alpha0_L_values=(25.0000001, 25.0000002), b=0.6)
        assert sweep.panels()[1] == store.panels()[1]
        transmit = Scenario(kind="transmit", alpha0_L=10.0,
                            delta0_T_values=(5.0, 10.0))
        assert transmit.panels()[1] == []

    def test_sweep_tag_collision_refused(self, tmp_path, capsys):
        # two points of one tag once wrote a single sidecar key between them
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "kind": "sweep-efficiency", "alpha0_L_values": [9, 9.0000001, 100],
            "b": 0.3, "method": "revival"}))
        assert main(["validate", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "alpha0_L_values 9.0 and 9.0000001 share the file tag '9'" in err

    @pytest.mark.parametrize("values", [[], [4.0, "deep"], 9.0])
    def test_malformed_value_lists_rejected(self, values):
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"kind": "sweep-efficiency", "b": 0.6,
                                "alpha0_L_values": values})

    def test_non_numeric_fields_listed(self):
        scenario = Scenario(kind="store", alpha0_L="10", delta0_T=5.0,
                            n_time=512.0)
        bad = scenario.panels()[1]
        assert any("alpha0_L" in b for b in bad)
        assert any("n_time" in b for b in bad)


_SCALARS = (st.none() | st.booleans() | st.integers(-10**400, 10**400)
            | st.floats() | st.text(max_size=6)
            | st.sampled_from(["transmit", "store", "sweep-efficiency",
                               "revival", "full_quadrature", "half-transit"]))
_JSON = st.recursive(
    _SCALARS, lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4), max_leaves=10)
_SCENARIO_DICTS = st.dictionaries(
    st.sampled_from([f.name for f in fields(Scenario)]), _JSON, max_size=8)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(doc=_JSON | _SCENARIO_DICTS)
def test_validate_never_raises(tmp_path_factory, doc):
    """Any JSON document, as a scenario file, is valid (0) or rejected with
    one stderr line (2); validate builds no grid, so nothing else runs."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", "--scenario", str(path),
                     "--out", str(path.parent)])
    assert (code, err.getvalue().count("\n")) in [(0, 0), (2, 1)]


def test_presets_leave_integrators_unloaded(tmp_path, fresh_python):
    # every preset runs in closed form or on fixed node rules, so no preset
    # run may import adaptive quadrature, splines or scipy.optimize
    code = """
import contextlib, io, json, sys
from holeburn.cli import main

out = sys.argv[1]
runs = {"fig2": "transmit", "fig4a": "store", "fig4b": "store",
        "fig5": "store", "fig6": "sweep-efficiency"}
codes = {}
with contextlib.redirect_stdout(io.StringIO()):
    for name, command in runs.items():
        main(["preset", name, "--out", out])
        codes[name] = main([command, "--scenario", f"{out}/{name}.json",
                            "--out", f"{out}/{name}", "--workers", "1"])
loaded = [m for m in ("scipy.integrate", "scipy.interpolate",
                      "scipy.optimize") if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""
    result = fresh_python(code, str(tmp_path))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == dict.fromkeys(PRESETS, 0)
    assert report["loaded"] == []


def test_numpy_only_runs_leave_scipy_unloaded(tmp_path, fresh_python):
    # import holeburn, preset, validate and the full-quadrature and
    # established sweeps evaluate no special function, so no scipy module
    # may load; scipy.special comes in on a special function's first call
    code = """
import contextlib, io, json, sys
import holeburn
from holeburn.cli import main

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = sys.argv[1]
loaded = {"import": scipy_loaded()}
codes = {}
with open(f"{out}/established.json", "w") as f:
    json.dump({"kind": "sweep-efficiency", "alpha0_L_values": [9.0, 25.0],
               "b": 0.6, "method": "established"}, f)
with contextlib.redirect_stdout(io.StringIO()):
    codes["preset"] = main(["preset", "fig6", "--out", out])
    codes["validate"] = main(["validate", "--scenario", f"{out}/fig6.json",
                              "--out", out])
    loaded["preset, validate"] = scipy_loaded()
    codes["fig6"] = main(["sweep-efficiency", "--scenario",
                          f"{out}/fig6.json", "--out", f"{out}/fig6",
                          "--workers", "1"])
    codes["established"] = main(["sweep-efficiency", "--scenario",
                                 f"{out}/established.json", "--out",
                                 f"{out}/established", "--workers", "1"])
    loaded["sweeps"] = scipy_loaded()
print(json.dumps({"codes": codes, "loaded": loaded}))
"""
    result = fresh_python(code, str(tmp_path))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == dict.fromkeys(
        ["preset", "validate", "fig6", "established"], 0)
    assert report["loaded"] == dict.fromkeys(
        ["import", "preset, validate", "sweeps"], [])


@pytest.mark.parametrize("command, scenario", [
    ("sweep-efficiency", {"kind": "sweep-efficiency",
                          "alpha0_L_values": [9.0, 25.0], "b": 1e-300}),
    ("store", {"kind": "store", "alpha0_L": 1e-300, "b": 0.6}),
], ids=["duration", "opacity"])
def test_degenerate_revival_one_stderr_line(tmp_path, fresh_python, command,
                                            scenario):
    # the underflowed waveform is one numerical failure, with no numpy
    # RuntimeWarning beside it (a fresh interpreter prints warnings as is)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**scenario, "method": "revival"}))
    code = "import sys; from holeburn.cli import main; sys.exit(main(sys.argv[1:]))"
    result = fresh_python(code, command, "--scenario", str(path),
                          "--out", str(tmp_path / "out"))
    assert result.returncode == 3
    assert result.stderr.count("\n") == 1, result.stderr
    assert result.stderr.startswith("numerical failure")


def _run_scenario(kind):
    """Scenario dicts of ``kind`` for the run commands, drawing only the
    fields the kind reads (``cli._READ_BY``), sized so that no grid
    exceeds 2^14 samples: alpha0 L <= 100, delta0 T >= 2 (or b at least
    that) and <= 40, v/c <= 0.8, so the window 4 L/v + 8 T stays under
    2^14 dt at dt = 0.1."""
    def finish(opacity):
        durations = st.floats(2.0, 40.0)
        duration = st.fixed_dictionaries({"delta0_T": durations})
        common = {"kind": st.just(kind),
                  "v_over_c": st.just(0.0) | st.floats(0.0, 0.8)}
        if kind == "transmit":
            # gamma on both sides of the transmit bound, 0.01
            duration |= st.fixed_dictionaries(
                {"delta0_T_values": st.lists(durations, min_size=1,
                                             max_size=2)})
            fields_ = st.fixed_dictionaries({
                **common, "alpha0_L": st.just(opacity),
                "gamma_over_delta0": st.just(0.0) | st.floats(0.0, 0.02)})
            return st.tuples(fields_, duration).map(
                lambda parts: {**parts[0], **parts[1]})
        b_low = max(0.3, 2.0 / opacity ** 0.75)
        duration |= st.fixed_dictionaries(
            {"b": st.floats(b_low, max(b_low, 1.2))})
        fields_ = st.fixed_dictionaries({
            **common, "alpha0_L_values": st.just([opacity]),
            "tpi1_rule": st.just("half-transit") | st.floats(0.1, 1.5),
            "hold_times_delta0": st.floats(0.1, 50.0),
            "series_order": st.integers(0, 2),
            "n_time": st.just(512),
            "refine": st.just(1),
        })
        # only revival takes a finite conversion band; the other routes'
        # refusal of one is checked by test_finite_band_refused.  Revival
        # and established draw a broad line first, so that their gamma
        # terms are reached through store
        route = st.sampled_from(METHODS).flatmap(
            lambda method: st.fixed_dictionaries({
                "method": st.just(method),
                "delta1_over_delta0": (st.none() | st.floats(1.5, 6.0)
                                       if method == "revival"
                                       else st.none()),
                "gamma_over_delta0": (
                    st.floats(0.01, 0.3) | st.just(0.0)
                    if method in ("revival", "established")
                    else st.just(0.0) | st.floats(0.0, 0.3))}))
        return st.tuples(fields_, route, duration).map(
            lambda parts: {**parts[0], **parts[1], **parts[2]})

    low = 0.0 if kind == "transmit" else 1.0
    return st.floats(low, 100.0).flatmap(finish)


@pytest.mark.parametrize("kind", _KINDS)
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_run_commands_keep_the_exit_contract(tmp_path_factory, kind, data):
    """Any in-budget scenario, from its dict through the command, ends in
    exit 0, or in 2 or 3 with one stderr line, and never in a traceback (a
    numpy RuntimeWarning from the library fails the test too).  A scenario
    that ``validate`` refuses is refused by the command in the same line."""
    doc = data.draw(_run_scenario(kind))
    path = tmp_path_factory.getbasetemp() / "run.json"
    Scenario.from_dict(doc).save(path)
    runs = {}
    for command in ("validate", kind):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--scenario", str(path), "--out",
                         str(path.parent / "run"), "--workers", "1"])
        runs[command] = code, err.getvalue()
    code, err = runs[kind]
    assert (code, err.count("\n")) in [(0, 0), (2, 1), (3, 1)], (doc, err)
    if runs["validate"][0] == 2:
        assert runs[kind] == runs["validate"], doc
    else:
        assert runs["validate"][0] == 0, (doc, runs["validate"])
