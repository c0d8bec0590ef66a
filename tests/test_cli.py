"""Scenario serialization, subcommand behavior, exit codes, determinism."""

import contextlib
import io
import json
import math
from dataclasses import fields
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import holeburn.cli
import holeburn.propagation
from holeburn.cli import (_CSV_BLOCK, PRESETS, Scenario, _write_csv,
                          _write_json, main, run_sweep, run_transmit)
from holeburn.errors import ConfigurationError, NumericsError
from holeburn.medium import MediumParams
from holeburn.propagation import MAX_GRID_SAMPLES, PulseSpec, auto_grid
from holeburn.storage import MAX_DELTA1_OVER_DELTA0, MAX_REFINE


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
        texts = [Path(f).read_bytes() for f in files]
        assert texts[0] == texts[1] == texts[2]

    def test_outputs_and_peak(self, tmp_path):
        scenario = Scenario(kind="transmit", alpha0_L=100.0, delta0_T=10.0)
        run_transmit(scenario, str(tmp_path))
        path = tmp_path / "transmit_dT10_second_order.csv"
        assert path.read_text().splitlines()[0] == "#  t, re, im"
        out = np.loadtxt(path, delimiter=",")
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
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("alpha0_L, b, code", [(25.0, 1e-300, 2),
                                                   (1e-300, 0.6, 3)],
                             ids=["duration", "opacity"])
    def test_degenerate_panel_exit_code(self, tmp_path, capsys, alpha0_L, b,
                                        code):
        # delta0 T = 1e-300 needs a grid beyond the budget (exit 2); at
        # alpha0 L = 1e-300 the restored waveform is zero (exit 3)
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "store", "alpha0_L": alpha0_L,
                                    "b": b, "method": "revival"}))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["store", "--scenario", str(path),
                         "--out", str(out)]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert list(out.iterdir()) == []


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
        assert scenario.violations() == []

    def test_caps_themselves_valid(self):
        scenario = Scenario(kind="store", alpha0_L=25.0, delta0_T=5.0,
                            n_time=MAX_GRID_SAMPLES, refine=MAX_REFINE)
        assert scenario.violations() == []


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

    def test_deterministic_across_workers(self, tmp_path):
        one = tmp_path / "w1"
        two = tmp_path / "w2"
        one.mkdir(), two.mkdir()
        f1 = run_sweep(self.scenario(), str(one), workers=1)
        f2 = run_sweep(self.scenario(), str(two), workers=2)
        assert Path(f1[0]).read_bytes() == Path(f2[0]).read_bytes()
        assert Path(f1[1]).read_bytes() == Path(f2[1]).read_bytes()

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
        side = json.loads(Path(files[1]).read_text())
        assert set(side["failures"]) == {"4", "9"}

    @pytest.mark.parametrize("fields, point", [
        ({"alpha0_L_values": [9.0], "b": 1e-300}, "9"),
        ({"alpha0_L_values": [1e-300], "b": 0.6}, "1e-300"),
    ], ids=["duration", "opacity"])
    def test_degenerate_point_exit_3(self, tmp_path, capsys, fields, point):
        # the restored waveform underflows to zero: a recorded numerical
        # failure, not a clean eta = 0
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "sweep-efficiency",
                                    "method": "revival", **fields}))
        with np.errstate(all="ignore"):
            assert main(["sweep-efficiency", "--scenario", str(path),
                         "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err
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


_STORE = '{"kind": "store", "alpha0_L": 25.0, "delta0_T": 5.0'


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
        # pulse_and_schedule reads delta0_T or b, never delta0_T_values
        "store_duration_list":
            ("store", '{"kind": "store", "alpha0_L": 25.0, '
                      '"delta0_T_values": [5.0], "method": "revival"}'),
        "sweep_duration_list":
            ("sweep-efficiency",
             '{"kind": "sweep-efficiency", "alpha0_L_values": [9.0], '
             '"delta0_T_values": [5.0], "method": "revival"}'),
        # --out names an existing file (the scenario itself)
        "out_is_a_file": ("store", _STORE + "}"),
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
        out = path if case == "out_is_a_file" else tmp_path
        command = "validate" if validate_only else command
        assert main([command, "--scenario", str(path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation error")
        assert not list(tmp_path.glob("*.csv"))

    def test_panel_tag_collision_named(self):
        store = Scenario(kind="store", b=0.6,
                         alpha0_L_values=(25.0000001, 25.0000002))
        assert store.violations() == [
            "alpha0_L_values 25.0000001 and 25.0000002 share the file tag "
            "'25'"]
        # a sweep writes one table whatever its points
        sweep = Scenario(kind="sweep-efficiency",
                         alpha0_L_values=(25.0000001, 25.0000002), b=0.6)
        assert sweep.violations() == []
        transmit = Scenario(kind="transmit", alpha0_L_values=(10.0,),
                            delta0_T_values=(5.0, 10.0))
        assert transmit.violations() == []

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
