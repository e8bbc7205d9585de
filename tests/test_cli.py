import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aptsim import cli, dynamics, optics, propagator
from aptsim.dynamics import DegenerateNormError, EvolutionSpec, run
from aptsim.entanglement import concurrence_minimum_identical
from aptsim.model import IDENTITY, AptParams
from aptsim.tomography import MleConvergenceError, draw_counts

from oracles import wootters_mp

# nan, +-inf, +-0.0, subnormals, and both sides of the %g switch points
_EDGE_FLOATS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.5e-310, 9.999995e-5, -9.999995e-5, 9.9999949e-5, 1e-4,
                999999.5, -999999.5, 999999.49, 1e6)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


def read_csv_columns(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _fstring_lines(*columns):
    """The per-value f-string rendering that the CSV writers must match."""
    return "".join(",".join(f"{v:.6g}" for v in row) + "\n" for row in zip(*columns))


def _edge_sweep():
    """Deterministic floats at every %g switch, exponent width and rounding tie."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    ties = np.array([float(f"{d}.5e{k - 5}") for d in (100000, 123456, 999998, 999999)
                     for k in [*range(-4, 7), *range(-308, -296), *range(-300, 301, 13)]])
    special = [1e-100, 1.5e200, -2.5e-150, 9.999995e99, 9.9999949e-100, 1.79769313486231e308,
               np.finfo(float).max, np.finfo(float).tiny, np.nextafter(np.finfo(float).tiny, 0.0),
               5e-324, 2.5e-310, 1e-315, 0.0, -0.0, np.nan, np.inf, -np.inf]
    values = np.concatenate([powers, below, np.nextafter(below, 0.0), above,
                             np.nextafter(above, np.inf), ties, special])
    return np.concatenate([values, -values])


class TestCsvRows:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(size=st.integers(1, 30), data=st.data())
    def test_rows_match_per_value_fstrings(self, size, data):
        t, c, n = (np.array(data.draw(st.lists(_FLOATS, min_size=size, max_size=size)))
                   for _ in range(3))
        a1, a2 = data.draw(_FLOATS), data.draw(_FLOATS)
        t_cells = cli._cells(t, ord(","))
        # the figure writer's cells: concurrence and norm in one call
        cn = cli._cells(np.stack([c, n], axis=-1), cli._ENDS)
        assert cli._text(size, t_cells, cn[:, 0], cn[:, 1])[0].decode() == _fstring_lines(t, c, n)
        # the sweep writer's: constant a1 and a2 cells repeated on every row
        sweep = cli._text(size, cli._cells(a1, ord(",")), cli._cells([a2], ord(","))[0], t_cells,
                          cli._cells(c, ord("\n")))[0]
        assert sweep.decode() == _fstring_lines([a1] * size, [a2] * size, t, c)

    def test_edge_sweep_matches_percent_format(self):
        x = _edge_sweep()
        text = cli._text(x.size, cli._cells(x, ord("\n")))[0]
        assert text.decode().splitlines() == ["%.6g" % v for v in x.tolist()]

    @pytest.mark.parametrize("block", [1, 3, 5, 1 << 12])
    def test_stacked_curves_match_one_at_a_time(self, monkeypatch, block):
        # curves reuse one buffer, and a curve longer than the buffer is
        # filled in pieces; each curve's text is what it gets alone
        monkeypatch.setattr(cli, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for curves, rows in ((1, 1), (7, 1), (4, 2), (3, 5), (5, 6), (2, 11)):
            t = rng.normal(size=rows) * 10.0 ** rng.integers(-8, 8, size=rows)
            v = rng.normal(size=(curves, rows, 2))
            a2 = rng.uniform(0.5, 2.5, size=curves)
            t_cells, v_cells = cli._cells(t, ord(",")), cli._cells(v, cli._ENDS)
            a2_cells = cli._cells(a2, ord(","))
            texts = cli._text(rows, t_cells, v_cells[:, :, 0], v_cells[:, :, 1])
            assert texts == [cli._text(rows, t_cells, c[:, 0], c[:, 1])[0] for c in v_cells]
            assert [x.decode() for x in texts] == [_fstring_lines(t, c[:, 0], c[:, 1]) for c in v]
            sweep = cli._text(rows, cli._cells(0.8, ord(",")), a2_cells[:, None], t_cells,
                              cli._cells(v[:, :, 0], ord("\n")))
            assert [x.decode() for x in sweep] == [
                _fstring_lines([0.8] * rows, [a] * rows, t, c[:, 0]) for a, c in zip(a2, v)]


class TestCsvFilesExact:
    """Every figure preset and the default sweep, byte for byte against a
    per-value f-string rendering of run() on the same specs."""

    def test_figures(self, tmp_path):
        for figure, (curves, t_max) in cli.FIGURES.items():
            assert cli.main(["figure", "--figure", figure, "--out", str(tmp_path)]) == 0
            for p1, p2 in curves:
                traj = run(EvolutionSpec(p1=p1, p2=p2, t_max=t_max, dt=0.01))
                name = f"fig{figure}_{cli._param_token(p1)}_{cli._param_token(p2)}.csv"
                expected = "t,concurrence,norm\n" + _fstring_lines(
                    traj.times.tolist(), traj.concurrence.tolist(),
                    traj.unnormalized_norm.tolist())
                assert (tmp_path / name).read_bytes() == expected.encode(), name
        assert len(list(tmp_path.iterdir())) == sum(
            len(curves) for curves, _ in cli.FIGURES.values())

    def test_default_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--out", str(out)]) == 0
        expected = ["a1,a2,t,concurrence\n"]
        for i in range(21):
            a2 = round(0.5 + i * 0.1, 12)
            traj = run(EvolutionSpec(p1=AptParams(a=0.8), p2=AptParams(a=a2), t_max=10.0, dt=0.01))
            rows = traj.times.size
            expected.append(_fstring_lines([0.8] * rows, [a2] * rows, traj.times.tolist(),
                                           traj.concurrence.tolist()))
        assert out.read_bytes() == "".join(expected).encode()


class TestOneKernelCall:
    @pytest.mark.parametrize("argv,out", [(["figure", "--figure", "4a"], "figs"),
                                          (["figure", "--figure", "2b"], "figs"),
                                          (["sweep"], "s.csv")])
    def test_no_refactoring_of_the_bell_state(self, tmp_path, monkeypatch, argv, out):
        calls = {"rank_factor": 0, "evolve_pairs": 0, "propagator_terms": []}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(dynamics, "rank_factor")
        counted(cli, "rank_factor")
        counted(cli, "evolve_pairs")
        terms = propagator.propagator_terms
        monkeypatch.setattr(propagator, "propagator_terms", lambda p, times: (
            calls["propagator_terms"].append(p) or terms(p, times)))
        assert cli.main(argv + ["--out", str(tmp_path / out)]) == 0
        assert calls["rank_factor"] == 0 and calls["evolve_pairs"] == 1
        # one propagator per distinct qubit: a1 = 0.8 is also on the a2 grid
        qubits = calls["propagator_terms"]
        assert len(qubits) == len(set(qubits)) == (1 if argv[-1] == "2b" else 21)

    def test_tomography_evolves_once(self, tmp_path, monkeypatch):
        calls = {"evolve_pairs": [], "time_grid": []}
        evolve, grid = cli.evolve_pairs, cli.time_grid
        monkeypatch.setattr(cli, "evolve_pairs", lambda pairs, times, **kwargs: (
            calls["evolve_pairs"].append(kwargs) or evolve(pairs, times, **kwargs)))
        monkeypatch.setattr(cli, "time_grid", lambda t_max, dt: (
            calls["time_grid"].append((t_max, dt)) or grid(t_max, dt)))
        assert cli.main(["tomography", "--out", str(tmp_path / "t.json")]) == 0
        assert calls == {"evolve_pairs": [{"keep_states": True}], "time_grid": [(4.5, 0.5)]}

    def test_decompose_decomposes_once(self, tmp_path, monkeypatch):
        calls, decompose = [], cli.decompose_grid
        monkeypatch.setattr(cli, "decompose_grid", lambda p, times: (
            calls.append(times.size) or decompose(p, times)))
        assert cli.main(["decompose", "--a1", "1.2", "--out", str(tmp_path / "d.csv")]) == 0
        assert calls == [51]


class TestOversizedGrids:
    @pytest.fixture(autouse=True)
    def refuse_grids(self, monkeypatch):
        # the rejection must come before a grid exists; should it regress,
        # this fails the test instead of attempting the allocation
        def refuse(t_max, dt):
            dynamics._samples(t_max, dt)  # time_grid's validator must raise
            raise AssertionError(f"time grid built for t_max={t_max}, dt={dt}")

        monkeypatch.setattr(cli, "time_grid", refuse)

    @pytest.mark.parametrize("argv,out,named", [
        (["figure", "--figure", "2a", "--dt", "1e-12"], "figs", "dt = 1e-12"),
        (["sweep", "--a2-step", "1e-320"], "s.csv", "--a2-step 1e-320"),
        (["decompose", "--a1", "1.2", "--dt", "1e-320"], "d.csv", "dt = 1e-320"),
        (["tomography", "--dt", "1e-320"], "t.json", "dt = 1e-320")])
    def test_exits_2_without_output(self, tmp_path, capsys, argv, out, named):
        assert cli.main(argv + ["--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} gives") and "more than" in err
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    def test_sweep_counts_a2_values(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SAMPLES", 20)  # the default sweep has 21
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --a2-step 0.1 gives 21 a2 values")
        assert not out.exists()


class TestFigureCommand:
    def test_2a_files_and_minima(self, tmp_path):
        assert cli.main(["figure", "--figure", "2a", "--out", str(tmp_path)]) == 0
        for a, ref in ((1.2, concurrence_minimum_identical(1.2)),
                       (1.8, concurrence_minimum_identical(1.8))):
            path = tmp_path / f"fig2a_{a:g}_{a:g}.csv"
            assert path.exists()
            header, rows = read_csv_columns(path)
            assert header == ["t", "concurrence", "norm"]
            values = np.array([float(r[1]) for r in rows])
            assert abs(values.min() - ref) < 5e-4
            assert values.max() == pytest.approx(1.0, abs=1e-6)

    def test_a5_identity_curves(self, tmp_path):
        assert cli.main(["figure", "--figure", "A5", "--out", str(tmp_path)]) == 0
        periodic = tmp_path / "figA5_1.2_id.csv"
        decaying = tmp_path / "figA5_0.8_id.csv"
        assert periodic.exists() and decaying.exists()
        _, rows = read_csv_columns(periodic)
        values = np.array([float(r[1]) for r in rows])
        w = 1.2 ** 2 - 1.0
        assert abs(values.min() - w / (w + 2.0)) < 1e-3
        _, rows = read_csv_columns(decaying)
        assert float(rows[-1][1]) < 1e-2

    def test_a4_matched_family_curves(self, tmp_path):
        assert cli.main(["figure", "--figure", "A4", "--out", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert len(names) == 4
        assert sum("pt" in n for n in names) == 2

    def test_4b_three_curves(self, tmp_path):
        assert cli.main(["figure", "--figure", "4b", "--out", str(tmp_path),
                         "--t-max", "2"]) == 0
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
            "fig4b_0.8_0.8.csv", "fig4b_0.8_1.csv", "fig4b_0.8_2.csv"]

    def test_json_format(self, tmp_path):
        assert cli.main(["figure", "--figure", "3b", "--out", str(tmp_path),
                         "--format", "json", "--t-max", "1"]) == 0
        payload = json.loads((tmp_path / "fig3b.json").read_text())
        assert payload["figure"] == "3b"
        assert len(payload["curves"]) == 1
        curve = payload["curves"][0]
        assert curve["a1"] == "1.01" and curve["a2"] == "1.03"
        assert len(curve["t"]) == len(curve["concurrence"]) == len(curve["norm"])

    def test_unknown_figure_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["figure", "--figure", "9z", "--out", str(tmp_path)])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag,value,field", [
        ("--t-max", "inf", "t_max"), ("--dt", "nan", "dt")])
    def test_non_finite_grid_exits_2(self, tmp_path, capsys, flag, value, field):
        assert cli.main(["figure", "--figure", "2a", flag, value,
                         "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be finite")
        assert not list(tmp_path.glob("*.csv"))

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            assert cli.main(["figure", "--figure", "2a", "--out", str(out),
                             "--t-max", "2"]) == 0
        for name in ("fig2a_1.2_1.2.csv", "fig2a_1.8_1.8.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestSweepCommand:
    def test_grid_shape_and_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--a1", "0.8", "--a2-min", "0.8",
                         "--a2-max", "1.0", "--a2-step", "0.1",
                         "--t-max", "1.0", "--dt", "0.5",
                         "--out", str(out)]) == 0
        header, rows = read_csv_columns(out)
        assert header == ["a1", "a2", "t", "concurrence"]
        assert len(rows) == 3 * 3  # three a2 values, three time samples
        assert sorted({r[1] for r in rows}) == ["0.8", "0.9", "1"]

    def test_t_max_zero_single_row_per_a2(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--a1", "1.0", "--a2-min", "1.0",
                         "--a2-max", "1.0", "--a2-step", "0.5",
                         "--t-max", "0", "--out", str(out)]) == 0
        _, rows = read_csv_columns(out)
        assert len(rows) == 1
        assert rows[0][2] == "0" and rows[0][3] == "1"

    def test_bad_step_exits_2(self, tmp_path):
        assert cli.main(["sweep", "--a2-step", "0",
                         "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--a1", "nan"), ("--a1", "inf"), ("--a2-min", "nan"),
        ("--a2-max", "inf"), ("--a2-step", "nan"), ("--t-max", "inf"),
        ("--dt", "nan")])
    def test_non_finite_values_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("a2_min", ["1e-13", "0", "-0.5"])
    def test_a2_min_rounding_to_zero_exits_2(self, tmp_path, capsys, a2_min):
        # a2 values are rounded to 12 decimals, so 1e-13 becomes a2 = 0
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", f"--a2-min={a2_min}", "--a2-max=1e-13",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --a2-min {float(a2_min)} gives a2 = ")
        assert "rounding to 12 decimals" in err
        assert not out.exists()


class TestBadInput:
    """Bad input exits 2 with a message that names it, and writes nothing."""

    @pytest.mark.parametrize("argv,named", [
        (["decompose", "--a1", "inf"], "error: a must be finite"),
        (["tomography", "--a1", "inf"], "error: a must be finite"),
        (["tomography", "--a2", "1e300"], "error: a = 1e+300, gamma = 1.0 overflow k"),
        (["tomography", "--total", "100000000000000000000"], "error: --total must be in"),
        (["tomography", "--seed", "-3"], "error: --seed must be >= 0, got -3\n")])
    def test_exits_2_naming_the_input(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out.file"
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(named)
        assert not out.exists()

    def test_total_is_checked_before_any_draw(self, tmp_path, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("counts were drawn")

        monkeypatch.setattr(cli, "draw_counts", draw)
        assert cli.main(["tomography", "--total", "100000000000000000000",
                         "--out", str(tmp_path / "t.json")]) == 2


class TestDecomposeCommand:
    def test_a1_0_5_table_reaches_t_20(self, tmp_path):
        # the round-trip bound is relative to max |U|, which is 3.8e7 at t = 20
        out = tmp_path / "dec.csv"
        assert cli.main(["decompose", "--a1", "0.5", "--t-max", "20", "--dt", "0.05",
                         "--out", str(out)]) == 0
        header, rows = read_csv_columns(out)
        assert len(rows) == 401
        assert float(rows[-1][header.index("t")]) == 20.0

    def test_table_format_and_content(self, tmp_path):
        out = tmp_path / "dec.csv"
        assert cli.main(["decompose", "--a1", "1.2", "--t-max", "1.0",
                         "--dt", "0.5", "--out", str(out)]) == 0
        header, rows = read_csv_columns(out)
        assert header == ["a", "t", "theta1_deg", "theta2_deg",
                          "xi1_deg", "xi2_deg", "k", "c"]
        assert len(rows) == 3
        for row in rows:
            assert row[0] == "1.2"
            # one branch: k is 0, and both plate columns hold theta
            assert row[6] == "0" and row[3] == row[2]
            assert float(row[7]) > 0.0

    def test_row_reconstructs_propagator(self, tmp_path):
        from aptsim.model import AptParams
        from aptsim.optics import DecompositionParams, reconstruct
        from aptsim.propagator import propagators

        out = tmp_path / "dec.csv"
        assert cli.main(["decompose", "--a1", "1.2", "--t-max", "1.0",
                         "--dt", "1.0", "--out", str(out)]) == 0
        _, rows = read_csv_columns(out)
        row = rows[-1]
        assert row[3] == row[2] and row[6] == "0"
        d = DecompositionParams(
            theta_deg=float(row[2]), xi1_deg=float(row[4]), xi2_deg=float(row[5]),
            c=float(row[7]))
        err = np.max(np.abs(d.c * reconstruct(d) -
                            propagators(AptParams(a=1.2), [1.0])[0]))
        assert err < 1e-3  # six-significant-digit table rounding


class TestTomographyCommand:
    def test_noiseless_report(self, tmp_path):
        out = tmp_path / "tomo.json"
        assert cli.main(["tomography", "--t-max", "1.0", "--dt", "0.5",
                         "--noiseless", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["a1"] == 1.2 and payload["a2"] == 1.2
        assert len(payload["points"]) == 3
        for point in payload["points"]:
            assert point["fidelity"] > 0.999
            assert abs(point["concurrence_mle"] - point["concurrence_theory"]) < 5e-3

    def test_identity_qubit2_flag(self, tmp_path):
        out = tmp_path / "tomo.json"
        assert cli.main(["tomography", "--identity-qubit2", "--t-max", "0",
                         "--noiseless", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["a2"] == "id"

    def test_zero_total_exits_2(self, tmp_path):
        assert cli.main(["tomography", "--total", "0",
                         "--out", str(tmp_path / "t.json")]) == 2

    @pytest.mark.parametrize("flag,value,field", [
        ("--t-max", "inf", "t_max"), ("--dt", "nan", "dt")])
    def test_non_finite_grid_exits_2(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "t.json"
        assert cli.main(["tomography", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--identity-qubit2"], ["--noiseless"]])
    def test_counts_match_one_state_draws(self, tmp_path, monkeypatch, flags):
        # the grid's counts, drawn as one array, equal draw_counts one state
        # at a time, bit for bit
        seen, fit = [], cli.mle_fit
        monkeypatch.setattr(cli, "mle_fit", lambda observed, total: (
            seen.append((observed, total)) or fit(observed, total)))
        assert cli.main(["tomography", "--seed", "11", *flags,
                         "--out", str(tmp_path / "t.json")]) == 0
        (observed, total), = seen
        assert total == 10000
        p = AptParams(a=1.2)
        pair = (p, IDENTITY if flags == ["--identity-qubit2"] else p)
        states = dynamics.evolve_pairs([pair], dynamics.time_grid(4.5, 0.5),
                                       keep_states=True)[2][0]
        assert len(observed) == len(states) == 10
        for i, rho in enumerate(states):
            one = draw_counts(rho[None], total=10000, seed=11 + i,
                              noiseless=flags == ["--noiseless"])[1]
            assert np.array_equal(observed[i], one[0])

    def test_noiseless_concurrence_keeps_small_eigenvalues(self, tmp_path, monkeypatch):
        # at the noiseless t = 3.5 point of the defaults rho_hat has
        # eigenvalues 4.7e-15 and 2.7e-11; cutting the first moves
        # concurrence_mle 5.1e-13 from the 50-digit value
        pytest.importorskip("mpmath")
        estimates, fit = [], cli.mle_fit
        monkeypatch.setattr(cli, "mle_fit", lambda observed, total: (
            estimates.append(fit(observed, total)) or estimates[-1]))
        out = tmp_path / "t.json"
        assert cli.main(["tomography", "--noiseless", "--out", str(out)]) == 0
        point = json.loads(out.read_text())["points"][7]
        assert point["t"] == 3.5
        assert abs(point["concurrence_mle"] - wootters_mp(estimates[0][0][7])) < 1e-14

    def test_seeded_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert cli.main(["tomography", "--t-max", "0.5", "--dt", "0.5",
                             "--seed", "7", "--total", "2000",
                             "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestOutputFiles:
    @pytest.mark.parametrize("argv", [
        ["figure", "--figure", "2a", "--t-max", "0.1"],
        ["figure", "--figure", "2a", "--t-max", "0.1", "--format", "json"],
        ["sweep", "--t-max", "0.1"],
        ["decompose", "--a1", "1.2", "--t-max", "0.1"],
        ["tomography", "--t-max", "0"]])
    def test_main_alone_writes_what_the_command_returns(self, tmp_path, capsys, argv):
        argv = argv + ["--out", str(tmp_path / "a" / "b")]  # two missing levels
        args = cli.build_parser().parse_args(argv)
        files = args.func(args)
        assert not list(tmp_path.iterdir())
        assert cli.main(argv) == 0
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files
        assert capsys.readouterr().out == "".join(f"{p}\n" for p in files)


class TestErrorMapping:
    def test_numerical_error_exits_3(self, tmp_path, monkeypatch):
        def explode(pairs, times, initial=None, keep_states=False):
            raise DegenerateNormError(1.0, 0.0)

        monkeypatch.setattr(cli, "evolve_pairs", explode)
        assert cli.main(["figure", "--figure", "2a", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("argv,out,kernel", [
        (["figure", "--figure", "4a"], "figs", "evolve_pairs"),
        (["figure", "--figure", "2a", "--format", "json"], "figs", "evolve_pairs"),
        (["sweep"], "s.csv", "evolve_pairs"),
        (["tomography"], "t.json", "evolve_pairs")])
    @pytest.mark.parametrize("detail", ["Unable to allocate 6.40 GiB for an array", ""])
    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch, argv, out, kernel,
                                   detail):
        def exhausted(*args, **kwargs):
            raise MemoryError(detail)

        monkeypatch.setattr(cli, kernel, exhausted)
        assert cli.main(argv + ["--out", str(tmp_path / out)]) == 3
        err = capsys.readouterr().err
        assert err == f"numerical error: out of memory{': ' + detail if detail else ''}\n"
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    def test_later_chunk_failure_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # 70,001 rows a curve puts each of 2a's two curves in its own chunk;
        # the second curve's text runs out of memory after the first is built
        text, calls = cli._text, []

        def second_exhausted(*args):
            calls.append(None)
            if len(calls) == 2:
                raise MemoryError()
            return text(*args)

        monkeypatch.setattr(cli, "_text", second_exhausted)
        out = tmp_path / "figs"
        assert cli.main(["figure", "--figure", "2a", "--dt", "0.001", "--t-max", "70",
                         "--out", str(out)]) == 3
        assert len(calls) == 2
        assert capsys.readouterr().err == "numerical error: out of memory\n"
        assert not list(tmp_path.rglob("*"))

    @pytest.mark.parametrize("argv,stage,error", [
        (["sweep"], "_text", MemoryError()),
        (["decompose", "--a1", "1.2"], "decompose_grid", optics.DecompositionError("no plates")),
        (["tomography"], "mle_fit", MleConvergenceError("no convergence", [0]))])
    def test_last_stage_failure_leaves_no_file(self, tmp_path, monkeypatch, argv, stage, error):
        # the output's directory does not exist yet, and is not made
        def fail(*args):
            raise error

        monkeypatch.setattr(cli, stage, fail)
        assert cli.main(argv + ["--out", str(tmp_path / "out" / "file")]) == 3
        assert not list(tmp_path.rglob("*"))

    def test_mle_convergence_error_names_time(self, tmp_path, capsys, monkeypatch):
        def stall(observed, total):
            raise MleConvergenceError("no convergence", [1])

        monkeypatch.setattr(cli, "mle_fit", stall)
        out = tmp_path / "t.json"
        assert cli.main(["tomography", "--t-max", "1", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical error: t=0.5:")
        assert not out.exists()

    def test_broken_regime_overflow_exits_3(self, tmp_path, capsys):
        # a = 0.8 outgrows float64 near t = 295: a numerical error naming the
        # first bad sample, not a validation error and not rows of inf
        assert cli.main(["figure", "--figure", "4b", "--t-max", "400",
                         "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "t=" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("a1,t_max,dt,tol,named", [
        ("1.2", "1", "0.5", 0.0, "t=0"),                   # round trip beyond tolerance
        ("0.5", "1000", "1000", optics._ROUNDTRIP_TOL, "t=1000")])  # propagator overflows
    def test_decomposition_failure_names_time(self, tmp_path, capsys, monkeypatch,
                                              a1, t_max, dt, tol, named):
        monkeypatch.setattr(optics, "_ROUNDTRIP_TOL", tol)
        out = tmp_path / "d.csv"
        assert cli.main(["decompose", "--a1", a1, "--t-max", t_max, "--dt", dt,
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"numerical error: {named}: the plate strings do not reproduce the propagator")
        assert not out.exists()

    def test_write_failure_removes_only_what_the_call_made(self, tmp_path, capsys):
        # the second curve's file name is taken by a directory: its write
        # fails after the first curve's file is written
        blocker = tmp_path / "fig2a_1.8_1.8.csv"
        blocker.mkdir()
        (tmp_path / "notes.txt").write_bytes(b"kept")
        assert cli.main(["figure", "--figure", "2a", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"i/o error on {str(blocker)!r}:")
        assert sorted(tmp_path.rglob("*")) == [blocker, tmp_path / "notes.txt"]
        assert (tmp_path / "notes.txt").read_bytes() == b"kept"

    @pytest.mark.parametrize("argv,out", [
        (["figure", "--figure", "2a"], "a/b/figs"),
        (["figure", "--figure", "A5", "--format", "json"], "a/figs"),
        (["sweep", "--t-max", "0.1"], "a/b/s.csv")])
    def test_write_failure_removes_made_directories(self, tmp_path, monkeypatch, argv, out):
        # the last write fails after the directories and any earlier file are made
        argv = argv + ["--out", str(tmp_path / out)]
        args = cli.build_parser().parse_args(argv)
        n_files, write, calls = len(args.func(args)), Path.write_bytes, []

        def last_fails(path, data):
            calls.append(path)
            if len(calls) == n_files:
                raise PermissionError(13, "Permission denied", str(path))
            return write(path, data)

        (tmp_path / "old.txt").write_bytes(b"old")
        monkeypatch.setattr(Path, "write_bytes", last_fails)
        assert cli.main(argv) == 1
        assert len(calls) == n_files
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "old.txt"]

    def test_closed_stdout_exits_1_and_keeps_the_files(self, tmp_path):
        # stdout is a pipe whose read end is closed before the paths are printed
        argv = ["figure", "--figure", "4a", "--out", str(tmp_path)]
        args = cli.build_parser().parse_args(argv)
        files = {path.name: data for path, data in args.func(args).items()}
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "aptsim", *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write)
        assert done.returncode == 1
        assert done.stderr.splitlines() == ["i/o error on '<stdout>': [Errno 32] Broken pipe"]
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2


# per command: the float flags, the integer flags, and the switches
_COMMAND_FLAGS = {
    "figure": (("--t-max", "--dt"), (), ("--format=json",)),
    "sweep": (("--a1", "--a2-min", "--a2-max", "--a2-step", "--t-max", "--dt"), (), ()),
    "decompose": (("--t-max", "--dt"), (), ()),
    "tomography": (("--a1", "--a2", "--t-max", "--dt"), ("--seed", "--total"),
                   ("--identity-qubit2", "--noiseless")),
}
_NUMBERS = st.one_of(
    st.sampled_from((0.0, -0.0, -1.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-320)),
    st.floats(-30.0, 30.0))
_INTEGERS = st.one_of(st.sampled_from((0, -1, 10 ** 20)), st.integers(-10, 10 ** 5))


@st.composite
def _argv(draw):
    """One command with a random subset of its flags; values go after "=",
    so that argparse reads "-inf" or "-1e300" as a value, not as an option."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    floats, ints, switches = _COMMAND_FLAGS[command]
    argv = [command]
    if command == "figure":
        argv.append("--figure=" + draw(st.sampled_from(list(cli.FIGURES))))
    if command == "decompose":
        argv.append(f"--a1={draw(_NUMBERS)!r}")
    for flags, values in ((floats, _NUMBERS), (ints, _INTEGERS)):
        for flag in flags:
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(values)!r}")
    return argv + [flag for flag in switches if draw(st.booleans())]


class TestNeverTracebacks:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(argv=_argv())
    @example(argv=["figure", "--figure=A4", "--t-max=400.0", "--dt=100.0"])
    @example(argv=["figure", "--figure=2a", "--t-max=1e+154", "--dt=1e+154"])
    def test_exit_code_and_no_file_on_failure(self, tmp_path_factory, argv):
        out = tmp_path_factory.mktemp("argv")
        target = out / ("figs" if argv[0] == "figure" else "out.file")
        # small grids only: no example allocates or fits a large one
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "MAX_SAMPLES", 64)
            patch.setattr(cli, "MAX_SAMPLES", 64)
            code = cli.main(argv + [f"--out={target}"])
        assert code in (0, 1, 2, 3)
        if code:
            assert not [p for p in out.rglob("*") if p.is_file()]
