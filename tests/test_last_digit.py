"""The last printed digit against exact values: each "%.6g" cell that
`cli._cells` makes of `evolve_pairs` output, and of a `decompose` table,
equals "%.6g" of the 40-digit value of the float inputs, except within 1e-9
(relative) of a six-digit rounding tie, where float64 error may decide the
digit. The 40-digit values come from mpmath (`oracles.bell_mp`,
`oracles.decompose_mp`), not from the float kernels."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from aptsim import cli
from aptsim.dynamics import evolve_pairs, time_grid
from aptsim.model import IDENTITY, AptParams, Family
from aptsim.optics import decompose_grid

from oracles import bell_mp, decompose_mp

mp = pytest.importorskip("mpmath")

TIE = 1e-9
# the presets' a values, the exceptional point, and the whole range between
_A = st.one_of(st.sampled_from((0.5, 0.8, 1.0, 1.01, 1.2, 1.8)), st.floats(0.2, 2.5))
_QUBITS = st.one_of(st.builds(AptParams, a=_A, family=st.sampled_from(Family)),
                    st.just(IDENTITY))
# each example evaluates 40-digit references, so a failure is not shrunk
_SETTINGS = dict(deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))


def _g6(v):
    """"%.6g" of the exact value v, and whether v is within TIE of a
    six-digit tie, relative to |v|."""
    if v == 0:
        return "0", False
    with mp.workdps(60):
        e = int(mp.floor(mp.log10(abs(v)))) - 5
        r = abs(v) / mp.mpf(10) ** e
        if r >= 10 ** 6:  # log10 rounded up to a power of ten
            r, e = r / 10, e + 1
        elif r < 10 ** 5:
            r, e = r * 10, e - 1
        near_tie = abs(r - mp.floor(r) - mp.mpf(0.5)) <= TIE * r
        digits = int(mp.nint(r))
    return "%.6g" % float(f"{'-' if v < 0 else ''}{digits}e{e}"), bool(near_tie)


def _check_rows(text, exact, label):
    """Compare the cells of each CSV line of `text` with the exact values of
    its row; the number of cells skipped next to a tie."""
    lines = text.splitlines()
    assert len(lines) == len(exact), label
    skipped = 0
    for i, (line, row) in enumerate(zip(lines, exact)):
        for j, (cell, value) in enumerate(zip(line.split(","), row)):
            expected, near_tie = _g6(value)
            skipped += near_tie
            assert near_tie or cell == expected, (
                f"{label}: row {i}, column {j}: {cell} but exact {mp.nstr(value, 20)}")
    return skipped


def _text(columns):
    """The encoder's CSV lines of the (T, K) float array `columns`."""
    ends = [cli._COMMA] * (columns.shape[1] - 1) + [cli._NEWLINE]
    cells = cli._cells(columns, ends)
    return cli._text(len(columns), *(cells[:, j] for j in range(columns.shape[1])))[0].decode()


@settings(max_examples=40, **_SETTINGS)
@given(p1=_QUBITS, p2=_QUBITS, dt=st.floats(0.05, 2.0), rows=st.integers(1, 25))
def test_evolution_cells_round_the_exact_value(p1, p2, dt, rows):
    times = time_grid(dt * (rows - 1), dt)
    conc, norms, _ = evolve_pairs([(p1, p2)], times)
    exact = [bell_mp(p1, p2, t) for t in times.tolist()]
    _check_rows(_text(np.stack([conc[0], norms[0]], axis=-1)), exact, f"{p1}, {p2}")


@settings(max_examples=30, **_SETTINGS)
@given(a=_A, t_max=st.floats(0.0, 20.0), rows=st.integers(2, 51))
def test_decompose_cells_round_the_exact_value(a, t_max, rows):
    dt = t_max / (rows - 1) or 1.0
    args = cli.build_parser().parse_args(
        ["decompose", "--a1", repr(a), "--t-max", repr(t_max), "--dt", repr(dt)])
    times = time_grid(t_max, dt)
    d = decompose_grid(AptParams(a=a), times)
    exact = [decompose_mp(AptParams(a=a), t) for t in times.tolist()]
    label = f"a = {a}, t_max = {t_max}, dt = {dt}"
    _check_rows(_text(np.stack([d.theta_deg, d.xi1_deg, d.xi2_deg, d.c], axis=-1)), exact, label)
    # the command's own table: theta on both plates, then xi1, xi2 and c
    table = args.func(args)[Path(args.out)].decode().splitlines()[1:]
    cells = "".join(",".join(row.split(",")[i] for i in (2, 3, 4, 5, 7)) + "\n"
                    for row in table)
    _check_rows(cells, [(th, th, x1, x2, c) for th, x1, x2, c in exact], label)


def test_ties_are_rare():
    # the band skips about 2e-9 * 10^5..10^6 of the cells: a few per thousand
    # at most, so the property above checks nearly every cell it draws
    rng = np.random.default_rng(0)
    values = [mp.mpf(float(x)) for x in rng.lognormal(0.0, 5.0, 1500)]
    assert sum(_g6(v)[1] for v in values) <= 8
    assert [_g6(v)[0] for v in values] == ["%.6g" % float(v) for v in values]
