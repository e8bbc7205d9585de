"""CLI JSON outputs by value: tomography reports and `figure --format json`,
each parsed and compared with its pinned copy in golden_json.json. Headers,
curve tokens and iteration counts must be equal; every other float must be
within 1e-12 relative of the pinned one. The fitted floats of a report can
move in their last digits on another libm or BLAS, so these outputs are
compared by value, not by digest as in test_golden.py. On x86-64 with numpy
2.4 and OpenBLAS 0.3.31 they were byte-identical at 1 and at 2 BLAS threads.

After a change that means to alter these outputs, regenerate the pinned
copies with `PYTHONPATH=src python tests/test_golden_json.py` and say why.
The referee test is the evidence such a change cites: each report's
concurrence_mle is within 1e-14 absolute of the 50-digit Wootters value of
the fit's own estimate T T^H, formed from T at that precision, whatever the
estimate's last bits."""

import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from aptsim import cli

from oracles import factor_wootters_mp

GOLDEN = Path(__file__).with_name("golden_json.json")
REL = 1e-12

# argv before --out: each command's defaults at three seeds, plain, with
# --identity-qubit2 and with --noiseless; a seed and grid at which the fit
# takes a Frank-Wolfe step; one report of 1,201 points
TOMOGRAPHY = [("tomography", "--seed", seed, *flags)
              for seed in ("0", "7", "3016")
              for flags in ((), ("--identity-qubit2",), ("--noiseless",))]
TOMOGRAPHY += [("tomography", "--seed", "126", "--t-max", "1508.5", "--dt", "1508.5"),
               ("tomography", "--a1", "1.05", "--a2", "1.3", "--t-max", "300", "--dt", "0.25",
                "--total", "500")]
FIGURES = [("figure", "--figure", figure, "--format", "json") for figure in ("A4", "2a")]


def _output(argv, out):
    """The parsed JSON that `argv` writes below the directory `out`."""
    target = out / "out"
    assert cli.main([*argv, "--out", str(target)]) == 0
    return json.loads((target / f"fig{argv[2]}.json" if argv[0] == "figure" else target)
                      .read_text())


@functools.cache
def _golden():
    return json.loads(GOLDEN.read_text())


def _header(report):
    return {key: value for key, value in report.items() if key != "points"}


def _columns(rows):
    return {key: [row[key] for row in rows] for key in rows[0]}


@pytest.mark.parametrize("argv", TOMOGRAPHY, ids=" ".join)
def test_tomography_report(argv, tmp_path):
    got, want = _output(argv, tmp_path), _golden()[" ".join(argv)]
    assert _header(got) == _header(want)
    got_points, want_points = _columns(got["points"]), _columns(want["points"])
    assert got_points.keys() == want_points.keys()
    assert got_points["iterations"] == want_points["iterations"]
    for key in sorted(want_points.keys() - {"iterations"}):
        np.testing.assert_allclose(got_points[key], want_points[key], rtol=REL, atol=0,
                                   err_msg=key)


@pytest.mark.parametrize("argv", TOMOGRAPHY, ids=" ".join)
def test_concurrence_mle_referee(argv, tmp_path, monkeypatch):
    # every point of a short report, and 20 spread over the long one
    pytest.importorskip("mpmath")
    fits, fit = [], cli.mle_fit
    monkeypatch.setattr(cli, "mle_fit", lambda observed, total: (
        fits.append(fit(observed, total)) or fits[-1]))
    points, factors = _output(argv, tmp_path)["points"], fits[0][0]
    picks = np.linspace(0, len(points) - 1, min(len(points), 20)).round().astype(int)
    errors = {points[i]["t"]: abs(points[i]["concurrence_mle"] - factor_wootters_mp(factors[i]))
              for i in picks.tolist()}
    assert len(errors) == min(len(points), 20)
    assert max(errors.values()) < 1e-14, errors


@pytest.mark.parametrize("argv", FIGURES, ids=" ".join)
def test_figure_json(argv, tmp_path):
    got, want = _output(argv, tmp_path), _golden()[" ".join(argv)]
    assert got.keys() == want.keys() and got["figure"] == want["figure"]
    assert len(got["curves"]) == len(want["curves"])
    for got_curve, want_curve in zip(got["curves"], want["curves"]):
        assert got_curve.keys() == want_curve.keys()
        assert (got_curve["a1"], got_curve["a2"]) == (want_curve["a1"], want_curve["a2"])
        for key in ("t", "concurrence", "norm"):
            np.testing.assert_allclose(got_curve[key], want_curve[key], rtol=REL, atol=0,
                                       err_msg=key)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entries = [json.dumps(" ".join(argv)) + ": "
                   + json.dumps(_output(argv, Path(tmp, str(i))), separators=(",", ":"),
                                sort_keys=True)
                   for i, argv in enumerate(TOMOGRAPHY + FIGURES)]
    GOLDEN.write_text("{\n" + ",\n".join(entries) + "\n}\n")
