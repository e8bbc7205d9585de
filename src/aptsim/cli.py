"""Experiment runner: emits figure curve data, parameter sweeps,
propagator decompositions, and tomography reports as deterministic
CSV/JSON files.

CSV files are written column-wise: each float column leaves numpy once as
Python floats, each row is one `%`-format ("%.6g" % x is the text of
f"{x:.6g}" for every float, nan, inf and -0.0 included), and the time
column that every curve of a command shares is formatted once.

Exit codes: 0 success, 1 i/o error, 2 validation error, 3 numerical error.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import (IDENTITY, MAX_SAMPLES, DegenerateNormError,
                       EvolutionSpec, IdentityEvolution, rank_factor, run)
from .linalg import wootters
from .model import AptParams, Family
from .optics import DecompositionError, decompose_grid
from .tomography import MAX_TOTAL, MleConvergenceError, draw_counts, mle_fit

FIGURE_IDS = ("2a", "2b", "3a", "3b", "4a", "4b", "4c", "4d", "A4", "A5")

_SWEEP_A2_GRID = tuple(np.round(np.arange(5, 26) * 0.1, 10))


def _apt(a):
    return AptParams(a=float(a))


def _pt(a):
    return AptParams(a=float(a), family=Family.PT)


def _pt_partner(a):
    # equal |a^2 - 1|, hence equal oscillation period / decay rate
    return float(np.sqrt(2.0 - a * a))


def figure_curves(figure_id):
    """Parameter sets and default time range for one figure id."""
    if figure_id == "2a":
        return [(_apt(1.2), _apt(1.2)), (_apt(1.8), _apt(1.8))], 14.0
    if figure_id == "2b":
        return [(_apt(1.01), _apt(1.01))], 70.0
    if figure_id == "3a":
        return [(_apt(1.2), _apt(1.3)), (_apt(1.5), _apt(1.6))], 14.0
    if figure_id == "3b":
        return [(_apt(1.01), _apt(1.03))], 70.0
    if figure_id == "4a":
        return [(_apt(0.8), _apt(a2)) for a2 in _SWEEP_A2_GRID], 10.0
    if figure_id == "4b":
        return [(_apt(0.8), _apt(0.8)), (_apt(0.8), _apt(1.0)), (_apt(0.8), _apt(2.0))], 10.0
    if figure_id == "4c":
        return [(_apt(1.0), _apt(a2)) for a2 in _SWEEP_A2_GRID], 10.0
    if figure_id == "4d":
        return [(_apt(1.0), _apt(0.8)), (_apt(1.0), _apt(1.0)), (_apt(1.0), _apt(2.0))], 10.0
    if figure_id == "A4":
        return [(_apt(1.2), _apt(1.2)),
                (_pt(_pt_partner(1.2)), _pt(_pt_partner(1.2))),
                (_apt(0.8), _apt(0.8)),
                (_pt(_pt_partner(0.8)), _pt(_pt_partner(0.8)))], 14.0
    if figure_id == "A5":
        return [(_apt(1.2), IDENTITY), (_apt(0.8), IDENTITY)], 14.0
    raise ValueError(f"unknown figure id {figure_id!r}, expected one of {FIGURE_IDS}")


def _param_token(p):
    if isinstance(p, IdentityEvolution):
        return "id"
    if p.family is Family.PT:
        return f"pt{p.a:g}"
    return f"{p.a:g}"


def _column(values):
    """A float array's values as "%.6g" text, for a column that is shared."""
    return list(map("%.6g".__mod__, values.tolist()))


def _rows(fmt, t_text, *columns):
    """One `fmt % (t, *values)` line per sample, from the formatted time
    column and float arrays that leave numpy once."""
    return "".join(map(fmt.__mod__, zip(t_text, *(c.tolist() for c in columns))))


def _curve_csv(t_text, traj):
    """A figure curve's CSV, with the time column already formatted."""
    return "t,concurrence,norm\n" + _rows("%s,%.6g,%.6g\n", t_text, traj.concurrence,
                                           traj.unnormalized_norm)


def run_figure(args):
    curves, default_t_max = figure_curves(args.figure)
    t_max = default_t_max if args.t_max is None else args.t_max
    # every curve is computed before the first file is written, so a curve
    # that fails leaves no partial output
    trajs = [(_param_token(p1), _param_token(p2),
              run(EvolutionSpec(p1=p1, p2=p2, t_max=t_max, dt=args.dt)))
             for p1, p2 in curves]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        payload = [{"a1": tok1, "a2": tok2, "t": traj.times.tolist(),
                    "concurrence": traj.concurrence.tolist(),
                    "norm": traj.unnormalized_norm.tolist()}
                   for tok1, tok2, traj in trajs]
        path = out_dir / f"fig{args.figure}.json"
        path.write_text(json.dumps({"figure": args.figure, "curves": payload},
                                   indent=2, sort_keys=True) + "\n")
        return [path]
    t_text = _column(trajs[0][2].times)  # every curve of a figure shares one time grid
    written = []
    for tok1, tok2, traj in trajs:
        path = out_dir / f"fig{args.figure}_{tok1}_{tok2}.csv"
        path.write_text(_curve_csv(t_text, traj))
        written.append(path)
    return written


def run_sweep(args):
    for flag in ("a1", "a2_min", "a2_max", "a2_step"):
        if not np.isfinite(getattr(args, flag)):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite, "
                             f"got {getattr(args, flag)}")
    if args.a2_step <= 0:
        raise ValueError(f"--a2-step must be > 0, got {args.a2_step}")
    if args.a2_max < args.a2_min:
        raise ValueError("--a2-max must be >= --a2-min")
    span = (args.a2_max - args.a2_min) / args.a2_step
    if not span + 1.0 <= MAX_SAMPLES:
        raise ValueError(f"--a2-step {args.a2_step} gives {span + 1.0:.3g} a2 values, "
                         f"more than {MAX_SAMPLES}")
    n = int(np.floor(span + 1e-9))
    a2_values = [round(args.a2_min + i * args.a2_step, 12) for i in range(n + 1)]
    if not a2_values[0] > 0:
        raise ValueError(f"--a2-min {args.a2_min} gives a2 = {a2_values[0]} after rounding to "
                         f"12 decimals; a2 must be > 0")

    blocks = ["a1,a2,t,concurrence\n"]
    t_text = None  # every a2 value shares one time grid
    for a2 in a2_values:
        traj = run(EvolutionSpec(p1=_apt(args.a1), p2=_apt(a2),
                                 t_max=args.t_max, dt=args.dt))
        if t_text is None:
            t_text = _column(traj.times)
        # the constant a1 and a2 fields are formatted once per block
        blocks.append(_rows("%.6g,%.6g," % (args.a1, a2) + "%s,%.6g\n",
                            t_text, traj.concurrence))
    path = Path(args.out)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(blocks))
    return [path]


def run_decompose(args):
    p = _apt(args.a1)
    times = EvolutionSpec(p1=p, p2=p, t_max=args.t_max, dt=args.dt).time_grid()
    fmt = "%.6g," % args.a1 + "%.6g,%.6g,%.6g,%.6g,%.6g,%d,%.6g\n"
    rows = [fmt % (t, d.theta1_deg, d.theta2_deg, d.xi1_deg, d.xi2_deg, d.k, d.c)
            for t, d in zip(times.tolist(), decompose_grid(p, times))]
    path = Path(args.out)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("a,t,theta1_deg,theta2_deg,xi1_deg,xi2_deg,k,c\n" + "".join(rows))
    return [path]


def run_tomography(args):
    if not 0 < args.total <= MAX_TOTAL:
        raise ValueError(f"--total must be in [1, {MAX_TOTAL:.0e}], got {args.total}")
    p1 = _apt(args.a1)
    p2 = IDENTITY if args.identity_qubit2 else _apt(args.a2)
    traj = run(EvolutionSpec(p1=p1, p2=p2, t_max=args.t_max, dt=args.dt),
               keep_states=True)
    # one array pipeline over the grid: counts, fits and concurrences
    truths = np.array(traj.states)
    observed = draw_counts(truths, total=args.total, seed=args.seed,
                           noiseless=args.noiseless)[1]
    try:
        rho_hat, log_likelihood, iterations, fids = mle_fit(
            observed, np.full(observed.shape, args.total), truths=truths)
    except MleConvergenceError as exc:
        raise MleConvergenceError(f"t={float(traj.times[exc.points[0]]):g}: {exc}",
                                  exc.points) from exc
    columns = {"t": traj.times, "fidelity": fids, "concurrence_theory": traj.concurrence,
               "concurrence_mle": wootters(rank_factor(rho_hat))[0],
               "log_likelihood": log_likelihood, "iterations": iterations}
    points = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]

    report = {
        "a1": args.a1,
        "a2": "id" if args.identity_qubit2 else args.a2,
        "dt": args.dt,
        "t_max": args.t_max,
        "total": args.total,
        "seed": args.seed,
        "noiseless": args.noiseless,
        "points": points,
    }
    path = Path(args.out)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return [path]


@functools.cache
def build_parser():
    """The argument parser, built once on first use and shared."""
    parser = argparse.ArgumentParser(
        prog="aptsim",
        description="Two-qubit entanglement dynamics under anti-PT-symmetric "
                    "Hamiltonians: figure data, sweeps, decompositions, tomography.")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="emit curve data for one figure id")
    fig.add_argument("--figure", required=True, choices=FIGURE_IDS, metavar="ID")
    fig.add_argument("--t-max", type=float, default=None,
                     help="override the figure's default time range")
    fig.add_argument("--dt", type=float, default=0.01)
    fig.add_argument("--out", default=".", help="output directory")
    fig.add_argument("--format", choices=("csv", "json"), default="csv")

    sweep = sub.add_parser("sweep", help="concurrence over an (a2, t) grid")
    sweep.add_argument("--a1", type=float, default=0.8)
    sweep.add_argument("--a2-min", type=float, default=0.5)
    sweep.add_argument("--a2-max", type=float, default=2.5)
    sweep.add_argument("--a2-step", type=float, default=0.1)
    sweep.add_argument("--t-max", type=float, default=10.0)
    sweep.add_argument("--dt", type=float, default=0.01)
    sweep.add_argument("--out", default="sweep.csv", help="output CSV path")

    dec = sub.add_parser("decompose", help="wave-plate decomposition table")
    dec.add_argument("--a1", type=float, required=True)
    dec.add_argument("--t-max", type=float, default=5.0)
    dec.add_argument("--dt", type=float, default=0.1)
    dec.add_argument("--out", default="decomposition.csv", help="output CSV path")

    tomo = sub.add_parser("tomography", help="counts + MLE loop over a time grid")
    tomo.add_argument("--a1", type=float, default=1.2)
    tomo.add_argument("--a2", type=float, default=1.2)
    tomo.add_argument("--identity-qubit2", action="store_true",
                      help="leave qubit 2 unevolved")
    tomo.add_argument("--t-max", type=float, default=4.5)
    tomo.add_argument("--dt", type=float, default=0.5)
    tomo.add_argument("--seed", type=int, default=0)
    tomo.add_argument("--total", type=int, default=10000,
                      help="photon counts per basis")
    tomo.add_argument("--noiseless", action="store_true",
                      help="use rounded expected counts instead of Poisson draws")
    tomo.add_argument("--out", default="tomography.json", help="output JSON path")

    return parser


_COMMANDS = {
    "figure": run_figure,
    "sweep": run_sweep,
    "decompose": run_decompose,
    "tomography": run_tomography,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        written = _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateNormError, MleConvergenceError, DecompositionError,
            OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error on {getattr(exc, 'filename', None)!r}: {exc}",
              file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
