"""Experiment runner: emits figure curve data, parameter sweeps,
propagator decompositions, and tomography reports as deterministic
CSV/JSON files.

`figure` and `sweep` CSV files are encoded column-wise (`_cells`, `_text`):
numpy turns each float column into the exact bytes of "%.6g" % x (`_encode`
says why), and each file is one bytes buffer. The time column that every
curve of a command shares is encoded once. A cell is two uint64 words whose
unused high bytes are NUL; `_text` copies each curve's cells, row by row,
into one buffer of at most _BLOCK rows that every curve of a command reuses,
and drops the NULs of the buffer's bytes with bytes.translate(None, b"\0"),
which leaves the curve's CSV lines. `figure` and `sweep` evolve all their
curves in one dynamics.evolve_pairs call per chunk of whole curves of about
_CHUNK_ROWS rows, which is one call for every preset and the default sweep.
`decompose` keeps one `%` format per row: on its 51-row default table that
takes about 60 us, and the encoder, whose cost is mostly fixed per call,
about 90 us. Every command takes its time grid from dynamics.time_grid and
returns its files as a dict from path to bytes; `main` alone makes their
directories and writes them, so a command that fails writes no file.

Exit codes: 0 success, 1 i/o error, 2 validation error, 3 numerical error
(out of memory included), each failure with a one-line message.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import MAX_SAMPLES, evolve_pairs, rank_factor, time_grid
from .linalg import wootters
from .model import IDENTITY, AptParams, Family
from .optics import decompose_grid
from .tomography import (DEFAULT_TOTAL, MAX_TOTAL, MleConvergenceError, draw_counts,
                         fidelity, mle_fit)


def _apt(a):
    return AptParams(a=float(a))


def _pt_partner(a):
    # equal |a^2 - 1|, hence equal oscillation period / decay rate
    return AptParams(a=float(np.sqrt(2.0 - a * a)), family=Family.PT)


_A2 = [round(0.5 + i * 0.1, 12) for i in range(21)]  # run_sweep's a2 values at its defaults

# each figure id's (p1, p2) pairs and default t_max
FIGURES = {
    "2a": ([(_apt(1.2), _apt(1.2)), (_apt(1.8), _apt(1.8))], 14.0),
    "2b": ([(_apt(1.01), _apt(1.01))], 70.0),
    "3a": ([(_apt(1.2), _apt(1.3)), (_apt(1.5), _apt(1.6))], 14.0),
    "3b": ([(_apt(1.01), _apt(1.03))], 70.0),
    "4a": ([(_apt(0.8), _apt(a2)) for a2 in _A2], 10.0),
    "4b": ([(_apt(0.8), _apt(a2)) for a2 in (0.8, 1.0, 2.0)], 10.0),
    "4c": ([(_apt(1.0), _apt(a2)) for a2 in _A2], 10.0),
    "4d": ([(_apt(1.0), _apt(a2)) for a2 in (0.8, 1.0, 2.0)], 10.0),
    "A4": ([(_apt(1.2), _apt(1.2)), (_pt_partner(1.2), _pt_partner(1.2)),
            (_apt(0.8), _apt(0.8)), (_pt_partner(0.8), _pt_partner(0.8))], 14.0),
    "A5": ([(_apt(1.2), IDENTITY), (_apt(0.8), IDENTITY)], 14.0),
}


def _param_token(p):
    if p.gamma == 0.0:
        return "id"
    if p.family is Family.PT:
        return f"pt{p.a:g}"
    return f"{p.a:g}"


# CSV cells: "%.6g" % x for whole float arrays, byte for byte. A cell is the
# text of one value and the byte that ends it (comma or newline), held as two
# uint64 words whose unused high bytes are NUL; read as little-endian bytes,
# the first word is the sign and the leading text, the second the exponent
# or the digits after "0.000". Dropping the NULs of a row-major block of
# cells leaves the CSV lines.
_E_LO, _E_HI = -310, 310  # decimal exponents the tables cover
_GUARD = 1e-6             # mantissas this close to a rounding tie go to Python
_TINY = 1e-300            # smaller magnitudes go to Python (10^(e-5) stays normal)
_CHUNK_ROWS = 1 << 16     # rows encoded per call, in whole curves
_BLOCK = 1 << 12          # values encoded, and rows filled into text, per step
_BYTE = np.uint64(8)
_COMMA, _NEWLINE = ord(","), ord("\n")
_ENDS = np.array([_COMMA, _NEWLINE])  # ends of a figure row's concurrence and norm


def _encoder_tables():
    e = np.arange(_E_LO, _E_HI + 1)
    # 10^(e-5), correctly rounded: float() of a decimal string rounds exactly
    pow10 = np.array([float(f"1e{k}") for k in range(_E_LO - 5, _E_HI - 4)])
    # [p, v]: the digits of v as the high (head) or low (tail) three of six
    # digits that have a point after the first p, each at its byte of the text
    v = np.arange(1000, dtype=np.uint64)
    digit = [48 + v // 100, 48 + v // 10 % 10, 48 + v % 10]
    head, tail = np.zeros((2, 7, 1000), dtype=np.uint64)
    for p in range(1, 7):
        for j in range(3):
            head[p] |= digit[j] << np.uint64(8 * (j + (j >= p)))
            tail[p] |= digit[j] << np.uint64(8 * (3 + j + (3 + j >= p)))
        (head if p < 3 else tail)[p] |= np.uint64(ord(".") << 8 * p)
    # digits of a three-digit group left after dropping its trailing zeros
    sig = 3 - (v % 10 == 0).astype(np.intp) - (v % 100 == 0) - (v % 1000 == 0)
    fixed = (e >= -4) & (e <= 5)
    # digits before the point: e + 1 in fixed notation, 1 in scientific, and
    # six, that is no point, for the digits after "0.000"
    point = np.where(fixed & (e >= 0), e + 1, np.where(fixed, 6, 1))
    exponent = [b"" if f else b"e%+03d" % k for k, f in zip(e.tolist(), fixed.tolist())]
    exp_word = np.frombuffer(b"".join(x.ljust(8, b"\0") for x in exponent), dtype="<u8")
    low_bytes = np.uint64(2 ** 64 - 1) >> (_BYTE * (8 - np.arange(9, dtype=np.uint64)))
    low_bytes[0] = 0
    return (pow10, head.ravel(), tail.ravel(), sig, np.where(v > 0, 3 + sig, 0), point,
            exp_word.astype(np.uint64), np.array([len(x) for x in exponent]), low_bytes)


(_POW10, _HEAD, _TAIL, _SIG_HI, _SIG_LO, _POINT, _EXP_WORD, _EXP_LEN,
 _LOW_BYTES) = _encoder_tables()


def _cells(x, end):
    """The cells "%.6g" % v, followed by the byte `end` (broadcast against x),
    of every float v of x, as uint64 words of shape x.shape + (2,)."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    ends = np.broadcast_to(np.asarray(end, dtype=np.uint64), x.shape).ravel()
    cells = np.empty((x.size, 2), dtype=np.uint64)
    for i in range(0, x.size, _BLOCK):  # blocks keep the temporaries in cache
        cells[i:i + _BLOCK] = _encode(flat[i:i + _BLOCK], ends[i:i + _BLOCK])
    return cells.reshape(x.shape + (2,))


def _encode(x, end):
    """_cells of a 1-D block.

    e = floor(log10|x|) and r = |x| / 10^(e-5) in [1e5, 1e6). The power is
    the correctly rounded double, so r is off by less than 3e-10 and
    m = rint(r) is the correctly rounded six-digit mantissa unless the exact
    quotient is within 3e-10 of a half-integer. Values with r in the band
    |r - m| > 0.5 - _GUARD (exact ties among them) go to Python's own
    "%.6g" %, as do nan, +-inf, +-0.0 and |x| < 1e-300 (subnormals)."""
    ax = np.abs(x)
    fast = (ax >= _TINY) & (ax < np.inf)
    if not fast.all():
        ax[~fast] = 1.0
    e = np.floor(np.log10(ax)).astype(np.intp)
    r = ax / _POW10.take(e - _E_LO)
    m = np.rint(r)
    near_tie = np.abs(r - m) > 0.5 - _GUARD
    # log10 can miss by one next to a power of ten, and rounding can carry
    # into a seventh digit: one step of e fixes either; a tie at the old e
    # (r next to 99999.5 or 999999.5) stays flagged
    moved = np.flatnonzero((m >= 1e6) | (m < 1e5))
    if moved.size:
        e[moved] += np.where(m[moved] >= 1e6, 1, -1)
        r = ax[moved] / _POW10.take(e[moved] - _E_LO)
        m[moved] = np.rint(r)
        near_tie[moved] |= ((np.abs(r - m[moved]) > 0.5 - _GUARD)
                            | (m[moved] < 1e5) | (m[moved] >= 1e6))
    slow = np.flatnonzero(~fast | near_tie)
    m[slow] = 1e5  # any valid mantissa; Python writes these cells below
    hi = np.floor(m / 1000)
    lo = (m - 1000 * hi).astype(np.intp)
    hi = hi.astype(np.intp)
    n_sig = np.maximum(_SIG_HI.take(hi), _SIG_LO.take(lo))
    ei = e - _E_LO
    point = _POINT.take(ei)
    digits = _HEAD.take(1000 * point + hi) | _TAIL.take(1000 * point + lo)
    # the integer digits stay; the point only where a significant digit follows
    n_lead = np.maximum(point, n_sig) + (n_sig > point)
    small = (e < 0) & (e >= -4)
    lead = np.where(small, np.uint64(0x3030302E30), digits)  # "0.000"
    n_lead = np.where(small, 1 - e, n_lead)
    rest = np.where(small, digits, _EXP_WORD.take(ei))
    n_rest = np.where(small, n_sig, _EXP_LEN.take(ei))
    neg = x < 0
    lead = np.where(neg, lead << _BYTE | np.uint64(ord("-")), lead)
    lead &= _LOW_BYTES.take(n_lead + neg)
    rest &= _LOW_BYTES.take(n_rest)
    for i in slow.tolist():
        text = b"%.6g" % x[i]
        lead[i], rest[i] = np.frombuffer(text.ljust(16, b"\0"), dtype="<u8")
        n_rest[i] = max(len(text) - 8, 0)
    rest |= end << (n_rest.astype(np.uint64) * _BYTE)
    return np.stack([lead, rest], axis=-1)


def _text(rows, *columns):
    """The CSV lines of each curve, as a list of bytes without the NULs,
    whose cells are the rows of columns. A column is (curves, rows, 2), or
    broadcasts to it: (rows, 2) for a column every curve shares, (curves, 1, 2)
    or (2,) for a cell repeated on every row. Each curve is filled into one
    uint64 buffer of at most _BLOCK rows that every curve reuses, a curve
    longer than that _BLOCK rows at a time, and the buffer's bytes drop
    their NULs by bytes.translate."""
    shape = np.broadcast_shapes((1, rows, 2), *(np.shape(c) for c in columns))
    columns = [np.broadcast_to(c, shape) for c in columns]
    buf = np.empty((min(rows, _BLOCK), len(columns), 2), dtype="<u8")
    texts = []
    for curve in zip(*columns):
        parts = []
        for i in range(0, rows, _BLOCK):
            n = min(rows - i, _BLOCK)
            for j, c in enumerate(curve):
                buf[:n, j] = c[i:i + n]
            parts.append(buf[:n].tobytes().translate(None, b"\0"))
        texts.append(b"".join(parts))
    return texts


def _chunks(n_items, n_rows):
    """Slices of whole items of n_rows rows, about _CHUNK_ROWS rows each."""
    step = max(1, _CHUNK_ROWS // max(n_rows, 1))
    return [slice(i, i + step) for i in range(0, n_items, step)]


def run_figure(args):
    curves, default_t_max = FIGURES[args.figure]
    t_max = default_t_max if args.t_max is None else args.t_max
    times = time_grid(t_max, args.dt)  # every curve shares one grid
    values = [np.stack(evolve_pairs(curves[chunk], times)[:2], axis=-1)
              for chunk in _chunks(len(curves), times.size)]
    out_dir = Path(args.out)
    if args.format == "json":
        t = times.tolist()
        payload = [{"a1": _param_token(p1), "a2": _param_token(p2), "t": t,
                    "concurrence": v[:, 0].tolist(), "norm": v[:, 1].tolist()}
                   for (p1, p2), v in zip(curves, np.concatenate(values))]
        text = json.dumps({"figure": args.figure, "curves": payload}, indent=2, sort_keys=True)
        return {out_dir / f"fig{args.figure}.json": (text + "\n").encode()}
    t_cells = _cells(times, _COMMA)
    texts = []  # headed chunk by chunk: no second copy of every curve's text
    for group in values:
        cells = _cells(group, _ENDS)
        texts += [b"t,concurrence,norm\n" + text
                  for text in _text(times.size, t_cells, cells[:, :, 0], cells[:, :, 1])]
    return {out_dir / f"fig{args.figure}_{_param_token(p1)}_{_param_token(p2)}.csv": text
            for (p1, p2), text in zip(curves, texts)}


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

    p1 = _apt(args.a1)
    times = time_grid(args.t_max, args.dt)
    pairs = [(p1, _apt(a2)) for a2 in a2_values]
    chunks = _chunks(len(pairs), times.size)
    conc = [evolve_pairs(pairs[chunk], times)[0] for chunk in chunks]
    # a1, a2 and the time grid, which every a2 value shares, are encoded once
    a1_cells = _cells(args.a1, _COMMA)
    a2_cells = _cells(a2_values, _COMMA)
    t_cells = _cells(times, _COMMA)
    blocks = [b"a1,a2,t,concurrence\n"]
    for chunk, c in zip(chunks, conc):
        blocks += _text(times.size, a1_cells, a2_cells[chunk, None], t_cells,
                        _cells(c, _NEWLINE))
    return {Path(args.out): b"".join(blocks)}


def run_decompose(args):
    p = _apt(args.a1)
    times = time_grid(args.t_max, args.dt)
    d = decompose_grid(p, times)
    # theta fills both plate columns, and k is 0: the one branch serves
    fmt = "%.6g," % args.a1 + "%.6g,%.6g,%.6g,%.6g,%.6g,0,%.6g\n"
    rows = [fmt % row for row in zip(*(x.tolist() for x in (
        times, d.theta_deg, d.theta_deg, d.xi1_deg, d.xi2_deg, d.c)))]
    return {Path(args.out): ("a,t,theta1_deg,theta2_deg,xi1_deg,xi2_deg,k,c\n"
                             + "".join(rows)).encode()}


def run_tomography(args):
    if not 0 < args.total <= MAX_TOTAL:
        raise ValueError(f"--total must be in [1, {MAX_TOTAL:.0e}], got {args.total}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    pair = (_apt(args.a1), IDENTITY if args.identity_qubit2 else _apt(args.a2))
    times = time_grid(args.t_max, args.dt)
    # one array pipeline over the grid: states, counts, fits and concurrences
    (conc,), _, (truths,) = evolve_pairs([pair], times, keep_states=True)
    observed = draw_counts(truths, total=args.total, seed=args.seed,
                           noiseless=args.noiseless)[1]
    try:
        rho_hat, log_likelihood, iterations = mle_fit(observed, args.total)
    except MleConvergenceError as exc:
        raise MleConvergenceError(f"t={float(times[exc.points[0]]):g}: {exc}",
                                  exc.points) from exc
    columns = {"t": times, "fidelity": fidelity(truths, rho_hat), "concurrence_theory": conc,
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
    return {Path(args.out): (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()}


@functools.cache
def build_parser():
    """The argument parser, built once on first use and shared."""
    parser = argparse.ArgumentParser(
        prog="aptsim",
        description="Two-qubit entanglement dynamics under anti-PT-symmetric "
                    "Hamiltonians: figure data, sweeps, decompositions, tomography.")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="emit curve data for one figure id")
    fig.add_argument("--figure", required=True, choices=FIGURES, metavar="ID")
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
    tomo.add_argument("--total", type=int, default=DEFAULT_TOTAL,
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
        files = _COMMANDS[args.command](args)
        for parent in dict.fromkeys(path.parent for path in files):
            parent.mkdir(parents=True, exist_ok=True)
        for path, data in files.items():
            path.write_bytes(data)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"numerical error: out of memory{detail}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error on {getattr(exc, 'filename', None)!r}: {exc}",
              file=sys.stderr)
        return 1
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
