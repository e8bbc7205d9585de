"""Experiment runner: emits figure curve data, parameter sweeps, propagator
decompositions and tomography reports as deterministic CSV/JSON files.

The CSV files of `figure` and `sweep` come from one loop over blocks of at
most _CHUNK_ROWS rows, each a run of whole curves or a piece of one longer
curve (`_blocks`): one dynamics.evolve_pairs call on the block's slice of
the time grid, then `_cells`, which encodes each float column as the exact
bytes of "%.6g" % x (Python's % writes the rare cells `_encode` lists, the
negative ones among them), and `_text`, which fills a block's cells (two
uint64 words each, their unused high bytes NUL) into one table and drops
the NULs of each curve's bytes with bytes.translate. The time cells are
encoded once; a figure curve's parts are joined after its last block.
`figure --format json` is one evolve_pairs call, and its text sets its
peak. That text and the `tomography` report come from `_json`, which writes
exactly what json.dumps(indent=2, sort_keys=True) would, float columns
checked at once, and raises where json would write NaN or Infinity.
`tomography` takes the evolved factors over sqrt(N) as its true states for
the counts and the fidelity, and the fit's own factors as its estimates:
it factors no state.
`decompose` keeps one `%` format per row: its tables have about 50 rows,
too few to pay for the encoder's cost per call. Every command, which its
subparser holds as `func`, takes its time grid from dynamics.time_grid and
returns its files as a dict from path to bytes; `main` alone makes their
directories and writes them, so a command that fails writes no file, a
target that is a directory fails it before the first write, and an OSError
while writing removes the files and directories that the call made. The
paths are printed last, so a stdout whose reader has gone exits 1 and
leaves every file in place.

Exit codes: 0 success, 1 i/o error, 2 validation error, 3 numerical error
(out of memory included), each failure with a one-line message on stderr;
a stderr whose reader has gone keeps the code.
"""

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .dynamics import MAX_SAMPLES, evolve_pairs, time_grid
from .linalg import _read_only, uhlmann, wootters
from .optics import decompose_grid
from .propagator import IDENTITY, AptParams, Family
from .tomography import DEFAULT_TOTAL, MAX_TOTAL, MleConvergenceError, draw_counts, mle_fit


def _pt_partner(a):
    # equal |a^2 - 1|, hence equal oscillation period / decay rate
    return AptParams(a=float(np.sqrt(2.0 - a * a)), family=Family.PT)


_A2 = [round(0.5 + x, 12) for x in time_grid(2.0, 0.1).tolist()]  # sweep's default a2 axis

# each figure id's (p1, p2) pairs and default t_max
FIGURES = {
    "2a": ([(AptParams(a=1.2), AptParams(a=1.2)), (AptParams(a=1.8), AptParams(a=1.8))], 14.0),
    "2b": ([(AptParams(a=1.01), AptParams(a=1.01))], 70.0),
    "3a": ([(AptParams(a=1.2), AptParams(a=1.3)), (AptParams(a=1.5), AptParams(a=1.6))], 14.0),
    "3b": ([(AptParams(a=1.01), AptParams(a=1.03))], 70.0),
    "4a": ([(AptParams(a=0.8), AptParams(a=a2)) for a2 in _A2], 10.0),
    "4b": ([(AptParams(a=0.8), AptParams(a=a2)) for a2 in (0.8, 1.0, 2.0)], 10.0),
    "4c": ([(AptParams(a=1.0), AptParams(a=a2)) for a2 in _A2], 10.0),
    "4d": ([(AptParams(a=1.0), AptParams(a=a2)) for a2 in (0.8, 1.0, 2.0)], 10.0),
    "A4": ([(AptParams(a=1.2), AptParams(a=1.2)), (_pt_partner(1.2), _pt_partner(1.2)),
            (AptParams(a=0.8), AptParams(a=0.8)), (_pt_partner(0.8), _pt_partner(0.8))], 14.0),
    "A5": ([(AptParams(a=1.2), IDENTITY), (AptParams(a=0.8), IDENTITY)], 14.0),
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
_CHUNK_ROWS = 1 << 16     # rows evolved, encoded and filled into text per block
_BLOCK = 1 << 12          # values encoded per step
_BYTE = np.uint64(8)
_COMMA, _NEWLINE = ord(","), ord("\n")
_ENDS = _read_only(np.array([_COMMA, _NEWLINE]))  # ends of a figure row's concurrence and norm


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
    return tuple(map(_read_only, (
        pow10, head.ravel(), tail.ravel(), sig, np.where(v > 0, 3 + sig, 0), point,
        exp_word.astype(np.uint64), np.array([len(x) for x in exponent]), low_bytes)))


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

    e = floor(log10 x) and r = x / 10^(e-5). The power is the correctly
    rounded double, so r is off by less than 3e-10 and m = rint(r) is the
    correctly rounded six-digit mantissa unless the exact quotient is within
    3e-10 of a half-integer. Python's own "%.6g" % writes the cells whose r
    lies in the band |r - m| > 0.5 - _GUARD (exact ties among them), whose m
    is not in [1e5, 1e6) (log10 missed by one next to a power of ten, or the
    rounding carried into a seventh digit), and whose x is not in
    [1e-300, inf): negative values, +-0.0, nan, +-inf and subnormals."""
    fast = (x >= _TINY) & (x < np.inf)
    r = np.where(fast, x, 1.0)  # 1.0 stands in for the cells Python writes
    e = np.floor(np.log10(r)).astype(np.intp)
    r /= _POW10.take(e - _E_LO)  # in place: one (n,) float fewer alive
    m = np.rint(r)
    slow = np.flatnonzero(~fast | (np.abs(r - m) > 0.5 - _GUARD) | (m >= 1e6) | (m < 1e5))
    m[slow] = 1e5  # any valid mantissa; Python writes these cells below
    # each (n,) temporary is dropped once read for the last time: the loop
    # below reads x, slow, lead, rest and n_rest alone
    del fast, r
    hi, lo = np.divmod(m.astype(np.intp), 1000)
    del m
    n_sig = np.maximum(_SIG_HI.take(hi), _SIG_LO.take(lo))
    ei = e - _E_LO
    point = _POINT.take(ei)
    digits = _HEAD.take(1000 * point + hi) | _TAIL.take(1000 * point + lo)
    del hi, lo
    # the integer digits stay; the point only where a significant digit follows
    n_lead = np.maximum(point, n_sig) + (n_sig > point)
    del point
    small = (e < 0) & (e >= -4)
    lead = np.where(small, np.uint64(0x3030302E30), digits)  # "0.000"
    n_lead = np.where(small, 1 - e, n_lead)
    del e
    rest = np.where(small, digits, _EXP_WORD.take(ei))
    del digits
    n_rest = np.where(small, n_sig, _EXP_LEN.take(ei))
    del small, n_sig, ei
    lead &= _LOW_BYTES.take(n_lead)
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
    or (2,) for a cell repeated on every row. The columns fill one
    (curves, rows, columns, 2) table, and each curve's bytes drop their NULs
    by bytes.translate."""
    shape = np.broadcast_shapes((1, rows, 2), *(np.shape(c) for c in columns))
    table = np.empty(shape[:2] + (len(columns), 2), dtype="<u8")
    for j, c in enumerate(columns):
        table[:, :, j] = c
    return [curve.tobytes().translate(None, b"\0") for curve in table]


def _blocks(n_curves, n_rows):
    """(curves, rows) slices of at most _CHUNK_ROWS rows each, in curve and
    time order: runs of whole curves, or equal pieces of one longer curve
    (they peak lower in memory than full pieces and a short rest)."""
    rows = -(-n_rows // -(-n_rows // _CHUNK_ROWS))  # n_rows / pieces, rounded up
    step = _CHUNK_ROWS // rows  # 1 for the pieces of a longer curve
    return [(slice(i, i + step), slice(j, min(j + rows, n_rows)))
            for i in range(0, n_curves, step) for j in range(0, n_rows, rows)]


_STRING = json.encoder.encode_basestring_ascii  # how json.dumps writes a str


def _json(value, indent="\n", columns=None):
    """json.dumps(value, indent=2, sort_keys=True), written directly, for the
    dicts, lists, 1-D float arrays, str, bool, int and float of a report; a
    float that is not finite raises ValueError, where json would write NaN or
    Infinity. `indent` is the newline and indentation of value's own lines.
    An array is written once per indent, however often it appears (every
    figure curve holds the one time grid): `columns` keeps its text by
    (id, indent) for the call that writes the whole value."""
    inner = indent + "  "
    columns = {} if columns is None else columns
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"a report value is {value!r}, which JSON cannot hold")
        return float.__repr__(value)
    if isinstance(value, np.ndarray):  # a column of floats, checked at once
        key = (id(value), indent)
        if key not in columns:
            write = float.__repr__ if np.isfinite(value).all() else _json  # _json raises
            columns[key] = _bracket("[]", list(map(write, value.tolist())), indent)
        return columns[key]
    if isinstance(value, list):
        return _bracket("[]", [_json(v, inner, columns) for v in value], indent)
    if isinstance(value, dict):
        return _bracket("{}", [f"{_STRING(key)}: {_json(value[key], inner, columns)}"
                               for key in sorted(value)], indent)
    if isinstance(value, str):
        return _STRING(value)
    return "true" if value is True else "false" if value is False else int.__repr__(value)


def _bracket(brackets, items, indent):
    """The JSON text of items inside brackets, one item per line below indent."""
    left, right = brackets
    inner = indent + "  "
    return left + inner + ("," + inner).join(items) + indent + right if items else left + right


def run_figure(args):
    curves, default_t_max = FIGURES[args.figure]
    t_max = default_t_max if args.t_max is None else args.t_max
    times = time_grid(t_max, args.dt)  # every curve shares one grid
    out_dir = Path(args.out)
    if args.format == "json":
        conc, norms = evolve_pairs(curves, times)[:2]
        payload = [{"a1": _param_token(p1), "a2": _param_token(p2), "t": times,
                    "concurrence": cc, "norm": n}
                   for (p1, p2), cc, n in zip(curves, conc, norms)]
        text = _json({"figure": args.figure, "curves": payload})
        return {out_dir / f"fig{args.figure}.json": (text + "\n").encode()}
    paths = [out_dir / f"fig{args.figure}_{_param_token(p1)}_{_param_token(p2)}.csv"
             for p1, p2 in curves]
    t_cells = _cells(times, _COMMA)
    files = {}  # a curve's parts, joined once its last block is done
    for c, r in _blocks(len(curves), times.size):
        cells = _cells(np.stack(evolve_pairs(curves[c], times[r])[:2], axis=-1), _ENDS)
        texts = _text(r.stop - r.start, t_cells[r], cells[:, :, 0], cells[:, :, 1])
        for path, text in zip(paths[c], texts):
            files.setdefault(path, [b"t,concurrence,norm\n"]).append(text)
            if r.stop == times.size:
                files[path] = b"".join(files[path])
    return files


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
    a2_values = [round(args.a2_min + x, 12)
                 for x in time_grid(args.a2_max - args.a2_min, args.a2_step).tolist()]
    if not a2_values[0] > 0:
        raise ValueError(f"--a2-min {args.a2_min} gives a2 = {a2_values[0]} after rounding to "
                         f"12 decimals; a2 must be > 0")

    p1 = AptParams(a=args.a1)
    times = time_grid(args.t_max, args.dt)
    pairs = [(p1, AptParams(a=a2)) for a2 in a2_values]
    # a1, a2 and the time grid, which every a2 value shares, are encoded once
    a1_cells, a2_cells, t_cells = (_cells(x, _COMMA) for x in (args.a1, a2_values, times))
    texts = [b"a1,a2,t,concurrence\n"]
    for c, r in _blocks(len(pairs), times.size):
        conc = evolve_pairs(pairs[c], times[r])[0]
        texts += _text(r.stop - r.start, a1_cells, a2_cells[c, None], t_cells[r],
                       _cells(conc, _NEWLINE))
    return {Path(args.out): b"".join(texts)}


def run_decompose(args):
    p = AptParams(a=args.a1)
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
    if args.seed >= 2 ** 32:  # draw_counts' bound, checked before any work
        raise ValueError(f"--seed must be < 2**32, got {args.seed}")
    pair = (AptParams(a=args.a1), IDENTITY if args.a2 == "id" else AptParams(a=args.a2))
    times = time_grid(args.t_max, args.dt)
    # one array pipeline over the grid: states, counts, fits and concurrences
    (conc,), (norms,), (kets,) = evolve_pairs([pair], times)
    truths = kets / np.sqrt(norms)[:, None, None]  # the factors of the true states
    observed = draw_counts(truths, total=args.total, seed=args.seed,
                           noiseless=args.noiseless)[1]
    try:
        factor, log_likelihood, iterations = mle_fit(observed, args.total)
    except MleConvergenceError as exc:
        raise MleConvergenceError(f"t={float(times[exc.points[0]]):g}: {exc}",
                                  exc.points) from exc
    # both measures of an estimate take the fit's own factor
    columns = {"t": times, "fidelity": uhlmann(truths, factor),
               "concurrence_theory": conc, "concurrence_mle": wootters(factor)[0],
               "log_likelihood": log_likelihood, "iterations": iterations}
    points = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]

    fields = ("a1", "a2", "dt", "t_max", "total", "seed", "noiseless")
    report = {k: getattr(args, k) for k in fields} | {"points": points}
    return {Path(args.out): (_json(report) + "\n").encode()}


@functools.cache
def build_parser():
    """The argument parser, built once on first use and shared."""
    parser = argparse.ArgumentParser(
        prog="aptsim",
        description="Two-qubit entanglement dynamics under anti-PT-symmetric "
                    "Hamiltonians: figure data, sweeps, decompositions, tomography.")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="emit curve data for one figure id")
    fig.set_defaults(func=run_figure)
    fig.add_argument("--figure", required=True, choices=FIGURES, metavar="ID")
    fig.add_argument("--t-max", type=float, default=None,
                     help="override the figure's default time range")
    fig.add_argument("--dt", type=float, default=0.01)
    fig.add_argument("--out", default=".", help="output directory")
    fig.add_argument("--format", choices=("csv", "json"), default="csv")

    sweep = sub.add_parser("sweep", help="concurrence over an (a2, t) grid")
    sweep.set_defaults(func=run_sweep)
    sweep.add_argument("--a1", type=float, default=0.8)
    sweep.add_argument("--a2-min", type=float, default=0.5)
    sweep.add_argument("--a2-max", type=float, default=2.5)
    sweep.add_argument("--a2-step", type=float, default=0.1)
    sweep.add_argument("--t-max", type=float, default=10.0)
    sweep.add_argument("--dt", type=float, default=0.01)
    sweep.add_argument("--out", default="sweep.csv", help="output CSV path")

    dec = sub.add_parser("decompose", help="wave-plate decomposition table")
    dec.set_defaults(func=run_decompose)
    dec.add_argument("--a1", type=float, required=True)
    dec.add_argument("--t-max", type=float, default=5.0)
    dec.add_argument("--dt", type=float, default=0.1)
    dec.add_argument("--out", default="decomposition.csv", help="output CSV path")

    tomo = sub.add_parser("tomography", help="counts + MLE loop over a time grid")
    tomo.set_defaults(func=run_tomography)
    tomo.add_argument("--a1", type=float, default=1.2)
    tomo.add_argument("--a2", type=float, default=1.2)
    tomo.add_argument("--identity-qubit2", action="store_const", dest="a2", const="id",
                      help="leave qubit 2 unevolved; the later of this and --a2 wins")
    tomo.add_argument("--t-max", type=float, default=4.5)
    tomo.add_argument("--dt", type=float, default=0.5)
    tomo.add_argument("--seed", type=int, default=0)
    tomo.add_argument("--total", type=int, default=DEFAULT_TOTAL,
                      help="photon counts per basis")
    tomo.add_argument("--noiseless", action="store_true",
                      help="use rounded expected counts instead of Poisson draws")
    tomo.add_argument("--out", default="tomography.json", help="output JSON path")

    return parser


def _quiet(stream):
    """Point a stream whose reader has gone at the null device, which then
    takes the interpreter's last flush."""
    with open(os.devnull, "wb") as null:
        os.dup2(null.fileno(), stream.fileno())


def _fail(code, message):
    """Report a failure on stderr and return its exit code, which a stderr
    whose reader has gone does not change."""
    try:
        print(message, file=sys.stderr, flush=True)
    except BrokenPipeError:
        _quiet(sys.stderr)
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    made = []  # the directories and files that this call creates, outermost first
    try:
        files = args.func(args)
        for path in files:  # before any write, so that no old file is rewritten
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for parent in dict.fromkeys(path.parent for path in files):
            made += [d for d in (*parent.parents[::-1], parent) if not os.path.lexists(d)]
            parent.mkdir(parents=True, exist_ok=True)
        for path, data in files.items():
            made += [] if os.path.lexists(path) else [path]
            path.write_bytes(data)
    except ValueError as exc:
        return _fail(2, f"error: {exc}")
    except ArithmeticError as exc:
        return _fail(3, f"numerical error: {exc}")
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        return _fail(3, f"numerical error: out of memory{detail}")
    except OSError as exc:
        for path in reversed(made):  # a directory is empty once its files are gone
            with contextlib.suppress(OSError):
                path.rmdir() if path.is_dir() else path.unlink()
        return _fail(1, f"i/o error on {getattr(exc, 'filename', None)!r}: {exc}")
    try:
        print(*files, sep="\n", flush=True)
    except BrokenPipeError as exc:  # the files stay: only the reader has gone
        _quiet(sys.stdout)
        return _fail(1, f"i/o error on '<stdout>': {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
