"""Correctness checks of what a workload produced, against oracle.py.

Every check compares with a value the benchmark computes itself; none
compares with another output of the program. Each check counts once in
`attempted`, and once more in `failed` when it does not hold.
"""

import hashlib
import json
import math

import numpy as np

import oracle
import workloads

# The CLI prints 6 significant digits: rounding moves a value by at most
# 5e-6 of itself. Allow twice that.
PRINT_REL = 1e-5
# Full-precision library values against the oracle.
RUN_REL = 1e-9
# Floor for near-zero concurrence (broken regime, C down to 1e-16) on the
# pure-state route: a few thousand ulps, tighter than the 1e-10 contracts.
PURE_ABS = 1e-12
# Mixed states go through the eigenvalues of the non-Hermitian spin-flip
# matrix rho rho~; their square roots lose digits when the concurrence is
# small. Over every sample of the Werner runs of 80 seeds the largest
# error was 3.8e-6, at any purity; allow under three times that.
MIXED_ABS = 1e-5
THEORY_ABS = 1e-9
MINIMA_2A = {"fig2a_1.2_1.2.csv": 0.01653, "fig2a_1.8_1.8.csv": 0.16219}
MINIMA_TOL = 5e-4
NOISELESS_FIDELITY = 0.999
NOISELESS_GAP = 5e-3
NOISY_FIDELITY = 0.98
NOISY_SHARE = 0.95
SAMPLED_ROWS = 16
DT = 0.01

A2_GRID = tuple(round(0.5 + 0.1 * i, 12) for i in range(21))


def _apt(a):
    return ("apt", a)


def _pt_partner(a):
    # PT partner with equal |a^2 - 1|: same period or decay rate
    return ("pt", float(np.sqrt(2.0 - a * a)))


FIGURES = {
    "2a": ([(_apt(1.2), _apt(1.2)), (_apt(1.8), _apt(1.8))], 14.0),
    "2b": ([(_apt(1.01), _apt(1.01))], 70.0),
    "3a": ([(_apt(1.2), _apt(1.3)), (_apt(1.5), _apt(1.6))], 14.0),
    "3b": ([(_apt(1.01), _apt(1.03))], 70.0),
    "4a": ([(_apt(0.8), _apt(a2)) for a2 in A2_GRID], 10.0),
    "4b": ([(_apt(0.8), _apt(0.8)), (_apt(0.8), _apt(1.0)), (_apt(0.8), _apt(2.0))], 10.0),
    "4c": ([(_apt(1.0), _apt(a2)) for a2 in A2_GRID], 10.0),
    "4d": ([(_apt(1.0), _apt(0.8)), (_apt(1.0), _apt(1.0)), (_apt(1.0), _apt(2.0))], 10.0),
    "A4": ([(_apt(1.2), _apt(1.2)), (_pt_partner(1.2), _pt_partner(1.2)),
            (_apt(0.8), _apt(0.8)), (_pt_partner(0.8), _pt_partner(0.8))], 14.0),
    "A5": ([(_apt(1.2), None), (_apt(0.8), None)], 14.0),
}


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _token(param):
    if param is None:
        return "id"
    family, a = param
    return f"pt{a:g}" if family == "pt" else f"{a:g}"


def _h(param):
    return None if param is None else oracle.hamiltonian(param[1], param[0])


def _grid(t_max, dt):
    return np.arange(int(round(t_max / dt)) + 1) * dt


def _read_csv(path, header, checks):
    with path.open() as handle:
        first = handle.readline().strip()
        rows = np.loadtxt(handle, delimiter=",", ndmin=2)
    checks.check(first == header, f"{path.name}: header {first!r}")
    return rows


def _sample(values, extra, rng):
    """First, last, min and max rows, plus SAMPLED_ROWS drawn from rng."""
    n = len(values)
    picked = {0, n - 1, int(np.argmin(values)), int(np.argmax(values))}
    if extra is not None:
        picked.update((int(np.argmin(extra)), int(np.argmax(extra))))
    picked.update(int(i) for i in rng.choice(n, size=min(SAMPLED_ROWS, n), replace=False))
    return np.array(sorted(picked))


def _close(value, expected, rel, floor=0.0):
    return abs(value - expected) <= rel * abs(expected) + floor


def check_curve(path, h1, h2, t_max, rng, checks):
    """t,concurrence,norm rows against the Bell-state oracle."""
    rows = _read_csv(path, "t,concurrence,norm", checks)
    times = _grid(t_max, DT)
    if not checks.check(rows.shape == (times.size, 3),
                        f"{path.name}: {rows.shape} rows, expected {times.size}"):
        return rows
    checks.check(np.all(np.abs(rows[:, 0] - times) <= PRINT_REL * times + 1e-12),
                 f"{path.name}: t column is not the grid")
    idx = _sample(rows[:, 1], rows[:, 2], rng)
    conc, norm = oracle.bell_curve(h1, h2, times[idx])
    for i, c, n in zip(idx, conc, norm):
        checks.check(_close(rows[i, 1], c, PRINT_REL, PURE_ABS) and
                     _close(rows[i, 2], n, PRINT_REL),
                     f"{path.name} row {i}: ({rows[i, 1]:.10g}, {rows[i, 2]:.10g}) "
                     f"vs oracle ({c:.10g}, {n:.10g})")
    return rows


def check_figure(directory, figure, rng, checks):
    curves, t_max = FIGURES[figure]
    expected = {f"fig{figure}_{_token(p1)}_{_token(p2)}.csv": (p1, p2) for p1, p2 in curves}
    found = sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []
    checks.check(found == sorted(expected), f"figure {figure}: files {found}")
    for name, (p1, p2) in sorted(expected.items()):
        path = directory / name
        if not checks.check(path.is_file(), f"figure {figure}: missing {name}"):
            continue
        rows = check_curve(path, _h(p1), _h(p2), t_max, rng, checks)
        if name in MINIMA_2A and rows.ndim == 2 and rows.shape[0]:
            low = float(rows[:, 1].min())
            checks.check(abs(low - MINIMA_2A[name]) < MINIMA_TOL,
                         f"{name}: minimum {low} vs {MINIMA_2A[name]}")


def check_sweep(path, rng, checks):
    rows = _read_csv(path, "a1,a2,t,concurrence", checks)
    times = _grid(10.0, DT)
    if not checks.check(rows.shape == (len(A2_GRID) * times.size, 4),
                        f"sweep: {rows.shape} rows"):
        return
    h1 = oracle.hamiltonian(0.8)
    for k, a2 in enumerate(A2_GRID):
        block = rows[k * times.size:(k + 1) * times.size]
        checks.check(np.all(block[:, 0] == 0.8) and np.all(block[:, 1] == a2) and
                     np.all(np.abs(block[:, 2] - times) <= PRINT_REL * times + 1e-12),
                     f"sweep a2={a2}: a1, a2 or t columns off the grid")
        idx = _sample(block[:, 3], None, rng)
        conc, _ = oracle.bell_curve(h1, oracle.hamiltonian(a2), times[idx])
        for i, c in zip(idx, conc):
            checks.check(_close(block[i, 3], c, PRINT_REL, PURE_ABS),
                         f"sweep a2={a2} row {i}: {block[i, 3]:.10g} vs oracle {c:.10g}")


def _half_digit(x):
    """Half a unit in the 6th significant digit of a printed value."""
    return 0.0 if x == 0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 5)


def check_decomposition(path, a1, checks):
    """c * (plate product) against exp(-iHt), within what the printed
    angles and scale can carry: each angle enters one factor whose
    entries move by at most 2 rad per rad, and |entries| <= 1."""
    rows = _read_csv(path, "a,t,theta1_deg,theta2_deg,xi1_deg,xi2_deg,k,c", checks)
    times = _grid(5.0, 0.1)
    if not checks.check(rows.shape == (times.size, 8), f"{path.name}: {rows.shape} rows"):
        return
    targets = oracle.propagators(oracle.hamiltonian(a1), times)
    for row, t, target in zip(rows, times, targets):
        a, t_printed, th1, th2, xi1, xi2, k, c = row
        err = float(np.max(np.abs(c * oracle.plate_product(th1, th2, xi1, xi2) - target)))
        angle_slack = sum(_half_digit(x) for x in (th1, th2, xi1, xi2))
        tol = 2.0 * (2.0 * c * np.deg2rad(angle_slack) + _half_digit(c)) + 1e-12 * c
        checks.check(a == a1 and _close(t_printed, t, PRINT_REL, 1e-12) and
                     k == int(k) and err <= tol,
                     f"{path.name} t={t:g}: round-trip error {err:.3e} > {tol:.3e}")


def check_datafiles(work, ops, first, seed, checks):
    rng = np.random.default_rng([seed, 1])
    for op, record in zip(ops, first):
        directory = work / record["dir"]
        if op["kind"] == "figure":
            check_figure(directory, op["figure"], rng, checks)
        elif op["kind"] == "sweep":
            check_sweep(directory / "sweep.csv", rng, checks)
        else:
            check_decomposition(directory / "decompose.csv", op["a1"], checks)


def check_tomography(work, ops, first, seed, checks):
    noisy = []
    times = _grid(4.5, 0.5)
    h = oracle.hamiltonian(1.2)
    for op, record in zip(ops, first):
        name = f"tomography {op['dir']} ({op['kind']})"
        if record["status"] != "ok":
            continue
        report = json.loads((work / record["dir"] / "tomography.json").read_text())
        points = report.get("points", [])
        identity = op["kind"] == "noisy_id2"
        if not checks.check(
                len(points) == times.size and
                all(abs(p["t"] - t) < 1e-12 for p, t in zip(points, times)) and
                report.get("a2") == ("id" if identity else 1.2) and
                report.get("noiseless") == (op["kind"] == "noiseless") and
                report.get("seed") == op["count_seed"],
                f"{name}: report header or time grid"):
            continue
        theory, _ = oracle.bell_curve(h, None if identity else h, times)
        for point, c in zip(points, theory):
            checks.check(abs(point["concurrence_theory"] - c) < THEORY_ABS,
                         f"{name} t={point['t']}: concurrence_theory "
                         f"{point['concurrence_theory']:.10g} vs oracle {c:.10g}")
            if op["kind"] == "noiseless":
                gap = abs(point["concurrence_mle"] - point["concurrence_theory"])
                checks.check(point["fidelity"] > NOISELESS_FIDELITY and gap < NOISELESS_GAP,
                             f"{name} t={point['t']}: fidelity {point['fidelity']}, "
                             f"concurrence gap {gap:.2e}")
            else:
                noisy.append(point["fidelity"])
    if noisy:
        share = float(np.mean(np.array(noisy) > NOISY_FIDELITY))
        checks.check(share >= NOISY_SHARE,
                     f"noisy tomography: {share:.3f} of {len(noisy)} points above "
                     f"{NOISY_FIDELITY}, need {NOISY_SHARE}")


def check_mixed_states(work, ops, first, seed, checks):
    rng = np.random.default_rng([seed, 2])
    data = np.load(work / "trajectories.npz")
    rows = {index: row for row, index in enumerate(data["index"].tolist())}
    times = _grid(workloads.MIXED_T_MAX, workloads.MIXED_DT)
    for i, op in enumerate(ops):
        name = f"run #{i} ({op['kind']}, a1={op['a1']:.6g}, a2={op['a2']:.6g})"
        if i not in rows:
            continue
        conc, norm = data["concurrence"][rows[i]], data["norm"][rows[i]]
        if not checks.check(conc.shape == times.shape and
                            np.allclose(data["times"], times, rtol=0, atol=1e-12),
                            f"{name}: grid of {conc.shape} samples"):
            continue
        idx = _sample(conc, norm, rng)
        factor = workloads.initial_factor(op)
        c_ref, n_ref = oracle.evolve(oracle.hamiltonian(op["a1"]),
                                     oracle.hamiltonian(op["a2"]), factor, times[idx])
        floor = MIXED_ABS if op["kind"] == "werner" else PURE_ABS
        for j, c, n in zip(idx, c_ref, n_ref):
            checks.check(_close(conc[j], c, RUN_REL, floor) and _close(norm[j], n, RUN_REL),
                         f"{name} t={times[j]:g}: ({conc[j]:.10g}, {norm[j]:.10g}) "
                         f"vs oracle ({c:.10g}, {n:.10g})")


CHECK = {"datafiles": check_datafiles, "tomography": check_tomography,
         "mixed_states": check_mixed_states}


def check_run(workload, seed, work, result, checks):
    """Every operation succeeded; round 0 matches the oracle; every later
    round repeated round 0 byte for byte."""
    records = result["records"]
    first = [r for r in records if r["round"] == 0]
    for record in records:
        checks.check(record["status"] == "ok",
                     f"{record['dir']} (operation {record['index']}): {record['status']}")
    CHECK[workload](work, result["ops"], first, seed, checks)
    for record in records[len(first):]:
        checks.check(op_digest(record) == op_digest(first[record["index"]]),
                     f"operation {record['index']} in round {record['round']}: "
                     "outputs differ from round 0")


def op_digest(record):
    """One digest per operation: its output files, or its returned arrays."""
    if "outputs" in record:
        return hashlib.sha256(json.dumps(record["outputs"]).encode()).hexdigest()
    return record.get("digest")
