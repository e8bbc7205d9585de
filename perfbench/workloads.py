"""The operation rounds of the three workloads, as plain data.

Nothing here imports aptsim: the worker turns each operation into a call
through a public entry point, and the checker uses the same descriptions
to know which outputs to expect. Every input is a function of the
benchmark seed and the operation index, so every round of a run, and
every run of the same seed, issues exactly the same operations.
"""

import numpy as np

WORKLOADS = ("datafiles", "tomography", "mixed_states")
FIGURE_IDS = ("2a", "2b", "3a", "3b", "4a", "4b", "4c", "4d", "A4", "A5")
DECOMPOSE_A1 = ("0.8", "1.0", "1.2", "1.8")

# tomography cycles through these flag sets, in this order
TOMOGRAPHY_KINDS = (
    ("noisy", []),
    ("noisy_id2", ["--identity-qubit2"]),
    ("noiseless", ["--noiseless"]),
)

MIXED_T_MAX = 10.0
MIXED_DT = 0.01

# Distinct operations per round for the seeded workloads. A run repeats
# its round until the clock runs out, so every operation is timed several
# times across the run; a traced run issues exactly one round.
TOMOGRAPHY_ROUND = 12
MIXED_ROUND = 24


def _datafiles_round():
    """The 15 CLI commands of one datafiles pass, each writing into its own
    directory `o<op>`."""
    ops = []

    def add(kind, argv, out_is_dir, **info):
        where = f"o{len(ops):02d}"
        out = where if out_is_dir else f"{where}/{kind}.csv"
        ops.append({"kind": kind, "argv": argv + ["--out", out], "dir": where, **info})

    for fig in FIGURE_IDS:
        add("figure", ["figure", "--figure", fig], True, figure=fig)
    add("sweep", ["sweep"], False)
    for a1 in DECOMPOSE_A1:
        add("decompose", ["decompose", "--a1", a1], False, a1=float(a1))
    return ops


def _tomography_op(seed, index):
    """Kinds cycle, and every command draws its own count seed from the
    benchmark seed."""
    kind, flags = TOMOGRAPHY_KINDS[index % len(TOMOGRAPHY_KINDS)]
    count_seed = int(np.random.default_rng([seed, index]).integers(0, 2**31 - 1))
    where = f"o{index:02d}"
    argv = ["tomography", "--seed", str(count_seed), *flags,
            "--out", f"{where}/tomography.json"]
    return {"kind": kind, "argv": argv, "dir": where, "count_seed": count_seed}


def _draw_a(rng):
    """Qubit parameter: broken (a < 1), unbroken (a > 1), or exactly 1."""
    u = rng.random()
    if u < 0.4:
        return float(rng.uniform(0.5, 1.0))
    if u < 0.8:
        return float(rng.uniform(1.0, 2.5))
    return 1.0


def _mixed_op(seed, index):
    """Three Werner states, then one partially entangled pure ket
    cos(th)|01> + sin(th)|10>."""
    rng = np.random.default_rng([seed, index])
    a1, a2 = _draw_a(rng), _draw_a(rng)
    if index % 4 < 3:
        # p in (1/3, 1): entangled but full rank
        p = float(rng.uniform(1.0 / 3.0, 1.0))
        return {"kind": "werner", "a1": a1, "a2": a2, "p": p}
    theta = float(rng.uniform(0.0, np.pi / 2.0))
    return {"kind": "ket", "a1": a1, "a2": a2, "theta": theta}


def round_ops(workload, seed):
    """The operations of one round, in issue order."""
    if workload == "datafiles":
        return _datafiles_round()
    if workload == "tomography":
        return [_tomography_op(seed, i) for i in range(TOMOGRAPHY_ROUND)]
    if workload == "mixed_states":
        return [_mixed_op(seed, i) for i in range(MIXED_ROUND)]
    raise ValueError(f"unknown workload {workload!r}")


def initial_factor(op):
    """A with rho0 = A A^H for a mixed_states operation (4 x k, complex)."""
    bell = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    if op["kind"] == "werner":
        p = op["p"]
        return np.hstack([np.sqrt(p) * bell[:, None],
                          np.sqrt((1.0 - p) / 4.0) * np.eye(4, dtype=complex)])
    ket = np.zeros(4, dtype=complex)
    ket[1], ket[2] = np.cos(op["theta"]), np.sin(op["theta"])
    return ket[:, None]
