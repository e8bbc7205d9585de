"""A ledger of exact costs for the default CLI commands.

For each command, tests/cost_ledger.json pins the calls of `evolve_pairs`
and `rank_factor` and the fit's accepted steps in one `args.func` call, and
the tracemalloc peak of a second call in the same process. Counts must
match at every numpy version. Peaks must be within PEAK_TOL of the ledger,
in either direction, and are compared only at the numpy major.minor that
the ledger was taken with, since numpy's own allocations move between
versions. A change that moves a cost on purpose regenerates the ledger with
`python tests/test_cost_ledger.py` (`PYTHONPATH=src` in a checkout that is
not installed) and says why.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from aptsim import cli, dynamics

LEDGER = Path(__file__).with_name("cost_ledger.json")
PEAK_TOL = 0.02
COMMANDS = {" ".join(argv): argv for argv in (
    *(["figure", "--figure", f] for f in cli.FIGURES),
    ["sweep"],
    *(["decompose", "--a1", a1] for a1 in ("0.8", "1.0", "1.2", "1.8")),
    *(["tomography", "--seed", seed] for seed in ("0", "1", "2")))}
COUNTS = ("evolve_pairs", "rank_factor", "fit_steps")


def _numpy_minor():
    return ".".join(np.__version__.split(".")[:2])


def measure(argv):
    """The costs of the command argv: its kernel calls and accepted fit
    steps, counted over a first `args.func` call, and the tracemalloc peak of
    a second, uncounted one."""
    args = cli.build_parser().parse_args(argv)
    costs = dict.fromkeys(COUNTS, 0)

    def counted(mp, module, name, key, cost):
        fn = getattr(module, name)

        def wrapper(*a, **kw):
            out = fn(*a, **kw)
            costs[key] += cost(out)
            return out
        mp.setattr(module, name, wrapper)

    with pytest.MonkeyPatch.context() as mp:
        counted(mp, dynamics, "rank_factor", "rank_factor", lambda out: 1)  # its one binding
        counted(mp, cli, "evolve_pairs", "evolve_pairs", lambda out: 1)
        counted(mp, cli, "mle_fit", "fit_steps", lambda out: int(out[2].sum()))
        args.func(args)
    tracemalloc.start()
    try:
        args.func(args)
        costs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return costs


@pytest.fixture(scope="module")
def ledger():
    return json.loads(LEDGER.read_text())


def test_ledger_pins_every_command(ledger):
    assert list(ledger["commands"]) == list(COMMANDS)


@pytest.mark.parametrize("name", COMMANDS)
def test_costs_match_the_ledger(ledger, name):
    pinned, costs = ledger["commands"][name], measure(COMMANDS[name])
    assert {k: costs[k] for k in COUNTS} == {k: pinned[k] for k in COUNTS}
    if ledger["numpy"] == _numpy_minor():
        assert abs(costs["peak_bytes"] / pinned["peak_bytes"] - 1.0) <= PEAK_TOL, (
            f"tracemalloc peak {costs['peak_bytes']} bytes against {pinned['peak_bytes']}")


if __name__ == "__main__":
    LEDGER.write_text(json.dumps({"numpy": _numpy_minor(), "commands": {
        name: measure(argv) for name, argv in COMMANDS.items()}}, indent=2) + "\n")
