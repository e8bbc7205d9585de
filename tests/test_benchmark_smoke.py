"""One round of each benchmark workload, through perfbench's own worker and
checks: the surface the benchmark builds on (AptParams, EvolutionSpec, run,
cli.main) still runs every operation, and every output matches the
benchmark's oracle. Nothing is written into the checkout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SEED = 7
WORKLOADS = ("datafiles", "tomography", "mixed_states")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.fixture(scope="module")
def checks_module():
    sys.path.insert(0, str(PERFBENCH))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import checks
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = writes
    return checks


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """{workload: (worker process, its stderr, work directory)}: one round
    of each workload, the three workers started together."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               **dict.fromkeys(THREAD_VARS, "1"))
    base = tmp_path_factory.mktemp("perfbench")
    procs = {workload: subprocess.Popen(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", str(SEED), "--mode", "measure", "--rounds", "1",
         "--work", str(base / workload)],
        env=env, cwd=base, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for workload in WORKLOADS}
    try:
        return {workload: (proc, proc.communicate(timeout=120)[1], base / workload)
                for workload, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_passes_every_check(rounds, checks_module, workload):
    proc, stderr, work = rounds[workload]
    assert proc.returncode == 0, stderr
    result = json.loads((work / "result.json").read_text())
    assert [r["status"] for r in result["records"]] == ["ok"] * len(result["ops"])
    checks = checks_module.Checks()
    checks_module.check_run(workload, SEED, work, result, checks)
    assert checks.attempted > 0
    assert checks.failures == []
