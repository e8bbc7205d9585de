"""aptsim benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload datafiles --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
its `src/` directory. The metrics, their units and the default run
length are read from `BENCHMARK.json` at the checkout root, their only
definition. `--trace 0` measures the end-to-end metrics:
set-up is timed in separate fresh interpreters, then one fresh worker
process runs the closed loop for `--seconds`. `--trace 1` runs a fixed
number of operations twice in fresh workers, without and with spans
around every public aptsim function, and reports the per-layer metrics
and the tracing overhead. Each metric is printed as `name value unit`;
the last line is the JSON result. Outputs live under
`.perfbench_runs/` in the checkout; each run keeps a record of its
environment and of a sha256 digest per operation there, and compares
digests with earlier runs of the same code and seed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread here and in every process started from here; this must
# happen before numpy is first imported.
os.environ.update({var: "1" for var in THREAD_VARS})
sys.path.insert(0, str(HERE))

import machine  # noqa: E402

PROBES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def _worker(args, deadline, stdout=subprocess.DEVNULL):
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    return subprocess.Popen(cmd, env=_child_env(), stdout=stdout,
                            stderr=subprocess.PIPE, text=True)


def _finish(proc, deadline):
    try:
        _, err = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")


def probe_setup(workload, seed, work, deadline):
    """Seconds from spawning a fresh interpreter to `ready` (imports plus
    one warm-up operation), rescaled to the reference machine by the
    kernel time the same process measures right after; median of PROBES
    runs."""
    samples = []
    for i in range(PROBES):
        began = time.perf_counter()
        proc = _worker(["--workload", workload, "--seed", str(seed), "--mode", "probe",
                        "--work", str(work / f"probe{i}")], deadline, stdout=subprocess.PIPE)
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - began
        calibration = proc.stdout.readline()
        _finish(proc, deadline)
        if ready.strip() != "ready":
            raise BenchError("set-up probe did not report ready")
        samples.append(machine.normalize(elapsed, float(calibration)))
    return statistics.median(samples), samples


def measure(workload, seed, work, deadline, seconds, rounds=0, trace=False):
    args = ["--workload", workload, "--seed", str(seed), "--mode", "measure",
            "--work", str(work), "--seconds", str(seconds), "--rounds", str(rounds)]
    _finish(_worker(args + (["--trace"] if trace else []), deadline), deadline)
    return json.loads((work / "result.json").read_text())


def end_to_end(result):
    """Throughput over all rounds, and the median over the round's
    operations of each one's median latency across rounds; every latency
    is rescaled to the reference machine (machine.py). Taking each
    operation's median first keeps the statistic on one operation when
    the round mixes commands of different sizes."""
    records = result["records"]
    latencies = {}
    for record in records:
        latencies.setdefault(record["index"], []).append(
            machine.normalize(record["latency_s"], record["calibration_s"]))
    return {
        "items_per_s": sum(r["items"] for r in records) /
        sum(sum(v) for v in latencies.values()),
        "op_ms_p50": 1000.0 * statistics.median(
            statistics.median(v) for v in latencies.values()),
        "peak_rss_mib": result["peak_rss_mib"],
    }


def wall_clock(result):
    """Items per second of plain wall-clock time over all rounds, and the
    median calibration time: what the rescaling corrected for."""
    records = result["records"]
    return (sum(r["items"] for r in records) / sum(r["latency_s"] for r in records),
            statistics.median(r["calibration_s"] for r in records))


def code_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed):
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "seed": seed, "blas_threads": 1}


def compare_record(workload, seed, digests, env, checks_mod, checks):
    """Digests of the same code and seed must repeat across runs. Records
    of other code are replaced, never compared."""
    path = ROOT / ".perfbench_runs" / "records" / f"{workload}-seed{seed}.json"
    code = code_digest()
    known = {}
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous.get("code") == code:
            known = previous["digests"]
    for index, digest in digests.items():
        if index in known:
            checks.check(known[index] == digest,
                         f"operation {index}: digest differs from an earlier run of this seed")
    known.update(digests)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"code": code, "environment": env, "digests": known},
                              indent=1, sort_keys=True))
    os.replace(tmp, path)


def run(workload, seed, seconds, trace, spec):
    import checks as checks_mod
    import tracer

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_runs" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    checks = checks_mod.Checks()
    try:
        rounds = 1 if trace else 0
        plain = measure(workload, seed, work / "plain", deadline, seconds, rounds)
        checks_mod.check_run(workload, seed, work / "plain", plain, checks)
        digests = {str(r["index"]): checks_mod.op_digest(r)
                   for r in plain["records"] if r["round"] == 0}
        if trace:
            traced = measure(workload, seed, work / "traced", deadline, seconds, rounds, True)
            checks_mod.check_run(workload, seed, work / "traced", traced, checks)
            for record in traced["records"]:
                checks.check(checks_mod.op_digest(record) == digests.get(str(record["index"])),
                             f"operation {record['index']}: traced outputs differ "
                             "from untraced")
            # a function the program no longer has reads as 0 calls
            metrics = dict.fromkeys((e["name"] for e in spec), 0)
            metrics.update(tracer.summarize(work / "traced" / "spans.npz"))
            metrics["cli.bytes_written"] = sum(
                o["bytes"] for r in traced["records"] for o in r.get("outputs", ()))
            rates = (end_to_end(plain)["items_per_s"], end_to_end(traced)["items_per_s"])
            metrics["trace.overhead_items_per_s"] = rates[0] - rates[1]
        else:
            metrics = end_to_end(plain)
            metrics["setup_s"], probes = probe_setup(workload, seed, work, deadline)
        env = environment(seed)
        compare_record(workload, seed, digests, env, checks_mod, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# operations: {len(plain['records'])} in {plain['rounds']} rounds, "
          f"{plain['loop_s']:.3f} s")
    rate, calibration = wall_clock(plain)
    print(f"# wall-clock items_per_s {rate:.6g}, calibration kernel {calibration * 1e3:.4g} ms "
          f"(reference {machine.REFERENCE_S * 1e3:g} ms)")
    if trace:
        print(f"# items_per_s untraced {rates[0]:.6g}, traced {rates[1]:.6g}")
    else:
        print(f"# setup probes (s): {', '.join(f'{s:.4f}' for s in probes)}")
    for failure in checks.failures[:20]:
        print(f"# FAILED: {failure}")
    failed_frac = checks.failed / checks.attempted
    print(f"failed_frac {failed_frac:.6g} ratio ({checks.failed} of {checks.attempted} checks)")
    for entry in spec:
        print(f"{entry['name']} {metrics[entry['name']]:.6g} {entry['unit']}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in spec},
    }


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aptsim" / "__init__.py").is_file():
        print(f"error: no aptsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
