"""One workload in a fresh interpreter: set up, run the timed closed loop,
then hash what the program produced.

    python3 perfbench/worker.py --workload W --seed N --work DIR --mode probe
    python3 perfbench/worker.py --workload W --seed N --work DIR --mode measure \
        --seconds S [--rounds K] [--trace]

`probe` imports the package, runs one warm-up operation on a tiny grid and
prints `ready`, which run.py times from process start; it then prints the
time of machine.py's calibration kernel. `measure` issues
the workload's round of operations again and again, each operation only
after the previous one returned, through `aptsim.cli.main` or
`aptsim.run`, with the calibration kernel of machine.py timed between
consecutive operations: until at least two rounds are done and `--seconds` have
passed, or for exactly `--rounds` rounds. Round k writes below DIR/r<k>.
A returned trajectory is hashed right after its operation, outside the
timed call, and only round 0 keeps its arrays, so peak memory does not
grow with the number of rounds that fit into the run. The worker then
writes DIR/result.json, plus DIR/trajectories.npz (round 0 of
mixed_states) and DIR/spans.npz when traced. The program's stdout goes
to the null device.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import machine  # noqa: E402
import workloads  # noqa: E402


def _run_spec(aptsim, op, t_max=workloads.MIXED_T_MAX):
    factor = workloads.initial_factor(op)
    return aptsim.EvolutionSpec(p1=aptsim.AptParams(a=op["a1"]),
                                p2=aptsim.AptParams(a=op["a2"]),
                                t_max=t_max, dt=workloads.MIXED_DT,
                                initial=factor @ factor.conj().T)


def _warm_up(aptsim, workload, seed, work):
    """One operation of the workload's kind on a tiny grid."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if workload == "datafiles":
            rc = aptsim.cli.main(["figure", "--figure", "2a", "--t-max", "0.05",
                                  "--out", str(work / "warmup")])
        elif workload == "tomography":
            rc = aptsim.cli.main(["tomography", "--t-max", "0",
                                  "--out", str(work / "warmup" / "t.json")])
        else:
            op = workloads.round_ops(workload, seed)[0]
            aptsim.run(_run_spec(aptsim, op, t_max=0.05))
            rc = 0
    if rc != 0:
        raise RuntimeError(f"warm-up exited with {rc}")


def _execute(aptsim, op, prefix):
    """Issue one operation; returns (status, trajectory or None)."""
    try:
        if "argv" in op:
            argv = list(op["argv"])
            argv[-1] = prefix + argv[-1]
            rc = aptsim.cli.main(argv)
            return ("ok" if rc == 0 else f"exit {rc}"), None
        return "ok", aptsim.run(_run_spec(aptsim, op))
    except Exception as exc:  # a raising operation is a failed operation
        return f"raised {type(exc).__name__}: {exc}", None


def _file_digests(directory):
    out = []
    if directory.is_dir():
        for path in sorted(p for p in directory.rglob("*") if p.is_file()):
            data = path.read_bytes()
            out.append({"name": path.relative_to(directory).as_posix(),
                        "sha256": hashlib.sha256(data).hexdigest(),
                        "bytes": len(data)})
    return out


def _items(directory):
    """Items a CLI operation wrote: CSV data rows or tomography time points."""
    count = 0
    for path in directory.rglob("*") if directory.is_dir() else ():
        if path.suffix == ".csv":
            with path.open() as handle:
                count += sum(1 for _ in handle) - 1
        elif path.suffix == ".json":
            count += len(json.loads(path.read_text())["points"])
    return count


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--mode", choices=("probe", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds instead of timing")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import numpy as np
    import aptsim
    import aptsim.cli

    src = (HERE.parent / "src").resolve()
    if src not in Path(aptsim.__file__).resolve().parents:
        print(f"aptsim imported from {aptsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = args.work.resolve()
    work.mkdir(parents=True, exist_ok=True)
    _warm_up(aptsim, args.workload, args.seed, work)
    if args.mode == "probe":
        print("ready", flush=True)
        machine.calibrate()
        print(machine.calibrate(), flush=True)
        return 0
    machine.calibrate()

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    os.chdir(work)
    ops = workloads.round_ops(args.workload, args.seed)
    runs = []  # (round, index, latency, calibration, status, samples, digest)
    first = []  # (index, trajectory) of round 0, for the oracle checks
    clock = time.perf_counter
    rounds = 0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = clock()
        before = machine.calibrate()
        while True:
            for index, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = len(runs)
                began = clock()
                status, trajectory = _execute(aptsim, op, f"r{rounds}/")
                latency = clock() - began
                after = machine.calibrate()
                samples = digest = None
                if trajectory is not None:
                    samples = int(len(trajectory.times))
                    digest = hashlib.sha256(trajectory.concurrence.tobytes() +
                                            trajectory.unnormalized_norm.tobytes()).hexdigest()
                    if rounds == 0:
                        first.append((index, trajectory))
                runs.append((rounds, index, latency, (before + after) / 2.0,
                             status, samples, digest))
                before = after
            rounds += 1
            elapsed = clock() - start
            if rounds == args.rounds or \
                    (not args.rounds and rounds >= 2 and elapsed >= args.seconds):
                break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        tracer.save(work / "spans.npz")

    records = []
    for round_, index, latency, calibration, status, samples, digest in runs:
        where = f"r{round_}/{ops[index].get('dir', '')}"
        record = {"round": round_, "index": index, "dir": where,
                  "latency_s": latency, "calibration_s": calibration, "status": status,
                  "items": samples if samples is not None else _items(work / where)}
        if "argv" in ops[index]:
            record["outputs"] = _file_digests(work / where)
        else:
            record["digest"] = digest
        records.append(record)

    if args.workload == "mixed_states":
        np.savez(work / "trajectories.npz",
                 index=np.array([index for index, _ in first], dtype=np.int64),
                 concurrence=np.array([t.concurrence for _, t in first]),
                 norm=np.array([t.unnormalized_norm for _, t in first]),
                 times=first[0][1].times if first else np.zeros(0))

    result = {"loop_s": elapsed, "rounds": rounds,
              "peak_rss_mib": peak_rss_mib, "ops": ops, "records": records}
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
