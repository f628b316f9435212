"""Run one workload of the ohmlab benchmark and print its metrics.

    python3 bench/run.py --workload {search,figures,graphs} --seed N --seconds S --trace {0,1}

Run from the repository root; ohmlab is imported from ``src/`` next to this
directory. After set-up the workload's round of operations repeats until
``--seconds`` have passed; every round is whole, so each run attempts the
same operations. Outputs are checked against ``oracles`` after the timed
part. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer ones. Run details go to ``bench/out/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MAX_REPORTED_ERRORS = 20


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "figures", "graphs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included.

    Reads the start time from ``/proc/self/stat`` (clock ticks since boot);
    where that is missing, counts from the first statement of this file.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - START


def import_ohmlab():
    """Import ohmlab from this checkout's src/, or None if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ohmlab
        import ohmlab.cli
    except ImportError as exc:
        print(f"bench: cannot import ohmlab from {src}: {exc}", file=sys.stderr)
        return None
    if Path(ohmlab.__file__).resolve().parent != (src / "ohmlab").resolve():
        print(f"bench: imported ohmlab from {ohmlab.__file__}, not from {src}", file=sys.stderr)
        return None
    return ohmlab


class Rounds:
    """Runs whole rounds of a workload's operations and keeps each distinct output once."""

    def __init__(self, workload, snapshot):
        self.workload = workload
        self.snapshot = snapshot
        self.ops = workload.ops()
        self.count = 0
        self.distinct: dict[str, list] = {}  # digest -> [snapshot, rounds that produced it]

    def run_until(self, deadline: float, tracer=None) -> tuple[list[float], list[float], list[int]]:
        """Rounds until ``deadline`` (perf_counter); returns wall and CPU seconds and round ids."""
        walls, cpus, ids = [], [], []
        while True:
            if tracer is not None:
                tracer.round = self.count
            outputs = []
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            for index, op in enumerate(self.ops):
                if tracer is not None:
                    tracer.op = index
                outputs.append(op())
            t1 = time.perf_counter()
            cpu1 = time.process_time()
            walls.append(t1 - t0)
            cpus.append(cpu1 - cpu0)
            ids.append(self.count)
            self.count += 1
            snapshot = self.snapshot(outputs)
            digest = hashlib.sha256(repr(snapshot).encode()).hexdigest()
            self.distinct.setdefault(digest, [snapshot, 0])[1] += 1
            if time.perf_counter() >= deadline:
                return walls, cpus, ids

    def check(self) -> tuple[list[str], int]:
        """Errors over all rounds, and the number of failed operations."""
        errors, failed = [], 0
        for snapshot, rounds in self.distinct.values():
            snapshot_errors, snapshot_failed = self.workload.check(snapshot)
            errors += snapshot_errors
            failed += snapshot_failed * rounds
        return errors, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    ohmlab = import_ohmlab()
    if ohmlab is None:
        return 2
    import warnings

    import workloads

    # The extreme-ratio cases warn on every call; the check counts them instead.
    warnings.simplefilter("ignore", ohmlab.IllConditionedWarning)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = process_age()
        rounds = Rounds(workload, workloads.snapshot)
        begin = time.perf_counter()
        if args.trace:
            import spans

            walls, cpus, _ = rounds.run_until(begin + args.seconds / 2.0)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_walls, traced_cpus, traced_ids = rounds.run_until(begin + args.seconds, tracer)
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
            values = spans.per_layer_metrics(tracer, traced_ids, workload.restarts_per_round,
                                             traced_walls, traced_cpus, walls)
            units = dict(spans.metric_names())
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
            walls, cpus = walls + traced_walls, cpus + traced_cpus
        else:
            walls, cpus, _ = rounds.run_until(begin + args.seconds)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "run_s": {"value": statistics.mean(walls), "unit": "s"},
                "cpu_s": {"value": statistics.mean(cpus), "unit": "s"},
                "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            }
        errors, failed = rounds.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in errors[:MAX_REPORTED_ERRORS]:
        print(f"bench: {error}", file=sys.stderr)
    if len(errors) > MAX_REPORTED_ERRORS:
        print(f"bench: ... {len(errors) - MAX_REPORTED_ERRORS} more errors", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(rounds.ops) * rounds.count,
        "failed": failed,
        "metrics": metrics,
    }
    details = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                   rounds=rounds.count, ops_per_round=len(rounds.ops), round_wall_s=walls, round_cpu_s=cpus,
                   distinct_outputs=len(rounds.distinct), errors=errors)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
