"""Child process of the benchmark: runs one workload for a fixed time.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --size full|small --workdir DIR [--spans FILE]

One caller issues the workload's operations back to back (a closed loop);
the only extra threads are the library's own pool, two at most.  After a
warm-up (see run) the worker repeats full iterations until the time is
used.  With --trace 1 it alternates untraced and traced iterations, so
the tracing overhead is measured in the same process.  The last line of
its output is one JSON object of raw samples; run.py turns them into
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layers
import workloads


class Tally:
    """Operations and checks attempted, the problems found, and the outputs verified."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verified: dict[int, str] = {}

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problem}")

    def check(self, index: int, op: workloads.Op, result: object) -> tuple[str | None, str | None]:
        """(digest of the output, problem found).

        The program is deterministic, so an output byte-identical to one this
        operation already passed with is correct without parsing it again.
        """
        try:
            digest = workloads.output_digest(op, result)
            if self.verified.get(index) != digest:
                op.check(result)
                self.verified[index] = digest
        except (workloads.CheckError, OSError, ValueError, IndexError) as exc:
            return None, str(exc)
        return digest, None


def run_iteration(ops: list[workloads.Op], pins: dict[str, str], tally: Tally,
                  rec: layers.Recorder | None = None) -> dict:
    """Run every operation once, check it, then compare the pinned digests."""
    latencies = []
    digests = []
    for index, op in enumerate(ops):
        start = time.perf_counter()
        try:
            if rec is None:
                result = op.run()
            else:
                with rec.request(op.name):
                    result = op.run()
        except Exception:  # a failed operation is counted, the run goes on
            latencies.append(time.perf_counter() - start)
            digests.append(None)
            tally.record(op.name, traceback.format_exc(limit=-1).strip().splitlines()[-1])
            continue
        latencies.append(time.perf_counter() - start)
        digest, problem = tally.check(index, op, result)
        del result  # the next operation's peak memory is its own
        digests.append(digest)
        tally.record(op.name, problem)
        if rec is not None and op.files_out:
            _count_files(rec, op)
    if pins and None not in digests:
        for group, digest in workloads.group_digests(ops, digests).items():
            if group in pins:
                tally.record(f"digest {group}", None if digest == pins[group] else f"sha256 {digest}")
    return {"wall": sum(latencies), "latencies": latencies,
            "names": [op.name for op in ops], "rows": sum(op.rows for op in ops)}


def _count_files(rec: layers.Recorder, op: workloads.Op) -> None:
    rec.counts["cli.bytes_in"] += sum(p.stat().st_size for p in op.files_in)
    for path in op.files_out:
        rec.counts["cli.bytes_out"] += path.stat().st_size
        if path.suffix == ".csv":
            with open(path, "rb") as fh:
                lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
            rec.counts["cli.rows_out"] += lines - 1


def run(args: argparse.Namespace) -> dict:
    workdir = Path(args.workdir)
    ops = workloads.build(args.workload, args.seed, args.size, workdir / "run")
    pins = workloads.pins(args.workload, args.size, args.seed)
    # Warm-up, not counted: a small iteration for imports and first-call
    # set-up, then the first operation at full size, whose first run pays for
    # growing the heap and creating its output files.
    run_iteration(workloads.build(args.workload, args.seed, "small", workdir / "warm"), {}, Tally())
    try:
        ops[0].run()
    except Exception:  # counted when the measured iterations run it again
        pass

    tally = Tally()
    rec = layers.Recorder() if args.trace else None
    iterations = []
    start = time.perf_counter()
    least = 2 if rec is not None else 1
    while len(iterations) < least or time.perf_counter() - start < args.seconds:
        traced = rec is not None and len(iterations) % 2 == 1
        gc.collect()  # every iteration starts from the same heap
        entry = {"traced": traced}
        if traced:
            first = len(rec.spans)
            before = rec.counts.copy()
            layers.instrument(rec)
            try:
                entry.update(run_iteration(ops, pins, tally, rec))
            finally:
                rec.restore()
            spans = rec.spans[first:]
            entry["layers"] = layers.layer_metrics(spans, rec.counts - before)
            entry["physics_share"] = layers.physics_share(spans)
        else:
            entry.update(run_iteration(ops, pins, tally))
        iterations.append(entry)
    if rec is not None and args.spans:
        rec.write(args.spans)

    return {
        "iterations": iterations,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
