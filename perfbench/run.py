"""Benchmark of the qdmfluor package: one seeded workload, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  Workloads (see workloads.py):
``map-render``, ``sweep-study`` and ``cli-batch``.

With --trace 0 the benchmark times set-up (fresh interpreters importing
``qdmfluor.cli``), then runs the workload in one child interpreter for S
seconds and reports the end-to-end metrics.  With --trace 1 the child
alternates untraced and traced iterations and reports per-layer metrics
from the spans.  Every output is checked; failures count in ``failed``.
The last line of standard output is one JSON object; the lines before it
are the same figures for a reader, plus the machine facts.  Exit code 2
means there is no package source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("map-render", "sweep-study", "cli-batch")
SETUP_SAMPLES = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "sweep_rows_per_s": "1/s",
}

PER_LAYER = {
    "config.parse_s": "s",
    "config.parse_calls": "count",
    "core.diag_s": "s",
    "core.diag_calls": "count",
    "spectrum.transitions_s": "s",
    "spectrum.transitions_calls": "count",
    "spectrum.synthesize_s": "s",
    "spectrum.lorentz_evals": "count-computed",
    "sweep.intensity_map_s": "s",
    "sweep.branches_s": "s",
    "sweep.curves_s": "s",
    "sweep.tempseries_s": "s",
    "sweep.rows": "count",
    "sweep.self_s": "s",
    "cli.self_s": "s",
    "cli.spectrum.self_s": "s",
    "cli.transitions.self_s": "s",
    "cli.branches.self_s": "s",
    "cli.map.self_s": "s",
    "cli.tempseries.self_s": "s",
    "cli.plot.self_s": "s",
    "cli.bytes_out": "bytes",
    "cli.bytes_in": "bytes",
    "cli.rows_out": "count",
    "svgplot.heatmap_s": "s",
    "svgplot.line_chart_s": "s",
    "svgplot.cells": "count",
    "svgplot.bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict[str, str]:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def measure_setup(env: dict[str, str]) -> list[float]:
    """Wall time of fresh interpreters importing qdmfluor.cli, after one that writes bytecode."""
    cmd = [sys.executable, "-c", "import qdmfluor.cli"]
    times = []
    for k in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import qdmfluor.cli failed:\n{proc.stderr}")
        if k:
            times.append(time.perf_counter() - start)
    return times


def run_worker(args: argparse.Namespace, env: dict[str, str], workdir: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--spans", str(WORK / f"spans-{args.workload}.csv")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload did not finish within {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_ratio(failed: int, attempted: int) -> float:
    """Failed operations and output checks over those attempted."""
    return failed / attempted if attempted else 1.0


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def operation_medians(its: list[dict]) -> list[float]:
    """Median latency of each operation of the workload over the iterations.

    The latency percentiles are taken over these, one value per command, so
    they describe the slow end of the command mix rather than which
    iterations the host happened to slow down.
    """
    return [statistics.median(lat) for lat in zip(*(it["latencies"] for it in its))]


def end_to_end(raw: dict, setup: list[float]) -> dict[str, float]:
    its = raw["iterations"]
    latencies = operation_medians(its)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(it["wall"] for it in its),
        "peak_rss_mb": raw["maxrss_kb"] / 1024.0,
        "cmd_p50_ms": 1e3 * statistics.median(latencies),
        "cmd_p90_ms": 1e3 * _p90(latencies),
        "sweep_rows_per_s": statistics.median(it["rows"] / it["wall"] for it in its),
    }


def per_layer(raw: dict) -> dict[str, float]:
    traced = [it for it in raw["iterations"] if it["traced"]]
    plain = [it["wall"] for it in raw["iterations"] if not it["traced"]]
    out = {name: statistics.median(it["layers"][name] for it in traced)
           for name in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = statistics.median(it["wall"] for it in traced) - statistics.median(plain)
    return out


def command_medians(raw: dict) -> dict[str, tuple[float, int]]:
    """Operation name -> (median untraced latency in s, sample count)."""
    samples: dict[str, list[float]] = {}
    for it in raw["iterations"]:
        if not it["traced"]:
            for name, latency in zip(it["names"], it["latencies"]):
                samples.setdefault(name, []).append(latency)
    return {name: (statistics.median(v), len(v)) for name, v in samples.items()}


def machine_facts(raw: dict) -> dict:
    llc = None
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    try:
        levels = [(int((c / "level").read_text()), (c / "size").read_text().strip()) for c in caches]
        llc = max(levels)[1] if levels else None
    except (OSError, ValueError):
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "qdmfluor").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": raw["python"], "numpy": raw["numpy"],
            "llc": llc, "src_qdmfluor_lines": src_lines}


def report(args: argparse.Namespace, raw: dict, metrics: dict[str, float], units: dict[str, str]) -> None:
    its = raw["iterations"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(its)} iterations ({sum(it['traced'] for it in its)} traced)")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"  cmd_p50_ms and cmd_p90_ms over {len(its[0]['latencies'])} operations, "
              f"each the median of {len(its)} runs")
    medians = command_medians(raw)
    for name, (median, count) in medians.items():
        print(f"  median {name:<26} {median:>10.6g} s (n={count})")
    if args.workload == "map-render" and not args.trace:
        print(f"  map_s {medians['cli.map'][0]:.6g} s, heatmap_s {medians['cli.plot'][0]:.6g} s")
    if args.trace:
        shares = [it["physics_share"] for it in its if it["traced"]]
        print(f"  core+spectrum+sweep share of traced wall: {statistics.median(shares):.3f}")
    ratio = failed_ratio(raw["failed"], raw["attempted"])
    print(f"  failed_ratio {raw['failed']}/{raw['attempted']} = {ratio:.6g}")
    for problem in raw["problems"]:
        print(f"  FAILED {problem}")
    print("facts " + json.dumps(machine_facts(raw)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' shrinks every input for smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "qdmfluor" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'qdmfluor'}; "
              "run from the root of a qdmfluor source checkout", file=sys.stderr)
        return 2
    # The whole run ends within three minutes, whatever the workload does.
    deadline = time.perf_counter() + 170.0
    env = _env()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = [] if args.trace else measure_setup(env)
        raw = run_worker(args, env, workdir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, units = (per_layer(raw), PER_LAYER) if args.trace else (end_to_end(raw, setup), END_TO_END)
    report(args, raw, metrics, units)
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
