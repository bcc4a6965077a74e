"""Measurement loop and command line of the end-to-end benchmark.

``run.py`` puts the simulator on the path and calls :func:`main`; see
README.md for the workloads, the metrics and how to compare two commits.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import oracle
import tracing
from repro.simulation.spec import ENGINE_VERSION
from workloads import REPO_ROOT, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent


def benchmark_spec() -> Dict[str, object]:
    """The repository's ``BENCHMARK.json``: declared metrics and run length."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@dataclass
class Measurement:
    """Everything one invocation measured."""

    metrics: Dict[str, Tuple[float, str]]
    model: Dict[str, Tuple[float, str]]
    attempted: int
    failures: List[str]
    samples: Dict[str, List[float]]
    spans: List[tracing.Span] = field(default_factory=list)
    cells: Dict[str, dict] = field(default_factory=dict)


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux: the parent's high-water mark plus that of
    # its largest (waited-for) child, e.g. a pool worker.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    pins: dict,
) -> Measurement:
    """Run ``workload`` for about ``seconds`` and reduce what was measured.

    Every rep builds the workload afresh (unless its campaign builds its own
    inputs) and runs its campaign against an empty result cache.  Reps go
    on while the next one, as long as the median rep so far, would end
    within half a rep of ``seconds``.  Standalone builds top the set-up
    samples up to the workload's ``setup_builds``.  With ``trace`` the reps
    alternate between untraced and traced (all serial, at least one of
    each), so the tracing overhead is measured in the same process.
    """
    inputs = workload.draw(seed)
    tracer = tracing.Tracer()
    setup, untraced = [], []
    walls: Dict[bool, List[float]] = {False: [], True: []}  # whole reps, by traced
    attempted, failures = 0, []
    model: Dict[str, Tuple[float, str]] = {}
    cells: Dict[str, dict] = {}
    traced_results: list = []
    begun, rep, stop = time.perf_counter(), 0, False
    while not stop:
        traced_rep = trace and rep % 2 == 1
        span = tracer.span if traced_rep else lambda name: contextlib.nullcontext()
        cache_dir = work_dir / f"cache-{rep}"
        gc.collect()
        started = time.perf_counter()
        try:
            with tracing.traced(tracer) if traced_rep else contextlib.nullcontext():
                with span(tracing.ROOT):
                    built = None
                    if not workload.campaign_builds:
                        with span("traces.build"):
                            built = workload.build(inputs, cache_dir)
                    built_at = time.perf_counter()
                    outcome = workload.campaign(built, cache_dir, pool=not trace)
            finished = time.perf_counter()
            count, problems = workload.check(outcome, seed, pins)
        except Exception:  # reported as a failed cell; no further reps
            finished = time.perf_counter()
            count, problems = 1, [f"rep {rep} raised:\n{traceback.format_exc()}"]
            stop = True
        else:
            if not workload.campaign_builds:
                setup.append(built_at - started)
            walls[traced_rep].append(finished - started)
            if not traced_rep:
                untraced.append(finished - built_at)
            model = workload.model(outcome)
            cells = {name: oracle.cell_pin(cell.result) for name, cell in outcome.cells.items()}
            if traced_rep:
                traced_results += [cell.result for cell in outcome.cells.values()]
        attempted += count
        failures += problems
        built = outcome = None
        shutil.rmtree(cache_dir, ignore_errors=True)
        rep += 1
        typical = statistics.median(walls[False] + walls[True] or [finished - started])
        stop = stop or (
            rep >= (2 if trace else 1) and finished - begun + typical / 2 > seconds
        )

    while len(setup) < workload.setup_builds:
        gc.collect()
        started = time.perf_counter()
        workload.build(inputs, None)
        setup.append(time.perf_counter() - started)

    samples = {"setup_s": setup, "run_s": untraced, "traced_rep_s": walls[True]}
    if not untraced or (trace and not walls[True]):
        return Measurement({}, model, attempted, failures, samples)
    if trace:
        metrics = tracing.layer_metrics(tracer.spans, traced_results)
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        metrics.update(_handoff(workload, inputs))
    else:
        metrics = {
            "run_s": (statistics.median(untraced), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (_peak_rss_mib(), "MiB"),
        }
    return Measurement(metrics, model, attempted, failures, samples, tracer.spans, cells)


def _handoff(workload: Workload, inputs: object) -> Dict[str, Tuple[float, str]]:
    """Bytes a pool ships per worker, and the pickle round trip that ships them."""
    mapping = workload.trace_mapping(workload.build(inputs, None))
    started = time.perf_counter()
    payload = pickle.dumps(mapping, protocol=pickle.HIGHEST_PROTOCOL)
    pickle.loads(payload)
    seconds = time.perf_counter() - started
    return {
        "parallel.payload_mb": (len(payload) / 2**20, "MiB"),
        "parallel.pickle_s": (seconds, "s"),
    }


# --------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------- #
def declared_metrics(trace: bool) -> List[str]:
    """Metric names ``BENCHMARK.json`` declares for this mode."""
    return [entry["name"] for entry in benchmark_spec()["per_layer" if trace else "end_to_end"]]


def provenance() -> Dict[str, object]:
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engine_version": ENGINE_VERSION,
    }


def _as_json(metrics: Dict[str, Tuple[float, str]]) -> Dict[str, dict]:
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()}


def _record(args, measurement: Measurement) -> Dict[str, object]:
    failed = len(measurement.failures)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "metrics": _as_json(measurement.metrics),
        "model": _as_json(measurement.model),
        "samples": measurement.samples,
        "attempted": measurement.attempted,
        "failed": failed,
        "failed_frac": failed / max(measurement.attempted, 1),
        "failures": measurement.failures,
        "cells": measurement.cells,
    }


def _write_out(path: Path, args, record: Dict[str, object], spans) -> None:
    """Add ``record`` to the results file at ``path`` (created on first use)."""
    document = json.loads(path.read_text()) if path.exists() else {"sets": {}, "traced": {}}
    if args.trace:
        document["traced"][args.workload] = record
        names = sorted({span.name for span in spans})
        code = {name: i for i, name in enumerate(names)}
        rows = [
            [code[s.name], s.start, s.end, s.parent, s.cell, s.tag, list(s.work)] for s in spans
        ]
        spans_path = path.with_name(f"{path.name}.{args.workload}.spans.json")
        spans_path.write_text(json.dumps({"names": names, "spans": rows}))
    else:
        document["sets"].setdefault(args.set, {}).setdefault(args.workload, []).append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="results file to add this run to")
    parser.add_argument("--set", default="A", help="run-set name in --out (untraced runs)")
    parser.add_argument(
        "--update-pins",
        action="store_true",
        help="record this seed's cell fingerprints in pins.json instead of checking them",
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    work_dir = HERE / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = str(work_dir)  # the program's scratch files stay in the checkout
    try:
        pins = {} if args.update_pins else oracle.load_pins()
        measurement = measure(workload, args.seed, args.seconds, bool(args.trace), work_dir, pins)
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(work_dir, ignore_errors=True)

    for failure in measurement.failures:
        print(f"FAILED {args.workload} seed {args.seed}: {failure}", file=sys.stderr)
    if args.update_pins and not measurement.failures:
        pins = oracle.load_pins()
        pins["engine_version"] = ENGINE_VERSION
        pins["workloads"].setdefault(args.workload, {})[str(args.seed)] = measurement.cells
        oracle.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    if args.out is not None:
        _write_out(args.out, args, _record(args, measurement), measurement.spans)

    for name, (value, unit) in {**measurement.metrics, **measurement.model}.items():
        print(f"{name} {float(value)!r} {unit}")
    declared = declared_metrics(bool(args.trace))
    metrics = {k: v for k, v in _as_json(measurement.metrics).items() if k in declared}
    failed = len(measurement.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": measurement.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1
