"""Job runner, tracer and metric assembly shared by the three workloads.

A workload is a list of rounds; a round is a fixed list of jobs whose kinds
and sizes do not depend on the seed (the seed only picks their contents), so
every run of a workload does the same amount of work.  A job runs a fixed
sequence of calls into ``oaparity`` through ``Tracer.call`` and returns its
outputs; its check runs afterwards, outside the job's timed span.  A job that
raises or fails its check counts as failed and the run goes on.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Job:
    kind: str
    run: Callable  # run(tracer) -> output
    check: Callable  # check(output) -> None, raises AssertionError on a wrong output
    argv: list | None = None  # the command line of a cli job


class Tracer:
    """Spans (name, start, end, parent, job) kept in memory, plus counters.

    With ``enabled`` false, ``call`` is a plain call and nothing is recorded,
    so untraced and traced runs go through the same job code.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []  # (id, name, start, end, parent, job)
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self.job = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.job))

    def add(self, counter: str, value: float) -> None:
        if self.enabled:
            self.counters[counter] = self.counters.get(counter, 0) + value

    def busy(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for _, name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span[1]] = out.get(span[1], 0) + 1
        return out

    def self_time(self) -> dict[str, float]:
        """Busy time minus the time covered by direct children.

        Calls are serial, so children of one span never overlap and their
        durations add up to the part of the parent's interval they cover.
        """
        child: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for sid, name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "job": job}
                    )
                    + "\n"
                )


def interleave(jobs: list) -> list:
    """The round's jobs in a fixed shuffled order.

    Equal-cost jobs of one kind then run spread over the round rather than
    back to back, so the group job_p50_s or job_tail_s falls in samples the
    machine's speed across the whole run, not during one stretch of it.
    """
    order = list(range(len(jobs)))
    random.Random(len(jobs)).shuffle(order)
    return [jobs[i] for i in order]


_CAL_PERM = np.random.default_rng(0).permutation(1 << 16)
# calibrate() on the reference machine (2 cores, Python 3.11, numpy 2.4)
REF_GAUGE_S = 0.008


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and numpy work that does not
    touch the program: a gauge of how fast the machine runs right now.

    The host's speed drifts by a fifth or more over minutes while a job's
    cost relative to the gauge stays put, so end-to-end timings are scaled
    by REF_GAUGE_S / (median gauge of the run)."""
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i
    np.sort(_CAL_PERM)
    int((_CAL_PERM[:2048, None] > _CAL_PERM[None, :2048]).sum())
    return time.perf_counter() - start


@dataclass
class RoundResult:
    latencies: list  # (kind, seconds) of every job that passed its check
    attempted: int
    failed: int
    wall: float  # sum of job spans, checks excluded
    errors: list
    gauge: list  # calibrate() before each job


def run_jobs(jobs, tracer: Tracer, first_id: int = 0) -> RoundResult:
    latencies, errors, gauge = [], [], []
    wall = 0.0
    failed = 0
    for offset, job in enumerate(jobs):
        tracer.job = first_id + offset
        gauge.append(calibrate())
        start = time.perf_counter()
        try:
            out = tracer.call("job." + job.kind, job.run, tracer)
        except Exception:  # a raising job is a failed job; the run goes on
            wall += time.perf_counter() - start
            failed += 1
            errors.append(f"{job.kind}: {traceback.format_exc(limit=3)}")
            continue
        elapsed = time.perf_counter() - start
        wall += elapsed
        try:
            job.check(out)
        except Exception as exc:  # wrong output, reported and counted
            failed += 1
            errors.append(f"{job.kind}: wrong output: {exc!r}")
            continue
        latencies.append((job.kind, elapsed))
    tracer.job = None
    return RoundResult(latencies, len(jobs), failed, wall, errors, gauge)


def merge(results) -> RoundResult:
    return RoundResult(
        latencies=[x for r in results for x in r.latencies],
        attempted=sum(r.attempted for r in results),
        failed=sum(r.failed for r in results),
        wall=sum(r.wall for r in results),
        errors=[e for r in results for e in r.errors],
        gauge=[g for r in results for g in r.gauge],
    )


def tail_rank(count: int) -> tuple[int, float]:
    """Index into the sorted latencies of the highest percentile with at
    least ten samples beyond it, and that percentile; never below the
    median, which it is when fewer than 21 samples exist."""
    idx = max(count - 11, (count - 1) // 2)
    return idx, 100.0 * (idx + 1) / count


def latency_summary(latencies) -> dict:
    lat = sorted(t for _, t in latencies)
    if not lat:
        return {"p50": math.nan, "tail": math.nan, "tail_percentile": math.nan, "samples": 0}
    idx, pct = tail_rank(len(lat))
    return {
        "p50": statistics.median(lat),
        "tail": lat[idx],
        "tail_percentile": round(pct, 2),
        "samples": len(lat),
        "median_by_kind": {
            kind: statistics.median(t for k, t in latencies if k == kind)
            for kind in sorted({k for k, _ in latencies})
        },
    }


# Per-layer metric names and units, reported on every workload; a layer a
# workload does not use reads 0.
BUSY = [
    "fileio.parse_oa", "fileio.parity_report", "fileio.sigma_from_json",
    "core.parity_batch",
    "parity.tau_parity", "parity.sigma_parity", "parity.check_plausible",
    "parity.tau_from_sigma", "parity.sigma_from_tau",
    "ensemble.ensemble_census", "ensemble.check_ensemble_laws",
    "graphs.tau_graphs", "graphs.stack", "graphs.sigma_graph",
    "classes.orbit", "classes.enumerate_classes",
    "search.find_oa_with_parity", "search.achieved_parity_types",
    "constructions.sigma", "cli.main",
]
SELF = ["parity.tau_parity", "parity.sigma_parity"]
CALLS = ["core.parity_batch", "classes.orbit", "search.find_oa_with_parity"]
COUNTS = [
    ("fileio.parse_oa.bytes", "B"),
    ("core.parity_batch.elements", "count"),
    ("core.parity_batch.bytes_in", "B"),
    ("ensemble.check_ensemble_laws.quads", "count"),
    ("ensemble.triples", "count"),
    ("classes.orbit.states", "count"),
    ("classes.enumerate_classes.states", "count"),
    ("classes.enumerate_classes.classes", "count"),
    ("search.find_oa_with_parity.nodes", "count"),
]
PROBES = [("cli.interpreter_s", "s"), ("cli.import_s", "s")]


def layer_metrics(tracer: Tracer, probes: dict, trace_overhead: float,
                  failed_ratio: float) -> dict:
    busy, self_s, calls = tracer.busy(), tracer.self_time(), tracer.calls()
    # class_of_oa is the orbit of an array's parity state; its span counts
    # towards the orbit layer
    busy["classes.orbit"] = busy.get("classes.orbit", 0.0) + busy.get("classes.class_of_oa", 0.0)
    calls["classes.orbit"] = calls.get("classes.orbit", 0) + calls.get("classes.class_of_oa", 0)
    c = tracer.counters
    m = {}
    for name in BUSY:
        m[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    for name in SELF:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name, unit in COUNTS:
        m[name] = (c.get(name, 0), unit)

    def ratio(num, den):
        return num / den if den else 0.0

    m["core.parity_batch.ns_per_element"] = (
        ratio(busy.get("core.parity_batch", 0.0) * 1e9, c.get("core.parity_batch.elements", 0)), "ns")
    m["classes.orbit.states_per_s"] = (
        ratio(c.get("classes.orbit.states", 0), busy["classes.orbit"]), "1/s")
    m["search.find_oa_with_parity.nodes_per_s"] = (
        ratio(c.get("search.find_oa_with_parity.nodes", 0), busy.get("search.find_oa_with_parity", 0.0)), "1/s")
    m["search.find_oa_with_parity.found_ratio"] = (
        ratio(c.get("search.find_oa_with_parity.found", 0), calls.get("search.find_oa_with_parity", 0)), "ratio")
    for name, unit in PROBES:
        m[name] = (probes.get(name, 0.0), unit)
    m["bench.trace_overhead"] = (trace_overhead, "ratio")
    m["bench.failed_ratio"] = (failed_ratio, "ratio")
    return m

