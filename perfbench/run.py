"""oaparity benchmark: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload arrays|parity-space|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs the jobs serially.  A run does a fixed number of
rounds, round(S / ROUND_S), where ROUND_S is the workload's round time on a
2-core machine at the benchmark's first commit; every round has the same job
kinds and sizes and the seed only picks their contents, so runs of one
workload do equal work whatever the seed.

With ``--trace 0`` the last line of stdout is the result with the end-to-end
metrics; with ``--trace 1`` the run does half its rounds untraced and half
with a span around each call into a layer, and reports per-layer metrics.
The line before it holds the run record (versions, seed, sample counts).
Spans and records are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import oaparity; "
                "print(time.perf_counter() - t)")

import harness  # noqa: E402  (perfbench/ is sys.path[0])


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("arrays", "parity-space", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "oaparity").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Lib:
    """The oaparity modules the jobs call, imported once per process."""

    def __init__(self):
        import oaparity
        from oaparity import classes, cli, constructions, core, ensemble, fileio, graphs, parity, search

        self.oaparity = oaparity
        self.classes, self.cli, self.constructions, self.core = classes, cli, constructions, core
        self.ensemble, self.fileio, self.graphs, self.parity, self.search = (
            ensemble, fileio, graphs, parity, search)


def _import_time() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout)


def _workload(name: str):
    if name == "arrays":
        import wl_arrays as mod
    elif name == "parity-space":
        import wl_space as mod
    else:
        import wl_cli as mod
    return mod


@contextlib.contextmanager
def _traced_kernel(parity_module, tr):
    """Spans around the ``parity_batch`` name that ``oaparity.parity`` calls,
    installed for the traced rounds only."""
    orig = parity_module.parity_batch

    def parity_batch(perms):
        tr.add("core.parity_batch.elements", int(perms.size))
        tr.add("core.parity_batch.bytes_in", int(perms.nbytes))
        return tr.call("core.parity_batch", orig, perms)

    parity_module.parity_batch = parity_batch
    try:
        yield
    finally:
        parity_module.parity_batch = orig


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "oaparity" / "__init__.py").is_file():
        print(f"error: no oaparity sources under {SRC}", file=sys.stderr)
        return 2
    cli_pyc = Path(importlib.util.cache_from_source(str(SRC / "oaparity" / "cli.py")))
    bytecode_warm_at_start = cli_pyc.is_file()
    # run with the program's defaults
    removed_env = [v for v in ("OAPARITY_ORBIT_BUDGET_MB", "PYTHONDONTWRITEBYTECODE")
                   if os.environ.pop(v, None) is not None]
    sys.dont_write_bytecode = False

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    lib = Lib()
    import_s = time.perf_counter() - t0
    mod = _workload(args.workload)
    OUT.mkdir(exist_ok=True)

    rounds = max(1, round(args.seconds / mod.ROUND_S))
    n_plain = max(1, math.ceil(rounds / 2)) if args.trace else rounds
    n_traced = n_plain if args.trace else 0

    def rng_for(r, slot):
        return random.Random(f"{args.workload}:{args.seed}:{r}:{slot}")

    setup_times, setup_gauge = [], []
    for _ in range(SETUP_REPEATS):
        setup_gauge.append(harness.calibrate())
        t = time.perf_counter()
        work = [harness.interleave(r) for r in mod.setup(lib, rng_for, n_plain + n_traced, OUT)]
        setup_times.append(time.perf_counter() - t)
    # the package imports once per process, so its share of set-up is the
    # median of fresh imports in child interpreters
    import_times = []
    for _ in range(3):
        setup_gauge.append(harness.calibrate())
        import_times.append(_import_time())
    setup_raw = statistics.median(import_times) + statistics.median(setup_times)
    setup_s = setup_raw * harness.REF_GAUGE_S / statistics.median(setup_gauge)

    off = harness.Tracer(False)
    results, next_id = [], 0
    for jobs in work[:n_plain]:
        results.append(harness.run_jobs(jobs, off, next_id))
        next_id += len(jobs)
    plain = harness.merge(results)

    lat = harness.latency_summary(plain.latencies)
    if args.trace:
        tr = harness.Tracer(True)
        traced_results = []
        with _traced_kernel(lib.parity, tr):
            for jobs in work[n_plain:]:
                traced_results.append(harness.run_jobs(jobs, tr, next_id))
                next_id += len(jobs)
            extra, probes = None, {}
            if hasattr(mod, "trace_extras"):
                extra, probes = mod.trace_extras(lib, work[n_plain:], tr, next_id)
        traced = harness.merge(traced_results)
        # each half in gauge units, so host drift between them cancels
        overhead = ((traced.wall / statistics.median(traced.gauge))
                    / (plain.wall / statistics.median(plain.gauge)) - 1)
        everything = harness.merge([plain, traced] + ([extra] if extra else []))
        failed_ratio = everything.failed / everything.attempted
        metrics = harness.layer_metrics(tr, probes, overhead, failed_ratio)
        tr.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        run = everything
        raw = None
    else:
        run = plain
        failed_ratio = run.failed / run.attempted
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        raw = {
            "jobs_per_s": len(run.latencies) / plain.wall if plain.wall else 0.0,
            "job_p50_s": lat["p50"],
            "job_tail_s": lat["tail"],
            "setup_s": setup_raw,
        }
        scale = harness.REF_GAUGE_S / statistics.median(plain.gauge)
        metrics = {
            "jobs_per_s": (raw["jobs_per_s"] / scale, "1/s"),
            "job_p50_s": (raw["job_p50_s"] * scale, "s"),
            "job_tail_s": (raw["job_tail_s"] * scale, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": n_plain + n_traced,
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "samples": lat["samples"], "tail_percentile": lat["tail_percentile"],
        "job_median_s_by_kind": lat.get("median_by_kind", {}),
        "attempted": run.attempted, "failed": run.failed, "failed_ratio": failed_ratio,
        "timed_wall_s": plain.wall, "import_s": import_s, "import_probes_s": import_times,
        "setup_repeats_s": setup_times,
        "gauge_median_s": statistics.median(plain.gauge),
        "setup_gauge_median_s": statistics.median(setup_gauge),
        "unscaled": raw,
        "bytecode_cache_warm_at_start": bytecode_warm_at_start,
        "bytecode_cache_warm_for_timed": cli_pyc.is_file(),
        "env_removed": removed_env,
        "errors": run.errors[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": (0.0 if isinstance(v, float) and math.isnan(v) else v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
