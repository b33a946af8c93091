"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that the exact-repeat counters of the traced run are identical for
two runs with the same seed, that the traced run reports the layers each
workload is meant to exercise, and that a corrupted or raising job is counted
as failed without stopping the run.  Takes about four minutes on 2 cores.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

EXACT = [
    "core.parity_batch.elements",
    "classes.orbit.states",
    "classes.enumerate_classes.states",
    "search.find_oa_with_parity.nodes",
    "ensemble.check_ensemble_laws.quads",
]


def _declared() -> list:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer"]]


def _traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True, cwd=HERE.parent,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run failed {result['failed']} jobs")
    if list(result["metrics"]) != _declared():
        raise AssertionError(f"{workload}: metrics differ from BENCHMARK.json per_layer")
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_exact_repeat_and_layers():
    runs = {}
    for workload in ("arrays", "parity-space", "cli"):
        a, b = _traced(workload, 5), _traced(workload, 5)
        for name in EXACT:
            if a[name] != b[name]:
                raise AssertionError(f"{workload}: {name} {a[name]} != {b[name]}")
        runs[workload] = a
    arrays, space = runs["arrays"], runs["parity-space"]
    if not arrays["core.parity_batch.calls"] > 0:
        raise AssertionError("arrays: the parity kernel was not called")
    parity_busy = arrays["parity.tau_parity.busy_s"] + arrays["parity.sigma_parity.busy_s"]
    if not arrays["core.parity_batch.busy_s"] > 0.5 * parity_busy:
        raise AssertionError("arrays: the kernel is not most of tau and sigma time")
    for name in ("classes.orbit.calls", "classes.enumerate_classes.states",
                 "search.find_oa_with_parity.calls"):
        if not space[name] > 0:
            raise AssertionError(f"parity-space: {name} is 0")
    if runs["cli"]["cli.main.busy_s"] <= 0 or runs["cli"]["cli.import_s"] <= 0:
        raise AssertionError("cli: in-process and import probes missing")


def _lib():
    import run

    sys.path.insert(0, str(run.SRC))
    return run.Lib()


def _rng_for(r, slot):
    return random.Random(f"selftest:{r}:{slot}")


def test_corrupted_outputs_are_failures():
    import harness
    import wl_arrays
    import wl_cli
    import wl_space

    lib = _lib()
    out = HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    off = harness.Tracer(False)

    # a kernel that gets one parity per batch wrong corrupts every array
    jobs = wl_arrays.setup(lib, _rng_for, 1, out)[0][:4]
    orig = lib.parity.parity_batch

    def wrong_batch(perms):
        bits = orig(perms).copy()
        bits[0] ^= 1
        return bits

    lib.parity.parity_batch = wrong_batch
    try:
        res = harness.run_jobs(jobs, off)
    finally:
        lib.parity.parity_batch = orig
    if res.failed != res.attempted or res.attempted != 4:
        raise AssertionError(f"arrays: {res.failed} of {res.attempted} corrupted jobs failed")

    # a raising layer fails its job and the run goes on to the next
    jobs = [j for j in wl_space.setup(lib, _rng_for, 1, out)[0] if j.kind.startswith("orbit-k7")]
    real_orbit = lib.classes.orbit
    calls = []

    def flaky_orbit(state):
        calls.append(state)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return real_orbit(state)

    lib.classes.orbit = flaky_orbit
    try:
        res = harness.run_jobs(jobs, off)
    finally:
        lib.classes.orbit = real_orbit
    if (res.failed, res.attempted, len(calls)) != (1, len(jobs), len(jobs)):
        raise AssertionError(f"parity-space: failed {res.failed}, attempted {res.attempted}")

    # a command whose output is corrupted fails even with exit code 0
    jobs = wl_cli.setup(lib, _rng_for, 1, out)[0][:2]
    for job in jobs:
        run_ok = job.run

        def corrupted(tr, run_ok=run_ok):
            code, stdout = run_ok(tr)
            return code, stdout.replace("true", "false")

        job.run = corrupted
    res = harness.run_jobs(jobs, off)
    failed_ratio = res.failed / res.attempted
    if failed_ratio != 1.0:
        raise AssertionError(f"cli: failed_ratio {failed_ratio} with every output corrupted")


def main() -> int:
    status = 0
    for test in (test_corrupted_outputs_are_failures, test_exact_repeat_and_layers):
        try:
            test()
        except Exception as exc:  # report every test, then fail the script
            print(f"FAIL {test.__name__}: {exc!r}")
            status = 1
        else:
            print(f"PASS {test.__name__}")
    return status


if __name__ == "__main__":
    sys.exit(main())
