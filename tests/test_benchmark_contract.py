"""The library API the benchmark's parity-space workload calls.

perfbench/ builds and checks its jobs through the library's public names, so
a change to one of them breaks the benchmark; this test runs one round's
orbit and class jobs, read-only from perfbench/, so the break shows here.
"""

import importlib
import random
import types
from pathlib import Path

import oaparity
from oaparity import classes, cli, constructions, core, ensemble, fileio, graphs, parity, search

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_parity_space_orbit_and_class_jobs(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("harness")
    wl_space = importlib.import_module("wl_space")
    lib = types.SimpleNamespace(
        oaparity=oaparity, classes=classes, cli=cli, constructions=constructions, core=core,
        ensemble=ensemble, fileio=fileio, graphs=graphs, parity=parity, search=search)

    def rng_for(r, slot):
        return random.Random(f"parity-space:0:{r}:{slot}")

    (jobs,) = wl_space.setup(lib, rng_for, 1, tmp_path)
    picked = [j for j in jobs if j.kind.startswith("orbit-") or j.kind == "class-q9"]
    assert len(picked) == len(wl_space.ORBITS) + 1
    tracer = harness.Tracer(False)
    for job in picked:
        job.check(job.run(tracer))
