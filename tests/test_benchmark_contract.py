"""The library API the benchmark's workloads call.

perfbench/ builds and checks its jobs through the library's public names, so
a change to one of them breaks the benchmark; these tests run every job of
one round of parity-space, of arrays and of cli, read-only from perfbench/,
so the break shows here.
"""

import importlib
import random
import types
from pathlib import Path

import oaparity
from oaparity import classes, cli, constructions, core, ensemble, fileio, graphs, parity, search

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


LIB = types.SimpleNamespace(
    oaparity=oaparity, classes=classes, cli=cli, constructions=constructions, core=core,
    ensemble=ensemble, fileio=fileio, graphs=graphs, parity=parity, search=search)


def _one_round(monkeypatch, tmp_path, workload: str):
    """The jobs of one round of ``workload``, built by its setup, and the
    benchmark's untraced tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("harness")
    name = {"parity-space": "wl_space", "arrays": "wl_arrays", "cli": "wl_cli"}[workload]
    module = importlib.import_module(name)

    def rng_for(r, slot):
        return random.Random(f"{workload}:0:{r}:{slot}")

    (jobs,) = module.setup(LIB, rng_for, 1, tmp_path)
    return module, jobs, harness.Tracer(False)


def test_parity_space_orbit_and_class_jobs(monkeypatch, tmp_path):
    wl_space, jobs, tracer = _one_round(monkeypatch, tmp_path, "parity-space")
    picked = [j for j in jobs if j.kind.startswith("orbit-") or j.kind == "class-q9"]
    assert len(picked) == len(wl_space.ORBITS) + 1
    for job in picked:
        job.check(job.run(tracer))


def test_parity_space_enumerate_jobs(monkeypatch, tmp_path):
    # the census jobs check the Table-1 counts and sizes the benchmark pins
    wl_space, jobs, tracer = _one_round(monkeypatch, tmp_path, "parity-space")
    picked = [j for j in jobs if j.kind.startswith("enumerate-")]
    assert len(picked) == len(wl_space.ENUMERATIONS)
    for job in picked:
        job.check(job.run(tracer))


def test_parity_space_audit_search_and_achieved_jobs(monkeypatch, tmp_path):
    # the audits read tau.mirrored() and StandardSigma.to_matrix(), and the
    # search jobs check the node counts the benchmark pins
    wl_space, jobs, tracer = _one_round(monkeypatch, tmp_path, "parity-space")
    picked = [j for j in jobs if j.kind.startswith(("audit-", "search-"))
              or j.kind == "achieved-types-n6"]
    assert len(picked) == (len(wl_space.AUDITS) + 2 * len(wl_space.TYPE_SEARCHES)
                           + wl_space.K4_SEARCHES + 1)
    for job in picked:
        job.check(job.run(tracer))


def test_arrays_jobs(monkeypatch, tmp_path):
    wl_arrays, jobs, tracer = _one_round(monkeypatch, tmp_path, "arrays")
    assert len(jobs) == len(wl_arrays.SLOTS)
    for job in jobs:
        job.check(job.run(tracer))


def test_cli_jobs(monkeypatch, tmp_path):
    # one oaparity subprocess per job, its output checked against the
    # library's result for the same command
    _, jobs, tracer = _one_round(monkeypatch, tmp_path, "cli")
    assert len(jobs) == 11
    for job in jobs:
        job.check(job.run(tracer))
