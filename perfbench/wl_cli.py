"""`cli` workload: one `oaparity` subprocess at a time on small inputs.

Inputs are written during set-up, with the library's result for each
command as its golden.  Interpreter start-up and the import of
``oaparity.cli`` dominate every command, so this workload shows work moved
into or out of import time; the compute layers do little here.  The set-up
runs one import first, so the bytecode cache is warm for the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import Job, RoundResult, run_jobs
import golden as G

ROUND_S = 2.5
ENTRY = "import sys; from oaparity.cli import main; sys.exit(main())"
PROBE_REPEATS = 5
SRC = Path(__file__).resolve().parent.parent / "src"


def _python(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def setup(lib, rng_for, nrounds: int, workdir) -> list:
    F, P = lib.fileio, lib.parity
    indir = workdir / "cli-inputs"
    indir.mkdir(exist_ok=True)
    # fill the bytecode cache; this first pass belongs to set-up
    _python(["-c", "import oaparity.cli"]).check_returncode()
    bases = {q: lib.constructions.linear_mols(q).rows for q in (5, 7, 8, 9)}
    tables = {}
    rounds = []
    for r in range(nrounds):
        slot = iter(range(1000))

        def oa_file(q, k):
            s = next(slot)
            rows, _, _ = G.isotope(bases[q], rng_for(r, s), k)
            path = indir / f"r{r}-s{s}-q{q}-k{k}.txt"
            text = G.oa_text(rows, q)
            path.write_text(text)
            return path, F.parse_oa(text)

        jobs = []
        path, a = oa_file(7, 6)
        jobs.append(_job("validate", ["validate", str(path), "--json"],
                         json_golden({"k": a.k, "n": a.n, "valid": True})))
        path, a = oa_file(8, 9)
        jobs.append(_job("parity", ["parity", str(path), "--json"],
                         json_golden(F.parity_report(a))))
        path, a = oa_file(9, 10)
        jobs.append(_job("ensemble", ["ensemble", str(path), "--json"],
                         json_golden(_ensemble_obj(lib, a))))
        path, a = oa_file(7, 8)
        jobs.append(_job("graphs", ["graphs", str(path), "--json"],
                         json_golden(_graphs_obj(lib, P.tau_parity(a)))))
        path, a = oa_file(7, 8)
        c = lib.classes.class_of_oa(a)
        jobs.append(_job("class", ["class", str(path), "--json"], json_golden(
            {"k": 8, "nmod4": 3, "size": c.size, "canonical_word": c.canonical.word})))
        for k, nm in ((5, r % 4), (6, (r + 1) % 4)):
            if (k, nm) not in tables:
                tables[(k, nm)] = lib.classes.enumerate_classes(k, nm)
            t = tables[(k, nm)]
            G.expect((t.total_classes, t.sizes) == G.TABLE1[(k, nm)], f"Table 1 ({k}, {nm})")
            jobs.append(_job(f"enumerate-k{k}", ["enumerate", "--k", str(k), "--nmod4", str(nm),
                                                  "--json"], json_golden(
                {"k": k, "nmod4": nm, "classes": t.total_classes, "states": t.total_states,
                 "entries": [list(e) for e in t.entries]})))
        jobs.append(_job("construct-desarguesian", ["construct", "desarguesian", "--q", "8"],
                         text_golden(F.format_oa(lib.constructions.linear_mols(8)))))
        rng = rng_for(r, next(slot))
        n, seed = rng.choice((9, 10, 11, 13, 14)), rng.randrange(1 << 20)
        bits_rng = random.Random(seed)
        bits = [bits_rng.randrange(2) for _ in range(n * (n - 1) // 2 - 1 + n % 2)]
        sig = lib.constructions.pp_plausible_sigma(n, bits)
        jobs.append(_job("construct-sigma", ["construct", "sigma", "--kind", "pp-random", "--n",
                                             str(n), "--seed", str(seed)],
                         json_golden(F.sigma_to_json(sig, seed=seed))))
        ty = P.plausible_types(1)[r % 4]
        square = next(sq for sq in lib.search.enumerate_latin_squares(5)
                      if P.latin_square_parities(sq).type_str == ty)
        jobs.append(_job("search-latin", ["search", "latin", "--n", "5", "--type", ty],
                         text_golden(F.format_square(square))))
        rows, _, _ = G.isotope(bases[5], rng_for(r, next(slot)), 3)
        target = F.parity_report(lib.core.OrthogonalArray(rows))
        path = indir / f"r{r}-target.json"
        path.write_text(json.dumps(target))
        found = lib.search.find_oa_with_parity(
            lib.search.SearchSpec(3, 5, F.tau_from_report(target))).found
        jobs.append(_job("search-oa", ["search", "oa", "--k", "3", "--n", "5", "--target",
                                       str(path)], text_golden(F.format_oa(found))))
        rounds.append(jobs)
    return rounds


def _ensemble_obj(lib, a):
    cen = lib.ensemble.ensemble_census(a)
    rep = lib.ensemble.check_ensemble_laws(cen)
    G.expect(rep.all_passed and cen.pp_plausible == "yes", "golden plane ensemble")
    return {
        "k": cen.k, "n": cen.n, "nmod4": cen.nmod4,
        "type_counts": dict(sorted(cen.type_counts.items())),
        "equiparity": cen.x, "total_tau_edges": cen.T, "mu": list(cen.mu),
        "pp_plausible": cen.pp_plausible,
        "checks": [{"name": c.name, "applicable": c.applicable, "passed": c.passed,
                    "detail": c.detail} for c in rep.checks],
    }


def _graphs_obj(lib, tau):
    gr = lib.graphs
    stk = gr.stack(tau)
    sg = gr.sigma_graph(lib.parity.sigma_from_tau(tau))
    return {
        "tau_graphs": [{"c": d.c, "part1": list(d.part1), "part2": list(d.part2)}
                       for d in gr.tau_graphs(tau)],
        "stack": {"shape": stk.shape, "part1": list(stk.part1), "part2": list(stk.part2),
                  "refined": stk.refined},
        "sigma_graph": {"oriented": sg.oriented, "out_degrees": list(sg.out_degrees),
                        "in_degrees": list(sg.in_degrees), "degree_law": sg.degree_law},
    }


def json_golden(obj):
    want = json.loads(json.dumps(obj))
    return lambda stdout: json.loads(stdout) == want


def text_golden(text):
    return lambda stdout: stdout == text


def _job(kind, argv, matches) -> Job:
    def run(tr):
        proc = tr.call("cli.command", _python, ["-c", ENTRY, *argv])
        return proc.returncode, proc.stdout

    def check(out):
        code, stdout = out
        G.expect(code == 0, f"exit code {code}")
        G.expect(matches(stdout), "output differs from the library golden")

    return Job(kind, run, check, argv)


def _in_process(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue()


def trace_extras(lib, rounds, tr, first_id):
    """The traced rounds' commands again, in-process through ``cli.main``,
    plus interpreter start-up and fresh-import probes."""
    # a fresh process starts with empty parity caches; set-up filled them
    lib.parity.tau_parity.cache_clear()
    lib.parity.sigma_parity.cache_clear()
    jobs = []
    for job in (j for r in rounds for j in r):
        def run(tr, argv=job.argv):
            return tr.call("cli.main", _in_process, lib, argv)
        jobs.append(Job(job.kind + "-in-process", run, job.check))
    result: RoundResult = run_jobs(jobs, tr, first_id)

    def wall(args):
        t = time.perf_counter()
        _python(args).check_returncode()
        return time.perf_counter() - t

    probe = "import time; t = time.perf_counter(); import oaparity.cli; print(time.perf_counter() - t)"
    probes = {
        "cli.interpreter_s": statistics.median(wall(["-c", "pass"]) for _ in range(PROBE_REPEATS)),
        "cli.import_s": statistics.median(
            float(_python(["-c", probe]).stdout) for _ in range(PROBE_REPEATS)),
    }
    return result, probes
