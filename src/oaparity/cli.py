"""Command-line interface.

``COMMANDS`` declares each subcommand once, in help order: its path, its
help, the ``cmd_*`` function argparse dispatches it to and its options;
``build_parser`` builds the parser from it.  Every leaf takes --json,
which writes the result as JSON (an array or square as the JSON mirror
``fileio`` reads back; ``construct sigma`` writes sigma JSON either way).
A ``cmd_*`` function returns an exit code only when it is not 0.

Exit codes: 0 success, 1 domain error (invalid data, failed validation,
unreadable file), 2 usage error (bad arguments or environment setting).
Runs are deterministic given identical inputs and seeds.  The only
environment knob is OAPARITY_ORBIT_BUDGET_MB, the memory budget of the
orbit search.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path

from . import classes, constructions, ensemble, fileio, graphs, search
from .core import LatinSquare, OAError, UsageError, oa_to_mols
from .parity import SigmaMatrix, plausible_types, standard_sigma, tau_from_sigma


def _emit(args, text_lines, obj):
    if args.json:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _write_output(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_oa(path):
    return fileio.parse_oa(fileio.read_text(path))


def _load(args):
    """The array of an OA file, or with --tau the sigma matrix or tau vector
    of a sigma/parity-report JSON file."""
    if args.tau:
        return fileio.load_parity(args.file)
    return _load_oa(args.file)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    a = _load_oa(args.file)
    _emit(args, [f"OA({a.k},{a.n}) valid"], {"k": a.k, "n": a.n, "valid": True})


def cmd_parity(args):
    obj = fileio.parity_report(_load(args))
    lines = [
        f"k={obj['k']} nmod4={obj['nmod4']}"
        + (f" n={obj['n']}" if obj["n"] is not None else ""),
        f"plausible: {obj['plausible']}",
        f"pp_plausible: {obj['pp_plausible']}",
    ]
    if obj["sigma_standard"] is not None:
        lines.append(
            "sigma_standard: "
            + " ".join(f"({i},{j})={b}" for i, j, b in obj["sigma_standard"])
        )
    lines.append("tau: " + " ".join(f"({c};{i},{j})={b}" for c, i, j, b in obj["tau"]))
    _emit(args, lines, obj)


def cmd_graphs(args):
    sigma = standard_sigma(_load(args))
    decomps = graphs.tau_graphs(sigma)
    stk = graphs.stack(sigma)
    sg = graphs.sigma_graph(sigma)
    if args.dot:
        parts = [graphs.to_dot(graphs.tau_graph(sigma, d.c), name=f"tau{d.c}") for d in decomps]
        parts += [graphs.to_dot(graphs.stack_graph(sigma), name="stack"),
                  graphs.to_dot(sg.graph, name="sigma")]
        sys.stdout.write("\n".join(parts))
        return
    obj = {
        # not asdict, which copies the k - 1 vertices of each graph one by one
        "tau_graphs": [{"c": d.c, "part1": d.part1, "part2": d.part2} for d in decomps],
        "stack": asdict(stk),
        # the report also holds the graph that --dot draws, so not asdict
        "sigma_graph": {
            "oriented": sg.oriented,
            "out_degrees": list(sg.out_degrees),
            "in_degrees": list(sg.in_degrees),
            "degree_law": sg.degree_law,
        },
    }
    lines = [
        *(
            f"tau-graph {d.c}: K_{{{len(d.part1)},{len(d.part2)}}} "
            f"parts {list(d.part1)} | {list(d.part2)}"
            for d in decomps
        ),
        f"stack: {stk.shape} {list(stk.part1)} | {list(stk.part2)}"
        + (f" ({stk.refined})" if stk.refined else ""),
        f"sigma-graph: {'tournament' if sg.oriented else 'undirected'}, "
        f"out-degrees {list(sg.out_degrees)}"
        + (f", degree law: {sg.degree_law}" if sg.degree_law else ""),
    ]
    _emit(args, lines, obj)


def cmd_class(args):
    summary = classes.orbit(standard_sigma(_load(args)))
    obj = {
        "k": summary.canonical.k,
        "nmod4": summary.canonical.nmod4,
        "size": summary.size,
        "canonical_word": summary.canonical.word,
    }
    _emit(args, [f"switching class size {summary.size}"], obj)


def cmd_enumerate(args):
    table = classes.enumerate_classes(args.k, args.nmod4)
    obj = {
        "k": table.k,
        "nmod4": table.nmod4,
        "classes": table.total_classes,
        "states": table.total_states,
        "entries": [[size, count] for size, count in table.entries],
    }
    lines = [
        f"{table.total_classes} classes over {table.total_states} states "
        f"(k={table.k}, nmod4={table.nmod4})",
        f"{'size':>10}  count",
        *(f"{size:>10}  {count}" for size, count in table.entries),
    ]
    _emit(args, lines, obj)


def _oa_text(args, a) -> str:
    """An array as OA text, or with --json as its JSON mirror."""
    if args.json:
        return json.dumps(fileio.oa_to_json(a), sort_keys=True) + "\n"
    return fileio.format_oa(a)


def cmd_desarguesian(args):
    a = constructions.linear_mols(args.q)
    if args.emit_mols:
        text = fileio.format_catalogue_entry(f"desarguesian-q{args.q}", oa_to_mols(a))
    else:
        text = _oa_text(args, a)
    _write_output(args, text)


def cmd_residue_oa(args):
    _write_output(args, _oa_text(args, constructions.residue_pattern_oa(args.n, args.pattern)))


def _pp_random(args):
    rng = random.Random(0 if args.seed is None else args.seed)
    nbits = args.n * (args.n - 1) // 2 - 1 + (args.n % 2)
    bits = [rng.randrange(2) for _ in range(nbits)]
    return constructions.pp_plausible_sigma(args.n, bits), args.seed


# each --kind of `construct sigma`: its sigma and the seed its JSON records
_SIGMA_KINDS = {
    "block": lambda args: (constructions.block_sigma(args.n), None),
    "circulant": lambda args: (constructions.circulant_sigma(args.n), None),
    "lower-triangular": lambda args: (constructions.lower_triangular_sigma(
        args.n + 1 if args.k is None else args.k, args.n % 4), None),
    "pp-random": _pp_random,
}


def cmd_sigma(args):
    sig, seed = _SIGMA_KINDS[args.kind](args)
    _write_output(args, json.dumps(fileio.sigma_to_json(sig, seed=seed), sort_keys=True) + "\n")


def cmd_ensemble(args):
    census = ensemble.ensemble_census(_load(args))
    report = ensemble.check_ensemble_laws(census)
    obj = {
        "k": census.k,
        "n": census.n,
        "nmod4": census.nmod4,
        "type_counts": dict(sorted(census.type_counts.items())),
        "equiparity": census.x,
        "total_tau_edges": census.T,
        "mu": list(census.mu),
        "pp_plausible": census.pp_plausible,
        "checks": [asdict(c) for c in report.checks],
    }
    lines = [
        f"ensemble of k={census.k}: "
        + " ".join(f"{ty}:{ct}" for ty, ct in sorted(census.type_counts.items())),
        f"equiparity x={census.x}, tau edges T={census.T}, mu={list(census.mu)}",
        f"pp_plausible: {census.pp_plausible}",
    ]
    for c in report.checks:
        status = "n/a" if not c.applicable else ("pass" if c.passed else "FAIL")
        lines.append(f"  [{status}] {c.name}: {c.detail}")
    _emit(args, lines, obj)


def cmd_search_latin(args):
    n = args.n
    if args.limit is not None and args.limit < 0:
        raise UsageError(f"--limit must be >= 0, got {args.limit}")
    if args.type is not None:
        try:
            search._check_type(args.type)
        except OAError:
            raise UsageError(f"--type must be 3 bits 'rcs', got {args.type!r}") from None
    cells, walk = search.latin_square_walk(n, parity_type=args.type)
    if args.type is None:
        count = sum(1 for _ in itertools.islice(walk, args.limit))
        _emit(args, [f"{count} squares of order {n}"], {"n": n, "count": count})
        return
    # a square's type always has r + c + s = C(n, 2) mod 2; the walk yields
    # with ``cells`` holding the first square of the type
    if args.type not in plausible_types(n % 4) or next(walk, None) is None:
        print("no square with that type", file=sys.stderr)
        return 1
    square = LatinSquare([cells[r * n:(r + 1) * n] for r in range(n)])
    if args.json:
        _write_output(args, json.dumps(fileio.square_to_json(square), sort_keys=True) + "\n")
    else:
        _write_output(args, fileio.format_square(square))


def cmd_search_oa(args):
    mode = "exhaustive" if args.exhaustive else ("randomized" if args.seed is not None else "first-hit")
    target = fileio.load_parity(args.target)
    spec = search.SearchSpec(
        k=args.k,
        n=args.n,
        target=tau_from_sigma(target) if isinstance(target, SigmaMatrix) else target,
        mode=mode,
        seed=args.seed,
        restarts=args.restarts,
        max_nodes=args.max_nodes,
    )
    outcome = search.find_oa_with_parity(spec)
    if outcome.found is not None:
        _write_output(args, _oa_text(args, outcome.found))
        print(f"# found after {outcome.nodes} nodes", file=sys.stderr)
        return
    if outcome.certified_exhausted:
        line = f"certified: no OA({args.k},{args.n}) has the target parity ({outcome.nodes} nodes)"
    else:
        line = f"not found within budget ({outcome.nodes} nodes); inconclusive"
    obj = {"found": False, "certified": outcome.certified_exhausted, "nodes": outcome.nodes}
    _emit(args, [line], obj)


def cmd_ingest(args):
    entries = fileio.ingest_catalogue(args.file)
    rows = []
    for e in entries:
        row = {"label": e.label, "n": e.n, "squares": len(e.squares)}
        if args.classify:
            row["class_size"] = classes.class_of_oa(e.array).size
        rows.append(row)
    lines = [
        f"{r['label']}: {r['squares']} MOLS({r['n']})"
        + (f", class size {r['class_size']}" if "class_size" in r else "")
        for r in rows
    ]
    lines.append(f"{len(entries)} set(s) ingested")
    _emit(args, lines, {"entries": rows})


# ---------------------------------------------------------------------------
# argument parsing


def _opt(*flags, **kwargs):
    """One option: the arguments of ``add_argument``."""
    return flags, kwargs


_FILE = _opt("file")
_TAU = _opt("--tau", action="store_true", help="file is sigma/tau JSON, not an OA")
_OUTPUT = _opt("-o", "--output")
_JSON = _opt("--json", action="store_true", help="emit JSON")


# (path, help, function, options) of each subcommand in help order; a
# group has no function, and every leaf also takes --json
COMMANDS = (
    ("validate", "validate an OA file", cmd_validate, [_FILE]),
    ("parity", "tau/sigma parity report", cmd_parity, [_FILE, _TAU]),
    ("graphs", "tau-graphs, stack and sigma-graph", cmd_graphs,
     [_FILE, _TAU, _opt("--dot", action="store_true", help="emit DOT instead of a report")]),
    ("class", "switching class of an array's parity", cmd_class, [_FILE, _TAU]),
    ("enumerate", "all switching classes for (k, n mod 4)", cmd_enumerate,
     [_opt("--k", type=int, required=True),
      _opt("--nmod4", type=int, required=True, choices=range(4))]),
    ("construct", "explicit constructions", None, []),
    ("construct desarguesian", "OA(q+1, q) over GF(q)", cmd_desarguesian,
     [_opt("--q", type=int, required=True),
      _opt("--emit-mols", action="store_true", help="emit a MOLSSET catalogue"), _OUTPUT]),
    ("construct residue-oa", "OA(5, n) with pattern-determined parity", cmd_residue_oa,
     [_opt("--n", type=int, required=True),
      _opt("--pattern", choices=constructions.PATTERNS, required=True), _OUTPUT]),
    ("construct sigma", "sigma matrices with prescribed ensembles", cmd_sigma,
     [_opt("--kind", choices=tuple(_SIGMA_KINDS), required=True),
      _opt("--n", type=int, required=True),
      _opt("--k", type=int, help="column count for lower-triangular (default n+1)"),
      _opt("--seed", type=int, help="seed for pp-random bits"), _OUTPUT]),
    ("ensemble", "parity census of the ensemble", cmd_ensemble, [_FILE, _TAU]),
    ("search", "brute-force searches", None, []),
    ("search latin", "enumerate or find Latin squares", cmd_search_latin,
     [_opt("--n", type=int, required=True),
      _opt("--type", help="3-bit parity type to find"),
      _opt("--limit", type=int, help="stop counting after this many"), _OUTPUT]),
    ("search oa", "find an OA matching a tau target", cmd_search_oa,
     [_opt("--k", type=int, required=True),
      _opt("--n", type=int, required=True),
      _opt("--target", required=True, help="sigma/parity-report JSON file"),
      _opt("--exhaustive", action="store_true"),
      _opt("--seed", type=int, help="randomized mode with this seed"),
      _opt("--restarts", type=int, default=1),
      _opt("--max-nodes", type=int), _OUTPUT]),
    ("ingest", "validate a MOLS catalogue file", cmd_ingest,
     [_FILE, _opt("--class", dest="classify", action="store_true",
                  help="also compute each set's switching class size")]),
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oaparity",
        description="parity invariants of orthogonal arrays and MOLS",
    )
    groups = {"": p.add_subparsers(dest="command", required=True)}
    for path, help_, func, options in COMMANDS:
        group, _, name = path.rpartition(" ")
        sp = groups[group].add_parser(name, help=help_)
        if func is None:
            groups[path] = sp.add_subparsers(dest="what", required=True)
            continue
        for flags, kwargs in (*options, _JSON):
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OAError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
