"""Command-line interface.

Exit codes: 0 success, 1 domain error (invalid data, failed validation,
unreadable file), 2 usage error (bad arguments or environment setting).
All numeric output is available as JSON via --json; runs are deterministic
given identical inputs and seeds.  The only environment knob is
OAPARITY_ORBIT_BUDGET_MB, the memory budget of the orbit search.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

from . import classes, constructions, ensemble, fileio, graphs, search
from .core import LatinSquare, OAError, UsageError, oa_to_mols
from .parity import plausible_types, sigma_from_tau, tau_parity


def _emit(args, text_lines, obj):
    if getattr(args, "json", False):
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _write_output(args, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_oa(path):
    return fileio.parse_oa(fileio.read_text(path))


def _load_tau(args):
    """The tau vector of an OA file, or with --tau of a sigma/parity-report
    JSON file."""
    if args.tau:
        return fileio.load_tau(args.file)
    return tau_parity(_load_oa(args.file))


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    a = _load_oa(args.file)
    _emit(args, [f"OA({a.k},{a.n}) valid"], {"k": a.k, "n": a.n, "valid": True})
    return 0


def cmd_parity(args):
    obj = fileio.parity_report(_load_tau(args))
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
    return 0


def cmd_graphs(args):
    tau = _load_tau(args)
    sigma = sigma_from_tau(tau)
    decomps = graphs.tau_graphs(tau)
    stk = graphs.stack(tau)
    sg = graphs.sigma_graph(sigma)
    if args.dot:
        parts = []
        for d in decomps:
            parts.append(graphs.to_dot(graphs.tau_graph(tau, d.c), name=f"tau{d.c}"))
        parts.append(graphs.to_dot(graphs.stack_graph(tau), name="stack"))
        parts.append(graphs.to_dot(sg.graph, name="sigma"))
        sys.stdout.write("\n".join(parts))
        return 0
    obj = {
        "tau_graphs": [
            {"c": d.c, "part1": list(d.part1), "part2": list(d.part2)} for d in decomps
        ],
        "stack": {
            "shape": stk.shape,
            "part1": list(stk.part1),
            "part2": list(stk.part2),
            "refined": stk.refined,
        },
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
    return 0


def cmd_class(args):
    summary = classes.orbit(sigma_from_tau(_load_tau(args)))
    obj = {
        "k": summary.canonical.k,
        "nmod4": summary.canonical.nmod4,
        "size": summary.size,
        "canonical_word": summary.canonical.word,
    }
    _emit(args, [f"switching class size {summary.size}"], obj)
    return 0


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
    ]
    for size, count in table.entries:
        lines.append(f"{size:>10}  {count}")
    _emit(args, lines, obj)
    return 0


def cmd_construct(args):
    seed = getattr(args, "seed", None)
    if args.what == "desarguesian":
        a = constructions.linear_mols(args.q)
        if args.emit_mols:
            text = fileio.format_catalogue_entry(
                f"desarguesian-q{args.q}", oa_to_mols(a)
            )
        elif args.json:
            text = json.dumps(fileio.oa_to_json(a), sort_keys=True) + "\n"
        else:
            text = fileio.format_oa(a)
        _write_output(args, text)
        return 0
    if args.what == "residue-oa":
        a = constructions.residue_pattern_oa(args.n, args.pattern)
        text = (
            json.dumps(fileio.oa_to_json(a), sort_keys=True) + "\n"
            if args.json
            else fileio.format_oa(a)
        )
        _write_output(args, text)
        return 0
    # sigma constructions emit the sigma JSON format
    n = args.n
    if args.kind == "block":
        sig = constructions.block_sigma(n)
    elif args.kind == "circulant":
        sig = constructions.circulant_sigma(n)
    elif args.kind == "lower-triangular":
        k = n + 1 if args.k is None else args.k
        sig = constructions.lower_triangular_sigma(k, n % 4)
    else:  # pp-random
        rng = random.Random(0 if seed is None else seed)
        nbits = n * (n - 1) // 2 - 1 + (n % 2)
        bits = [rng.randrange(2) for _ in range(nbits)]
        sig = constructions.pp_plausible_sigma(n, bits)
    obj = fileio.sigma_to_json(sig, seed=seed if args.kind == "pp-random" else None)
    _write_output(args, json.dumps(obj, sort_keys=True) + "\n")
    return 0


def cmd_ensemble(args):
    census = ensemble.ensemble_census(_load_tau(args))
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
        "checks": [
            {
                "name": c.name,
                "applicable": c.applicable,
                "passed": c.passed,
                "detail": c.detail,
            }
            for c in report.checks
        ],
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
    return 0


def cmd_search(args):
    if args.what == "latin":
        n = args.n
        if args.limit is not None and args.limit < 0:
            raise UsageError(f"--limit must be >= 0, got {args.limit}")
        cells, walk = search.latin_square_walk(n)
        if args.type:
            # a square's type always has r + c + s = C(n, 2) mod 2
            types = walk if args.type in plausible_types(n % 4) else ()
            for ty in types:
                if ty == args.type:
                    square = LatinSquare([cells[r * n:(r + 1) * n] for r in range(n)])
                    _write_output(args, fileio.format_square(square))
                    return 0
            print("no square with that type", file=sys.stderr)
            return 1
        count = sum(1 for _ in itertools.islice(walk, args.limit))
        _emit(args, [f"{count} squares of order {args.n}"], {"n": args.n, "count": count})
        return 0

    target = fileio.load_tau(args.target)
    mode = "exhaustive" if args.exhaustive else ("randomized" if args.seed is not None else "first-hit")
    spec = search.SearchSpec(
        k=args.k,
        n=args.n,
        target=target,
        mode=mode,
        seed=args.seed,
        restarts=args.restarts,
        max_nodes=args.max_nodes,
    )
    outcome = search.find_oa_with_parity(spec)
    if outcome.found is not None:
        _write_output(args, fileio.format_oa(outcome.found))
        print(f"# found after {outcome.nodes} nodes", file=sys.stderr)
        return 0
    if outcome.certified_exhausted:
        _emit(
            args,
            [f"certified: no OA({args.k},{args.n}) has the target parity "
             f"({outcome.nodes} nodes)"],
            {"found": False, "certified": True, "nodes": outcome.nodes},
        )
    else:
        _emit(
            args,
            [f"not found within budget ({outcome.nodes} nodes); inconclusive"],
            {"found": False, "certified": False, "nodes": outcome.nodes},
        )
    return 0


def cmd_ingest(args):
    entries = fileio.ingest_catalogue(args.file)
    rows = []
    for e in entries:
        row = {"label": e.label, "n": e.n, "squares": len(e.squares)}
        if args.classify:
            row["class_size"] = classes.class_of_oa(e.to_oa()).size
        rows.append(row)
    lines = [
        f"{r['label']}: {r['squares']} MOLS({r['n']})"
        + (f", class size {r['class_size']}" if "class_size" in r else "")
        for r in rows
    ]
    lines.append(f"{len(entries)} set(s) ingested")
    _emit(args, lines, {"entries": rows})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oaparity",
        description="parity invariants of orthogonal arrays and MOLS",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON")

    sp = sub.add_parser("validate", help="validate an OA file")
    sp.add_argument("file")
    add_json(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("parity", help="tau/sigma parity report")
    sp.add_argument("file")
    sp.add_argument("--tau", action="store_true", help="file is sigma/tau JSON, not an OA")
    add_json(sp)
    sp.set_defaults(func=cmd_parity)

    sp = sub.add_parser("graphs", help="tau-graphs, stack and sigma-graph")
    sp.add_argument("file")
    sp.add_argument("--tau", action="store_true", help="file is sigma/tau JSON, not an OA")
    sp.add_argument("--dot", action="store_true", help="emit DOT instead of a report")
    add_json(sp)
    sp.set_defaults(func=cmd_graphs)

    sp = sub.add_parser("class", help="switching class of an array's parity")
    sp.add_argument("file")
    sp.add_argument("--tau", action="store_true", help="file is sigma/tau JSON, not an OA")
    add_json(sp)
    sp.set_defaults(func=cmd_class)

    sp = sub.add_parser("enumerate", help="all switching classes for (k, n mod 4)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--nmod4", type=int, required=True, choices=range(4))
    add_json(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("construct", help="explicit constructions")
    what = sp.add_subparsers(dest="what", required=True)

    d = what.add_parser("desarguesian", help="OA(q+1, q) over GF(q)")
    d.add_argument("--q", type=int, required=True)
    d.add_argument("--emit-mols", action="store_true", help="emit a MOLSSET catalogue")
    d.add_argument("-o", "--output")
    add_json(d)
    d.set_defaults(func=cmd_construct)

    r = what.add_parser("residue-oa", help="OA(5, n) with pattern-determined parity")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--pattern", choices=constructions.PATTERNS, required=True)
    r.add_argument("-o", "--output")
    add_json(r)
    r.set_defaults(func=cmd_construct)

    s = what.add_parser("sigma", help="sigma matrices with prescribed ensembles")
    s.add_argument(
        "--kind",
        choices=("block", "circulant", "lower-triangular", "pp-random"),
        required=True,
    )
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, help="column count for lower-triangular (default n+1)")
    s.add_argument("--seed", type=int, help="seed for pp-random bits")
    s.add_argument("-o", "--output")
    add_json(s)
    s.set_defaults(func=cmd_construct)

    sp = sub.add_parser("ensemble", help="parity census of the ensemble")
    sp.add_argument("file")
    sp.add_argument("--tau", action="store_true", help="file is sigma/tau JSON, not an OA")
    add_json(sp)
    sp.set_defaults(func=cmd_ensemble)

    sp = sub.add_parser("search", help="brute-force searches")
    what = sp.add_subparsers(dest="what", required=True)

    l = what.add_parser("latin", help="enumerate or find Latin squares")
    l.add_argument("--n", type=int, required=True)
    l.add_argument("--type", help="3-bit parity type to find")
    l.add_argument("--limit", type=int, help="stop counting after this many")
    l.add_argument("-o", "--output")
    add_json(l)
    l.set_defaults(func=cmd_search)

    o = what.add_parser("oa", help="find an OA matching a tau target")
    o.add_argument("--k", type=int, required=True)
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--target", required=True, help="sigma/parity-report JSON file")
    o.add_argument("--exhaustive", action="store_true")
    o.add_argument("--seed", type=int, help="randomized mode with this seed")
    o.add_argument("--restarts", type=int, default=1)
    o.add_argument("--max-nodes", type=int)
    o.add_argument("-o", "--output")
    add_json(o)
    o.set_defaults(func=cmd_search)

    sp = sub.add_parser("ingest", help="validate a MOLS catalogue file")
    sp.add_argument("file")
    sp.add_argument("--class", dest="classify", action="store_true",
                    help="also compute each set's switching class size")
    add_json(sp)
    sp.set_defaults(func=cmd_ingest)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OAError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
