"""Run alternating benchmark pairs on two checkouts and summarise them.

    python tools/bench_pairs.py PARENT CHANGE [--workload W] [--first-seed S]
        [--pairs N]

PARENT and CHANGE are source checkouts, for example a ``git worktree`` of
the parent commit and the working tree.  Pair i runs ``python3
perfbench/run.py --workload W --seed S+i --seconds T --trace 0`` in both,
one after the other, the parent first when i is even, with T the
benchmark's ``run_seconds`` in ``BENCHMARK.json``.  Each run's end-to-end
metrics are read from the last line of its stdout.

Prints one JSON object in the layout of a workload of ``BENCH_search.json``:
``all_correct_no_failures``, then ``summary``, which gives for each metric
of ``BENCHMARK.json``'s ``end_to_end`` list the median and the quartiles
(``statistics.quantiles``) of each side and the number of pairs in which
the change is better in that metric's direction, then the ``pairs``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def benchmark(path: Path = BENCHMARK) -> tuple[dict[str, str], int]:
    """(each end-to-end metric of the benchmark -> "higher" or "lower", the
    direction in which it is better; the length of a run in seconds)."""
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}, spec["run_seconds"]


def run_once(root: Path, workload: str, seed: int, seconds: int) -> tuple[dict, bool]:
    """(metric -> value, whether every job was correct) of one benchmark run
    in the checkout ``root``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    ok = result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}, ok


def summarise(pairs: list, better: dict[str, str]) -> dict:
    """For each metric of ``better``, the medians and quartiles of the
    parent's and the change's values over ``pairs``, each a dict with a
    "parent" and a "change" dict of metrics, and the number of pairs in
    which the change is strictly better."""
    out = {}
    for name, way in better.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1 if way == "higher" else -1
        out[name] = {
            "parent_median": round(statistics.median(parent), 6),
            "parent_quartiles": _quartiles(parent),
            "change_median": round(statistics.median(change), 6),
            "change_quartiles": _quartiles(change),
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def _quartiles(values: list) -> list:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 6), round(q3, 6)]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", default="parity-space")
    p.add_argument("--first-seed", type=int, default=301)
    p.add_argument("--pairs", type=int, default=8)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("quartiles need --pairs >= 2")
    better, seconds = benchmark()
    pairs, ok = [], True
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0], "parent": None, "change": None}
        for side in order:
            metrics, correct = run_once(getattr(args, side), args.workload, seed, seconds)
            pair[side] = {k: round(metrics[k], 6) for k in better}
            ok = ok and correct
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr)
    print(json.dumps({"all_correct_no_failures": ok, "summary": summarise(pairs, better),
                      "pairs": pairs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
