"""The command line's output, pinned byte for byte.

Each case runs ``cli.main`` in process, in a temporary directory that holds
the q = 3, 4, 5 planes, their parity reports, a report with one tau bit
flipped, a sigma of each kind and a MOLS catalogue, all written by the CLI
itself.  Stdout, stderr and the exit code of every case are compared with
``cli_golden.json``.  ``--help`` is left out, since argparse lays it out
differently from one Python version to the next.

To regenerate the goldens after an intended output change, run from the
repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from oaparity import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

# (file name, argv whose stdout is the file's content)
INPUTS = [
    *((f"q{q}.oa", ["construct", "desarguesian", "--q", str(q)]) for q in (3, 4, 5)),
    *((f"q{q}.json", ["parity", f"q{q}.oa", "--json"]) for q in (3, 4, 5)),
    ("q4.mols", ["construct", "desarguesian", "--q", "4", "--emit-mols"]),
    ("block6.json", ["construct", "sigma", "--kind", "block", "--n", "6"]),
    ("circulant7.json", ["construct", "sigma", "--kind", "circulant", "--n", "7"]),
    ("lower6.json", ["construct", "sigma", "--kind", "lower-triangular", "--n", "6"]),
    ("lower3.json", ["construct", "sigma", "--kind", "lower-triangular", "--n", "6", "--k", "3"]),
    ("lower2.json", ["construct", "sigma", "--kind", "lower-triangular", "--n", "2", "--k", "3"]),
    ("pp5.json", ["construct", "sigma", "--kind", "pp-random", "--n", "5", "--seed", "7"]),
]

CASES = [
    # validate
    ["validate", "q3.oa"],
    ["validate", "q4.oa", "--json"],
    ["validate", "q4.mols"],
    ["validate", "missing.oa"],
    # parity, graphs, class and ensemble on arrays, reports and sigmas
    ["parity", "q3.oa"],
    ["parity", "q4.oa", "--json"],
    ["parity", "q5.json", "--tau"],
    ["parity", "flipped.json", "--tau"],
    ["parity", "flipped.json", "--tau", "--json"],
    ["parity", "circulant7.json", "--tau", "--json"],
    ["parity", "q3.json"],
    ["graphs", "q3.oa"],
    ["graphs", "q4.oa", "--json"],
    ["graphs", "q5.oa", "--dot"],
    ["graphs", "block6.json", "--tau"],
    ["graphs", "lower6.json", "--tau", "--json"],
    ["graphs", "flipped.json", "--tau"],
    ["class", "q3.oa"],
    ["class", "q4.oa", "--json"],
    ["class", "pp5.json", "--tau", "--json"],
    ["class", "lower3.json", "--tau"],
    ["ensemble", "q3.oa"],
    ["ensemble", "q4.oa", "--json"],
    ["ensemble", "q5.json", "--tau"],
    ["ensemble", "circulant7.json", "--tau", "--json"],
    ["ensemble", "flipped.json", "--tau"],
    # enumerate
    ["enumerate", "--k", "4", "--nmod4", "1"],
    ["enumerate", "--k", "5", "--nmod4", "2", "--json"],
    ["enumerate", "--k", "2", "--nmod4", "0"],
    ["enumerate", "--k", "4", "--nmod4", "4"],
    # construct
    ["construct", "desarguesian", "--q", "3", "--json"],
    ["construct", "desarguesian", "--q", "6"],
    ["construct", "desarguesian", "--q", "4", "--emit-mols", "--json"],
    ["construct", "residue-oa", "--n", "11", "--pattern", "nnn"],
    ["construct", "residue-oa", "--n", "11", "--pattern", "rnr", "--json"],
    ["construct", "residue-oa", "--n", "7", "--pattern", "nnn"],
    ["construct", "sigma", "--kind", "block", "--n", "7", "--json"],
    ["construct", "sigma", "--kind", "circulant", "--n", "5"],
    ["construct", "sigma", "--kind", "pp-random", "--n", "4"],
    ["construct", "sigma", "--kind", "lower-triangular", "--n", "5"],
    ["construct", "sigma", "--kind", "lower-triangular", "--n", "6", "--k", "0"],
    ["construct", "sigma", "--kind", "diagonal", "--n", "6"],
    # search
    ["search", "latin", "--n", "4"],
    ["search", "latin", "--n", "4", "--limit", "10", "--json"],
    ["search", "latin", "--n", "5", "--type", "110"],
    ["search", "latin", "--n", "6", "--type", "000"],
    ["search", "latin", "--n", "3", "--limit", "-1"],
    ["search", "latin", "--n", "4", "--type", "000", "--limit", "0"],
    ["search", "oa", "--k", "3", "--n", "6", "--target", "lower3.json"],
    ["search", "oa", "--k", "4", "--n", "3", "--target", "q3.json", "--seed", "2"],
    ["search", "oa", "--k", "4", "--n", "3", "--target", "flipped.json"],
    ["search", "oa", "--k", "5", "--n", "4", "--target", "q4.json", "--max-nodes", "3"],
    ["search", "oa", "--k", "5", "--n", "4", "--target", "q4.json", "--max-nodes", "3", "--json"],
    ["search", "oa", "--k", "4", "--n", "4", "--target", "q4.json"],
    ["search", "oa", "--k", "3", "--n", "2", "--target", "lower2.json", "--exhaustive"],
    ["search", "oa", "--k", "3", "--n", "2", "--target", "lower2.json", "--exhaustive", "--json"],
    ["search", "oa", "--k", "4", "--n", "3", "--target", "q3.json", "--restarts", "0"],
    # ingest
    ["ingest", "q4.mols"],
    ["ingest", "q4.mols", "--class", "--json"],
    ["ingest", "q3.oa"],
    # usage errors
    [],
    ["bogus"],
    ["construct"],
    ["search", "oa", "--k", "4"],
    ["parity"],
    ["graphs", "q3.oa", "--tau", "--extra"],
]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _flip_first_tau_bit(report_text: str) -> str:
    doc = json.loads(report_text)
    doc["tau"][0][3] ^= 1
    return json.dumps(doc)


def run_cases(workdir: Path) -> list[dict]:
    """Every case's outcome, run with ``workdir`` as the current directory
    and COLUMNS=80, ``workdir`` itself written as <tmp> wherever it shows."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"
    try:
        for name, argv in INPUTS:
            result = _run(argv)
            assert result["code"] == 0, result
            Path(name).write_text(result["stdout"])
        Path("flipped.json").write_text(_flip_first_tau_bit(Path("q3.json").read_text()))
        results = [_run(argv) for argv in CASES]
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    for r in results:
        for key in ("stdout", "stderr"):
            r[key] = r[key].replace(str(workdir), "<tmp>")
    return results


def test_cli_output_matches_goldens(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == CASES
    for got, want in zip(run_cases(tmp_path), golden):
        assert got == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(run_cases(Path(tmp).resolve()), indent=1) + "\n")
