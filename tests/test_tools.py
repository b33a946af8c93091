import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# module, class, function and async-function docstrings, comments, blank
# lines, a multi-line string that is not a docstring, a bare string after
# the first statement and continued statements; the code lines are marked
SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment: code


# a comment on its own line
class Thing:
    """Class docstring."""

    def method(self):
        """Function
        docstring."""
        text = """a string
spanning two lines"""
        return (text +
                os.sep)


async def later():
    \'\'\'Async docstring.\'\'\'
    total = 1 + \\
        2
    "a bare string, not first in its body"
    return total
'''
CODE = {4, 8, 11, 14, 15, 16, 17, 20, 22, 23, 24, 25}


def test_code_lines_of_a_synthetic_module():
    lines = SOURCE.splitlines()
    assert len(lines) == 25 and lines[24] == "    return total"
    assert code_lines.code_lines(SOURCE) == len(CODE)
    assert code_lines.code_lines("") == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text(SOURCE, encoding="utf-8")
    (package / "sub" / "b.py").write_text('"""Doc."""\n\nx = 1\n', encoding="utf-8")
    (package / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(package)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{len(CODE):6d}  {package / 'a.py'}",
        f"{1:6d}  {package / 'sub' / 'b.py'}",
        f"{len(CODE) + 1:6d}  total",
    ]
    # a module named by itself
    assert code_lines.main([str(package / "sub" / "b.py")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"{1:6d}  total"


_BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _BENCH_PAIRS)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_bench_pairs_summary_of_synthetic_pairs():
    # five pairs; jobs_per_s is better higher, job_tail_s lower; a tie is
    # not a better pair
    parent = [10.0, 20.0, 30.0, 40.0, 50.0]
    change = [12.0, 20.0, 25.0, 45.0, 60.0]
    pairs = [{"parent": {"jobs_per_s": p, "job_tail_s": p},
              "change": {"jobs_per_s": c, "job_tail_s": c}} for p, c in zip(parent, change)]
    summary = bench_pairs.summarise(pairs, {"jobs_per_s": "higher", "job_tail_s": "lower"})
    # statistics.quantiles, exclusive method: positions 1.5 and 4.5 of 5
    assert summary["jobs_per_s"] == {
        "parent_median": 30.0, "parent_quartiles": [15.0, 45.0],
        "change_median": 25.0, "change_quartiles": [16.0, 52.5],
        "change_better_pairs": 3, "pairs": 5}
    assert summary["job_tail_s"]["change_better_pairs"] == 1
    assert list(summary) == ["jobs_per_s", "job_tail_s"]


def test_bench_pairs_summary_matches_the_committed_record():
    # the summaries committed in BENCH_search.json, for each change it
    # records, recomputed from their pairs, with the metric directions of
    # BENCHMARK.json
    record = json.loads((_BENCH_PAIRS.parents[1] / "BENCH_search.json").read_text())
    better, _ = bench_pairs.benchmark()
    assert set(better) == {"jobs_per_s", "job_p50_s", "job_tail_s", "setup_s", "peak_rss_mb"}
    for change in [record] + record["later_changes"]:
        for workload in change["workloads"].values():
            assert bench_pairs.summarise(workload["pairs"], better) == workload["summary"]
