import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oaparity.core import OAError, cyclic_square, mols_to_oa
from oaparity.constructions import block_sigma, linear_mols, residue_pattern_oa
from oaparity.parity import check_plausible, sigma_from_tau, tau_parity
import oaparity
from oaparity import cli, fileio

import oracle
from conftest import zn_linear_oa, zn_linear_square


def test_oa_text_roundtrip_bytes():
    a = zn_linear_oa(5)
    text = fileio.format_oa(a)
    again = fileio.parse_oa(text)
    assert again == a
    assert fileio.format_oa(again) == text


def test_oa_base_one():
    a = mols_to_oa([cyclic_square(2)])
    text = fileio.format_oa(a, base=1)
    assert text.splitlines()[0] == "OA 3 2 1"
    assert text.splitlines()[1] == "1 1 1"
    assert fileio.parse_oa(text) == a


def test_oa_json_roundtrip():
    a = zn_linear_oa(3)
    obj = fileio.oa_to_json(a, base=1)
    assert fileio.oa_from_json(obj) == a
    # text loader sniffs JSON
    assert fileio.parse_oa(json.dumps(obj)) == a


def test_square_roundtrips():
    sq = cyclic_square(4)
    assert fileio.parse_square(fileio.format_square(sq)) == sq
    assert fileio.square_from_json(fileio.square_to_json(sq, base=1)) == sq


def test_parse_errors_carry_line_numbers():
    with pytest.raises(fileio.FormatError) as err:
        fileio.parse_oa("OA 3 2 0\n0 0 0\n0 1\n")
    assert err.value.line == 3
    # rows of one width that is not the header's
    with pytest.raises(fileio.FormatError, match="expected 3 symbols per row") as err:
        fileio.parse_oa("OA 3 2 0\n# c\n0 0 0 0\n0 1 1 1\n1 0 1 1\n1 1 0 0\n")
    assert err.value.line == 3
    with pytest.raises(fileio.FormatError):
        fileio.parse_oa("")
    with pytest.raises(fileio.FormatError):
        fileio.parse_oa("LS 3 0\n")
    with pytest.raises(fileio.FormatError):
        fileio.parse_oa("OA 3 2 5\n" + "0 0 0\n" * 4)


# the text of each array below, in base 0 and 1, for the round-trip property
_TEXT_ARRAYS = [mols_to_oa([cyclic_square(2)]), zn_linear_oa(3), linear_mols(4), zn_linear_oa(5, 4)]
_FILLER = st.sampled_from(["", "   ", "\t", "#", "# note", "  # indented note", "#1 2 3"])
_PAD = st.sampled_from(["", " ", "\t", " \t "])


_TEXT_SQUARES = [cyclic_square(1), cyclic_square(2), zn_linear_square(3, 2), cyclic_square(6)]


@st.composite
def _decorated_text(draw, values=_TEXT_ARRAYS, fmt=fileio.format_oa):
    """A text ``fmt`` wrote of one of ``values``, with blank and comment
    lines mixed in and each line's spacing changed; the value it holds."""
    a = draw(st.sampled_from(values))
    lines = []
    for line in fmt(a, draw(st.sampled_from([0, 1]))).splitlines():
        lines += draw(st.lists(_FILLER, max_size=2))
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t", "\u2003"]))
        lines.append(draw(_PAD) + sep.join(line.split()) + draw(_PAD))
    lines += draw(st.lists(_FILLER, max_size=2))
    return a, draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_decorated_text())
def test_oa_text_roundtrips_with_comments_and_blank_lines(case):
    a, text = case
    assert fileio.parse_oa(text) == a


_GOOD_TEXT = fileio.format_oa(zn_linear_oa(3), 1)


_GOOD_SQUARE_TEXT = fileio.format_square(zn_linear_square(3, 2), 1)


@st.composite
def _mutated_text(draw, text=_GOOD_TEXT):
    """A good text, the q=3 array's by default, cut short, or with a span
    replaced by other text."""
    cut = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:cut]
    end = draw(st.integers(cut, min(len(text), cut + 6)))
    other = st.text(st.characters() | st.sampled_from("0123456789 -+#\n_x."), max_size=6)
    return text[:cut] + draw(other) + text[end:]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_mutated_text())
@example(_GOOD_TEXT.replace("1 1 1 1", "1 1 1 1_0", 1))
@example(_GOOD_TEXT.replace("1 1 1 1", "1 1 1 \U0009c6ca", 1))
@example(_GOOD_TEXT.replace("1 1 1 1", f"1 1 1 {2**63}", 1))
def test_mutated_oa_text_raises_only_oa_error(text):
    try:
        a = fileio.parse_oa(text)
    except OAError:
        return
    assert (a.k, a.n) == (4, 3)


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the value, or the error's type,
    message and line."""
    try:
        return parse(text)
    except OAError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def _assert_read_as_walked(parse, text):
    """``text`` reads as the line walk reads it.  A whole-line comment
    appended at the end keeps the one-pass read away and changes nothing
    else, so the two outcomes must be equal; with the comment lines taken
    out, the text is the one-pass read's when it is ASCII."""
    for t in (text, "".join(line for line in text.splitlines(True) if "#" not in line)):
        if not t.lstrip().startswith("{"):
            assert _outcome(parse, t) == _outcome(parse, t + "\n#"), repr(t)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(_decorated_text().map(lambda case: case[1]), _mutated_text()))
def test_one_pass_oa_read_matches_line_walk(text):
    _assert_read_as_walked(fileio.parse_oa, text)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(_decorated_text(_TEXT_SQUARES, fileio.format_square).map(lambda case: case[1]),
                 _mutated_text(_GOOD_SQUARE_TEXT)))
def test_one_pass_square_read_matches_line_walk(text):
    _assert_read_as_walked(fileio.parse_square, text)


def _set_line(i: int, edit):
    """An edit of a text that replaces its line i (0-based) by ``edit`` of it."""
    def apply(text: str) -> str:
        lines = text.splitlines()
        lines[i] = edit(lines[i])
        return "\n".join(lines) + "\n"
    return apply


# (name, edit of a good text, whether the one-pass read takes it, and the
# FormatError's line for a text that must be refused, or 0 for one that reads
# as the good text, -1 for a refusal with no line)
_TEXT_EDITS = [
    ("crlf", lambda t: t.replace("\n", "\r\n"), True, 0),
    ("blank-lines-before-header", lambda t: "\n \t\n\n" + t, True, 0),
    ("whitespace-only-line", _set_line(1, lambda line: line + "\n \t  "), True, 0),
    ("form-feed-line", _set_line(1, lambda line: line + "\n\x0c"), True, 0),
    ("file-separator-line", _set_line(2, lambda line: line + "\x1c"), True, 0),
    ("edge-whitespace", _set_line(1, lambda line: "\t" + line.replace(" ", "\x1f") + " "), True, 0),
    ("trailing-comment", _set_line(2, lambda line: line + " # note"), False, 3),
    ("whole-line-comment", _set_line(1, lambda line: line + "\n# note"), False, 0),
    ("non-ascii-digit", _set_line(2, lambda line: line[:-1] + "\u0661"), False, 3),
    ("short-row", _set_line(2, lambda line: line[:-2]), False, 3),
    ("header-only", lambda t: t.splitlines()[0] + "\n\n  \n", False, -1),
]


@pytest.mark.parametrize("name, edit, one_pass, line", _TEXT_EDITS, ids=[e[0] for e in _TEXT_EDITS])
@pytest.mark.parametrize("parse, good", [(fileio.parse_oa, _GOOD_TEXT),
                                         (fileio.parse_square, _GOOD_SQUARE_TEXT)],
                         ids=["oa", "square"])
def test_one_pass_read_examples(monkeypatch, parse, good, name, edit, one_pass, line):
    text = edit(good)
    _assert_read_as_walked(parse, text)
    walks = []
    read_rows = fileio._read_rows
    monkeypatch.setattr(fileio, "_read_rows", lambda *args: walks.append(args) or read_rows(*args))
    got = _outcome(parse, text)
    # the one pass reads valid ASCII text with no '#'; any other text, or
    # one that pass refuses, is walked line by line
    assert bool(walks) != one_pass
    if line == 0:
        assert got == parse(good)
    else:
        assert got[0] == "FormatError" and got[2] == (None if line < 0 else line), got


@pytest.mark.parametrize(
    "token", ["1_0", "\u0661", "\uff11", "1\U0009c6ca", str(2**63), f"-{2**63 + 1}", "0x1", "1.0"],
    ids=["underscore", "arabic-indic-digit", "fullwidth-digit", "astral-character",
         "over-int64", "under-int64", "hex", "float"])
def test_tokens_must_be_ascii_decimal_int64(token):
    with pytest.raises(fileio.FormatError, match="expected integers") as err:
        fileio.parse_oa(_oa_text_with_symbol(token))
    assert err.value.line == 2
    with pytest.raises(fileio.FormatError, match="expected integers") as err:
        fileio.parse_oa(f"OA 4 {token} 0\n")
    assert err.value.line == 1


def test_sigma_json_roundtrip():
    sig = block_sigma(6)
    obj = fileio.sigma_to_json(sig)
    again = fileio.sigma_from_json(obj)
    assert again == sig
    assert fileio.sigma_to_json(again) == obj


@pytest.mark.parametrize(
    "a", [linear_mols(q) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [residue_pattern_oa(11, p) for p in ("nnn", "rnr")], ids=repr)
def test_report_rows_match_per_entry_lookups(a):
    tau = tau_parity(a)
    obj = fileio.parity_report(a)
    assert obj["tau"] == [list(e) for e in oracle.entries(tau)]
    sigma = sigma_from_tau(tau)
    k = a.k
    pairs = [[i, j, sigma.get(i, j)] for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    assert obj["sigma_standard"] == pairs
    assert fileio.sigma_to_json(sigma)["upper"] == pairs
    assert fileio.parity_report(tau) == obj
    assert json.loads(json.dumps(obj)) == obj


def test_parity_report_schema():
    a = zn_linear_oa(3)
    obj = fileio.parity_report(a)
    assert set(obj) >= {"tau", "sigma_standard", "plausible", "pp_plausible"}
    assert obj["plausible"] is True
    assert obj["pp_plausible"] == "yes"
    assert all(len(e) == 4 for e in obj["tau"])
    t = fileio.tau_from_report(obj)
    assert t == tau_parity(a)


@pytest.mark.parametrize("field, value", [("k", 4.7), ("k", True), ("nmod4", True), ("n", 3.0)])
def test_shape_fields_must_be_json_integers(field, value):
    report = fileio.parity_report(zn_linear_oa(3))
    sigma = fileio.sigma_to_json(block_sigma(6))
    for doc, read in ((report, fileio.tau_from_report), (sigma, fileio.sigma_from_json)):
        assert read(doc) is not None
        with pytest.raises(fileio.FormatError, match=f"{field} must be an integer"):
            read({**doc, field: value})


def test_json_readers_need_every_entry_once():
    report = fileio.parity_report(zn_linear_oa(3))
    sigma = fileio.sigma_to_json(block_sigma(6))
    for doc, key, read in ((report, "tau", fileio.tau_from_report),
                           (sigma, "upper", fileio.sigma_from_json)):
        entries = doc[key]
        with pytest.raises(fileio.FormatError, match="expected all"):
            read({**doc, key: entries[1:]})
        with pytest.raises(fileio.FormatError, match="listed twice"):
            read({**doc, key: entries[1:] + entries[-1:]})
    # the reversed order of a pair names the same tau component
    c, i, j, bit = report["tau"][-1]
    with pytest.raises(fileio.FormatError, match="listed twice"):
        fileio.tau_from_report({**report, "tau": report["tau"][:-2] + [[c, j, i, bit]] * 2})


def _with_entry(doc: dict, key: str, index: int, entry: list) -> dict:
    """``doc`` with entry ``index`` of its list ``key`` replaced."""
    entries = list(doc[key])
    entries[index] = entry
    return {**doc, key: entries}


_SIGMA_DOC = fileio.sigma_to_json(block_sigma(6))
_REPORT_DOC = fileio.parity_report(zn_linear_oa(3))
# each input is a full document with its first entry, pair (1, 2) or triple
# (1, 2, 3), corrupted, so it passes the entry count and reaches the check its
# id names
_BAD_ENTRIES = {
    "short-pair": (_SIGMA_DOC, "upper", [1, 2], "ValueError: not enough values"),
    "non-int-bit": (_SIGMA_DOC, "upper", [1, 2, 0.5], "TypeError"),
    "reversed-pair": (_SIGMA_DOC, "upper", [2, 1, 0], r"bad pair \(2, 1\)"),
    "pair-column-zero": (_SIGMA_DOC, "upper", [0, 1, 0], r"bad pair \(0, 1\)"),
    "short-tau": (_REPORT_DOC, "tau", [1, 2, 3], "ValueError: not enough values"),
    "tau-column-out-of-range": (_REPORT_DOC, "tau", [9, 1, 2, 1], "bad column triple"),
    "tau-column-negative": (_REPORT_DOC, "tau", [-1, 1, 2, 1], "bad column triple"),
    "tau-column-repeated": (_REPORT_DOC, "tau", [1, 1, 2, 1], "bad column triple"),
    # a parity bit is the JSON integer 0 or 1, not any value whose low bit is
    "bit-2": (_SIGMA_DOC, "upper", [1, 2, 2], "parity bit must be the integer 0 or 1"),
    "bit-3": (_SIGMA_DOC, "upper", [1, 2, 3], "parity bit must be the integer 0 or 1"),
    "bit-true": (_SIGMA_DOC, "upper", [1, 2, True], "parity bit must be the integer 0 or 1"),
    "tau-bit-2": (_REPORT_DOC, "tau", [1, 2, 3, 2], "parity bit must be the integer 0 or 1"),
    "tau-bit-3": (_REPORT_DOC, "tau", [1, 2, 3, 3], "parity bit must be the integer 0 or 1"),
    "tau-bit-true": (_REPORT_DOC, "tau", [1, 2, 3, True], "parity bit must be the integer 0 or 1"),
    "tau-bit-negative": (_REPORT_DOC, "tau", [1, 2, 3, -1], "parity bit must be the integer 0 or 1"),
    # a column index is a JSON integer: true is not column 1, and 3.5 is not
    # truncated to column 3, which would read the document as another tau
    "pair-column-true": (_SIGMA_DOC, "upper", [True, 2, 0], "column index must be an integer"),
    "pair-column-2.0": (_SIGMA_DOC, "upper", [1, 2.0, 0], "column index must be an integer"),
    "pair-column-3.5": (_SIGMA_DOC, "upper", [1, 3.5, 0], "column index must be an integer"),
    "tau-column-true": (_REPORT_DOC, "tau", [True, 2, 3, 0], "column index must be an integer"),
    "tau-column-2.0": (_REPORT_DOC, "tau", [1, 2.0, 3, 0], "column index must be an integer"),
    "tau-column-3.5": (_REPORT_DOC, "tau", [1, 2, 3.5, 0], "column index must be an integer"),
}
_NON_INT_COLUMNS = [f"{key}-column-{c}" for key in ("pair", "tau") for c in ("true", "2.0", "3.5")]


@pytest.mark.parametrize("case", sorted(_BAD_ENTRIES))
def test_json_readers_check_every_entry(case):
    doc, key, entry, message = _BAD_ENTRIES[case]
    read = fileio.sigma_from_json if key == "upper" else fileio.tau_from_report
    with pytest.raises(fileio.FormatError, match=message):
        read(_with_entry(doc, key, 0, entry))


def test_tau_from_entries_rejects_non_bits():
    from oaparity.parity import TauVector

    entries = [list(e) for e in tau_parity(zn_linear_oa(3)).entries()]
    assert TauVector.from_entries(4, 3, entries) == tau_parity(zn_linear_oa(3))
    for bit in (2, 3, -1):
        entries[0][3] = bit
        with pytest.raises(OAError, match="tau bit must be 0 or 1"):
            TauVector.from_entries(4, 3, entries)


def test_parity_report_of_implausible_vector():
    from oaparity.parity import TauVector

    bits = np.zeros((5, 5, 5), dtype=np.uint8)
    bits[1, 2, 3] = 1
    obj = fileio.parity_report(TauVector(k=4, nmod4=0, bits=bits))
    assert obj["plausible"] is False
    assert obj["sigma_standard"] is None
    assert obj["violations"]


# ---------------------------------------------------------------------------
# catalogues


def test_catalogue_roundtrip(tmp_path):
    from oaparity.core import oa_to_mols

    squares = oa_to_mols(zn_linear_oa(5))
    text = fileio.format_catalogue_entry("linear-5", squares)
    text += fileio.format_catalogue_entry("pair-3", oa_to_mols(zn_linear_oa(3)), base=1)
    path = tmp_path / "sets.cat"
    path.write_text(text)
    entries = fileio.ingest_catalogue(path)
    assert [e.label for e in entries] == ["linear-5", "pair-3"]
    assert entries[0].n == 5
    assert tuple(entries[1].squares) == tuple(oa_to_mols(zn_linear_oa(3)))
    assert entries[0].to_oa() == zn_linear_oa(5)
    assert str(path) in entries[0].provenance


def test_catalogue_empty_file():
    assert fileio.parse_catalogue("") == []
    assert fileio.parse_catalogue("# only a comment\n") == []


def test_catalogue_duplicate_square_is_orthogonality_error():
    sq = cyclic_square(3)
    text = fileio.format_catalogue_entry("dupe", [sq, sq])
    from oaparity.core import OrthogonalityError

    with pytest.raises(OrthogonalityError):
        fileio.parse_catalogue(text)


def test_catalogue_malformed_reports_line():
    with pytest.raises(fileio.FormatError) as err:
        fileio.parse_catalogue("MOLSSET x 3 1 0\n0 1 2\n1 2\n")
    assert err.value.line == 3
    with pytest.raises(fileio.FormatError):
        fileio.parse_catalogue("MOLSSET x 3 2 0\n0 1 2\n1 2 0\n2 0 1\n")  # truncated


def test_catalogue_non_latin_square():
    with pytest.raises(fileio.FormatError):
        fileio.parse_catalogue("MOLSSET bad 2 1 0\n0 0\n1 1\n")


# ---------------------------------------------------------------------------
# the command line


def test_cli_array_commands_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma costs every CLI process its import time and memory; no call
    # on these paths (np.unique among them) may pull it in
    path = tmp_path / "plane9.oa"
    path.write_text(fileio.format_oa(linear_mols(9)))
    script = (f"import sys; from oaparity import cli; "
              f"codes = [cli.main([cmd, '--json', {str(path)!r}]) for cmd in ('parity', 'ensemble')]; "
              f"print(codes, 'numpy.ma' in sys.modules, file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(Path(oaparity.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.stderr.splitlines()[-1] == "[0, 0] False", out.stderr


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cli_validate(tmp_path, capsys):
    path = tmp_path / "a.oa"
    path.write_text(fileio.format_oa(zn_linear_oa(3)))
    rc, out, _ = run_cli(capsys, "validate", str(path))
    assert rc == 0
    assert "OA(4,3) valid" in out


def test_cli_validate_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.oa"
    rows = zn_linear_oa(3).rows.copy()
    rows[0, 3] = 2  # breaks orthogonality
    lines = ["OA 4 3 0"] + [" ".join(map(str, r)) for r in rows.tolist()]
    path.write_text("\n".join(lines) + "\n")
    rc, out, err = run_cli(capsys, "validate", str(path))
    assert rc == 1
    assert "pair" in err


def test_cli_parity_bad_file_names_pair(tmp_path, capsys):
    path = tmp_path / "bad.oa"
    rows = zn_linear_oa(3).rows.tolist()
    rows[0][2], rows[3][2] = rows[3][2], rows[0][2]  # columns (1,3) now repeat
    lines = ["OA 4 3 0"] + [" ".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    rc, _, err = run_cli(capsys, "parity", str(path))
    assert rc == 1
    assert "repeat the ordered pair" in err


def test_cli_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2


def test_cli_parity_json_matches_text(tmp_path, capsys):
    path = tmp_path / "a.oa"
    path.write_text(fileio.format_oa(zn_linear_oa(5)))
    rc, out, _ = run_cli(capsys, "parity", str(path), "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["pp_plausible"] == "yes"
    rc, text, _ = run_cli(capsys, "parity", str(path))
    assert "pp_plausible: yes" in text


# plausibility passes of each command on the array's parity report read with
# --tau: the report's own check, for parity, and one sigma_from_tau pass,
# which keeps the sigma it reads on the tau for every later call
_REPORT_PASSES = {"parity": 2, "ensemble": 1, "graphs": 1, "class": 1}


@pytest.mark.parametrize("command, passes", [("parity", 1), ("ensemble", 0), ("graphs", 0),
                                              ("class", 0)])
def test_cli_array_commands_take_the_array_paths(tmp_path, capsys, monkeypatch, command, passes):
    # one loader: an OA file is read as its tau, which carries the array's
    # sigma, and so does the tau of a sigma file read with --tau, so neither
    # needs a plausibility pass to get its sigma; both outputs equal that of
    # the array's parity report read with --tau, whose sigma is checked; the
    # census reads the plane conditions off the sigma row sums and the graphs
    # read that sigma, so they need no pass either
    from oaparity import parity

    plane = linear_mols(9)
    oa_path, report_path = tmp_path / "q9.oa", tmp_path / "q9.json"
    sigma_path = tmp_path / "q9-sigma.json"
    oa_path.write_text(fileio.format_oa(plane))
    report_path.write_text(json.dumps(fileio.parity_report(plane)))
    sigma_path.write_text(json.dumps(fileio.sigma_to_json(parity.sigma_parity(plane))))
    _, from_report, _ = run_cli(capsys, command, str(report_path), "--tau", "--json")
    calls = []

    def counted(t):
        calls.append(t)
        return check_plausible(t)

    for module in (parity, fileio):
        monkeypatch.setattr(module, "check_plausible", counted)
    for argv, want in (([str(oa_path)], passes), ([str(sigma_path), "--tau"], passes),
                       ([str(report_path), "--tau"], _REPORT_PASSES[command])):
        calls.clear()
        rc, out, _ = run_cli(capsys, command, *argv, "--json")
        assert rc == 0
        assert out == from_report
        assert len(calls) == want, argv


def test_cli_enumerate(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "--k", "5", "--nmod4", "3")
    assert rc == 0
    assert "2 classes" in out
    assert "192" in out and "320" in out
    rc, out, _ = run_cli(capsys, "enumerate", "--k", "5", "--nmod4", "3", "--json")
    obj = json.loads(out)
    assert obj["entries"] == [[192, 1], [320, 1]]


def test_cli_construct_and_class(tmp_path, capsys):
    oa_path = tmp_path / "d4.oa"
    rc, _, _ = run_cli(capsys, "construct", "desarguesian", "--q", "4", "-o", str(oa_path))
    assert rc == 0
    assert fileio.parse_oa(oa_path.read_text()) == linear_mols(4)
    rc, out, _ = run_cli(capsys, "class", str(oa_path), "--json")
    assert rc == 0
    assert json.loads(out)["size"] >= 1


def test_cli_construct_sigma_and_ensemble(tmp_path, capsys):
    sig_path = tmp_path / "c6.json"
    rc, _, _ = run_cli(
        capsys, "construct", "sigma", "--kind", "circulant", "--n", "6", "-o", str(sig_path)
    )
    assert rc == 0
    rc, out, _ = run_cli(capsys, "ensemble", str(sig_path), "--tau", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["equiparity"] == 14
    assert obj["pp_plausible"] == "yes"


def test_cli_pp_random_records_seed(tmp_path, capsys):
    path = tmp_path / "pp.json"
    rc, _, _ = run_cli(
        capsys, "construct", "sigma", "--kind", "pp-random", "--n", "5", "--seed", "9",
        "-o", str(path),
    )
    assert rc == 0
    obj = json.loads(path.read_text())
    assert obj["seed"] == 9
    # reproducible for the same seed
    path2 = tmp_path / "pp2.json"
    run_cli(capsys, "construct", "sigma", "--kind", "pp-random", "--n", "5", "--seed", "9",
            "-o", str(path2))
    assert path2.read_text() == path.read_text()


def test_cli_graphs_dot(tmp_path, capsys):
    path = tmp_path / "a.oa"
    path.write_text(fileio.format_oa(zn_linear_oa(3)))
    rc, out, _ = run_cli(capsys, "graphs", str(path), "--dot")
    assert rc == 0
    assert "graph tau1" in out or "digraph tau1" in out
    assert "sigma" in out


def test_cli_search_latin_type(tmp_path, capsys):
    out_path = tmp_path / "s.ls"
    rc, _, _ = run_cli(
        capsys, "search", "latin", "--n", "5", "--type", "110", "-o", str(out_path)
    )
    assert rc == 0
    sq = fileio.parse_square(out_path.read_text())
    from oaparity.parity import latin_square_parities

    assert latin_square_parities(sq).type_str == "110"


def test_cli_search_latin_impossible_type_returns_at_once(capsys):
    # 000 breaks r + c + s = C(6, 2) mod 2; no square of order 6 has it,
    # and walking all 812 851 200 of them takes hours
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "search", "latin", "--n", "6", "--type", "000")
    assert time.perf_counter() - start < 1.0
    assert (rc, out, err) == (1, "", "no square with that type\n")


def test_cli_search_latin_limit(capsys):
    # --limit 0 counts nothing, so it walks no square of order 6 either
    start = time.perf_counter()
    rc, out, _ = run_cli(capsys, "search", "latin", "--n", "6", "--limit", "0")
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (0, "0 squares of order 6\n")
    rc, out, _ = run_cli(capsys, "search", "latin", "--n", "6", "--limit", "0", "--json")
    assert (rc, json.loads(out)) == (0, {"n": 6, "count": 0})
    _, out, _ = run_cli(capsys, "search", "latin", "--n", "4", "--limit", "1")
    assert out == "1 squares of order 4\n"
    _, out, _ = run_cli(capsys, "search", "latin", "--n", "4")
    assert out == "576 squares of order 4\n"


def test_cli_lower_triangular_k(capsys):
    # an explicit --k 0 is checked, not taken for "not given"
    rc, out, err = run_cli(capsys, "construct", "sigma", "--kind", "lower-triangular",
                           "--n", "6", "--k", "0")
    assert (rc, out, err) == (1, "", "error: need k >= 3, got 0\n")
    rc, out, _ = run_cli(capsys, "construct", "sigma", "--kind", "lower-triangular", "--n", "6")
    assert rc == 0 and json.loads(out)["k"] == 7


def test_cli_search_oa_with_target(tmp_path, capsys):
    target_path = tmp_path / "target.json"
    a = zn_linear_oa(3)
    target_path.write_text(json.dumps(fileio.parity_report(a)))
    out_path = tmp_path / "found.oa"
    rc, _, err = run_cli(
        capsys, "search", "oa", "--k", "4", "--n", "3", "--target", str(target_path),
        "-o", str(out_path),
    )
    assert rc == 0
    found = fileio.parse_oa(out_path.read_text())
    assert tau_parity(found) == tau_parity(a)


@pytest.mark.parametrize(
    "argv",
    [["oa", "--max-nodes", "-1"], ["oa", "--restarts", "-2"], ["oa", "--restarts", "0"],
     ["oa", "--seed", "3", "--restarts", "0"], ["latin", "--n", "3", "--limit", "-1"]],
    ids=["max-nodes-negative", "restarts-negative", "restarts-zero",
         "randomized-restarts-zero", "limit-negative"],
)
def test_cli_search_budget_fails_closed(tmp_path, capsys, argv):
    if argv[0] == "oa":
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps(fileio.parity_report(zn_linear_oa(3))))
        argv = [*argv, "--k", "4", "--n", "3", "--target", str(target_path)]
    rc, out, err = run_cli(capsys, "search", *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_ingest_not_utf8(tmp_path, capsys):
    path = tmp_path / "cat.txt"
    path.write_bytes(b"MOLSSET x 2 1 0\n0 1\n1 \xff\n")
    rc, out, err = run_cli(capsys, "ingest", str(path))
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and "not UTF-8" in err


def test_cli_ingest(tmp_path, capsys):
    from oaparity.core import oa_to_mols

    path = tmp_path / "cat.txt"
    path.write_text(fileio.format_catalogue_entry("linear-4", oa_to_mols(linear_mols(4))))
    rc, out, _ = run_cli(capsys, "ingest", str(path), "--class")
    assert rc == 0
    assert "linear-4: 3 MOLS(4)" in out
    assert "1 set(s) ingested" in out


_SIGMA = {"kind": "sigma", "k": 4, "nmod4": 0}


def _oa_text_with_symbol(value: int) -> str:
    """The q=3 array's text with its first symbol replaced by ``value``."""
    header, first, *rest = fileio.format_oa(zn_linear_oa(3)).splitlines()
    first = " ".join([str(value)] + first.split()[1:])
    return "\n".join([header, first, *rest]) + "\n"


_OA_JSON = fileio.oa_to_json(zn_linear_oa(3))

# a base is the JSON integer 0 or 1, as in the text formats; each document
# below holds symbols shifted by the base's integer value, so only the base
# itself is wrong
_BAD_BASES = [-1, 2, True, 1.0, "1"]


def _with_base(doc: dict, base) -> dict:
    return {**doc, "base": base}


@pytest.mark.parametrize(
    "content, flags",
    [
        (json.dumps(_with_entry(_SIGMA_DOC, "upper", 0, [1, 2])), ["--tau"]),
        (json.dumps({"kind": "sigma", "nmod4": 0, "upper": []}), ["--tau"]),
        (json.dumps({**_SIGMA, "k": "x", "upper": []}), ["--tau"]),
        (json.dumps(_with_entry(_SIGMA_DOC, "upper", 0, [1, 2, 0.5])), ["--tau"]),
        (json.dumps(_with_entry(_SIGMA_DOC, "upper", 0, [1, 2, 3])), ["--tau"]),
        (json.dumps(_with_entry(_REPORT_DOC, "tau", 0, [1, 2, 3, True])), ["--tau"]),
        ("this is not JSON", ["--tau"]),
        (json.dumps(_with_entry(_REPORT_DOC, "tau", 0, [1, 2, 3])), ["--tau"]),
        (json.dumps(_with_entry(_REPORT_DOC, "tau", 0, [9, 1, 2, 1])), ["--tau"]),
        (None, ["--tau"]),  # a directory
        ("{not JSON", []),
        (json.dumps({"kind": "oa"}), []),
        (json.dumps({"k": 100000, "nmod4": 0, "tau": []}), ["--tau"]),
        (json.dumps({**_SIGMA, "k": 100000, "upper": []}), ["--tau"]),
        (json.dumps({**fileio.parity_report(linear_mols(3)), "k": 4.7}), ["--tau"]),
        (json.dumps({**fileio.parity_report(linear_mols(3)), "k": True}), ["--tau"]),
        (_oa_text_with_symbol(40000), []),
        (_oa_text_with_symbol(65536), []),
        (json.dumps(_with_entry(_OA_JSON, "rows", 0, [65536, 0, 0, 0])), []),
        (json.dumps(_with_entry(_OA_JSON, "rows", 0, [0, 0, 0, False])), []),
        (json.dumps(_with_entry(_OA_JSON, "rows", 1, [0, True, 1, 1])), []),
        (b"OA 3 2 0\n\xff\xfe 0 0\n", []),
        (b'{"kind": "sigma", "k": 3, "nmod4": 0, "upper": "\xff"}', ["--tau"]),
        *[(json.dumps(_with_base(fileio.oa_to_json(zn_linear_oa(3), int(b)), b)), [])
          for b in _BAD_BASES],
        *[(json.dumps(_with_entry(doc, key, 0, entry)), ["--tau"])
          for doc, key, entry, _ in map(_BAD_ENTRIES.get, _NON_INT_COLUMNS)],
    ],
    ids=["short-pair", "missing-k", "non-int-k", "non-int-bit", "bit-3", "tau-bit-true",
         "not-json", "short-tau", "tau-column-out-of-range", "directory",
         "array-not-json", "array-without-rows", "huge-k-report", "huge-k-sigma",
         "float-k", "bool-k", "oa-symbol-40000", "oa-symbol-65536",
         "oa-json-symbol-65536", "oa-json-symbol-false", "oa-json-symbol-true",
         "oa-not-utf8", "sigma-not-utf8", *[f"oa-json-base-{b!r}" for b in _BAD_BASES],
         *_NON_INT_COLUMNS],
)
def test_cli_malformed_input_fails_closed(tmp_path, capsys, content, flags):
    path = tmp_path / "in.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    rc, _, err = run_cli(capsys, "parity", str(path), *flags)
    assert rc == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("base", _BAD_BASES, ids=repr)
@pytest.mark.parametrize("reader", ["oa", "square"])
def test_json_base_fails_closed(reader, base):
    if reader == "oa":
        doc, parse = fileio.oa_to_json(zn_linear_oa(3), int(base)), fileio.parse_oa
    else:
        doc, parse = fileio.square_to_json(zn_linear_square(3, 1), int(base)), fileio.parse_square
    with pytest.raises(fileio.FormatError, match="base must be 0 or 1"):
        parse(json.dumps(_with_base(doc, base)))


@pytest.mark.parametrize("symbol", [False, True], ids=repr)
@pytest.mark.parametrize("reader", ["oa", "square"])
def test_json_symbols_refuse_booleans(reader, symbol):
    # numpy reads true and false among integers as 1 and 0, which would let
    # a document whose booleans sit where those symbols belong read as valid
    if reader == "oa":
        doc, key, parse = fileio.oa_to_json(zn_linear_oa(3)), "rows", fileio.parse_oa
    else:
        doc, key, parse = fileio.square_to_json(zn_linear_square(3, 1)), "cells", fileio.parse_square
    table = [list(row) for row in doc[key]]
    row = next(r for r in table if int(symbol) in r)
    row[row.index(int(symbol))] = symbol
    parse(json.dumps(doc))  # the document as written is valid
    with pytest.raises(fileio.FormatError, match="symbols must be integers, not true or false"):
        parse(json.dumps({**doc, key: table}))
    # a table of booleans alone is refused with the same message
    with pytest.raises(fileio.FormatError, match="not true or false"):
        parse(json.dumps({**doc, key: [[bool(x) for x in r] for r in doc[key]]}))
