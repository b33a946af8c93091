"""File formats: arrays, squares, sigma data, parity reports, catalogues.

Text formats (whitespace-separated ASCII decimal integers that fit int64,
blank lines and whole-line ``#`` comments skipped; ``base`` is 0 or 1 and
shifts symbols on input/output):

    OA k n base          LS n base            MOLSSET label n count base
    <n^2 rows of k>      <n rows of n>        <count squares, n rows each>

A file may also hold the JSON mirror of an array or square (detected by a
leading '{'); sigma data and parity reports are JSON only.  Every emitted
file re-parses to an identical value.

Sigma data lists its entries as [i, j, bit] pairs under "upper", a parity
report as [c, i, j, bit] tau components under "tau"; both readers take the
list as one table (``_entries``), by one rule.  A pair names the item
{i, j}, 1 <= i < j <= k; a component names c and the set {i, j}, three
distinct columns in 1..k (i > j names the same component as i < j).  In
the order checked: the list has one entry per item; each entry has that
many values; every value is a JSON integer (a boolean or a float is not
one); each bit is 0 or 1; no item is listed twice; the columns keep the
reader's rule.  A document with more than one fault is refused for the
first in that order.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .core import LatinSquare, OAError, OrthogonalArray, mols_to_oa
from .parity import (
    SigmaMatrix,
    TauVector,
    _check_shape,
    check_plausible,
    sigma_from_tau,
    tau_from_sigma,
    tau_parity,
)


class FormatError(OAError):
    """Malformed file; carries the offending 1-based line number."""

    def __init__(self, msg: str, line: int | None = None):
        super().__init__(msg if line is None else f"line {line}: {msg}")
        self.line = line


@contextmanager
def _malformed(what: str):
    """Turn the errors of reading a malformed JSON document into FormatError."""
    try:
        yield
    except OAError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"malformed {what}: {type(exc).__name__}: {exc}") from None


def read_text(path) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 raise
    FormatError.  OSError (a missing file, a directory) passes through."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _lines(lines: list[str]):
    """(line number, stripped line) of each of the ``lines`` of a text that
    is neither blank nor a whole-line '#' comment."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _loadtxt(lines: list[str]) -> np.ndarray:
    """Whitespace-separated integers, one table row per line, in one C-level
    pass; ValueError for ragged rows or a token that is not an ASCII decimal
    integer fitting int64.

    Callers pass ASCII lines only: numpy's text reader can crash the process
    on characters outside the Basic Multilingual Plane.
    """
    return np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)


def _one_call(lines: list[str], width: int) -> np.ndarray | None:
    """ASCII ``lines`` as a table of ``width`` columns read by one
    ``_loadtxt`` call, or None if the call refuses them or finds another
    width."""
    try:
        table = _loadtxt(lines)
    except ValueError:
        return None
    return table if table.shape[1] == width else None


def _parse_ints(fields, lineno) -> list[int]:
    """Header or row fields as integers, by the token rule of ``_loadtxt``."""
    line = " ".join(fields)
    if line.isascii():
        try:
            return _loadtxt([line])[0].tolist()
        except ValueError:
            pass
    raise FormatError(f"expected integers, got {fields!r}", lineno)


def _read_rows(lines: list, width: int, base: int) -> np.ndarray:
    """The data ``lines``, (lineno, line) pairs, as an int64 table of
    ``width`` columns less ``base``; no lines give an empty 1-d array.

    A valid table is read in one pass.  Otherwise the lines are walked in
    order and the first bad one raises FormatError with its line number.
    """
    body = [line for _, line in lines]
    if body and all(map(str.isascii, body)):
        table = _one_call(body, width)
        if table is not None:
            return table - base
    rows = []
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != width:
            raise FormatError(f"expected {width} symbols per row", lineno)
        rows.append(_parse_ints(fields, lineno))
    return np.array(rows, dtype=np.int64) - base


def _parse_table(text: str, usage: str) -> tuple[list[int], np.ndarray]:
    """The header integers and the data rows of a text file holding one
    table: a header line ``usage`` (a tag and then names, the first the row
    width and the last the symbol base), then the rows, less the base.

    The header is the first line of the ``_lines`` walk.  ASCII text with
    no '#' then goes in one pass: every later line to one ``_loadtxt``
    call, which skips blank lines and edge whitespace as the walk does.  Any
    other text, or a table that call refuses, is walked on by ``_read_rows``,
    which alone raises FormatError for the data rows, with the line number
    of the first bad one.
    """
    raw = text.splitlines()
    walk = _lines(raw)
    first = next(walk, None)
    if first is None:
        raise FormatError("empty file", 1)
    lineno, header = first[0], first[1].split()
    tag, *names = usage.split()
    if len(header) != 1 + len(names) or header[0] != tag:
        raise FormatError(f"header must be '{usage}'", lineno)
    ints = _parse_ints(header[1:], lineno)
    width, base = ints[0], _base(ints[-1], lineno)
    if text.isascii() and "#" not in text:
        body = raw[lineno:]
        # loadtxt warns on a table with no data
        table = _one_call(body, width) if any(map(str.strip, body)) else None
        if table is not None:
            return ints, table - base
    return ints, _read_rows(list(walk), width, base)


def _base(base, lineno=None) -> int:
    """A symbol base: the integer 0 or 1; a boolean or a float is not one."""
    if isinstance(base, bool) or not isinstance(base, int) or base not in (0, 1):
        raise FormatError(f"base must be 0 or 1, got {base!r}", lineno)
    return base


def _symbols(table) -> np.ndarray:
    """The symbols of a JSON array or square as an array.  numpy reads
    ``true`` and ``false`` among integers as 1 and 0, so they are refused
    here: a boolean is not a symbol."""
    arr = np.asarray(table)
    if arr.dtype.kind == "b" or (
        arr.dtype.kind in "iu" and arr.ndim == 2 and bool in set(map(type, chain(*table)))
    ):
        raise FormatError("symbols must be integers, not true or false")
    return arr


# ---------------------------------------------------------------------------
# orthogonal arrays


def parse_oa(text: str) -> OrthogonalArray:
    """The array in ``text``: its JSON mirror, or 'OA k n base' and n^2
    rows of k symbols.

    Valid ASCII text with no '#' is read in one pass, the rows by one
    ``np.loadtxt`` call; any other text, or rows that call refuses, is
    walked line by line, and the first bad line raises FormatError with its
    line number (``_parse_table``).
    """
    if text.lstrip().startswith("{"):
        with _malformed("array JSON"):
            return oa_from_json(json.loads(text))
    (k, n, _), rows = _parse_table(text, "OA k n base")
    if len(rows) != n * n:
        raise FormatError(f"expected {n * n} rows, got {len(rows)}")
    a = OrthogonalArray(rows)
    if a.n != n:
        raise FormatError(f"rows imply order {a.n}, header says {n}")
    return a


def _format_table(header: str, rows: np.ndarray, base: int) -> str:
    """``header`` and then one line per row of symbols shifted by ``base``:
    each symbol's string looked up in one table, one join per row."""
    strings = np.array([str(v) for v in range(base, base + int(rows.max(initial=0)) + 1)],
                       dtype=object)
    lines = [header, *map(" ".join, strings[rows].tolist())]
    return "\n".join(lines) + "\n"


def format_oa(a: OrthogonalArray, base: int = 0) -> str:
    return _format_table(f"OA {a.k} {a.n} {base}", a.rows, base)


def oa_to_json(a: OrthogonalArray, base: int = 0) -> dict:
    return {
        "kind": "oa",
        "k": a.k,
        "n": a.n,
        "base": base,
        "rows": (a.rows + base).tolist(),
    }


def oa_from_json(obj: dict) -> OrthogonalArray:
    if obj.get("kind") != "oa":
        raise FormatError(f"expected kind 'oa', got {obj.get('kind')!r}")
    rows = _symbols(obj["rows"]) - _base(obj.get("base", 0))
    return OrthogonalArray(rows)


# ---------------------------------------------------------------------------
# Latin squares


def parse_square(text: str) -> LatinSquare:
    if text.lstrip().startswith("{"):
        with _malformed("square JSON"):
            return square_from_json(json.loads(text))
    (n, _), cells = _parse_table(text, "LS n base")
    if len(cells) != n:
        raise FormatError(f"expected {n} rows, got {len(cells)}")
    return LatinSquare(cells)


def format_square(square: LatinSquare, base: int = 0) -> str:
    return _format_table(f"LS {square.n} {base}", square.cells, base)


def square_to_json(square: LatinSquare, base: int = 0) -> dict:
    return {
        "kind": "latin_square",
        "n": square.n,
        "base": base,
        "cells": (square.cells + base).tolist(),
    }


def square_from_json(obj: dict) -> LatinSquare:
    if obj.get("kind") != "latin_square":
        raise FormatError(f"expected kind 'latin_square', got {obj.get('kind')!r}")
    return LatinSquare(_symbols(obj["cells"]) - _base(obj.get("base", 0)))


# ---------------------------------------------------------------------------
# sigma data


def sigma_to_json(s: SigmaMatrix, seed: int | None = None) -> dict:
    obj = {
        "kind": "sigma",
        "k": s.k,
        "nmod4": s.nmod4,
        "n": s.n,
        "upper": s.pairs(),
    }
    if seed is not None:
        obj["seed"] = seed
    return obj


def sigma_from_json(obj: dict) -> SigmaMatrix:
    if obj.get("kind") != "sigma":
        raise FormatError(f"expected kind 'sigma', got {obj.get('kind')!r}")
    with _malformed("sigma data"):
        k, nmod4, n = _shape(obj)
        i, j, bits = _entries(obj["upper"], 3, k * (k - 1) // 2, "column pairs", k).T
        bad = (i < 1) | (i >= j) | (j > k)
        if bad.any():
            raise FormatError(f"bad pair ({i[bad][0]}, {j[bad][0]}) in sigma data")
        upper = np.zeros((k + 1, k + 1), dtype=np.uint8)
        upper[i, j] = bits
    return SigmaMatrix.from_upper(k, nmod4, upper, n=n)


def _shape(obj: dict) -> tuple[int, int, int | None]:
    """The k, nmod4 and optional n fields of a sigma or report document,
    JSON integers that ``_check_shape`` accepts."""
    k, nmod4 = _json_int(obj["k"], "k"), _json_int(obj["nmod4"], "nmod4")
    n = None if obj.get("n") is None else _json_int(obj["n"], "n")
    _check_shape(k, nmod4, n)
    return k, nmod4, n


def _json_int(value, what: str):
    """A value that must be a JSON integer, such as a shape field or a
    column index; a float or a boolean is not one, so ``true`` is not
    column 1 and 3.5 is not column 3."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def _entries(entries, width: int, count: int, what: str, k: int) -> np.ndarray:
    """The entry list of a sigma or report document as a (count, width)
    table, checked by the module docstring's rule up to the reader's column
    rule, with no Python loop over a valid list.

    The count is checked first, so the size of the file bounds k before
    anything of size k is allocated.  An item is keyed by its first column
    and the set of its others, clipped to 0..k + 1: a row with a column out
    of range then keys no valid item, so one bad row is left to the column
    rule, not taken for a repeat.  Some faults are raised as TypeError or
    ValueError, for ``_malformed`` to report.
    """
    if len(entries) != count:
        raise FormatError(f"expected all {count} {what}, got {len(entries)} entries")
    if set(map(len, entries)) != {width}:
        size = next(size for size in map(len, entries) if size != width)
        raise ValueError(f"not enough values to unpack (expected {width}, got {size})"
                         if size < width else f"too many values to unpack (expected {width})")
    values = list(chain.from_iterable(entries))
    if set(map(type, values)) != {int}:  # numpy would read true as 1 and 2.0 as 2
        at, value = next((at, v) for at, v in enumerate(values) if type(v) is not int)
        if at % width == width - 1:
            raise TypeError(f"parity bit must be the integer 0 or 1, got {value!r}")
        _json_int(value, "column index")
    # int64 unless a value is past it, which no column index nor bit is
    table = np.array(values).reshape(count, width)
    table = table if table.dtype == np.int64 else np.array(values, object).reshape(count, width)
    bad = (table[:, -1] != 0) & (table[:, -1] != 1)
    if bad.any():
        raise ValueError(f"parity bit must be the integer 0 or 1, got {table[bad, -1][0]}")
    items = table[:, :-1].clip(0, k + 1)
    items[:, 1:].sort(axis=1)
    keys = np.sort(items @ (k + 2) ** np.arange(width - 2, -1, -1))
    if (keys[1:] == keys[:-1]).any():
        raise FormatError(f"{what} listed twice: {len(set(keys.tolist()))} of {count} are distinct")
    return table


# ---------------------------------------------------------------------------
# parity reports


def parity_report(source: OrthogonalArray | TauVector | SigmaMatrix) -> dict:
    """The canonical JSON report of an array, a tau or a sigma matrix: tau
    entries, standardised sigma pairs, plausibility flags.

    The flags come from the tau's sigma, ``sigma_from_tau``, the one
    plausibility gate, and its plane verdict, ``SigmaMatrix.pp_plausible``;
    only a tau that gate refuses gets a ``check_plausible`` pass, to list
    its violations."""
    tau = tau_parity(source) if isinstance(source, OrthogonalArray) else source
    tau = tau_from_sigma(tau) if isinstance(tau, SigmaMatrix) else tau
    obj = {"k": tau.k, "n": tau.n, "nmod4": tau.nmod4, "tau": tau.entries()}
    try:
        sigma = sigma_from_tau(tau)
    except OAError:
        rep = check_plausible(tau)
        return {**obj, "plausible": False, "pp_plausible": rep.pp_plausible,
                "sigma_standard": None,
                "violations": [[kind, list(w)] for kind, w in rep.violations]}
    return {**obj, "plausible": True, "pp_plausible": sigma.pp_plausible,
            "sigma_standard": sigma.pairs()}


def tau_from_report(obj: dict) -> TauVector:
    with _malformed("parity report"):
        k, nmod4, n = _shape(obj)
        table = _entries(obj["tau"], 4, k * (k - 1) * (k - 2) // 2, "tau components", k)
        cols = table[:, :3]
        bad = ((cols < 1) | (cols > k) | (cols == cols[:, [1, 2, 0]])).any(axis=1)
        if bad.any():
            raise FormatError(f"bad column triple {tuple(cols[bad][0].tolist())} in tau data")
        return TauVector.from_entries(k, nmod4, table, n=n)


def load_parity(path) -> SigmaMatrix | TauVector:
    """Read a parity vector: the sigma matrix of a sigma JSON file, which
    builds no tau, or the tau vector of a parity report."""
    with _malformed("JSON file"):
        obj = json.loads(read_text(path))
    if not isinstance(obj, dict) or (obj.get("kind") != "sigma" and "tau" not in obj):
        raise FormatError("file holds neither sigma data nor a parity report")
    return sigma_from_json(obj) if obj.get("kind") == "sigma" else tau_from_report(obj)


# ---------------------------------------------------------------------------
# catalogues of MOLS sets


@dataclass(frozen=True)
class CatalogueEntry:
    """One named set of MOLS read from a catalogue file, with the array
    whose build checked them orthogonal."""

    label: str
    squares: tuple
    provenance: str
    array: OrthogonalArray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.squares[0].n


def parse_catalogue(text: str, provenance: str = "<memory>") -> list[CatalogueEntry]:
    entries = []
    lines = list(_lines(text.splitlines()))
    pos = 0
    while pos < len(lines):
        lineno, fields = lines[pos][0], lines[pos][1].split()
        if fields[0] != "MOLSSET" or len(fields) != 5:
            raise FormatError("expected 'MOLSSET label n count base'", lineno)
        label = fields[1]
        n, count, base = _parse_ints(fields[2:], lineno)
        # an OA(count + 2, n) needs count + 2 <= n + 1
        if not 1 <= count <= n - 1:
            raise FormatError(f"set {label!r}: need 1 <= count <= n - 1, "
                              f"got n={n}, count={count}", lineno)
        body = lines[pos + 1:pos + 1 + count * n]
        table = _read_rows(body, n, _base(base, lineno))
        pos += 1 + len(body)
        squares = []
        for s in range(count):
            cells = table[s * n:(s + 1) * n]
            if len(cells) < n:
                raise FormatError(f"set {label!r}: file ended inside square {s + 1}", lineno)
            try:
                squares.append(LatinSquare(cells))
            except OAError as exc:
                raise FormatError(f"set {label!r}, square {s + 1}: {exc}", lineno) from None
        # mols_to_oa is the orthogonality check; it raises naming the offending pair
        entries.append(CatalogueEntry(label=label, squares=tuple(squares),
                                      provenance=f"{provenance}:{lineno}",
                                      array=mols_to_oa(squares)))
    return entries


def ingest_catalogue(path) -> list[CatalogueEntry]:
    """Parse and validate a catalogue file of MOLS sets."""
    p = Path(path)
    return parse_catalogue(read_text(p), provenance=str(p))


def format_catalogue_entry(label: str, squares, base: int = 0) -> str:
    squares = list(squares)
    header = f"MOLSSET {label} {squares[0].n} {len(squares)} {base}"
    return _format_table(header, np.concatenate([sq.cells for sq in squares]), base)
