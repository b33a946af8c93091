"""File formats: arrays, squares, sigma data, parity reports, catalogues.

Text formats (whitespace-separated ASCII decimal integers that fit int64,
blank lines and whole-line ``#`` comments skipped; ``base`` is 0 or 1 and
shifts symbols on input/output):

    OA k n base          LS n base            MOLSSET label n count base
    <n^2 rows of k>      <n rows of n>        <count squares, n rows each>

A file may also hold the JSON mirror of an array or square (detected by a
leading '{'); sigma data and parity reports are JSON only.  Every emitted
file re-parses to an identical value.
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


def _bit(bit) -> int:
    """A parity bit in JSON data: the integer 0 or 1; a boolean is not one.

    Raised as TypeError or ValueError for ``_malformed`` to report."""
    if isinstance(bit, bool) or not isinstance(bit, int):
        raise TypeError(f"parity bit must be the integer 0 or 1, got {bit!r}")
    if bit not in (0, 1):
        raise ValueError(f"parity bit must be the integer 0 or 1, got {bit!r}")
    return bit


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
        pairs = obj["upper"]
        for i, j, _ in pairs:
            for x in (i, j):
                _json_int(x, "column index")
            if not 1 <= i < j <= k:
                raise FormatError(f"bad pair ({i}, {j}) in sigma data")
        _expect_each_once([(i, j) for i, j, _ in pairs], k * (k - 1) // 2, "column pairs")
        upper = np.zeros((k + 1, k + 1), dtype=np.uint8)
        for i, j, bit in pairs:
            upper[i, j] = _bit(bit)
    return SigmaMatrix.from_upper(k, nmod4, upper, n=n)


def _shape(obj: dict) -> tuple[int, int, int | None]:
    """The k, nmod4 and optional n fields of a sigma or report document,
    JSON integers that ``_check_shape`` accepts."""
    k, nmod4, n = _json_int(obj["k"], "k"), _json_int(obj["nmod4"], "nmod4"), obj.get("n")
    if n is not None:
        _json_int(n, "n")
    _check_shape(k, nmod4, n)
    return k, nmod4, n


def _json_int(value, what: str):
    """A value that must be a JSON integer, such as a shape field or a
    column index; a float or a boolean is not one, so ``true`` is not
    column 1 and 3.5 is not column 3."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def _expect_each_once(keys: list, count: int, what: str) -> None:
    """A document lists each of its ``count`` items once, as the writers do.

    Checked before anything of size k is allocated, so the size of the file
    bounds k.
    """
    if len(keys) != count:
        raise FormatError(f"expected all {count} {what}, got {len(keys)} entries")
    if len(set(keys)) != count:
        raise FormatError(f"{what} listed twice: {len(set(keys))} of {count} are distinct")


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
        entries = [tuple(e) for e in obj["tau"]]
        for c, i, j, bit in entries:
            for x in (c, i, j):
                _json_int(x, "column index")
            if len({c, i, j}) != 3 or not all(1 <= x <= k for x in (c, i, j)):
                raise FormatError(f"bad column triple ({c}, {i}, {j}) in tau data")
            _bit(bit)
        _expect_each_once([(c, min(i, j), max(i, j)) for c, i, j, _ in entries],
                          k * (k - 1) * (k - 2) // 2, "tau components")
        return TauVector.from_entries(k, nmod4, entries, n=n)


def load_parity(path) -> SigmaMatrix | TauVector:
    """Read a parity vector: the sigma matrix of a sigma JSON file, which
    builds no tau, or the tau vector of a parity report."""
    text = read_text(path)
    with _malformed("JSON file"):
        obj = json.loads(text)
    if not isinstance(obj, dict):
        raise FormatError("file holds neither sigma data nor a parity report")
    if obj.get("kind") == "sigma":
        return sigma_from_json(obj)
    if "tau" in obj:
        return tau_from_report(obj)
    raise FormatError("file holds neither sigma data nor a parity report")


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

    def to_oa(self) -> OrthogonalArray:
        return self.array


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
