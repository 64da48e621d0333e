"""The codecs that the package's CSV and JSON formats share.

Each on-disk format has its reader and writer next to the type it reads
into: RFSG traces and the manifest in ``signals``, the feature CSV in
``features``, model.json in ``lof``, corpus.json in ``synth`` and the
report CSVs in ``evaluate``. This module holds only what they share: float
text, fixed-header CSV records, and typed fields of a versioned JSON
document. It knows no domain type and imports nothing from the package but
``errors``.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path
from typing import Iterator

from .errors import FormatError


def fmt(value: float | None) -> str:
    """CSV text of a float; ``repr`` round-trips exactly and None is empty."""
    return "" if value is None else repr(float(value))


def csv_records(path: str | Path, header: list[str]) -> Iterator[tuple[str, list[str]]]:
    """Yield (``path:line``, record) for each data row of a fixed-header CSV.

    An empty file, another header, a row of another width, text that is not
    UTF-8 and malformed CSV quoting are each a FormatError.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found != header:
                got = "an empty file" if found is None else f"the header {found}"
                raise FormatError(f"{path}: expected the header {header}, got {got}")
            for rec in reader:
                where = f"{path}:{reader.line_num}"
                if len(rec) != len(header):
                    raise FormatError(
                        f"{where}: expected {len(header)} columns, got {len(rec)}"
                    )
                yield where, rec
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}:{reader.line_num}: {exc}") from None


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write a header line and then every row as CSV.

    ``rows`` may be a generator, so that no list of all formatted rows exists.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise FormatError(f"{where}: {text!r} is not finite")
    return value


def parse_path(text: str, where: str) -> str:
    if "\0" in text:  # no file system accepts it; open() would raise ValueError
        raise FormatError(f"{where}: path {text!r} holds a NUL byte")
    return text


def json_document(path: str | Path, name: str, version: int) -> dict:
    """The top-level object of a JSON document ``{"format": name, "version": version, ...}``.

    Text that is not JSON, nesting too deep for the decoder, another format
    and another version are each a FormatError.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != name:
        raise FormatError(f"{path}: not a {name} document")
    if type(doc.get("version")) is not int or doc["version"] != version:
        raise FormatError(f"{path}: unsupported {name} version {doc.get('version')!r}")
    return doc


# JSON value types: the Python types json.loads gives them, and their name
STRING = ((str,), "a string")
BOOL = ((bool,), "a boolean")
LIST = ((list,), "a list")
OBJECT = ((dict,), "an object")
INT = ((int,), "an integer")
NUMBER = ((int, float), "a number")
INT_OR_NULL = ((int, type(None)), "an integer or null")
NUMBER_OR_NULL = ((int, float, type(None)), "a number or null")


def json_fields(d, spec: dict[str, tuple[tuple[type, ...], str]], what: str) -> dict:
    """The ``spec`` keys of JSON object ``d``, each of one of its exact types.

    Exact, so a JSON ``true`` is not an integer and ``300.0`` is not one
    either; an integer is a valid number, unless it is beyond float range,
    and an integer-only field must fit int64. Other keys are ignored.
    """
    if not isinstance(d, dict):
        raise FormatError(f"{what} must be an object, got {type(d).__name__}")
    missing = [key for key in spec if key not in d]
    if missing:
        raise FormatError(f"{what}: missing key(s) {', '.join(missing)}")
    for key, (types, name) in spec.items():
        if type(d[key]) not in types:
            raise FormatError(f"{what}: {key} must be {name}, got {d[key]!r}")
        if float in types and type(d[key]) is int and abs(d[key]) > sys.float_info.max:
            raise FormatError(f"{what}: {key} is beyond float range")
        if float not in types and type(d[key]) is int and not -2**63 <= d[key] < 2**63:
            raise FormatError(f"{what}: {key} is beyond int64 range")
    return {key: d[key] for key in spec}
