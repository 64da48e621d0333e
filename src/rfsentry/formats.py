"""The codecs that the package's CSV and JSON formats share.

Each on-disk format has its reader and writer next to the type it reads
into: RFSG traces and the manifest in ``signals``, the feature CSV in
``features``, model.json in ``lof``, corpus.json in ``synth`` and the
report CSVs in ``evaluate``. This module holds only what they share: float
text, fixed-header CSV records, and the keys of a versioned JSON document;
the types of a document's values are the rules of the records they build.
It knows no domain type and imports nothing from the package but
``errors``.
"""

from __future__ import annotations

import csv
import json
import math
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


def json_fields(d, keys, what: str) -> dict:
    """The ``keys`` of JSON object ``d``; other keys are ignored.

    Each value's type is the rule of the record the caller builds from it.
    """
    if not isinstance(d, dict):
        raise FormatError(f"{what} must be an object, got {d!r}")
    missing = [key for key in keys if key not in d]
    if missing:
        raise FormatError(f"{what}: missing key(s) {', '.join(missing)}")
    return {key: d[key] for key in keys}
