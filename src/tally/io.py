"""Artifact files: line-numbered readers and atomic writers.

Readers read JSONL or CSV line by line and map each record through a `parse`
function; a line that is not UTF-8 (decoded inside the per-line check), a
malformed line or CSV row, a KeyError/TypeError/ValueError/InputError from
`parse` (`json_field` is the one check of a JSON field's type), or a repeated
key is an InputError naming path:lineno; `read_json`'s one value, a CSV header
and an InputError inside `named(path)` name the path.

Writers never touch the target in place. `atomic_write` fills a temp file
in the target's directory, flushes and fsyncs it, then `os.replace`s it
over the target, so a writer killed at any point leaves the previous
artifact intact. The temp file is opened with plain `open`, so the artifact's
permissions follow the umask. Text is UTF-8 with no newline translation.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os

from .errors import InputError

_PARSE_ERRORS = (KeyError, TypeError, ValueError, InputError)  # ValueError: JSONDecodeError, UnicodeDecodeError
# The encoder json.dumps(obj, sort_keys=True) uses, built once: dumps builds a new one per call.
SORTED_JSON = json.JSONEncoder(sort_keys=True)
_DECODER = json.JSONDecoder()  # the decoder json.loads uses


def loads_line(line: str | bytes):
    """json.loads(line), with the same result, exception and message. A line
    that holds one JSON value from its first character, then only JSON
    whitespace, takes one raw_decode; any other line goes to json.loads."""
    try:
        text = line.decode("utf-8") if isinstance(line, bytes) else line
        obj, end = _DECODER.raw_decode(text)
        if not text[end:].strip(" \t\n\r"):
            return obj
    except ValueError:  # a UnicodeDecodeError or a JSONDecodeError
        pass
    return json.loads(line)


def read_jsonl(path: str, what: str, parse, key=None) -> list:
    """parse(obj) for each non-blank line of a JSONL file, in file order; key as in _parse_each."""
    with open(path, "rb") as f:
        lines = ((lineno, line) for lineno, line in enumerate(f, 1) if line.strip())
        return _parse_each(path, what, lines, lambda line: parse(loads_line(line.decode("utf-8"))), key)


def read_lines(path: str, what: str) -> list[str]:
    """Each line of a UTF-8 text file with its line end, split as universal newlines split it."""
    with open(path, "rb") as f:
        lines = f.read().splitlines(keepends=True)  # bytes split at "\n", "\r\n" and "\r" alone
    return _parse_each(path, what, enumerate(lines, 1), lambda line: line.decode("utf-8"), None)


def read_json(path: str, what: str, parse):
    """parse(obj) of a UTF-8 file that holds one JSON value."""
    with open(path, "rb") as f:
        data = f.read()
    return _parse_each(path, what, [(None, data)], lambda text: parse(json.loads(text.decode("utf-8"))), None)[0]


def string_list(value, what: str) -> list[str]:
    """A JSON list's items as strings, a number as its decimal text. A bare string
    (not a list of letters) or an item that is null, a bool, a list or an object
    is a TypeError."""
    if isinstance(value, str):
        raise TypeError(f"{what} is a string, not a list")
    items = []
    for item in value:
        if item is None or isinstance(item, (bool, list, dict)):
            raise TypeError(f"{what} holds {json.dumps(item)}, not a string")
        items.append(str(item))
    return items


_KIND_NAMES = {int: "an integer", bool: "a boolean", str: "a string", float: "a number"}


def json_field(obj: dict, key: str, kind: type = int, default=None):
    """obj[key] if its JSON type is `kind` (int, bool, str, or float: any number, read as a float),
    else a TypeError; a bool is never an int or a number. With a default, a key may be missing."""
    value = obj[key] if default is None else obj.get(key, default)
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise TypeError(f"{key} is {json.dumps(value)}, not {_KIND_NAMES[kind]}")
    return float(value) if kind is float else value


def read_table(path: str, what: str, field: str) -> dict[str, list[str]]:
    """{name: [strings]} from JSONL records {"name", field}; a later line for a name wins."""
    return dict(read_jsonl(
        path, what, lambda obj: (json_field(obj, "name", str), string_list(obj[field], field))
    ))


def read_csv(path: str, columns, what: str, parse, key=None) -> list:
    """parse(row) for each row of a CSV file whose header holds `columns`; key as in _parse_each."""
    reader = csv.DictReader(read_lines(path, what))
    try:
        if not set(columns).issubset(reader.fieldnames or ()):
            raise InputError(f"{path}: expected columns {','.join(columns)}")
        return _parse_each(path, what, ((reader.line_num, row) for row in reader), parse, key)
    except csv.Error as e:  # the reader's own; DictReader.line_num is 0 until the header is read
        where = f"{path}:{reader.reader.line_num}: bad {what}" if reader.line_num else f"{path}: bad header"
        raise InputError(f"{where}: {e}") from e


@contextlib.contextmanager
def named(path: str):
    """An InputError raised inside, keeping its type, names `path` first."""
    try:
        yield
    except InputError as e:
        e.args = (f"{path}: {e}",)
        raise


def _parse_each(path: str, what: str, numbered, parse, key) -> list:
    """parse(record) for each (lineno, record), a lineno of None naming the path alone;
    key=(name, key_of) refuses a repeated key_of(record)."""
    out, seen = [], set()
    for lineno, record in numbered:
        try:
            out.append(parse(record))
            if key is not None:
                name, key_of = key
                if (value := key_of(out[-1])) in seen:
                    raise ValueError(f"duplicate {name} {value}")
                seen.add(value)
        except _PARSE_ERRORS as e:
            where = path if lineno is None else f"{path}:{lineno}"
            raise InputError(f"{where}: bad {what}: {e}") from e
    return out


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Open a temp file for writing ("w" text or "wb"); on a clean exit it
    replaces `path`, on an error it is removed and `path` is untouched."""
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_write mode must be 'w' or 'wb', got {mode!r}")
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    text = {"encoding": "utf-8", "newline": ""} if mode == "w" else {}
    try:
        with open(tmp, mode, **text) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_jsonl(path: str, records) -> None:
    """One sorted-key JSON object per line."""
    with atomic_write(path) as f:
        for record in records:
            f.write(SORTED_JSON.encode(record) + "\n")


def write_csv(path: str, header, rows) -> None:
    with atomic_write(path) as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
