"""Artifact files: line-numbered readers and atomic writers.

Readers stream JSONL or CSV line by line and map each record through a
`parse` function; a malformed line, or a KeyError/TypeError/ValueError from
`parse`, is an InputError naming path:lineno.

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

_PARSE_ERRORS = (KeyError, TypeError, ValueError)  # json.JSONDecodeError is a ValueError
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


def read_jsonl(path: str, what: str, parse) -> list:
    """parse(obj) for each non-blank line of a JSONL file, in file order."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                out.append(parse(loads_line(line)))
            except _PARSE_ERRORS as e:
                raise InputError(f"{path}:{lineno}: bad {what}: {e}") from e
    return out


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


def json_int(obj: dict, key: str) -> int:
    """obj[key] if it is a JSON integer; a bool, float, string or anything else is a TypeError."""
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key} is {json.dumps(value)}, not an integer")
    return value


def read_table(path: str, what: str, field: str) -> dict[str, list[str]]:
    """{name: [strings]} from JSONL records {"name", field}; a later line for a name wins."""
    return dict(read_jsonl(path, what, lambda obj: (str(obj["name"]), string_list(obj[field], field))))


def read_csv(path: str, columns, what: str, parse) -> list:
    """parse(row) for each row of a CSV file whose header holds `columns`."""
    out = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if not set(columns).issubset(reader.fieldnames or ()):
            raise InputError(f"{path}: expected columns {','.join(columns)}")
        for row in reader:
            try:
                out.append(parse(row))
            except _PARSE_ERRORS as e:
                raise InputError(f"{path}:{reader.line_num}: bad {what}: {e}") from e
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
