"""Artifact files: line-numbered readers, a block codec for JSONL, and atomic writers.

Readers read JSONL or CSV line by line and map each record through a `parse`
function; a line that is not UTF-8 (decoded inside the per-line check), a
malformed line or CSV row, a KeyError/TypeError/ValueError/InputError from
`parse` (`json_field` is the one check of a JSON field's type), or a repeated
key is an InputError naming path:lineno; `read_json`'s one value, a CSV header
and an InputError inside `named(path)` name the path.

JSONL is read in blocks of about BLOCK_SIZE bytes, cut at line ends, so memory
holds one block, never a whole file. A `Schema` declares one record kind: its
keys, each an int, a string, a bool, or a bool or null. In each block one
regex claims every line that is byte-exactly the schema's SORTED_JSON form
(sorted keys, ", " and ": " separators, then "\n"; a string of printable
ASCII without '"' or '\\', since SORTED_JSON escapes every other character;
an int of at most 18 digits and no sign) and the line's values come from the
regex groups. Every other line (escapes, non-ASCII text, a negative or longer
int, other spacing or keys, "\r\n", blank, malformed, or a last line without
its newline) is decoded on its own exactly as before, with its true line
number and byte offset. A schema's writer encodes each record from
one template, byte for byte what SORTED_JSON writes.

Writers never touch the target in place. `atomic_write` fills a temp file
in the target's directory, flushes and fsyncs it, then `os.replace`s it
over the target, so a writer killed at any point leaves the previous
artifact intact. The temp file is opened with plain `open`, so the artifact's
permissions follow the umask. Text is UTF-8 with no newline translation.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import operator
import os
import re
from json.encoder import encode_basestring_ascii

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


# Bytes a JSONL reader reads at once. On a 2-vCPU VM and a 70k-line corpus, 64 KiB blocks read
# ~5% faster than 1 MiB ones and scan ~7% faster: a smaller block's columns cost the garbage
# collector less while they are alive.
BLOCK_SIZE = 1 << 16

_LITERAL = {"true": True, "false": False, "null": None}
_JSON_LITERAL = {True: "true", False: "false", None: "null"}
# Per kind of value: the regex group of the text SORTED_JSON writes for it, the value of that
# text (None: the text), the text of a value (None: str(value)), and the types a value may have.
_KINDS = {
    # A non-negative int of at most 18 digits: a negative one, or one long enough that int()
    # could refuse it, goes to the line decoder with the rest.
    int: (r"(0|[1-9][0-9]{0,17})", int, None, (int,)),
    str: (r'"([ !#-\[\]-~]*)"', None, encode_basestring_ascii, (str,)),  # printable ASCII but '"' and '\'
    bool: (r"(true|false)", _LITERAL.__getitem__, _JSON_LITERAL.__getitem__, (bool,)),
    bool | None: (r"(true|false|null)", _LITERAL.__getitem__, _JSON_LITERAL.__getitem__, (bool, type(None))),
}


class Schema:
    """One JSONL record kind: its keys and each one's kind, int, str, bool or `bool | None`.

    `jsonl_lines` claims each line in the kind's SORTED_JSON form with one
    regex per block; `encode` writes that form from one template."""

    def __init__(self, **kinds):
        self.names = tuple(sorted(kinds))
        keys = [encode_basestring_ascii(name) for name in self.names]
        groups, self._convert, encode, types = zip(*(_KINDS[kinds[name]] for name in self.names))
        # Each match is one line. The first alternative claims a line in this schema's form:
        # its first group holds "{", the next ones the values' text. The last holds any other line.
        fields = ", ".join(f"{re.escape(key)}: {group}" for key, group in zip(keys, groups))
        self._pattern = r"(\{)" + fields + r"\}\n|(.*\n|.+)"
        self._template = "{" + ", ".join(f"{key}: %s" for key in keys) + "}\n"
        self._encode = [(i, enc) for i, enc in enumerate(encode) if enc is not None]
        self._types = set(itertools.product(*types))

    def encode(self, values) -> str:
        """SORTED_JSON's line for the record {name: value} of this schema's names and `values`
        in their order; from the template when each value's type is its key's kind."""
        if tuple(map(type, values)) not in self._types:
            return SORTED_JSON.encode(dict(zip(self.names, values))) + "\n"
        values = list(values)
        for i, encode in self._encode:
            values[i] = encode(values[i])
        return self._template % tuple(values)

    @functools.cached_property
    def _line(self) -> re.Pattern:
        """The line regex, compiled on first read: a process that reads no such file never pays for it."""
        return re.compile(self._pattern)

    def write(self, path: str, rows) -> None:
        """One line per row of values, as `encode` writes it, replacing `path` atomically."""
        with atomic_write(path) as f:
            f.writelines(map(self.encode, rows))


def jsonl_lines(path: str, schema: Schema | None = None, start: int = 0, end: int | None = None):
    """(offset, values, line) for each line of `path` that starts in [start, end), in file order,
    read a block at a time. A line in the schema's SORTED_JSON form has its values, a tuple in
    name order, and line None; any other line has values None and its bytes, "\n" kept. With
    no schema, every line is an other line, read as the file iterates."""
    if schema is None:
        yield from _file_lines(path, start, end)
        return
    pattern, convert = schema._line, schema._convert
    width = pattern.groups + 1
    for offset, block in _blocks(path, start, end):
        # re.split gives the (empty) text before each line's match, then the match's groups, as
        # one flat list of strings: a column per group is a slice, and no tuple is made per line
        # until a run of claimed lines, its values converted a column at a time, is zipped.
        parts = pattern.split(block)
        claimed, *fields, lines = (parts[group::width] for group in range(1, width))
        offsets = list(itertools.accumulate(map((1).__add__, map(len, block.split("\n"))), initial=offset))
        first = 0
        for stop in [*itertools.compress(itertools.count(), map(operator.not_, claimed)), len(lines)]:
            if first < stop:
                columns = [col[first:stop] if conv is None else map(conv, col[first:stop])
                           for conv, col in zip(convert, fields)]
                yield from zip(offsets[first:stop], zip(*columns), itertools.repeat(None))
            if stop < len(lines):
                yield offsets[stop], None, lines[stop].encode("latin-1")
            first = stop + 1


def _file_lines(path: str, start: int, end: int | None):
    """(offset, None, line bytes) for each line that starts in [start, end)."""
    with open(path, "rb") as f:
        f.seek(start)
        offset = start
        for line in f:
            if end is not None and offset >= end:
                return
            yield offset, None, line
            offset += len(line)


def _blocks(path: str, start: int, end: int | None):
    """(offset, text) of blocks of whole lines, about BLOCK_SIZE bytes each, that cover the
    lines starting in [start, end): a line is never split, and only the file's last line may
    lack its "\n". The text is the bytes decoded as latin-1, one character per byte."""
    with open(path, "rb") as f:
        f.seek(start)
        offset, pending = start, []  # the chunks read since the last "\n"
        while end is None or offset < end:
            chunk = f.read(BLOCK_SIZE)
            if chunk and b"\n" not in chunk:  # a line longer than a block
                pending.append(chunk)
                continue
            data = b"".join([*pending, chunk])
            cut = data.rfind(b"\n") + 1
            if end is not None and offset + cut > end:  # the line holding byte end - 1 is the last
                cut = data.index(b"\n", end - offset - 1) + 1
            elif not chunk:
                cut = len(data)
            if cut:
                yield offset, data[:cut].decode("latin-1")
            if not chunk or end is not None and offset + cut >= end:
                return
            offset, pending = offset + cut, [data[cut:]]


def read_jsonl(path: str, what: str, parse, key=None, schema: Schema | None = None, build=None) -> list:
    """parse(obj) for each non-blank line of a JSONL file, in file order; key as in _parse_each.
    With a schema, a line in its SORTED_JSON form is build(*values) instead."""

    def decode(item):
        _, values, line = item
        return build(*values) if line is None else parse(loads_line(line.decode("utf-8")))

    lines = enumerate(jsonl_lines(path, schema), 1)
    return _parse_each(path, what, ((n, item) for n, item in lines if item[2] is None or item[2].strip()), decode, key)


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
