"""Artifact readers and atomic writers (`tally.io`)."""

import ast
import json
import os
import stat
from pathlib import Path

import pytest

import tally
from tally import io
from tally.errors import InputError
from tally.matcher import MatchHit, load_hits, save_hits


# ---------------------------------------------------------------- readers


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('{"x": 1}\n\n  \n{"x": 2}\n')
    assert io.read_jsonl(str(path), "widget", lambda obj: obj["x"]) == [1, 2]


@pytest.mark.parametrize(
    "body, lineno",
    [
        ('{"x": 1}\n{broken\n', 2),  # bad JSON
        ('{"x": 1}\n\n{"y": 2}\n', 3),  # KeyError from parse
        ('{"x": "one"}\n', 1),  # ValueError from parse
        ('[1]\n', 1),  # TypeError from parse
    ],
)
def test_read_jsonl_names_path_and_line(tmp_path, body, lineno):
    path = tmp_path / "a.jsonl"
    path.write_text(body)
    with pytest.raises(InputError, match=rf"a\.jsonl:{lineno}: bad widget: "):
        io.read_jsonl(str(path), "widget", lambda obj: int(obj["x"]))


def test_string_list_reads_strings_and_numbers():
    assert io.string_list(["big cat", 7, 2.5], "synonyms") == ["big cat", "7", "2.5"]


@pytest.mark.parametrize("item", [None, True, False, [1], {"a": 1}])
def test_string_list_refuses_null_bools_lists_and_objects(item):
    with pytest.raises(TypeError, match="synonyms holds "):
        io.string_list(["big cat", item], "synonyms")


# One line each: the common shape, then lines where a lone raw_decode would
# differ from json.loads (trailing data, a BOM, non-JSON whitespace, ...).
_LINES = [
    '{"id": 1, "text": "a tiger"}\n',
    '{"id": 1, "text": "a tiger"}',
    '{"id": 1, "text": "a tiger"} \t\r\n',
    "1, 2",
    "\ufeff{\"id\": 1}",
    '{"a": 1}{"b": 2}',
    '{"a": 1}\x1c',
    '{"a": 1}\x1f\n',
    '{"a": 1}\xa0',
    '{"a": 1}\u0085',
    '{"a": 1} ',
    '  {"a": 1}',
    '{"x": NaN}',
    '{"x": 1e999}',
    "NaN",
    "-Infinity",
    "1e999",
    "12",
    "",
    "\n",
    " \t\r\n",
    "\x1c",
    "{broken",
    '"caf\u00e9 \\ud83d"',
]


def _outcome(loads, line):
    try:
        return "ok", repr(loads(line))
    except Exception as e:  # the type and the message must both match
        return type(e).__name__, str(e)


@pytest.mark.parametrize("line", _LINES)
def test_loads_line_is_json_loads(line):
    assert _outcome(io.loads_line, line) == _outcome(json.loads, line)
    for data in (line.encode("utf-8", "surrogatepass"), line.encode("utf-8-sig", "surrogatepass")):
        assert _outcome(io.loads_line, data) == _outcome(json.loads, data)


@pytest.mark.parametrize(
    "data", [b'{"a": 1}\xff', b"\xff\xfe{\x00}\x00", '{"a": 1}'.encode("utf-16"), b"1\x00", b"\x001"]
)
def test_loads_line_is_json_loads_on_bytes_that_are_not_utf8(data):
    assert _outcome(io.loads_line, data) == _outcome(json.loads, data)


def test_json_int_refuses_bools_floats_and_strings():
    assert io.json_int({"caption_id": 7}, "caption_id") == 7
    for value in (True, 7.0, 7.9, "7", None, [7]):
        with pytest.raises(TypeError, match="caption_id is .*, not an integer"):
            io.json_int({"caption_id": value}, "caption_id")


def test_read_csv_checks_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,c\n1,2\n")
    with pytest.raises(InputError, match="columns"):
        io.read_csv(str(path), ("a", "b"), "row", dict)


def test_read_csv_names_path_and_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,x\n")
    with pytest.raises(InputError, match=r"t\.csv:3: bad row: "):
        io.read_csv(str(path), ("a", "b"), "row", lambda r: (int(r["a"]), int(r["b"])))
    path.write_text("a,b\n1,2\n3,4\n")
    assert io.read_csv(str(path), ("a", "b"), "row", lambda r: int(r["b"])) == [2, 4]


# ---------------------------------------------------------------- writers


def test_write_jsonl_and_csv_bytes(tmp_path):
    io.write_jsonl(str(tmp_path / "a.jsonl"), [{"b": 1, "a": "é"}])
    assert (tmp_path / "a.jsonl").read_bytes() == b'{"a": "\\u00e9", "b": 1}\n'
    io.write_csv(str(tmp_path / "a.csv"), ["x", "y"], [[1, "p, q"]])
    assert (tmp_path / "a.csv").read_bytes() == b'x,y\r\n1,"p, q"\r\n'


def test_writer_killed_mid_write_keeps_previous_artifact(tmp_path):
    path = tmp_path / "hits.jsonl"
    save_hits([MatchHit(0, 0, "tiger"), MatchHit(1, 0, "tiger")], str(path))
    before = path.read_bytes()

    class Killed:
        """A hit whose fields cannot be read: the writer dies on it."""

        def __getattr__(self, name):
            raise RuntimeError("killed mid-write")

    with pytest.raises(RuntimeError, match="killed"):
        save_hits([MatchHit(5, 1, "cat"), Killed()], str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["hits.jsonl"]
    assert [h.caption_id for h in load_hits(str(path))] == [0, 1]


def test_atomic_write_error_removes_temp_file(tmp_path):
    path = tmp_path / "w.bin"
    with pytest.raises(OSError):
        with io.atomic_write(str(path), "wb") as f:
            f.write(b"partial")
            raise OSError("disk full")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_artifact_mode_follows_umask(tmp_path, umask, mode):
    path = tmp_path / "a.jsonl"
    old = os.umask(umask)
    try:
        io.write_jsonl(str(path), [{"x": 1}])
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode


def _opens_for_writing(node: ast.Call) -> bool:
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name != "open":
        return False
    modes = [a for a in node.args[1:2]] + [k.value for k in node.keywords if k.arg == "mode"]
    return any(
        isinstance(m, ast.Constant) and isinstance(m.value, str) and "w" in m.value
        for m in modes
    )


def test_no_direct_writers():
    """Every artifact goes through tally.io, so every write is atomic."""
    package = Path(tally.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _opens_for_writing(node):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
