"""The byte-level reader of table files against the json route.

A canonical table file is read by groups._canonical_table with no JSON
decode; every other file is decoded by json. Both must give the same
group, or the same error, for the same file.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coset_radon import cli, groups, verify
from coset_radon.errors import CosetRadonError, GroupValidationError, SizeLimitError

_GROUPS = verify.groups_upto(12)


def _outcome(build):
    """(table bytes, recipe) of the group build() returns, or the type and
    message of the error it raises."""
    try:
        g = build()
    except CosetRadonError as exc:
        return type(exc), str(exc)
    return g.table.tobytes(), g.recipe


def _relabelled(table, perm):
    """The table with element x renamed perm[x]."""
    t = np.asarray(table)
    out = np.empty_like(t)
    out[np.ix_(perm, perm)] = np.asarray(perm)[t]
    return out.tolist()


@st.composite
def _tables(draw):
    """Relabelled group tables of order up to 12, and tables of order 1 to 6
    with up to three cells overwritten: out of range, breaking the latin
    property or associativity, or leaving the identity or an inverse out."""
    if draw(st.booleans()):
        g = draw(st.sampled_from(_GROUPS))
        return _relabelled(g.table, draw(st.permutations(range(g.order))))
    g = draw(st.sampled_from([g for g in _GROUPS if g.order <= 6]))
    n = g.order
    t = _relabelled(g.table, draw(st.permutations(range(n))))
    cell = st.integers(0, n - 1) | st.sampled_from([-1, n, 10 * n, 2**31, 2**40])
    for _ in range(draw(st.integers(0, 3))):
        t[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(cell)
    return t


def _text(obj, style: str) -> str:
    if style == "compact":
        return json.dumps(obj, separators=(",", ":"))
    if style == "default":
        return json.dumps(obj)
    text = json.dumps(obj, indent=2)
    return text if style == "indent" else text.replace("\n", "\r\n")


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "table.json"


@given(
    table=_tables(),
    style=st.sampled_from(["compact", "default", "indent", "crlf"]),
    bare=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_file_tables_match_the_json_route(table_file, table, style, bare):
    text = _text(table if bare else {"table": table}, style)
    table_file.write_bytes(text.encode())
    got = _outcome(lambda: cli.load_group(f"file:{table_file}"))
    want = _outcome(lambda: groups.from_cayley_table(table))
    assert got == want
    n = len(table)
    canonical = all(0 <= v < 10 ** len(str(n - 1)) for row in table for v in row)
    assert (groups._canonical_table(text.encode()) is not None) == canonical


def test_canonical_files_skip_json_and_build_once(tmp_path, monkeypatch, capsys):
    def no_json(*args, **kwargs):
        raise AssertionError("json.loads called on a canonical file")

    built = []

    def counted(raw):
        built.append(type(raw))
        return groups.from_cayley_table(raw)

    monkeypatch.setattr(json, "loads", no_json)
    monkeypatch.setattr(cli, "from_cayley_table", counted)
    g = groups.from_name("D6")
    for name, text in [
        ("compact.json", '{"table":' + str(g.table.tolist()).replace(" ", "") + "}"),
        ("indent.json", '\r\n {\t"table" :\n' + str(g.table.tolist()) + "\n}\n"),
        ("bare.json", str(g.table.tolist())),
    ]:
        (tmp_path / name).write_text(text)
        built.clear()
        assert cli.load_group(f"file:{tmp_path / name}").table.tobytes() == g.table.tobytes()
        assert built == [np.ndarray]
    (tmp_path / "out.json").write_text(str(g.table.tolist()))
    assert cli.main(["group", f"file:{tmp_path / 'out.json'}"]) == 0
    assert "order 12" in capsys.readouterr().out


def _c(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _dump(table) -> bytes:
    return json.dumps(table, separators=(",", ":")).encode()


_C2 = b"[[0,1],[1,0]]"
_C11 = _dump(_c(11))
_C101 = _dump(_c(101))  # cells of up to three digits
# files that are not canonical: (bytes, exit code, stderr line or stdout
# text); None takes json's own message for the bytes
_NOT_CANONICAL = {
    "leading-zero": (b'{"table":[[0,1],[1,00]]}', 2, None),
    "leading-zero-first-cell": (b"[[00" + _C11[3:], 2, None),
    "leading-zero-within-width": (_C11.replace(b"[[0,1,", b"[[0,01,", 1), 2, None),
    "minus-zero": (b"[[0,1],[1,-0]]", 0, "order 2"),
    "exponent": (b"[[0,1],[1,1e1]]", 2, "row 1 holds 10.0, outside 0..1"),
    "fraction": (b"[[0,1],[1,1.0]]", 2, "row 1 holds 1.0, outside 0..1"),
    "true": (b"[[0,1],[1,true]]", 2, "row 1 holds True, outside 0..1"),
    "5000-digit-int": (b"[[0,1],[1," + b"1" * 5000 + b"]]", 2, None),
    "too-wide": (b"[[0,1],[1,10]]", 2, "row 1 holds 10, outside 0..1"),
    "space-between-digits": (_C11.replace(b",10]", b",1 0]", 1), 2, None),
    "trailing-comma": (b"[[0,1],[1,0],]", 2, None),
    "crlf-then-leading-zero": (b"[[0,1],\r\n[1,00]]", 2, None),
    "cr-then-leading-zero": (b"[[0,1],\r[1,00]]", 2, None),
    "ragged-row": (b"[[0,1],[1]]", 2, "row 1 has length 1, expected 2"),
    "empty-row": (b"[[]]", 2, "row 0 has length 0, expected 1"),
    "empty-cell": (b"[[0,1],[1,,0]]", 2, None),
    "empty-first-cell": (b"[[0,1],[,1]]", 2, None),
    "cell-moved-between-rows": (b"[[0,1,0],[1]]", 2, "row 0 has length 3, expected 2"),
    "digit-after-table": (_C101 + b"1", 2, None),
    "digits-before-table": (b"12" + _C101, 2, None),
    "spaced-key": (
        b'{"ta ble":' + _C2 + b"}", 2, "{path} holds neither a table nor a semidirect spec"
    ),
    "escaped-key": (b'{"t\\u0061ble":' + _C2 + b"}", 0, "order 2"),
    "duplicate-key": (b'{"table":[[0,1],[1,1]],"table":' + _C2 + b"}", 0, "order 2"),
    "order-key": (b'{"order":2,"table":' + _C2 + b"}", 0, "order 2"),
    "wrong-order-key": (
        b'{"table":' + _C2 + b',"order":3}', 2,
        "{path}: order must be the int 2, the table's row count, not 3",
    ),
    "stray-brace": (b'{"table":' + _C2 + b"}}", 2, None),
    "bom": (b"\xef\xbb\xbf" + _C2, 2, None),
    "vertical-tab": (_C2 + b"\x0b", 2, None),
    "form-feed": (b"\x0c" + _C2, 2, None),
}


def _json_message(path) -> str:
    """The line for json's own error on the file at path, read in text
    mode, so that CRLF and CR count as one character."""
    with pytest.raises(ValueError) as info, open(path, encoding="utf-8") as fh:
        json.load(fh)
    if isinstance(info.value, json.JSONDecodeError):
        return f"{path} is not valid JSON: {info.value}"
    return f"cannot read {path}: {info.value}"


@pytest.mark.parametrize("case", sorted(_NOT_CANONICAL))
def test_files_that_are_not_canonical_take_the_json_route(tmp_path, capsys, monkeypatch, case):
    raw, code, want = _NOT_CANONICAL[case]
    assert groups._canonical_table(raw) is None
    path = tmp_path / "table.json"
    path.write_bytes(raw)
    decoded, loads = [], json.loads

    def spy(text, **kwargs):
        decoded.append(text)
        return loads(text, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    assert cli.main(["group", f"file:{path}"]) == code
    out, err = capsys.readouterr()
    assert decoded
    if code == 0:
        assert want in out and err == ""
        return
    want = _json_message(path) if want is None else want.format(path=path)
    assert out == "" and err == f"error: {want}\n"


@pytest.mark.parametrize(
    "raw, code, route",
    [
        (_C11, 3, "reader"),
        (_C11.replace(b"[[0,1,", b"[[0,01,", 1), 2, "json"),
        (b"[[0,1,2],[1,2,0],[2,0,1],]", 2, "json"),
    ],
    ids=["canonical", "leading-zero", "trailing-comma"],
)
def test_files_above_the_order_cap(tmp_path, capsys, monkeypatch, raw, code, route):
    monkeypatch.setenv("COSET_RADON_MAX_ORDER", "2")
    if route == "reader":
        with pytest.raises(SizeLimitError, match=r"^table has order 11, above the cap of 2$"):
            groups._canonical_table(raw)
    else:
        assert groups._canonical_table(raw) is None
    path = tmp_path / "table.json"
    path.write_bytes(raw)
    assert cli.main(["group", f"file:{path}"]) == code
    out, err = capsys.readouterr()
    want = "table has order 11, above the cap of 2" if code == 3 else _json_message(path)
    assert out == "" and err == f"error: {want}\n"


def test_array_tables_are_checked_like_lists():
    t = np.array(_c(5), dtype=np.int64)
    g = groups.from_cayley_table(t)
    assert g.table.tobytes() == groups.from_cayley_table(_c(5)).table.tobytes()
    assert t.flags.writeable and not np.shares_memory(t, g.table)
    for row, value in [(3, 5), (0, -1), (4, 2**40)]:
        bad = t.copy()
        bad[row, 2] = value
        want = _outcome(lambda: groups.from_cayley_table(bad.tolist()))
        assert _outcome(lambda: groups.from_cayley_table(bad)) == want
        assert want == (GroupValidationError, f"row {row} holds {value}, outside 0..4")
    with pytest.raises(GroupValidationError, match=r"^row 0 has length 4, expected 5$"):
        groups.from_cayley_table(t[:, :4])
    for other in (t.astype(float), t.astype(bool), t[0]):
        with pytest.raises(GroupValidationError, match="must be a list of rows"):
            groups.from_cayley_table(other)
