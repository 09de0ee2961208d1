"""The whole-table constructions of groups against the code they replaced.

Each oracle below is the construction as it was before it became one pass
over the table: a left fold of make_direct_product for a product name, the
row-by-row breadth-first fill of a permutation group, the identity move by
a double gather, and the byte reader's masks over the whole file. Every
table and every error must come out the same.
"""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coset_radon import groups, verify
from coset_radon.errors import CosetRadonError, GroupValidationError, MissingIdentityError


def _same_group(got: groups.GroupTable, want: groups.GroupTable) -> None:
    assert got.table.tobytes() == want.table.tobytes(), want.recipe
    assert got.table.dtype == np.uint16 and not got.table.flags.writeable
    assert (got.order, got.inv, got.elt_order) == (want.order, want.inv, want.elt_order)
    assert (got.generators, got.recipe) == (want.generators, want.recipe)


# ---------------------------------------------------------------------------
# a product name: one table, one proof


def _fold(spec: str) -> groups.GroupTable:
    """from_name as a left fold of make_direct_product over its atoms."""
    built = None
    for part in spec.split("x"):
        g = groups.from_name(part)
        built = g if built is None else groups.make_direct_product(built, g)
    return built


@pytest.mark.parametrize(
    "spec",
    [
        "C2x" * 9 + "C2",
        "C2x" * 11 + "C2",
        "C2xS3xC3",
        "D4xC2xDic2",
        "S3xS3",
        "A4xC2xC2",
        "Dic3xD5xC1",
        "C1xC1xC7",
        "C3xC4xC5",
        "C30xC30",
        "S4xC2",
        "C5",
        "A5",
    ],
)
def test_product_names_match_the_left_fold(spec):
    _same_group(groups.from_name(spec), _fold(spec))


def test_a_product_name_is_proven_once(monkeypatch):
    # a product of proven groups is proven by its construction, so each
    # table is wrapped, not checked: count the wraps
    proofs, wrap = [], groups._wrap

    def counted(t, recipe):
        proofs.append(recipe)
        return wrap(t, recipe)

    monkeypatch.setattr(groups, "_wrap", counted)
    g = groups.from_name("C2x" * 9 + "C2")
    # the atom C2 once, then the product once
    assert proofs == ["C2", "C2x" * 9 + "C2"]
    assert groups.invariant_factors(g) == [2] * 10
    proofs.clear()
    groups.from_name("C3xS3xC3")
    assert proofs == ["C3", "S3", "C3xS3xC3"]


def test_product_names_keep_their_errors():
    for spec, error in [("C2xC0", "cyclic group order must be >= 1, got 0"),
                        ("S3xDic1", "dicyclic parameter must be >= 2, got 1")]:
        with pytest.raises(CosetRadonError) as new:
            groups.from_name(spec)
        with pytest.raises(CosetRadonError) as old:
            _fold(spec)
        assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))
        assert str(new.value) == error


# ---------------------------------------------------------------------------
# permutation groups: a take per coset, in blocks


def _row_by_row(perms) -> np.ndarray:
    """The table of _perm_table, filled one row per step: the breadth-first
    walk it replaced."""
    p = np.array(perms, dtype=np.uint16)
    n, d = p.shape
    place = d ** np.arange(d - 1, -1, -1)
    lookup = np.zeros(d**d, dtype=np.uint16)
    lookup[p @ place] = np.arange(n, dtype=np.uint16)
    t = np.empty((n, n), dtype=np.uint16)
    t[0] = np.arange(n)
    reached, seen = [0], bytearray(n)
    seen[0] = True
    gens = []
    while len(reached) < n:
        s = seen.index(0)
        t[s] = lookup[p[s][p] @ place]
        seen[s] = True
        gens.append(s)
        old = len(reached)
        reached.append(s)
        i = 0
        while i < len(reached):
            row = t[reached[i]]
            for a in gens if i >= old else (s,):
                h = row.item(a)
                if not seen[h]:
                    seen[h] = True
                    row.take(t[a], out=t[h])
                    reached.append(h)
            i += 1
    return t


def _perms(kind: str, n: int) -> np.ndarray:
    perms = groups._permutations(n)
    if kind == "A":
        i, j = np.triu_indices(n, 1)
        perms = perms[(perms[:, i] > perms[:, j]).sum(axis=1) % 2 == 0]
    return perms


@pytest.mark.parametrize(
    "kind, n", [("S", n) for n in range(1, 7)] + [("A", n) for n in range(1, 8)]
)
def test_permutation_groups_match_the_row_by_row_fill(kind, n):
    g = groups.from_name(f"{kind}{n}")
    assert g.table.tobytes() == _row_by_row(_perms(kind, n)).tobytes()


@pytest.mark.parametrize("cells", [5, 7, 64, 2048])
def test_permutation_groups_are_the_same_in_small_blocks(monkeypatch, cells):
    want = {name: groups.from_name(name) for name in ("S3", "S4", "A5", "S5")}
    monkeypatch.setattr(groups, "_BLOCK_CELLS", cells)
    for name, g in want.items():
        _same_group(groups.from_name(name), g)


def test_permutations_come_in_lexicographic_order():
    for n in range(1, 7):
        want = sorted(itertools.permutations(range(n)))
        assert groups._permutations(n).tolist() == [list(p) for p in want]


# ---------------------------------------------------------------------------
# cyclic, dihedral and dicyclic tables: rows of one window table


def _with_remainders(m: int, fold: int) -> np.ndarray:
    """The table of _rotations_and_flips from two % passes over m x m sums:
    the construction the window rows replaced."""
    k = np.arange(m, dtype=np.uint16)
    add = k[:, None] + k
    add %= m
    sub = (k + m) - k[:, None]
    sub %= m
    t = np.empty((2 * m, 2 * m), dtype=np.uint16)
    t[:m, :m] = add
    t[m:, :m] = add + m
    t[:m, m:] = sub + m
    sub += fold
    sub %= m
    t[m:, m:] = sub
    return t


@pytest.mark.parametrize(
    "m, folds",
    [(m, range(m)) for m in range(1, 24)]
    + [(m, sorted({0, m // 2})) for m in range(24, 60)]
    + [(2520, [0, 1260])],
)
def test_rotations_and_flips_match_the_remainder_passes(m, folds):
    for fold in folds:
        got = groups._rotations_and_flips(m, fold)
        assert got.dtype == np.uint16
        assert got.tobytes() == _with_remainders(m, fold).tobytes(), (m, fold)


@pytest.mark.parametrize("n", [*range(1, 60), 2520])
def test_cyclic_window_is_addition_mod_n(n):
    k = np.arange(n)
    want = ((k[:, None] + k) % n).astype(np.uint16)
    got = groups._cyclic_window(n)
    assert got.dtype == np.uint16 and got.tobytes() == want.tobytes()
    if n < 60:
        assert groups.make_cyclic(n).table.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# a table whose identity is not 0: one gather and two swaps


def _double_gather(raw) -> groups.GroupTable:
    """from_cayley_table with the identity moved to 0 by
    swap[cells[np.ix_(swap, swap)]], the gather it replaced."""
    n = len(raw)
    cells = np.array(raw, dtype=np.uint16)
    try:
        e = groups._two_sided_identity(cells)
        if e is None:
            raise MissingIdentityError("table has no two-sided identity element")
        label, t = f"table({n})", cells
        if e != 0:
            swap = np.arange(n, dtype=np.uint16)
            swap[0], swap[e] = e, 0
            t = swap[cells[np.ix_(swap, swap)]]
            label += f"[id was {e}]"
        return groups._build(t, label)
    except GroupValidationError:
        groups._check_latin(cells)
        raise


def _identity_at(g: groups.GroupTable, e: int, rng) -> np.ndarray:
    """g's table relabelled at random, with its identity named e."""
    perm = rng.permutation(g.order)
    perm[perm == e], perm[0] = perm[0], e
    out = np.empty((g.order, g.order), dtype=np.int64)
    out[np.ix_(perm, perm)] = perm[g.table]
    return out


def _outcome(build):
    try:
        g = build()
    except CosetRadonError as exc:
        return type(exc), str(exc)
    return g.table.tobytes(), g.inv, g.elt_order, g.generators, g.recipe


@pytest.mark.parametrize("name", ["C2", "S3", "Dic3", "C4xC6", "A5", "D50"])
def test_identity_moves_as_the_double_gather_did(name):
    g = groups.from_name(name)
    rng = np.random.default_rng(g.order)
    for e in sorted({1, g.order - 1, int(rng.integers(1, g.order))}):
        raw = _identity_at(g, e, rng)
        kept = raw.copy()
        got = _outcome(lambda: groups.from_cayley_table(raw))
        assert got == _outcome(lambda: _double_gather(raw))
        assert got[-1] == f"table({g.order})[id was {e}]"
        assert np.array_equal(raw, kept)  # the caller's array is not touched


def test_rejected_tables_keep_their_error_and_the_callers_array():
    # S3 relabelled with its identity at 4, then one cell changed, which no
    # latin square survives: the error is worded off the cells as given
    rng = np.random.default_rng(3)
    base = _identity_at(groups.from_name("S3"), 4, rng)
    seen = set()
    for i, j in [(0, 1), (2, 3), (5, 5), (4, 0), (3, 4), (4, 4)]:
        raw = base.copy()
        raw[i, j] = (raw[i, j] + 1) % 6
        kept = raw.copy()
        got = _outcome(lambda: groups.from_cayley_table(raw))
        assert got == _outcome(lambda: _double_gather(raw))
        assert isinstance(got[0], type) and issubclass(got[0], GroupValidationError)
        assert np.array_equal(raw, kept)
        seen.add(got[1])
    assert len(seen) > 1


_GROUPS = verify.groups_upto(12)


@given(
    g=st.sampled_from(_GROUPS),
    seed=st.integers(0, 2**32 - 1),
    changes=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 11)),
                     max_size=2),
)
@settings(max_examples=300, deadline=None)
def test_relabelled_tables_build_as_the_double_gather_did(g, seed, changes):
    rng = np.random.default_rng(seed)
    raw = _identity_at(g, int(rng.integers(g.order)), rng)
    n = g.order
    for i, j, v in changes:
        raw[i % n, j % n] = v % n
    kept = raw.copy()
    assert _outcome(lambda: groups.from_cayley_table(raw)) == _outcome(
        lambda: _double_gather(raw)
    )
    assert np.array_equal(raw, kept)


# ---------------------------------------------------------------------------
# the canonical reader: its masks over blocks of the joined cells


def _whole_file_reader(raw: bytes):
    """groups._canonical_table with every mask the size of the file: the
    reader it replaced."""
    key = groups._TABLE_KEY.match(raw)
    head, tail = (b'{"table":', b"}") if key else (b"", b"")
    skeleton = raw.translate(None, b"0123456789,")
    bare = skeleton.translate(None, groups._WS)
    n, odd = divmod(len(bare) - len(head) - len(tail) - 2, 2)
    width = len(str(n - 1))
    if odd or n < 1 or width > 9 or bare != head + b"[[" + b"][" * (n - 1) + b"]]" + tail:
        return None
    spaced = len(bare) < len(skeleton)
    compact = raw.translate(None, groups._WS) if spaced else raw
    if not compact.startswith(head + b"[[") or not compact.endswith(b"]]" + tail):
        return None
    if spaced:
        digit = np.frombuffer(raw, np.uint8) - np.uint8(ord("0")) < 10
        if np.count_nonzero(digit[1:] < digit[:-1]) != n * n:
            return None
    rows = compact.split(b"],[")
    rows[0] = rows[0][len(head) + 2 :]
    rows[-1] = rows[-1][: len(rows[-1]) - len(tail) - 2]
    if len(rows) != n or any(r.count(b",") != n - 1 for r in rows):
        return None
    flat = b",".join(rows)
    c = np.frombuffer(b"," + flat + b",", np.uint8)
    comma = c == ord(",")
    digit = ~comma
    wide = digit[width:].copy()
    for k in range(1, width + 1):
        wide &= digit[width - k : len(c) - k]
    if (
        (comma[1:] & comma[:-1]).any()
        or (comma[:-2] & (c[1:-1] == ord("0")) & digit[2:]).any()
        or wide.any()
    ):
        return None
    groups._check_cap(n, "table")
    return np.fromstring(flat, dtype=np.int32, sep=",").reshape(n, n)


def _read(reader, raw: bytes):
    try:
        t = reader(raw)
    except CosetRadonError as exc:
        return type(exc), str(exc)
    return None if t is None else (t.dtype, t.shape, t.tobytes())


def _files() -> list[bytes]:
    """A few small canonical files: Dic3 relabelled (cells of two digits),
    keyed and bare, compact and in json.dumps' default and indented
    layouts, plus C2, C1 and the edges that hold no cells."""
    rng = np.random.default_rng(22)
    t = _identity_at(groups.from_name("Dic3"), 5, rng).tolist()
    out = [
        json.dumps({"table": t}, separators=(",", ":")).encode(),
        json.dumps(t).encode(),
        json.dumps({"table": t}, indent=1).encode(),
        b"[[0,1],[1,0]]",
        b'{"table": [[0]]}',
    ]
    return out


_EDGES = [b"[[]]", b'{"table":[[]]}', b"[[,]]", b"[[0],[]]", b"[[],[]]", b"[[ ]]", b"[[0]]",
          b"[[00]]", b"[[0,1],[1,0],[]]", b"[[1,0],[0,1]]", b"[[10,1],[1,0]]", b"[[0,01],[1,0]]",
          b"[[0,1],[1,0 ]]", b"[[0,1],[1,0\n]]", b"[[0,1],[1, 0]]", b"[[0,1],[1,0]] ",
          b"[[0,1],[1,1 0]]", b""]


def _mutations(raw: bytes, count: int, seed: int) -> list[bytes]:
    """count copies of raw, each with one byte replaced, deleted or doubled."""
    rng = np.random.default_rng(seed)
    alphabet = b"0123456789,[] \n{}:\"x"
    out = []
    for _ in range(count):
        i = int(rng.integers(len(raw)))
        how = rng.integers(4)
        if how == 0:
            out.append(raw[:i] + raw[i + 1 :])
        elif how == 1:
            out.append(raw[:i] + raw[i : i + 1] + raw[i:])
        else:
            out.append(raw[:i] + bytes([alphabet[rng.integers(len(alphabet))]]) + raw[i + 1 :])
    return out


@pytest.mark.parametrize("cells", [5, 7, 64, None])
def test_reader_accepts_and_rejects_as_the_whole_file_reader(monkeypatch, cells):
    if cells is not None:
        monkeypatch.setattr(groups, "_BLOCK_CELLS", cells)
    cases = list(_EDGES)
    for k, raw in enumerate(_files()):
        cases.append(raw)
        cases += _mutations(raw, 400, seed=k)
    assert len(cases) >= 1000
    accepted = 0
    for raw in cases:
        want = _read(_whole_file_reader, raw)
        assert _read(groups._canonical_table, raw) == want, raw
        accepted += want is not None
    assert 10 <= accepted < len(cases) // 2


def test_reader_edges_without_cells():
    for raw in (b"[[]]", b'{"table":[[]]}', b" [[ ]] ", b"[[]]\n"):
        assert groups._canonical_table(raw) is None
    assert groups._bad_cells(b"", 1)


def _c1000(**dump) -> bytes:
    t = groups.make_cyclic(1000).table.tolist()
    return json.dumps({"table": t}, **dump).encode()


@pytest.mark.parametrize(
    "dump, bound_mb", [({"separators": (",", ":")}, 10), ({}, 16)], ids=["compact", "default"]
)
def test_reader_peak_memory_on_a_1000_row_table(dump, bound_mb):
    # masks over the whole file took 23.3 MB (compact) and 28.2 MB
    # (default layout) here; in blocks they take 8.1 and 13.7 MB, most of it
    # the joined cells and the int32 table themselves
    raw = _c1000(**dump)
    tracemalloc.start()
    try:
        t = groups._canonical_table(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t is not None and t.shape == (1000, 1000) and t[999, 1] == 0
    assert peak <= bound_mb * 1e6, peak
