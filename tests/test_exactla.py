import math
import random
import tracemalloc
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from coset_radon import exactla, flows, groups, radon, verify
from primes import check_primes, next_prime


def test_int_echelon_known_rank():
    rows = [
        [1, 2, 3],
        [2, 4, 6],
        [0, 1, 1],
    ]
    pivots, basis = exactla.int_echelon(rows, 3)
    assert pivots == [0, 1]
    assert len(basis) == 2
    # basis rows are gcd-reduced with positive leading entry
    for row in basis:
        lead = next(v for v in row if v)
        assert lead > 0


def test_int_echelon_rejects_ragged_rows():
    with pytest.raises(ValueError):
        exactla.int_echelon([[1, 2], [1]], 2)


def test_rank_exact_survives_big_intermediate_entries():
    # Hilbert-like integer rows force heavy cross-multiplication
    rows = [[(i + j + 1) ** 3 for j in range(6)] for i in range(6)]
    # cubes of an arithmetic progression span a 4-dimensional space
    assert exactla.rank_exact(rows, 6) == 4


def test_rational_nullspace_annihilates():
    rows = [
        [1, 1, 1, 1],
        [1, 2, 3, 4],
    ]
    basis = exactla.rational_nullspace(rows, 4)
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0


def test_rational_nullspace_full_rank_is_empty():
    rows = [[2, 0], [0, 5]]
    assert exactla.rational_nullspace(rows, 2) == []


def test_rational_nullspace_is_rref():
    rows = [[1, 1, 1, 1, 1, 1]]
    basis = exactla.rational_nullspace(rows, 6)
    assert len(basis) == 5
    # leading ones in strictly increasing columns, zeros above each pivot
    leads = []
    for vec in basis:
        lead = next(j for j, v in enumerate(vec) if v)
        assert vec[lead] == 1
        leads.append(lead)
    assert leads == sorted(leads)
    for i, vec in enumerate(basis):
        for other in basis[:i]:
            assert other[leads[i]] == 0


def test_field_rref_fraction_matrix():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1, 4), Fraction(1, 6)],
    ]
    rref, pivots = exactla.field_rref(rows)
    assert pivots == [0]
    assert rref[0][0] == 1
    assert rref[0][1] == Fraction(2, 3)


def test_field_nullspace_matches_rational_path():
    rows = [[1, 2, 0], [0, 0, 1]]
    frac_rows = [[Fraction(v) for v in r] for r in rows]
    out = exactla.field_nullspace(frac_rows, 3, Fraction(0), Fraction(1))
    assert len(out) == 1
    assert out[0] == [Fraction(-2), Fraction(1), Fraction(0)]


def test_prime_helpers():
    assert [n for n in range(20) if exactla.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert next_prime(13) == 17
    assert next_prime(1) == 2
    assert check_primes(100, count=3) == [101, 103, 107]


def test_certificate_prime_is_largest_below_2_to_25():
    assert exactla.P < 2**25
    assert exactla.is_prime(exactla.P)
    assert next_prime(exactla.P) > 2**25
    # P has 25 bits, so 4,096 products of two residues sum below 2^62;
    # _eliminate_mod needs no such budget, since it reduces every product
    # mod P before it is summed
    assert 2**62 // (exactla.P - 1) ** 2 == 4096


def test_prime_divisors():
    assert exactla.prime_divisors(1) == []
    assert exactla.prime_divisors(2) == [2]
    assert exactla.prime_divisors(360) == [2, 3, 5]
    assert exactla.prime_divisors(97) == [97]


def test_rank_mod_agrees_on_generic_matrix():
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    for p in (101, 103):
        assert exactla.rank_mod(rows, 3, p) == 3
    assert exactla.rank_exact(rows, 3) == 3


def test_rank_mod_can_undercount():
    # the determinant is exactly 101, so that prime lies about the rank
    rows = [[101, 0], [0, 1]]
    assert exactla.rank_exact(rows, 2) == 2
    assert exactla.rank_mod(rows, 2, 101) == 1
    assert exactla.rank_mod(rows, 2, 103) == 2


def test_rank_mod_empty_matrix():
    assert exactla.rank_mod([], 4, 101) == 0


def test_rank_mod_reads_rows_lazily():
    # the identity fills the first 2048-row chunk and reaches full rank, so
    # no row after that chunk may be pulled
    n = 2048

    def rows():
        for i in range(n):
            row = [0] * n
            row[i] = 1
            yield row
        raise AssertionError("rank_mod read past the first chunk")

    assert exactla.rank_mod(rows(), n, 101) == n


def test_deficient_echelon_basis_owns_its_data():
    # three equal rows eliminate to one: a view of them would keep the
    # stacked 3 x 2 array alive along with the 1 x 2 basis
    deficient = exactla.echelon_mod([[1, 2]] * 3, 2, 101)
    assert deficient.shape == (1, 2)
    assert deficient.base is None and deficient.flags.owndata
    # the rounds gather every basis, a full-rank or an empty one too
    full = exactla.echelon_mod([[1, 2], [3, 4], [5, 6]], 2, 101)
    assert full.shape == (2, 2) and full.base is None and full.flags.owndata
    empty = exactla.echelon_mod([[0, 0]] * 3, 2, 101)
    assert empty.shape == (0, 2) and empty.base is None


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_modular_rank_never_exceeds_exact(rows):
    exact = exactla.rank_exact(rows, 4)
    for p in check_primes(64, count=2):
        assert exactla.rank_mod(rows, 4, p) <= exact


@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity(rows):
    rank = exactla.rank_exact(rows, 3)
    kernel = exactla.rational_nullspace(rows, 3)
    assert rank + len(kernel) == 3
    for vec in kernel:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0


def test_factorize():
    assert exactla.factorize(1) == []
    assert exactla.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert exactla.factorize(97) == [(97, 1)]
    assert exactla.factorize(1000) == [(2, 3), (5, 3)]


@st.composite
def integer_matrices(draw):
    """Integer matrices with negative and non-0/1 entries and zero rows,
    n = 1 included; some draws are forced to rank 0 or to full rank."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-7, max_value=7)
    row = st.one_of(st.just([0] * n), st.lists(entry, min_size=n, max_size=n))
    rows = draw(st.lists(row, max_size=7))
    shape = draw(st.sampled_from(["any", "rank 0", "full rank"]))
    if shape == "rank 0":
        rows = [[0] * n for _ in rows]
    elif shape == "full rank":
        # a triangle with a nonzero diagonal, mixed into the drawn rows
        nonzero = entry.filter(bool)
        for i in range(n):
            tail = draw(st.lists(entry, min_size=n - i - 1, max_size=n - i - 1))
            step = [0] * i + [draw(nonzero)] + tail
            rows.insert(draw(st.integers(0, len(rows))), step)
    return rows, n


@given(integer_matrices())
@settings(max_examples=300, deadline=None)
def test_rational_nullspace_matches_field_oracle(matrix):
    rows, n = matrix
    frac_rows = [[Fraction(v) for v in r] for r in rows]
    oracle = exactla.field_rref(
        exactla.field_nullspace(frac_rows, n, Fraction(0), Fraction(1))
    )[0]
    assert exactla.rational_nullspace(rows, n) == [tuple(v) for v in oracle]


def _rref_mod_oracle(rows, ncols, p):
    """Plain Gauss-Jordan elimination mod p on Python ints, pivoting from
    the right: at each column, last to first, the first remaining row with
    a nonzero entry becomes the pivot row (swapped up), is scaled to a unit
    pivot and cleared from every other row."""
    work = [[v % p for v in row] for row in rows]
    r = 0
    for c in reversed(range(ncols)):
        i = next((i for i in range(r, len(work)) if work[i][c]), None)
        if i is None:
            continue
        work[r], work[i] = work[i], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [v * inv % p for v in work[r]]
        for k in range(len(work)):
            x = work[k][c]
            if k != r and x:
                work[k] = [(a - x * b) % p for a, b in zip(work[k], work[r])]
        r += 1
    return work[:r]


def _eliminate_mod_by_column(m, p):
    """The reference for exactla._eliminate_mod: one Gauss-Jordan pass in
    place, a pivot column at a time.

    Columns are scanned last to first. At each pivot column only the block
    left of it, in the rows the column hits, is updated; the block is left
    unreduced, and only the pivot column (to find the rows it hits) and the
    pivot row (to normalize it) are reduced on the spot. An update adds
    less than (p - 1)^2 in magnitude, so the block is reduced once every
    `budget` pivots, which keeps every entry inside int64 for any p < 2^31.
    """
    np.mod(m, p, out=m)
    nrows, ncols = m.shape
    budget = 2**62 // (p - 1) ** 2
    pending = 0
    r = 0
    for c in range(ncols - 1, -1, -1):
        col = m[:, c] % p
        nz = np.flatnonzero(col[r:])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
            col[r], col[i] = col[i], col[r]
        pivot = m[r, : c + 1] % p
        pivot = pivot * pow(int(pivot[c]), p - 2, p) % p
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size == nrows - 1:
            m[:, :c] -= np.multiply.outer(col, pivot[:c])
        elif hit.size:
            m[hit, :c] -= np.multiply.outer(col[hit], pivot[:c])
        m[:, c] = 0
        m[r, : c + 1] = pivot
        pending += 1
        if pending == budget:
            m[:, :c] %= p
            pending = 0
        r += 1
        if r == nrows:
            break
    m[:r] %= p
    return m[:r]


def _same_basis(rows, p):
    """Whether the rounds and the reference leave byte-identical bases."""
    m = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    rounds = exactla._eliminate_mod(m.copy(), p)
    reference = _eliminate_mod_by_column(m.copy(), p)
    return rounds.shape == reference.shape and rounds.tobytes() == reference.tobytes()


@st.composite
def modular_matrices(draw):
    """A prime beside either integer matrices with negative entries, zero
    blocks and repeated rows, or 0/1 incidence rows of up to 60 x 40 with
    repeats, like coset rows, whose rounds take many pivots each; at
    2^31 - 1 every product of two residues is near 2^62."""
    p = draw(st.sampled_from([2, 3, 101, 2**30 - 35, 2**31 - 1]))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=40))
        subsets = draw(st.lists(st.sets(st.integers(0, n - 1)), max_size=50))
        rows = [[int(j in s) for j in range(n)] for s in subsets]
        if rows:
            repeat = st.sampled_from(range(len(rows)))
            rows += [list(rows[i]) for i in draw(st.lists(repeat, max_size=10))]
        return rows, n, p
    n = draw(st.integers(min_value=1, max_value=16))
    entry = st.one_of(
        st.just(0),
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-(2**40), max_value=2**40),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=20))
    if rows and draw(st.booleans()):
        rows.append(list(rows[0]))
    return rows, n, p


# a dense 16 x 16 block at p = 2^31 - 1, where every product of two
# residues is near 2^62
_DENSE = random.Random(5)
_DENSE_CASE = (
    [[_DENSE.randint(-(2**40), 2**40) for _ in range(16)] for _ in range(16)],
    16,
    2**31 - 1,
)


@given(modular_matrices())
@example(_DENSE_CASE)
@settings(max_examples=300, deadline=None)
def test_modular_elimination_matches_plain_oracle(matrix):
    rows, n, p = matrix
    oracle = _rref_mod_oracle(rows, n, p)
    assert exactla.rank_mod(rows, n, p) == len(oracle)
    if not rows:
        return
    echelon = exactla._eliminate_mod(np.array(rows, dtype=np.int64), p)
    assert echelon.tolist() == oracle
    assert _same_basis(rows, p)
    pivots = []
    for row in echelon.tolist():
        piv = max(j for j, v in enumerate(row) if v)
        assert row[piv] == 1 and not any(row[piv + 1 :])
        assert all(0 <= v < p for v in row)
        pivots.append(piv)
    assert pivots == sorted(set(pivots), reverse=True)
    for i, row in enumerate(echelon.tolist()):
        assert [row[q] for k, q in enumerate(pivots) if k != i] == [0] * (len(pivots) - 1)


def _exact_kernel_systems():
    """The prime (C96: maximal) systems of the noninjective groups whose
    kernels the exact path proves, Dic63 also relabelled."""
    for name, variant in [
        ("C240", "prime"), ("Dic63", "prime"), ("Dic64", "prime"), ("C96", "maximal"),
        ("C360", "prime"), ("C60", "prime"), ("Dic15", "prime"),
    ]:
        yield radon.build_system(groups.from_name(name), variant)
    dic = groups.from_name("Dic63")
    perm = list(range(dic.order))
    random.Random(63).shuffle(perm)
    table = [[0] * dic.order for _ in perm]
    for a, row in enumerate(dic.table.tolist()):
        for b, c in enumerate(row):
            table[perm[a]][perm[b]] = perm[c]
    yield radon.build_system(groups.from_cayley_table(table), "prime")


def _corpus_systems():
    for g in verify.groups_upto(24):
        if g.order > 1:
            for variant in radon.VARIANTS:
                yield radon.build_system(g, variant)
    yield from _exact_kernel_systems()
    for m in range(2, 17):
        yield flows.flow_radon_system(flows.constant_flow(m))
    for g in verify.groups_upto(12):
        yield flows.flow_radon_system(flows.group_flow(g))


def test_rounds_match_the_column_reference_on_the_corpus():
    # every system here fills one chunk, so that chunk is what echelon_mod
    # hands to _eliminate_mod
    count = 0
    for sys in _corpus_systems():
        assert sys.nrows <= exactla.CHUNK_ROWS
        assert _same_basis(list(radon._array_rows(sys)), exactla.P), (sys.group, sys.variant)
        count += 1
    assert count > 100


def test_gathers_in_many_blocks_leave_the_same_basis(monkeypatch):
    # a block of 64 cells holds one row of a wide gather, or a few rows of a
    # narrow one
    monkeypatch.setattr(exactla, "_BLOCK_CELLS", 64)
    for sys in _exact_kernel_systems():
        assert _same_basis(list(radon._array_rows(sys)), exactla.P)


def test_three_pivots_of_one_round_hit_one_row_at_the_largest_prime():
    # rows 0-2 are the candidates at columns 3, 2 and 1, each 0 at the
    # others' columns, so one round keeps all three; row 3 is their sum with
    # factors p - 1 = -1, and all three hit it. Its column 0 must come to
    # 3 - 3 (p - 1)^2 = 0 mod p, but three products near 2^62 summed before
    # they are reduced pass 2^63
    p = 2**31 - 1
    q = p - 1
    rows = [[q, 0, 0, 1], [q, 0, 1, 0], [q, 1, 0, 0], [3, q, q, q]]
    echelon = exactla._eliminate_mod(np.array(rows, dtype=np.int64), p)
    assert echelon.tolist() == _rref_mod_oracle(rows, 4, p)
    assert echelon.tolist() == [[q, 0, 0, 1], [q, 0, 1, 0], [q, 1, 0, 0]]
    assert _same_basis(rows, p)


@pytest.mark.parametrize(
    "rows",
    [[[0]], [[0, 0, 0]] * 3, [[0, 0, 0, 0]], [[5]], [[0, 2, 0, 4, 0]], [[-3, 0, 9, 0]]],
)
def test_all_zero_and_one_row_inputs(rows):
    p, n = 7, len(rows[0])
    oracle = _rref_mod_oracle(rows, n, p)
    echelon = exactla._eliminate_mod(np.array(rows, dtype=np.int64), p)
    assert echelon.shape == (len(oracle), n) and echelon.tolist() == oracle
    assert _same_basis(rows, p)


@given(modular_matrices())
@example(_DENSE_CASE)
@settings(max_examples=100, deadline=None)
def test_nullspace_mod_is_reduced_kernel_mod_p(matrix):
    # rows that annihilate the matrix mod p, n - rank of them, each 1 at its
    # own free column, 0 at the other free columns and zero left of it: that
    # is the unique reduced echelon basis of the kernel mod p
    rows, n, p = matrix
    echelon = exactla.echelon_mod(rows, n, p)
    kernel = exactla.nullspace_mod(echelon, p)
    assert kernel.shape == (n - len(echelon), n)
    assert ((kernel >= 0) & (kernel < p)).all()
    leads = [next(j for j, v in enumerate(vec) if v) for vec in kernel.tolist()]
    assert leads == sorted(set(leads))
    for vec, f in zip(kernel.tolist(), leads):
        assert vec[f] == 1 and [vec[g] for g in leads if g != f] == [0] * (len(leads) - 1)
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) % p == 0


@given(
    st.integers(min_value=-4095, max_value=4095),
    st.integers(min_value=1, max_value=4095),
)
@settings(max_examples=200, deadline=None)
def test_reconstruct_inverts_reduction_mod_p(a, b):
    p = exactla.P
    x = a * pow(b, -1, p) % p
    f = Fraction(a, b)
    assert exactla._reconstruct(x, p, 4095) == (f.numerator, f.denominator)


def _certified_lift(rows, n):
    """The lifted kernel of the echelon basis mod P, or None when the lift
    fails or its integer vectors do not annihilate every row exactly: the
    check after which radon.kernel falls back to rational_nullspace."""
    p = exactla.P
    echelon = exactla.echelon_mod(rows, n, p)
    lifted = exactla.lift_nullspace(exactla.nullspace_mod(echelon, p), p)
    if lifted is None:
        return None
    codes, values, scaled = lifted
    for vec in scaled.tolist():
        if any(sum(a * b for a, b in zip(row, vec)) for row in rows):
            return None
    return [tuple(values[c] for c in row) for row in codes.tolist()]


@st.composite
def lift_matrices(draw):
    """integer_matrices, with some entries scaled past the lift bound so that
    kernels with entries of height above 4095 occur."""
    rows, n = draw(integer_matrices())
    big = st.integers(min_value=-(10**4), max_value=10**4)
    if rows and draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(big)
    return rows, n


@given(lift_matrices())
@example(([[1, 2]], 2))
@example(([[1, -5000]], 2))
@example(([[4096, 1], [0, 0]], 2))
@settings(max_examples=300, deadline=None)
def test_certified_lift_is_rational_nullspace(matrix):
    rows, n = matrix
    oracle = exactla.rational_nullspace(rows, n)
    lifted = _certified_lift(rows, n)
    if lifted is not None:
        assert lifted == oracle
    else:
        # only a kernel entry beyond the bound or a rank that drops mod P
        # sends the route to its fallback
        fits = all(
            abs(v.numerator) <= 4095 and v.denominator <= 4095
            for vec in oracle
            for v in vec
        )
        drops = exactla.rank_mod(rows, n, exactla.P) < exactla.rank_exact(rows, n)
        assert drops or not fits


def test_lift_reconstructs_a_fractional_kernel():
    assert _certified_lift([[1, 2]], 2) == [(Fraction(1), Fraction(-1, 2))]
    # the scaled copy is the vector times the lcm of its denominators
    p = exactla.P
    kernel = exactla.nullspace_mod(exactla.echelon_mod([[2, 0, 3]], 3, p), p)
    codes, values, scaled = exactla.lift_nullspace(kernel, p)
    # the distinct values, ascending, and a code per entry into them
    assert values == (Fraction(-2, 3), 0, 1)
    assert codes.dtype == np.uint8 and codes.tolist() == [[2, 1, 0], [1, 2, 1]]
    assert scaled.dtype == np.int64 and scaled.tolist() == [[3, 0, -2], [0, 1, 0]]


@pytest.mark.parametrize("distinct, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_lift_codes_take_the_smallest_unsigned_dtype(distinct, dtype):
    # the residues 0 .. distinct - 1 lift to themselves, one code each
    kernel = np.arange(distinct, dtype=np.int64).repeat(2).reshape(2, distinct)
    codes, values, scaled = exactla.lift_nullspace(kernel.copy(), exactla.P)
    assert codes.dtype == dtype
    assert values == tuple(range(distinct))
    assert np.array_equal(codes, kernel) and np.array_equal(scaled, kernel)


def _lift_with_fresh_arrays(kernel, p):
    """lift_nullspace as it was before it wrote over its input: code and
    scaled are arrays of their own, and kernel is left as it is."""
    bound = math.isqrt((p - 1) // 2)
    code = kernel + bound
    code[kernel > p // 2] -= p
    big = (code < 0) | (code > 2 * bound)
    num = np.arange(-bound, bound + 1, dtype=np.int64)
    den = np.ones_like(num)
    if big.any():
        residues, where = np.unique(kernel[big], return_inverse=True)
        pairs = [exactla._reconstruct(x, p, bound) for x in residues.tolist()]
        if None in pairs:
            return None
        num = np.concatenate([num, [a for a, _ in pairs]])
        den = np.concatenate([den, [b for _, b in pairs]])
        code[big] = 2 * bound + 1 + where.ravel()
    fractional = np.flatnonzero(big.any(axis=1)).tolist()
    used = np.flatnonzero(np.bincount(code.ravel(), minlength=len(num)))
    values = [Fraction(a, b) for a, b in zip(num[used].tolist(), den[used].tolist())]
    order = sorted(range(len(used)), key=values.__getitem__)
    used = used[order]
    recode = np.empty(len(num), dtype=np.min_scalar_type(max(len(used) - 1, 0)))
    recode[used] = np.arange(len(used))
    codes = recode[code]
    num, den = num[used], den[used]
    scaled = num[codes]
    for k in fractional:
        row_den = den[codes[k]]
        lcm = math.lcm(*np.unique(row_den).tolist())
        if lcm * bound >= 2**63:
            return None
        scaled[k] *= lcm // row_den
    return codes, tuple(values[i] for i in order), scaled


@given(lift_matrices())
@example(([[1, 2]], 2))
@example(([[2, 0, 3]], 3))
@example(([[4096, 1], [0, 0]], 2))
@settings(max_examples=200, deadline=None)
def test_lift_in_place_matches_fresh_arrays(matrix):
    rows, n = matrix
    p = exactla.P
    kernel = exactla.nullspace_mod(exactla.echelon_mod(rows, n, p), p)
    want = _lift_with_fresh_arrays(kernel, p)
    mine = kernel.copy()
    got = exactla.lift_nullspace(mine, p)
    if want is None:
        assert got is None
        return
    codes, values, scaled = got
    assert values == want[1]
    assert codes.dtype == want[0].dtype and np.array_equal(codes, want[0])
    assert scaled.dtype == np.int64 and np.array_equal(scaled, want[2])
    assert scaled is mine  # written over the kernel it was given


def test_lift_peak_memory_on_a_wide_kernel():
    # the kernel of C1000's maximal system, one row of ones: 999 x 1,000
    # int64, 8.0 MB. With code and scaled arrays of their own the lift
    # peaked 10.0 MB above its input; written over it, 2.1 MB: the masks
    # and the codes, a byte an entry each
    n, p = 1000, exactla.P
    kernel = exactla.nullspace_mod(np.ones((1, n), dtype=np.int64), p)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        codes, values, scaled = exactla.lift_nullspace(kernel, p)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert values == (-1, 0, 1) and codes.dtype == np.uint8
    assert scaled is kernel and scaled[5, 5] == 1 and scaled[5, n - 1] == -1
    assert peak <= 0.4 * kernel.nbytes, peak


def test_kernel_entry_above_lift_bound_is_not_certified():
    # the kernel (1, 1/5000) has a denominator above 4095
    assert exactla.rational_nullspace([[1, -5000]], 2) == [(1, Fraction(1, 5000))]
    assert _certified_lift([[1, -5000]], 2) is None
