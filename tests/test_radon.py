import dataclasses
import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from coset_radon import centre, exactla, flows, geodesics, groups, radon, verify
from coset_radon.errors import (
    DimensionError,
    InvalidOrderError,
    InvalidVariantError,
    NoGeodesicsError,
    NotCoprimeError,
    NotCyclicError,
    UnsupportedGroupError,
)

# rank and kernel dimensions frozen from an independent floating-point SVD
# run, then re-derived here by exact elimination
PRIME_VERDICTS = {
    "C6": (5, 4, 2),
    "C9": (3, 3, 6),
    "C12": (10, 8, 4),
    "C2xC2": (6, 4, 0),
    "C3xC3": (12, 9, 0),
    "C2xC4": (12, 8, 0),
    "D4": (20, 8, 0),
    "D5": (27, 10, 0),
    "Dic2": (4, 4, 4),
    "Dic3": (10, 8, 4),
    "S4": (140, 24, 0),
}

MAXIMAL_VERDICTS = {
    "C12": (1, 1, 11),
    "C4xC2": (12, 8, 0),
    "C6xC6": (72, 36, 0),
}

# a valid 3-point flow whose long orbit visits point 0 twice
MULTIPLICITY_FLOW = [[0, 0, 0], [2, 1, 1], [1, 2, 2]]

SYSTEM_CASES = (
    [("3-point", "flow")]
    + [(name, "prime") for name in sorted(PRIME_VERDICTS)]
    + [(name, "maximal") for name in sorted(MAXIMAL_VERDICTS)]
)


def _system(name, variant):
    if variant == "flow":
        from coset_radon.flows import flow_radon_system, validate_flow

        return flow_radon_system(validate_flow(3, MULTIPLICITY_FLOW))
    return radon.build_system(groups.from_name(name), variant)


def test_apply_hand_computed():
    g = groups.make_cyclic(4)
    sys = radon.build_system(g, "prime")
    # single subgroup {0, 2}: cosets {0,2} and {1,3}
    assert len(sys.rows) == 2
    assert radon.apply(sys, (1, 2, 3, 4)) == (4, 6)


def test_apply_rejects_wrong_length():
    sys = radon.build_system(groups.make_cyclic(4), "prime")
    with pytest.raises(DimensionError):
        radon.apply(sys, (1, 2, 3))


def test_flow_rows_carry_multiplicity():
    sys = _system("3-point", "flow")
    assert sys.indptr.tolist() == [0, 4, 6]
    assert sys.indices.tolist() == [0, 0, 1, 2, 1, 2]
    assert sys.matrix == ((2, 1, 1), (0, 1, 1))


@pytest.mark.parametrize("name,variant", SYSTEM_CASES)
def test_cells_agree_with_dense_matrix(name, variant):
    sys = _system(name, variant)
    dense = sys.matrix
    assert [sum(row) for row in dense] == np.diff(sys.indptr).tolist()
    # the int64 rows rank_mod reads, scattered from indices chunk by chunk
    arrays = list(radon._array_rows(sys))
    assert all(row.dtype == np.int64 for row in arrays)
    assert [tuple(row.tolist()) for row in arrays] == list(dense)
    if variant == "flow":
        assert arrays[0].tolist() == [2, 1, 1]
    rng = random.Random(sys.ncols)
    f = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(sys.ncols)]
    product = tuple(sum(w * v for w, v in zip(row, f)) for row in dense)
    assert radon.apply(sys, f) == product
    r = exactla.rank_exact(dense, sys.ncols)
    assert radon.decide_system(sys)[:2] == (r, sys.ncols - r)
    assert radon.kernel(sys).vectors == tuple(exactla.rational_nullspace(dense, sys.ncols))


def test_array_rows_across_chunks(monkeypatch):
    # five-row chunks split S4's 140 prime rows, so rank_mod stacks and
    # eliminates many of them before its rank is full
    monkeypatch.setattr(exactla, "CHUNK_ROWS", 5)
    sys = _system("S4", "prime")
    arrays = [tuple(row.tolist()) for row in radon._array_rows(sys)]
    assert arrays == list(sys.matrix)
    assert radon.decide_system(sys) == (24, 0, "modular-full-rank")


def _reference(kind, variant):
    """(labels, cells) of a system, built without it: one (rep, subgroup,
    coset) triple per row from groups.left_cosets tuples for a group; the
    start state and sorted visits of each new nonstationary orbit for a
    flow."""
    if variant == "flow":
        labels, cells = [], []
        for orbit in flows.flow_orbits(kind):
            visited = tuple(sorted(a for a, _ in orbit.states))
            if not orbit.stationary and visited not in cells:
                labels.append(orbit.states[0])
                cells.append(visited)
        return labels, cells
    if variant == "prime":
        subs = [s for s in geodesics.cyclic_subgroups(kind) if exactla.is_prime(len(s))]
    else:
        subs = geodesics.maximal_cyclic_subgroups(kind)
    rows = [(c[0], s.elements, c) for s in subs for c in groups.left_cosets(kind, s)]
    return rows, [c for _, _, c in rows]


def _oracle_cases():
    cases = [
        (g, variant)
        for g in verify.groups_upto(24)
        if g.order > 1
        for variant in ("prime", "maximal")
    ]
    cases.append((flows.validate_flow(3, MULTIPLICITY_FLOW), "flow"))
    cases.append((flows.group_flow(groups.make_symmetric(4)), "flow"))
    return cases


def test_csr_system_matches_coset_tuples(monkeypatch):
    monkeypatch.setattr(exactla, "CHUNK_ROWS", 5)
    for kind, variant in _oracle_cases():
        if variant == "flow":
            sys = flows.flow_radon_system(kind)
            n = kind.size
        else:
            sys = radon.build_system(kind, variant)
            n = kind.order
        labels, cells = _reference(kind, variant)
        assert sys.nrows == len(cells)
        bounds = sys.indptr.tolist()
        slices = [tuple(sys.indices[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
        assert slices == cells
        dense = tuple(tuple(Counter(c)[j] for j in range(n)) for c in cells)
        assert sys.matrix == dense
        assert [tuple(r.tolist()) for r in radon._array_rows(sys)] == list(dense)
        if variant == "flow":
            assert sys.rows == tuple(labels)
        else:
            assert [(geo.rep, geo.subgroup.elements, geo.coset) for geo in sys.rows] == labels
        rng = random.Random(n)
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
        values = radon.apply(sys, f)
        assert values == tuple(sum(f[j] for j in c) for c in cells)
        assert radon.kernel(sys).vectors == tuple(exactla.rational_nullspace(dense, n))
        if variant != "flow":
            assert radon.group_sum_from_radon(sys, values) == sum(f)
    c5 = groups.from_name("C5xC5")
    sys = radon.build_system(c5, "prime")
    f = tuple(Fraction(x * x - 7, x % 3 + 1) for x in range(25))
    values = tuple(sum(f[j] for j in c) for c in _reference(c5, "prime")[1])
    assert radon.reconstruct_all(sys, values) == f


def test_verdict_builds_no_geodesic_record(monkeypatch):
    made = []
    record = geodesics.Geodesic

    def counting(*args, **kwargs):
        made.append(1)
        return record(*args, **kwargs)

    # geodesics._geodesics_for is the one producer of the records
    monkeypatch.setattr(geodesics, "Geodesic", counting)
    for name, variant in (("S4", "prime"), ("C12", "maximal"), ("Dic3", "prime")):
        radon.decide_system(radon.build_system(groups.from_name(name), variant))
    assert made == []
    # the rows view is where the records are made, one per row
    assert len(radon.build_system(groups.from_name("S4")).rows) == len(made) == 140


def test_system_arrays_are_read_only():
    sys = radon.build_system(groups.make_cyclic(4), "prime")
    assert sys.indptr.tolist() == [0, 2, 4]
    assert sys.indices.tolist() == [0, 2, 1, 3]
    for arr in (sys.indptr, sys.indices):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_apply_and_kernel_check_are_exact_past_int64():
    sys = radon.build_system(groups.make_cyclic(4), "prime")  # rows {0,2}, {1,3}
    # 2^62 times the row length 2 reaches 2^63, so these sums leave int64
    assert radon.apply(sys, [2**62, 0, 2**62, 0]) == (2**63, 0)
    assert radon.apply(sys, [2**70, 1, 3, -(2**70)]) == (2**70 + 3, 1 - 2**70)
    assert all(type(v) is int for v in radon.apply(sys, [1, 2, 3, 4]))
    # the kernel check sums a batch of vectors at once
    batch = np.array([[2**62, 0, 2**62, 0], [1, 2, 3, 4]], dtype=np.int64)
    assert radon._row_sums(sys, batch).tolist() == [[2**63, 0], [4, 6]]


def test_build_system_rejects_unknown_variant():
    with pytest.raises(InvalidVariantError):
        radon.build_system(groups.make_cyclic(4), "both")


def test_matrix_entries_are_incidence():
    sys = radon.build_system(groups.make_dihedral(4), "prime")
    for geo, row in zip(sys.rows, sys.matrix):
        assert sum(row) == len(geo.coset)
        assert all(v in (0, 1) for v in row)
        assert all(row[x] == 1 for x in geo.coset)


@pytest.mark.parametrize("name,expected", sorted(PRIME_VERDICTS.items()))
def test_prime_verdicts_frozen(name, expected):
    rows, rank, kdim = expected
    v = radon.is_injective(groups.from_name(name))
    assert (v.rows, v.rank, v.kernel_dim) == (rows, rank, kdim)
    assert v.injective == (kdim == 0)
    assert v.frobenius_complement == (kdim > 0)
    assert v.rank + v.kernel_dim == v.order


@pytest.mark.parametrize("name,expected", sorted(MAXIMAL_VERDICTS.items()))
def test_maximal_verdicts_frozen(name, expected):
    rows, rank, kdim = expected
    v = radon.is_injective(groups.from_name(name), variant="maximal")
    assert (v.rows, v.rank, v.kernel_dim) == (rows, rank, kdim)
    assert v.frobenius_complement is None


def test_method_reflects_certificate_path():
    assert radon.is_injective(groups.from_name("D4")).method == "modular-full-rank"
    assert radon.is_injective(groups.from_name("C6")).method == "exact-elimination"


@pytest.mark.parametrize(
    "kind, name", [("group", "C6"), ("group", "Dic15"), ("group", "S4"), ("flow", 7)]
)
def test_one_modular_elimination_per_verdict(monkeypatch, kind, name):
    # a group verdict reads the spectrum of its family's central element,
    # with no elimination; a flow's is one elimination over its rows, at P,
    # which fill one chunk, so that is one Gauss-Jordan pass, and its
    # deficit reads the kernel off the reduced basis it leaves, with no
    # second pass and no integer elimination
    eliminations = 1 if kind == "flow" else 0
    primes, passes, integer = [], [], []
    echelon_mod, int_echelon = exactla.echelon_mod, exactla.int_echelon
    eliminate = exactla._eliminate_mod

    def counting(rows, ncols, p):
        primes.append(p)
        return echelon_mod(rows, ncols, p)

    def counting_pass(m, p):
        passes.append(p)
        return eliminate(m, p)

    def counting_int(rows, ncols):
        integer.append(ncols)
        return int_echelon(rows, ncols)

    monkeypatch.setattr(exactla, "echelon_mod", counting)
    monkeypatch.setattr(exactla, "_eliminate_mod", counting_pass)
    monkeypatch.setattr(exactla, "int_echelon", counting_int)
    if kind == "group":
        sys = radon.build_system(groups.from_name(name), "prime")
    else:
        sys = flows.flow_radon_system(flows.constant_flow(name))
    assert sys.nrows <= exactla.CHUNK_ROWS
    radon.decide_system(sys)
    assert primes == [exactla.P] * eliminations
    assert passes == [exactla.P] * eliminations
    assert integer == []


@pytest.mark.parametrize(
    "name, variant", [("Dic3", "prime"), ("C12", "maximal"), ("S4", "prime")]
)
def test_a_group_verdict_lists_its_family_once(monkeypatch, name, variant):
    # the prime family's z is read off the element orders, so its verdict
    # lists no subgroup; the maximal family is listed once, for z and, when
    # the size rule takes it to coset sums, for its cosets
    listed, family = [], radon._family_subgroups
    monkeypatch.setattr(
        radon, "_family_subgroups", lambda g, v: listed.append(v) or family(g, v)
    )
    verdict = radon.is_injective(groups.from_name(name), variant)
    assert verdict.injective == (name == "S4")
    assert listed == ([] if variant == "prime" else [variant])


def _verdict_oracle_systems():
    for g in verify.groups_upto(24):
        if g.order > 1:
            for variant in ("prime", "maximal"):
                yield radon.build_system(g, variant)
    for m in range(2, 17):
        yield flows.flow_radon_system(flows.constant_flow(m))
    for g in verify.groups_upto(12):
        yield flows.flow_radon_system(flows.group_flow(g))


def test_modular_certificate_matches_exact_rank():
    # the verdict certifies full rank mod P exactly when the rank over Q is
    # full, and its rank is the rank over Q either way
    for sys in _verdict_oracle_systems():
        n = sys.ncols
        exact = exactla.rank_exact(sys.matrix, n)
        rank, _, method = radon.decide_system(sys)
        assert rank == exact
        assert (method == "modular-full-rank") == (exact == n)


# --- verdicts from the centre of F_P[G] -----------------------------------------


@pytest.mark.parametrize("name", ["S4", "Dic3", "C12", "D6"])
@pytest.mark.parametrize("variant", radon.VARIANTS)
def test_gram_matrix_is_multiplication_by_the_central_element(name, variant):
    # (A^T A)[a, b] counts the family subgroups holding a^-1 b
    g = groups.from_name(name)
    sys = radon.build_system(g, variant)
    a = np.array(sys.matrix, dtype=np.int64)
    z = centre.central_element(g, geodesics._family_subgroups(g, variant))
    quotients = g.table[np.array(g.inv)[:, None], np.arange(g.order)]  # a^-1 b
    assert np.array_equal(a.T @ a, z[quotients])
    # z is central: z(a^-1 b a) = z(b)
    conj = g.table[quotients, np.arange(g.order)[:, None]]
    assert np.array_equal(z[conj], np.broadcast_to(z, conj.shape))


@pytest.mark.parametrize("name, variant", [("S4", "prime"), ("S6", "maximal")])
def test_kernel_of_a_centre_certified_system_eliminates_nothing(
    monkeypatch, name, variant
):
    # the kernel follows the verdict: z is a unit mod P, so the empty basis
    # needs no pass over the rows
    passes = []
    eliminate = exactla._eliminate_mod

    def counting_pass(m, p):
        passes.append(p)
        return eliminate(m, p)

    monkeypatch.setattr(exactla, "_eliminate_mod", counting_pass)
    sys = radon.build_system(groups.from_name(name), variant)
    assert radon.kernel(sys) == radon.KernelBasis.from_vectors(())
    assert passes == []


def _centre_corpus():
    names = (
        "A5", "S5", "A6", "S6", "C6xC6", "C2xC2xC2xC2", "C2xC2xC2xC2xC2xC2xC2xC2",
        "C12xC12", "Dic15", "Dic63", "C240", "C96",
    )
    for g in verify.groups_upto(48) + [groups.from_name(name) for name in names]:
        if g.order > 1:
            yield g


def _both_products(g, sys):
    """m_0 of the family of sys by the product on classes and by coset
    sums, each forced; rows = 0 puts every family past the size rule."""
    z = centre.central_element(g, sys.family)
    return centre.nullity(g, z), centre.nullity(g, z, 0, lambda: sys.family)


def test_centre_certifies_exactly_when_the_matrix_route_does():
    # the group verdict against the rows' elimination, and both products by
    # z, each forced, against the rows' rank mod P; the prime family's z and
    # rows from element orders against the listed family's
    certified, products = 0, {"classes": 0, "cosets": 0}
    for g in _centre_corpus():
        for variant in radon.VARIANTS:
            sys = radon.build_system(g, variant)
            matrix = radon._rows_verdict(sys)
            assert radon.is_injective(g, variant) == matrix, (g.recipe, variant)
            assert radon.decide_system(sys) == (
                matrix.rank, matrix.kernel_dim, matrix.method
            )
            m0 = g.order - len(sys._echelon)
            assert _both_products(g, sys) == (m0, m0), (g.recipe, variant)
            z = centre.central_element(g, sys.family)
            if variant == "prime":
                prime_z, rows = centre.prime_element(g)
                assert np.array_equal(prime_z, z) and rows == sys.nrows, g.recipe
            # the size rule's choice, seen by whether the family is listed
            listed = []
            centre.nullity(g, z, sys.nrows, lambda: listed.append(1) or sys.family)
            products["cosets" if listed else "classes"] += 1
            certified += matrix.method == "modular-full-rank"
    assert certified == 116
    # coset sums take abelian families only: the one-row maximal family of
    # each of the 49 cyclic groups, the prime one of the 15 C_p, and the
    # maximal families of 13 products such as C2xC2xC3, of 3 to 7 subgroups
    assert products == {"classes": 179, "cosets": 49 + 15 + 13}


def test_no_verdict_reads_a_row(monkeypatch):
    # every family, whichever product by z the size rule chooses, is
    # answered with no system built, no row scattered and no elimination
    def refuse(*args):
        raise AssertionError("a verdict read a row")

    corpus = [(g, v) for g in _centre_corpus() for v in radon.VARIANTS]
    large = [("C5040", "maximal", 1), ("C5039", "prime", 1), ("C2xC2520", "maximal", 16)]
    large = [(groups.from_name(name), v, rank) for name, v, rank in large]
    for name in ("_build_system", "_array_rows"):
        monkeypatch.setattr(radon, name, refuse)
    monkeypatch.setattr(exactla, "echelon_mod", refuse)
    for g, variant in corpus:
        radon.is_injective(g, variant)
    for g, variant, rank in large:
        verdict = radon.is_injective(g, variant)
        assert (verdict.rank, verdict.kernel_dim) == (rank, g.order - rank), g.recipe


def _relabelled(g, perm):
    n = g.order
    table = [[0] * n for _ in range(n)]
    for a, row in enumerate(g.table.tolist()):
        for b, c in enumerate(row):
            table[perm[a]][perm[b]] = perm[c]
    return groups.from_cayley_table(table)


@pytest.fixture(scope="module")
def small_groups():
    return [g for g in verify.groups_upto(24) if g.order > 1]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_centre_verdict_matches_matrix_route_on_relabelled_tables(small_groups, data):
    g = data.draw(st.sampled_from(small_groups))
    g = _relabelled(g, data.draw(st.permutations(range(g.order))))
    for variant in radon.VARIANTS:
        sys = radon.build_system(g, variant)
        matrix = radon._rows_verdict(sys)
        assert radon.is_injective(g, variant) == matrix
        # both products by z on the relabelled table
        m0 = g.order - len(sys._echelon)
        assert _both_products(g, sys) == (m0, m0) and m0 == g.order - matrix.rank
        if variant == "prime":
            z, rows = centre.prime_element(g)
            assert rows == sys.nrows
            assert np.array_equal(z, centre.central_element(g, sys.family))
        # the rank mod P is the rank over Q, and both routes give the
        # integer oracle's kernel
        oracle = exactla.rational_nullspace(sys.matrix, g.order)
        assert matrix.rank == g.order - len(oracle)
        assert _routes_agree(sys).vectors == tuple(oracle)


def test_a_family_rank_mod_p_is_its_rank_over_q(monkeypatch):
    # the verdict's rank against the kernel the lift proves: a rank mod P
    # above the rank over Q would leave a lift that fails the exact check
    calls, _ = _counting_nullspace(monkeypatch)
    deficient = 0
    for g in _centre_corpus():
        for variant in radon.VARIANTS:
            sys = radon.build_system(g, variant)
            rank = radon.decide_system(sys)[0]
            assert rank == g.order - radon.kernel(sys).dim, (g.recipe, variant)
            deficient += rank < g.order
    assert deficient > 100
    assert calls == []


def _routes_agree(sys):
    """Check that a built system's family route (_group_verdict) and the
    route of the same rows without their family (_rows_verdict) give one
    kernel and one verdict; return that kernel."""
    bare = dataclasses.replace(sys)
    assert bare.family is None
    ker = radon.kernel(sys)
    assert ker == radon.kernel(bare), (sys.group.recipe, sys.variant)
    assert radon.decide_system(sys) == radon.decide_system(bare), (
        sys.group.recipe, sys.variant
    )
    return ker


def test_the_family_route_and_the_rows_route_agree():
    # every corpus family through both routes; on the smallest groups both
    # against the integer oracle
    small = 0
    for g in _centre_corpus():
        for variant in radon.VARIANTS:
            sys = radon.build_system(g, variant)
            ker = _routes_agree(sys)
            if g.order <= 12:
                oracle = exactla.rational_nullspace(sys.matrix, g.order)
                assert ker.vectors == tuple(oracle), (g.recipe, variant)
                small += 1
    assert small == 2 * 23


def _totients(n):
    """phi(m) for every m <= n, by a sieve over the primes."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return phi


def test_the_sum_of_family_orders_stays_below_p():
    # the module docstring's bound on S = sum of |H|, which makes the rank
    # mod P of a family's rows its rank over Q
    n = groups.MAX_TABLE_ORDER
    phi = _totients(n)
    top = max(range(1, n + 1), key=lambda m: Fraction(m, phi[m]))  # the first
    ratio = Fraction(top, phi[top])
    assert top == 30030
    assert 2 * (n - 1) < (n - 1) * ratio < 341_670 < exactla.P
    # composite_consistency's bound, both families at once
    assert (n - 1) * (2 + ratio) < 472_800 < exactla.P
    # both bounds hold on the corpus
    for g in _centre_corpus():
        largest = max(Fraction(m, phi[m]) for m in range(1, g.order + 1))
        for variant, bound in (("prime", 2), ("maximal", largest)):
            total = sum(map(len, geodesics._family_subgroups(g, variant)))
            assert total <= (g.order - 1) * bound, (g.recipe, variant)


def test_verdict_rank_is_the_rank_of_the_integer_oracle():
    for sys in _kernel_oracle_systems():
        oracle = exactla.rational_nullspace(sys.matrix, sys.ncols)
        assert radon.decide_system(sys)[0] == sys.ncols - len(oracle)


@pytest.mark.parametrize(
    "name, variant", [("Dic63", "prime"), ("Dic64", "prime"), ("Dic3", "maximal")]
)
def test_fewer_rows_than_order_are_checked_against_the_spectrum(name, variant):
    # a family of fewer rows than |G| is deficient; the verdict reads its
    # spectrum, and the rows' rank mod P and their proven kernel must agree
    g = groups.from_name(name)
    verdict = radon.is_injective(g, variant)
    assert verdict.rows < g.order and not verdict.injective
    assert verdict.method == "exact-elimination"
    sys = radon.build_system(g, variant)
    assert len(sys._echelon) == verdict.rank
    assert radon.kernel(sys).dim == verdict.kernel_dim
    assert radon.decide_system(sys) == (
        verdict.rank, verdict.kernel_dim, verdict.method
    )


@pytest.mark.parametrize("name, variant", [("C12", "maximal"), ("C7", "prime")])
def test_the_size_rule_keeps_a_one_row_kernel_on_its_rows(monkeypatch, name, variant):
    # one row of |G| cells, where a product by z on classes would read
    # |G|^2: the verdict sums over cosets, and the kernel reads the row,
    # whose rank mod P is the verdict's
    nullities, nullity = [], centre.nullity
    monkeypatch.setattr(
        centre, "nullity", lambda *a: nullities.append(nullity(*a)) or nullities[-1]
    )
    g = groups.from_name(name)
    verdict = radon.is_injective(g, variant)
    assert verdict.rows == 1 and not verdict.injective
    sys = radon.build_system(g, variant)
    assert len(sys._echelon) == verdict.rank == 1
    assert radon.kernel(sys).dim == verdict.kernel_dim
    assert nullities == [g.order - 1] * 2


def _kernel_oracle_systems():
    for g in verify.groups_upto(48):
        if g.order > 1:
            for variant in ("prime", "maximal"):
                yield radon.build_system(g, variant)
    for m in range(2, 40):
        yield flows.flow_radon_system(flows.constant_flow(m))
    for g in verify.groups_upto(30):
        yield flows.flow_radon_system(flows.group_flow(g))


def _counting_nullspace(monkeypatch):
    """Patch exactla.rational_nullspace to record each call; return the
    record and the unpatched function."""
    calls, oracle = [], exactla.rational_nullspace

    def counting(rows, ncols):
        calls.append(ncols)
        return oracle(rows, ncols)

    monkeypatch.setattr(exactla, "rational_nullspace", counting)
    return calls, oracle


def test_lifted_kernel_matches_integer_oracle_on_corpus(monkeypatch):
    calls, oracle = _counting_nullspace(monkeypatch)
    deficient = 0
    for sys in _kernel_oracle_systems():
        if exactla.rank_mod(radon._array_rows(sys), sys.ncols, exactla.P) == sys.ncols:
            continue
        deficient += 1
        assert radon.kernel(sys).vectors == tuple(oracle(sys.matrix, sys.ncols))
    assert deficient == 168
    # every kernel here came from the lift: none fell back
    assert calls == []


def _hand_system(*rows):
    """A system whose rows are the given sorted multisets of columns."""
    ncols = max(max(row) for row in rows) + 1
    return radon.RadonSystem(
        group=None,
        variant="flow",
        indptr=radon._indptr([len(row) for row in rows]),
        indices=np.array([j for row in rows for j in row], dtype=np.int32),
        ncols=ncols,
        starts=np.zeros((len(rows), 2), dtype=np.int64),
    )


def test_kernel_reconstructs_fractions_and_falls_back_past_the_bound(monkeypatch):
    calls, _ = _counting_nullspace(monkeypatch)
    # f(0) + 2 f(1) = 0: the kernel (1, -1/2) is reconstructed from its residue
    assert radon.kernel(_hand_system((0, 1, 1))).vectors == ((1, Fraction(-1, 2)),)
    assert calls == []
    # f(0) + 5000 f(1) = 0: the denominator 5000 is past the lift bound 4095
    sys = _hand_system((0,) + (1,) * 5000)
    assert radon.kernel(sys).vectors == ((1, Fraction(-1, 5000)),)
    assert calls == [2]


@pytest.mark.parametrize("name", ["Dic3", "C12"])
def test_wrong_lift_is_caught_and_falls_back(monkeypatch, name):
    lift = exactla.lift_nullspace

    def wrong(kernel, p):
        codes, values, scaled = lift(kernel, p)
        # move the last entry of the first vector: still a lifted vector of
        # the same shape, but no longer in the kernel
        scaled[0, -1] += 1
        values = (*values, values[codes[0, -1]] + 1)
        codes[0, -1] = len(values) - 1
        return codes, values, scaled

    monkeypatch.setattr(exactla, "lift_nullspace", wrong)
    calls, oracle = _counting_nullspace(monkeypatch)
    sys = radon.build_system(groups.from_name(name), "prime")
    # the verdict on a family reads its spectrum and lifts nothing
    verdict = radon._group_verdict(sys.group, sys.variant, lambda: sys.family)
    assert calls == []
    ker = radon.kernel(sys)
    assert calls == [sys.ncols]
    assert ker.vectors == tuple(oracle(sys.matrix, sys.ncols))
    assert verdict.kernel_dim == ker.dim > 0
    assert verdict.method == "exact-elimination"
    # the same rows without their family prove the deficit by the kernel
    bare = dataclasses.replace(sys)
    assert bare.family is None
    assert radon._rows_verdict(bare) == verdict
    assert calls == [sys.ncols] * 2


def test_kernel_is_certificate():
    g = groups.make_cyclic(6)
    sys = radon.build_system(g, "prime")
    ker = radon.kernel(sys)
    assert ker.dim == 2
    assert ker.vectors == (
        (1, 0, -1, -1, 0, 1),
        (0, 1, 1, 0, -1, -1),
    )
    for vec in ker.vectors:
        assert not any(radon.apply(sys, vec))


def test_kernel_of_injective_system_is_empty():
    sys = radon.build_system(groups.from_name("C3xC3"), "prime")
    assert radon.kernel(sys).dim == 0


def test_cyclic_witnesses_through_order_36():
    for n in range(2, 37):
        g = groups.make_cyclic(n)
        w = radon.kernel_witness_cyclic(g)
        assert len(w) == n
        assert any(w)
        assert not any(radon.apply(radon.build_system(g, "prime"), w))


def test_cyclic_witness_rejects_noncyclic_and_trivial():
    with pytest.raises(NotCyclicError):
        radon.kernel_witness_cyclic(groups.make_dihedral(3))
    with pytest.raises(NoGeodesicsError):
        radon.kernel_witness_cyclic(groups.make_trivial())


@pytest.mark.parametrize("n1,n2", [(4, 3), (9, 4), (2, 9), (8, 15)])
def test_product_witnesses(n1, n2):
    g1 = groups.make_cyclic(n1)
    g2 = groups.make_cyclic(n2)
    w1 = radon.kernel_witness_cyclic(g1)
    w2 = radon.kernel_witness_cyclic(g2)
    witness, product = radon.kernel_witness_product(w1, w2, g1, g2)
    assert product.order == n1 * n2
    assert any(witness)
    sys = radon.build_system(product, "prime")
    assert not any(radon.apply(sys, witness))


def test_product_witness_needs_coprime_orders():
    g1 = groups.make_cyclic(2)
    g2 = groups.make_cyclic(4)
    w1 = radon.kernel_witness_cyclic(g1)
    w2 = radon.kernel_witness_cyclic(g2)
    with pytest.raises(NotCoprimeError):
        radon.kernel_witness_product(w1, w2, g1, g2)


def test_group_sum_recovered_from_transform():
    g = groups.make_dihedral(4)
    sys = radon.build_system(g, "prime")
    rng = random.Random(7)
    f = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(g.order)]
    values = radon.apply(sys, f)
    assert radon.group_sum_from_radon(sys, values) == sum(f)


def test_group_sum_rejects_flow_systems():
    from coset_radon.flows import constant_flow, flow_radon_system

    sys = flow_radon_system(constant_flow(4))
    with pytest.raises(InvalidVariantError):
        radon.group_sum_from_radon(sys, [0] * len(sys.rows))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reconstruction_on_elementary_squares(p):
    g = groups.make_direct_product(groups.make_cyclic(p), groups.make_cyclic(p))
    sys = radon.build_system(g, "prime")
    rng = random.Random(100 + p)
    f = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(p * p))
    values = radon.apply(sys, f)
    assert radon.reconstruct_all(sys, values) == f
    # the values are read once, so a one-shot iterator will do
    assert radon.reconstruct_all(sys, iter(values)) == f
    # one element reads only the p + 1 rows through it
    assert tuple(radon.reconstruct_cpxcp(sys, values, x) for x in range(p * p)) == f
    assert all(radon.reconstruct_cpxcp(sys, iter(values), x) == f[x] for x in range(p * p))


def test_reconstruction_rejects_other_groups():
    sys = radon.build_system(groups.make_cyclic(6), "prime")
    with pytest.raises(UnsupportedGroupError):
        radon.reconstruct_cpxcp(sys, radon.apply(sys, [0] * 6), 0)
    # order 4 with an element of order 4 is not elementary abelian
    sys4 = radon.build_system(groups.make_cyclic(4), "prime")
    with pytest.raises(UnsupportedGroupError):
        radon.reconstruct_cpxcp(sys4, radon.apply(sys4, [0] * 4), 0)


def test_reconstruction_needs_prime_variant():
    g = groups.make_direct_product(groups.make_cyclic(2), groups.make_cyclic(2))
    sys = radon.build_system(g, "maximal")
    with pytest.raises(InvalidVariantError):
        radon.reconstruct_cpxcp(sys, [0] * len(sys.rows), 0)


def test_bound_strict_for_small_dicyclic():
    for n in range(2, 15):
        chk = radon.dimension_bound_check(groups.make_dicyclic(n))
        assert chk.bound_holds, n
        assert chk.lhs < chk.rhs


def test_bound_equality_at_dicyclic_15():
    chk = radon.dimension_bound_check(groups.make_dicyclic(15))
    assert chk.lhs == chk.rhs == Fraction(31, 30)
    assert not chk.bound_holds
    # the counting argument stalls here, yet the kernel is still present
    assert not radon.is_injective(groups.make_dicyclic(15)).injective


def test_bound_reversed_at_dicyclic_30():
    chk = radon.dimension_bound_check(groups.make_dicyclic(30))
    assert chk.lhs > chk.rhs
    assert not chk.bound_holds
    assert not radon.is_injective(groups.make_dicyclic(30)).injective


def test_bound_equality_klein():
    chk = radon.dimension_bound_check(
        groups.make_direct_product(groups.make_cyclic(2), groups.make_cyclic(2))
    )
    assert chk.lhs == chk.rhs == Fraction(3, 2)
    assert chk.subgroup_count == 3



def _listed_bound(g):
    """(lhs, rhs, count) of the counting bound from the listed family."""
    subs = geodesics._family_subgroups(g, "prime")
    lhs = sum((Fraction(1, len(s.elements)) for s in subs), Fraction(0))
    return lhs, 1 + Fraction(len(subs) - 1, g.order), len(subs)


def test_bound_from_element_orders_matches_the_listed_family():
    named = [groups.from_name(name) for name in ("S4", "S5", "A4", "A5", "Dic3")]
    for g in verify.groups_upto(64) + named:
        if g.order < 2:
            continue
        chk = radon.dimension_bound_check(g)
        lhs, rhs, count = _listed_bound(g)
        assert (chk.lhs, chk.rhs, chk.subgroup_count) == (lhs, rhs, count), g.recipe
        assert chk.bound_holds == (lhs < rhs), g.recipe

@pytest.mark.parametrize("name,n", [("C12", 4), ("C12", 6), ("C12", 12), ("D4", 4), ("Dic3", 4)])
def test_composite_consistency(name, n):
    assert radon.composite_consistency(groups.from_name(name), n)


@pytest.mark.parametrize("name", ["Dic63", "C360"])
def test_composite_consistency_at_the_group_order(name):
    # n = |G| sweeps every cyclic subgroup, past the n <= 12 of the suite;
    # S, the sum of |H| over both families, stays below the docstring's
    # bound and P
    g = groups.from_name(name)
    assert radon.composite_consistency(g, g.order)
    z_p = centre.prime_element(g)[0]
    z_n = centre.central_element(g, geodesics.cyclic_subgroups(g))
    phi = _totients(g.order)
    largest = max(Fraction(m, phi[m]) for m in range(1, g.order + 1))
    total = int(z_p.sum() + z_n.sum())
    assert total <= (g.order - 1) * (2 + largest) < exactla.P


def test_composite_consistency_vacuous_without_homomorphisms(monkeypatch):
    # no element of C9 has order dividing 4: z_n = 0, and only z_p's
    # nullity is found
    calls = []
    nullity = centre.nullity
    monkeypatch.setattr(centre, "nullity", lambda *a: calls.append(a) or nullity(*a))
    assert radon.composite_consistency(groups.make_cyclic(9), 4)
    assert len(calls) == 1


def test_composite_consistency_takes_the_size_rule_for_z_p(monkeypatch):
    # C1009's z_p is 1 everywhere: its products by classes would read
    # 1009^2 cells against one row of 1009, so m_0 comes from coset sums
    # over the prime family, listed once
    listed, family = [], radon._family_subgroups
    monkeypatch.setattr(
        radon, "_family_subgroups", lambda g, v: listed.append(v) or family(g, v)
    )
    assert radon.composite_consistency(groups.make_cyclic(1009), 12)
    assert listed == ["prime"]


def test_composite_consistency_rejects_prime_length():
    g = groups.make_cyclic(12)
    for n in (1, 2, 3, 5):
        with pytest.raises(InvalidOrderError):
            radon.composite_consistency(g, n)


def test_rank_and_kernel_sum_to_order():
    for name in ("C6", "C9", "D4", "Dic2", "C2xC4", "C6xC6"):
        g = groups.from_name(name)
        for variant in ("prime", "maximal"):
            sys = radon.build_system(g, variant)
            r, kdim, _ = radon.decide_system(sys)
            assert r + kdim == g.order, (name, variant)


@given(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=6, max_size=6),
    st.integers(min_value=-5, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_kernel_shifts_are_invisible(f, c):
    g = groups.make_cyclic(6)
    sys = radon.build_system(g, "prime")
    ker = radon.kernel(sys)
    shifted = [a + c * b for a, b in zip(f, ker.vectors[0])]
    assert radon.apply(sys, f) == radon.apply(sys, shifted)


@given(st.integers(min_value=2, max_value=20))
@settings(max_examples=19, deadline=None)
def test_cyclic_noninjectivity_is_uniform(n):
    v = radon.is_injective(groups.make_cyclic(n))
    assert not v.injective
    assert v.frobenius_complement


@pytest.mark.parametrize("name, variant", [("Dic3", "prime"), ("C12", "maximal")])
def test_a_built_system_lists_its_family_once(monkeypatch, name, variant):
    # decide_system and kernel read the family off the system's own rows
    listed, family = [], geodesics._family_subgroups

    def counting(g, v):
        listed.append(v)
        return family(g, v)

    monkeypatch.setattr(geodesics, "_family_subgroups", counting)
    monkeypatch.setattr(radon, "_family_subgroups", counting)
    sys = radon.build_system(groups.from_name(name), variant)
    assert radon.decide_system(sys)[1] > 0
    assert radon.kernel(sys).dim > 0
    assert listed == [variant]


def test_a_built_system_holds_the_listed_family():
    for g in verify.groups_upto(24):
        if g.order > 1:
            for variant in radon.VARIANTS:
                listed = geodesics._family_subgroups(g, variant)
                assert radon.build_system(g, variant).family == tuple(listed)


def test_only_build_system_sets_a_family():
    g = groups.from_name("C2xC2")
    built = radon.build_system(g, "prime")
    with pytest.raises(TypeError):
        radon.RadonSystem(
            group=g, variant="prime", indptr=built.indptr, indices=built.indices,
            ncols=4, family=built.family,
        )
    with pytest.raises(AttributeError):
        built.family = None
    assert "family" not in repr(built)
    copy = dataclasses.replace(built)
    assert copy.family is None
    assert radon.decide_system(copy) == radon.decide_system(built)
    assert flows.flow_radon_system(flows.constant_flow(4)).family is None


def _hand_group_system(g, rows):
    """A prime group system of g on the given sorted cosets, not built by
    build_system, so it holds no family."""
    return radon.RadonSystem(
        group=g,
        variant="prime",
        indptr=radon._indptr([len(row) for row in rows]),
        indices=np.array([j for row in rows for j in row], dtype=np.uint16),
        ncols=g.order,
    )


def _subgroup_rows(g):
    return [s.elements for s in geodesics._family_subgroups(g, "prime")]


def test_a_hand_built_group_system_is_answered_from_its_rows():
    # the three subgroup rows of C2xC2 meet at the identity only: rank 3,
    # although the centre of those three subgroups is a unit
    g = groups.from_name("C2xC2")
    sys = _hand_group_system(g, _subgroup_rows(g))
    assert sys.family is None
    assert radon.decide_system(sys) == (3, 1, "exact-elimination")
    assert radon.kernel(sys).vectors == ((1, -1, -1, -1),)
    assert exactla.rank_exact(sys.matrix, 4) == 3
    with pytest.raises(InvalidVariantError):
        sys.rows
    values = radon.apply(sys, [1, 2, 3, 4])
    with pytest.raises(InvalidVariantError):
        radon.group_sum_from_radon(sys, values)
    with pytest.raises(InvalidVariantError):
        radon.reconstruct_cpxcp(sys, values, 0)
    with pytest.raises(InvalidVariantError):
        radon.reconstruct_all(sys, values)


def test_hand_built_coset_subsets_get_their_exact_rank():
    # random sets of C3xC3's coset rows, always with the four subgroups
    g = groups.from_name("C3xC3")
    heads = _subgroup_rows(g)
    others = [
        row for row in (geo.coset for geo in geodesics.prime_geodesics(g))
        if row not in heads
    ]
    rng = random.Random(23)
    ranks = Counter()
    for _ in range(60):
        rows = heads + rng.sample(others, rng.randint(0, len(others)))
        sys = _hand_group_system(g, sorted(rows))
        rank, dim, _ = radon.decide_system(sys)
        assert rank == exactla.rank_exact(sys.matrix, 9)
        assert radon.kernel(sys).dim == dim == 9 - rank
        ranks[rank] += 1
    assert len(ranks) > 1


def test_a_hand_built_system_without_rows_has_every_function_in_its_kernel():
    sys = _hand_group_system(groups.make_cyclic(4), [])
    assert sys.nrows == 0
    assert radon.decide_system(sys) == (0, 4, "exact-elimination")
    assert radon.kernel(sys).vectors == tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4)
    )
    assert radon.apply(sys, [1, 2, 3, 4]) == ()


def test_kernel_basis_builds_its_vectors_once_on_request():
    sys = radon.build_system(groups.from_name("Dic3"), "prime")
    kb = radon.kernel(sys)
    assert "vectors" not in vars(kb)
    assert kb.codes.dtype == np.uint8 and not kb.codes.flags.writeable
    assert kb.values == (-1, 0, 1)
    vectors = kb.vectors
    assert kb.vectors is vectors
    assert vectors == tuple(exactla.rational_nullspace(sys.matrix, sys.ncols))
    assert kb.entry_strings() == [[str(v) for v in vec] for vec in vectors]
    # codes into ascending distinct values are canonical, so equality needs
    # no vectors
    assert radon.KernelBasis.from_vectors(vectors) == kb
    assert radon.KernelBasis.from_vectors(vectors[1:]) != kb
    assert radon.KernelBasis.from_vectors([vec[::-1] for vec in vectors]) != kb
    assert radon.KernelBasis.from_vectors(()).dim == 0


def test_entry_points_refuse_inputs_of_the_wrong_size():
    sys = radon.build_system(groups.make_cyclic(6), "prime")
    with pytest.raises(DimensionError, match=f"got 3 values for {sys.nrows} rows"):
        radon.group_sum_from_radon(sys, [1, 2, 3])
    c2, c3 = groups.make_cyclic(2), groups.make_cyclic(3)
    with pytest.raises(DimensionError, match="witness lengths"):
        radon.kernel_witness_product([1, -1, 0], [1, -1, 0], c2, c3)
    with pytest.raises(DimensionError, match="witness lengths"):
        radon.kernel_witness_product([1, -1], [1, -1], c2, c3)
    with pytest.raises(NoGeodesicsError, match="nontrivial group"):
        radon.dimension_bound_check(groups.make_trivial())
