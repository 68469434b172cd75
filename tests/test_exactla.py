import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from covg import exactla
from covg.exactla import (
    QQ,
    ExactLAError,
    FpRowSpace,
    Polynomial,
    PrimeField,
    RationalField,
    RationalRowSpace,
    SmallFpRowSpace,
    apply_point_permutation,
    elementary_symmetric,
    field_from_name,
    rational,
)
from covg.harmonics import (
    EvaluationFiltration,
    covector_locus,
    kostant_locus,
    permmatrix_locus,
    permutohedral_locus,
    tope_locus,
)
from covg.com import topes

GF = PrimeField(1000003)


def test_field_parsing():
    assert field_from_name("rational") is QQ or field_from_name("rational") == QQ
    assert field_from_name("fp:101").p == 101
    with pytest.raises(ValueError):
        field_from_name("fp:100")
    with pytest.raises(ValueError):
        field_from_name("real")


def test_prime_field_coercion():
    assert GF.of(Fraction(1, 2)) == (1000003 + 1) // 2
    assert GF.of(-1) == 1000002
    assert GF.of(Fraction(1, 7)) * 7 % GF.p == 1
    assert GF.of("-1/2") == GF.of(Fraction(-1, 2))
    with pytest.raises(ZeroDivisionError):
        GF.of(Fraction(1, GF.p))


def test_rational_reader():
    assert rational(3) == 3 and type(rational(3)) is int
    assert type(rational(-12**30)) is int
    assert rational(Fraction(4, 2)) == 2 and type(rational(Fraction(4, 2))) is int
    assert rational(Fraction(-1, 3)) == Fraction(-1, 3)
    assert type(rational(Fraction(-1, 3))) is Fraction
    assert rational("7") == 7 and type(rational("7")) is int
    assert rational("6/4") == Fraction(3, 2)
    assert type(rational("-4/2")) is int
    for bad in (0.5, 1.0, True, False, None, [1]):
        with pytest.raises(TypeError):
            rational(bad)
    with pytest.raises(ValueError):
        rational("one half")


def test_polynomial_ring_basics():
    vars = ("y", "z")
    y = Polynomial.variable(vars, "y")
    z = Polynomial.variable(vars, "z")
    zero = Polynomial.zero(vars)
    one = Polynomial.one(vars)
    assert y + zero == y
    assert y * one == y
    assert (y + z) * (y - z) == y * y - z * z
    assert (y + z).degree() == 1
    assert not (y + z * z).is_homogeneous()
    assert (y * z).evaluate([Fraction(3), Fraction(5)]) == 15
    assert type((y * z).evaluate([Fraction(3), Fraction(5)])) is int
    assert (y * z).evaluate([Fraction(1, 2), 3]) == Fraction(3, 2)


def test_polynomial_coefficients_stay_ints():
    vars = ("y", "z")
    y, z = (Polynomial.variable(vars, v) for v in vars)
    half = Polynomial.constant(vars, Fraction(1, 2))
    f = (y + half) * (z + half) * Polynomial.constant(vars, 4)
    assert f.terms == {(1, 1): 4, (1, 0): 2, (0, 1): 2, (0, 0): 1}
    assert all(type(c) is int for c in f.terms.values())
    assert (half + half).terms == {(0, 0): 1} and type((half + half).terms[(0, 0)]) is int
    assert (f - f).is_zero
    with pytest.raises(TypeError):
        Polynomial.constant(vars, 0.5)


def test_polynomial_str_golden():
    vars = ("x", "y", "z")
    cases = [
        (
            {(2, 1, 0): -1, (0, 2, 0): -2, (1, 0, 1): Fraction(1, 2), (0, 0, 2): Fraction(-1, 3), (0, 0, 0): 5},
            "-x^2*y + 1/2*x*z - 2*y^2 - 1/3*z^2 + 5",
        ),
        ({(1, 0, 0): Fraction(-1, 3), (0, 1, 0): 1, (0, 0, 0): -1}, "-1/3*x + y - 1"),
        ({(0, 0, 0): Fraction(-7, 2)}, "-7/2"),
        ({}, "0"),
        # glex: degree first, then earlier variables weigh more
        (
            {(0, 0, 1): 1, (1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 3): Fraction(1, 2), (1, 1, 1): -2},
            "-2*x*y*z + 1/2*z^3 + x - y + z",
        ),
        ({(1, 0, 0): -1}, "-x"),
        ({(0, 1, 0): Fraction(4, 2)}, "2*y"),
    ]
    for terms, text in cases:
        assert str(Polynomial(vars, terms)) == text


def test_polynomial_variable_mismatch():
    y = Polynomial.variable(("y",), "y")
    z = Polynomial.variable(("z",), "z")
    with pytest.raises(ExactLAError):
        y + z


def test_elementary_symmetric():
    vars = ("a", "b", "c")
    a, b, c = (Polynomial.variable(vars, v) for v in vars)
    assert elementary_symmetric(0, [a, b]) == Polynomial.one(vars)
    assert elementary_symmetric(2, [a, b, c]) == a * b + a * c + b * c
    with pytest.raises(ExactLAError):
        elementary_symmetric(3, [a, b])


def top_degree_form(f):
    """The highest-degree homogeneous component of f (the zero polynomial maps to itself)."""
    d = f.degree()
    return Polynomial(f.vars, {e: c for e, c in f.terms.items() if sum(e) == d})


def test_top_degree_form():
    vars = ("x",)
    x = Polynomial.variable(vars, "x")
    f = x * x + x - Polynomial.one(vars)
    assert top_degree_form(f) == x * x
    assert top_degree_form(Polynomial.zero(vars)).is_zero


def _spaces(ambient):
    return [RationalRowSpace(ambient), FpRowSpace(ambient, 1000003), SmallFpRowSpace(ambient, 1000003)]


def test_rowspace_insert_idempotent():
    for rs in _spaces(3):
        assert rs.insert([1, 0, 0])
        assert not rs.insert([1, 0, 0])
        assert not rs.insert([2, 0, 0])
        assert rs.rank == 1


def test_rowspace_span_membership():
    for rs in _spaces(2):
        rs.insert([1, 0])
        rs.insert([0, 1])
        assert rs.contains([2, 3])
        assert rs.rank == 2


def test_rowspace_rational_fractions():
    rs = RationalRowSpace(2)
    rs.insert([Fraction(1, 2), Fraction(1, 3)])
    assert rs.contains([Fraction(3), Fraction(2)])
    assert not rs.contains([1, 0])


def test_rowspace_rational_mixed_int_and_fraction_entries():
    rs = RationalRowSpace(3)
    assert rs.insert([2, Fraction(1, 2), 0])
    assert rs.contains([4, 1, 0])
    assert rs.contains([Fraction(4), Fraction(1), Fraction(0)])
    assert not rs.contains([0, 0, 1])


def test_rowspace_rational_refuses_inexact_entries():
    # 0.1 is not 1/10: reading it as its binary value would store a wrong row
    rs = RationalRowSpace(2)
    for bad in ([0.1, 1], [Fraction(1, 2), 1.0], [True, 0]):
        with pytest.raises(TypeError):
            rs.insert(bad)
        with pytest.raises(TypeError):
            rs.contains(bad)
    assert rs.rank == 0 and rs.rows == []
    assert rs.insert(["1/10", 1]) and rs.rows == [[1, 10]]


def test_rowspace_fp_reads_entries_exactly():
    # 1/2 is a residue mod p, not 0; floats and bools raise as they do over Q
    for rs in (FpRowSpace(2, GF.p), SmallFpRowSpace(2, GF.p), RationalRowSpace(2)):
        assert not rs.contains([Fraction(1, 2), 0])
        for bad in ([0.5, 0], [1.0, 0], [True, 0], np.array([0.5, 0])):
            with pytest.raises(TypeError):
                rs.insert(bad)
            with pytest.raises(TypeError):
                rs.contains(bad)
            with pytest.raises(TypeError):
                rs.insert_block([[1, 0], bad])
        assert rs.rank == 0
        assert rs.insert([Fraction(1, 2), 0]) and rs.rank == 1
        assert rs.contains(["3/7", 0]) and not rs.contains([0, Fraction(1, 2)])


def test_prime_field_vector_reads_ints_in_bulk():
    """Int coordinates are reduced in one pass, past the int64 range too; a
    Fraction is read as its residue, and floats and bools raise."""
    ints = [0, 1, -1, GF.p, -GF.p - 2, 2**62, -(2**63), 2**63, 3**90]
    assert GF.vector(ints).tolist() == [x % GF.p for x in ints]
    assert GF.vector(ints[:7]).dtype == GF.vector(ints).dtype == np.uint32
    assert GF.vector([2, Fraction(1, 2)]).tolist() == [2, GF.of(Fraction(1, 2))]
    for bad in ([1, 0.5], [1, True], [False]):
        with pytest.raises(TypeError):
            GF.vector(bad)


def test_prime_field_refuses_primes_past_int64_products():
    # at p = 4294967311 uint32 residues wrap and int64 products overflow:
    # (p - 1) * [1, 2, 3] once combined to [14, 13, 12], not [p - 1, p - 2, p - 3]
    for p in (4294967311, 2**61 - 1, 2**64):
        with pytest.raises(ExactLAError, match=r"2\^63"):
            PrimeField(p)
    top = PrimeField(3037000493)  # the largest prime with (p - 1)^2 < 2^63
    v = top.vector([1, 2, 3])
    assert top.combination([(top.p - 1, v)], 3).tolist() == [top.p - 1, top.p - 2, top.p - 3]


def test_rowspace_expansion_coefficients():
    rs = RationalRowSpace(3)
    rs.insert([1, 1, 0])
    rs.insert([0, 1, 1])
    coeffs = rs.expansion_coefficients([2, 5, 3])
    assert coeffs is not None
    rebuilt = [sum(c * r[k] for c, r in zip(coeffs, rs.rows)) for k in range(3)]
    assert rebuilt == [2, 5, 3]
    assert rs.expansion_coefficients([1, 0, 0]) is None
    # rows are [1, 0, -1] and [0, 1, 1] once fully reduced
    assert rs.expansion_coefficients([Fraction(1, 2), Fraction(3, 2), 1]) == [
        Fraction(1, 2),
        Fraction(3, 2),
    ]


def test_expansion_coefficients_reject_wrong_length():
    for rs in _spaces(3):
        rs.insert([1, 1, 0])
        rs.insert([0, 1, 1])
        for vec in ([1, 1], [1, 1, 0, 5]):
            with pytest.raises(ExactLAError):
                rs.expansion_coefficients(vec)


def test_trace_identity_is_rank():
    for rs in _spaces(4):
        rs.insert([1, 2, 0, 0])
        rs.insert([0, 0, 1, 1])
        assert rs.trace_under_permutation((0, 1, 2, 3)) == 2


def test_trace_full_space_counts_fixed_points():
    perm = (1, 0, 2, 4, 3)  # fixed points: just index 2
    for rs in _spaces(5):
        for i in range(5):
            rs.insert([int(i == j) for j in range(5)])
        assert rs.trace_under_permutation(perm) == 1


def test_trace_swap_on_diagonal_line():
    for rs in _spaces(2):
        rs.insert([1, 1])
        assert rs.trace_under_permutation((1, 0)) == 1


def test_trace_rejects_noninvariant_subspace():
    for rs in _spaces(2):
        rs.insert([1, 0])
        with pytest.raises(ExactLAError):
            rs.trace_under_permutation((1, 0))


@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=4),
)
def test_rank_agrees_between_fields(rows):
    """Entries are tiny, so every minor is far below p and ranks must agree."""
    rq = RationalRowSpace(4)
    rp = FpRowSpace(4, 1000003)
    for row in rows:
        rq.insert(row)
        rp.insert(row)
    assert rq.rank == rp.rank


@given(st.permutations(list(range(5))), st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), min_size=1, max_size=3))
@settings(max_examples=60)
def test_trace_conjugation_invariance(g, seeds):
    """Trace of g on an orbit-closed span equals the trace of hgh^-1 on the moved span."""
    h = (1, 2, 3, 4, 0)
    g = tuple(g)

    def orbit_closure(vectors, perm):
        rs = RationalRowSpace(5)
        for v in vectors:
            w = list(v)
            for _ in range(6):
                rs.insert(w)
                w = apply_point_permutation(w, perm)
        return rs

    rs = orbit_closure(seeds, g)
    t1 = rs.trace_under_permutation(g)
    hg = tuple(h[g[_inv(h)[k]]] for k in range(5))  # h g h^-1
    moved = orbit_closure([apply_point_permutation(v, h) for v in seeds], hg)
    t2 = moved.trace_under_permutation(hg)
    assert t1 == t2


def _inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return out


def test_rank_never_exceeds_ambient():
    rs = RationalRowSpace(2)
    rs.insert([1, 0])
    rs.insert([0, 1])
    assert not rs.insert([1, 1])
    assert rs.rank == 2


INT64_PRIME = 842312381  # 13 * (p - 1)^2 < 2^63 but > 2^53: the int64 branch


def _new_space(p, ambient):
    return RationalRowSpace(ambient) if p is None else FpRowSpace(ambient, p)


def _space_state(space):
    if isinstance(space, FpRowSpace):
        return space._basis.tolist(), list(space.pivots)
    return [list(r) for r in space.rows], list(space.pivots)


@st.composite
def _block_cases(draw, primes=(None, 1000003, INT64_PRIME)):
    """(p, ambient, rows, cut): sparse fresh rows mixed with zero rows, copies
    and sums of earlier rows; rows[:cut] and rows[cut:] are two blocks.  p is
    one of the primes, None standing for Q."""
    p = draw(st.sampled_from(primes))
    ambient = draw(st.integers(1, 13 if p == INT64_PRIME else 48))
    entry = st.integers(-3, 3) if p is None else st.integers(-2, 2) | st.integers(0, p - 1)
    rows = []
    for _ in range(draw(st.integers(0, 90))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy", "sum"])) if rows else "fresh"
        if kind == "fresh":
            row = [0] * ambient
            for k, x in draw(st.lists(st.tuples(st.integers(0, ambient - 1), entry), max_size=4)):
                row[k] = x
        elif kind == "zero":
            row = [0] * ambient
        elif kind == "copy":
            row = list(rows[draw(st.integers(0, len(rows) - 1))])
        else:
            a, b = (rows[draw(st.integers(0, len(rows) - 1))] for _ in range(2))
            row = [x + y for x, y in zip(a, b)]
        rows.append(row)
    return p, ambient, rows, draw(st.integers(0, len(rows)))


_DENSE = [[i, i * i + 1, 7 * i + 3] for i in range(40)]
_UNIT_MIX = [[int(k == (7 * i) % 40) for k in range(40)] for i in range(100)]
_SPREAD = [[int(k == i % 40) + (i % 7) * int(k == (3 * i + 1) % 40) for k in range(40)] for i in range(100)]
_ZERO13 = [[0] * 13]
_UNIT_MIX13 = [[int(k == (5 * i) % 13) + int(k == i % 13) for k in range(13)] for i in range(60)]


@given(_block_cases())
@example((1000003, 3, _DENSE, 0))  # full rank inside the first leaf; rest skipped
@example((INT64_PRIME, 3, _DENSE, 5))
@example((None, 3, _DENSE, 0))
@example((1000003, 40, _UNIT_MIX, 0))  # 40 rank increases across leaves, 60 duplicates
@example((INT64_PRIME, 13, _ZERO13 * 10 + _UNIT_MIX13 + _ZERO13 * 30, 20))
@example((None, 40, [[0] * 40] + _UNIT_MIX, 50))
@example((1000003, 40, _SPREAD, 0))  # back-substitution across leaves
@example((1000003, 40, _SPREAD, 20))  # and into an earlier block's basis
@example((None, 40, _SPREAD, 0))
@settings(max_examples=150, deadline=None)
def test_insert_block_matches_sequential_insert(case):
    p, ambient, rows, cut = case
    if p == INT64_PRIME:
        assert not FpRowSpace(ambient, p)._float_ok
    sequential = _new_space(p, ambient)
    expected = [i for i, row in enumerate(rows) if sequential.insert(row)]
    block = _new_space(p, ambient)
    taken = block.insert_block(rows[:cut]) + [cut + i for i in block.insert_block(rows[cut:])]
    assert taken == expected
    assert block.rank == sequential.rank == len(expected)
    assert _space_state(block) == _space_state(sequential)


def _orbit_span(space, vectors, perm):
    """The span of the vectors and all their images under the permutation."""
    for v in vectors:
        w = list(v)
        for _ in range(len(perm) + 1):
            space.insert(w)
            w = apply_point_permutation(w, perm)
    return space


@given(
    st.permutations(list(range(5))),
    st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), min_size=1, max_size=3),
)
@settings(max_examples=60)
def test_pivot_trace_matches_checked_trace(g, seeds):
    """On an invariant span the unchecked pivot read equals the checked trace,
    and the F_p traces (float64 and int64 products) are the rational trace mod p."""
    g = tuple(g)
    rational_trace = _orbit_span(RationalRowSpace(5), seeds, g).trace_under_permutation(g)
    assert _orbit_span(RationalRowSpace(5), seeds, g).pivot_trace(g) == rational_trace
    for p in (1000003, INT64_PRIME):
        rs = _orbit_span(FpRowSpace(5, p), seeds, g)
        assert rs.trace_under_permutation(g) == rs.pivot_trace(g) == rational_trace % p


@given(
    st.permutations(list(range(5))),
    st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), min_size=1, max_size=3),
)
@settings(max_examples=60)
def test_trace_refuses_noninvariant_span_on_both_fields(g, rows):
    """The checked trace raises on F_p exactly when it raises on Q (entries are
    tiny, so membership agrees between the fields)."""
    g = tuple(g)
    spaces = [RationalRowSpace(5), FpRowSpace(5, 1000003), FpRowSpace(5, INT64_PRIME)]
    refused = []
    for rs in spaces:
        for row in rows:
            rs.insert(row)
        try:
            rs.trace_under_permutation(g)
            refused.append(False)
        except ExactLAError:
            refused.append(True)
    assert refused[0] == refused[1] == refused[2]


class _ReducedRowSpace:
    """Reference Q row space that keeps a fully reduced basis on every insert:
    each new row is back-substituted into every old row at its pivot."""

    def __init__(self, ambient):
        self.ambient = ambient
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def copy(self):
        dup = _ReducedRowSpace(self.ambient)
        dup.rows = [row[:] for row in self.rows]
        dup.pivots = list(self.pivots)
        return dup

    def _reduce(self, v):
        for row, j in zip(self.rows, self.pivots):
            if v[j]:
                v = [row[j] * x - v[j] * y for x, y in zip(v, row)]
        return v

    @staticmethod
    def _primitive(v):
        g = math.gcd(*v)
        return [x // g for x in v] if g > 1 else v

    def insert(self, vec):
        v = self._reduce(list(vec))
        j = next((k for k, x in enumerate(v) if x), None)
        if j is None:
            return False
        v = self._primitive([-x for x in v] if v[j] < 0 else v)
        for i, row in enumerate(self.rows):
            if row[j]:
                self.rows[i] = self._primitive([v[j] * x - row[j] * y for x, y in zip(row, v)])
        self.rows.append(v)
        self.pivots.append(j)
        return True

    def insert_block(self, vecs):
        taken = []
        for i, vec in enumerate(vecs):
            if self.rank == self.ambient:
                break
            if self.insert(vec):
                taken.append(i)
        return taken

    def contains(self, vec):
        return not any(self._reduce(list(vec)))

    def trace_under_permutation(self, perm):
        for row in self.rows:
            if not self.contains(apply_point_permutation(row, perm)):
                raise ExactLAError("subspace is not invariant under the permutation")
        return self.pivot_trace(perm)

    def pivot_trace(self, perm):
        inverse = _inv(perm)
        return sum((Fraction(row[inverse[j]], row[j]) for row, j in zip(self.rows, self.pivots)), Fraction(0))


class _ReducedFpRowSpace(_ReducedRowSpace):
    """Reference F_p row space that keeps a fully reduced, pivot-normalized
    basis on every insert: each new row is back-substituted into every old
    row at its pivot, one row operation (single products below p^2) at a time."""

    def __init__(self, ambient, p):
        super().__init__(ambient)
        self.p = p

    def copy(self):
        dup = _ReducedFpRowSpace(self.ambient, self.p)
        dup.rows = [row.copy() for row in self.rows]
        dup.pivots = list(self.pivots)
        return dup

    def _reduce(self, vec):
        v = np.asarray(vec, dtype=np.int64) % self.p
        for row, j in zip(self.rows, self.pivots):
            v = (v - v[j] * row) % self.p
        return v

    def insert(self, vec):
        v = self._reduce(vec)
        nz = np.flatnonzero(v)
        if not nz.size:
            return False
        j = int(nz[0])
        v = v * pow(int(v[j]), -1, self.p) % self.p
        self.rows = [(row - row[j] * v) % self.p for row in self.rows] + [v]
        self.pivots.append(j)
        return True


def _reference_space(p, ambient):
    return _ReducedRowSpace(ambient) if p is None else _ReducedFpRowSpace(ambient, p)


def _rows(space):
    """The fully reduced basis of a row space as lists of ints."""
    rows = space._basis if isinstance(space, FpRowSpace) else space.rows
    return [[int(x) for x in row] for row in rows]


def _same_span(space, reference):
    assert space.rank == reference.rank
    assert _rows(space) == _rows(reference)
    assert space.pivots == reference.pivots


@st.composite
def _reference_cases(draw):
    """(p, ambient, rows, reads, cut, extra): rows as in `_block_cases`;
    reads marks where the reduced basis is read between inserts, cut where a
    copy is taken, and extra a vector inserted into the copy and then into
    the original."""
    p, ambient, rows = draw(_block_cases())[:3]
    reads = draw(st.sets(st.integers(0, len(rows))))
    cut = draw(st.integers(0, len(rows)))
    entry = st.integers(-3, 3) if p is None else st.integers(-2, 2) | st.integers(0, p - 1)
    extra = draw(st.lists(entry, min_size=ambient, max_size=ambient))
    return p, ambient, rows, reads, cut, extra


@given(_reference_cases(), st.lists(st.lists(st.integers(-3, 3), min_size=48, max_size=48), max_size=4))
@example((None, 40, _SPREAD, {0, 10, 50}, 30, [1] * 40), [[1] * 48])
@example((1000003, 40, _SPREAD, {0, 10, 50}, 30, [1] * 40), [[1] * 48])
@example((INT64_PRIME, 13, _UNIT_MIX13, {0, 5, 30}, 20, [1] * 13), [[1] * 48])
@settings(max_examples=150, deadline=None)
def test_row_space_matches_fully_reduced_reference(case, probes):
    """Old rows never rewritten, over Q and over F_p (float64 and int64
    products): same accepted indices from `insert` and `insert_block`, the
    same `contains`, and the same reduced basis and `pivots`, read at any
    point between inserts, on a copy taken midway, on that copy after it
    diverges and on the original after it grows past the copy."""
    p, ambient, rows, reads, cut, extra = case
    probes = [v[:ambient] for v in probes]
    space, reference = _new_space(p, ambient), _reference_space(p, ambient)
    for i, row in enumerate(rows):
        if i in reads:
            _same_span(space, reference)
        if i == cut:
            copy, reference_copy = space.copy(), reference.copy()
        assert space.insert(row) == reference.insert(row)
    if cut == len(rows):
        copy, reference_copy = space.copy(), reference.copy()
    _same_span(space, reference)
    for probe in probes + rows[-3:]:
        assert space.contains(probe) == reference.contains(probe)
    _same_span(copy, reference_copy)
    assert copy.insert(extra) == reference_copy.insert(extra)
    _same_span(copy, reference_copy)
    _same_span(space, reference)
    block = _new_space(p, ambient)
    taken = block.insert_block(rows[:cut]) + [cut + i for i in block.insert_block(rows[cut:])]
    assert taken == _reference_space(p, ambient).insert_block(rows)
    _same_span(block, reference)
    assert space.insert(extra) == reference.insert(extra)
    _same_span(space, reference)
    _same_span(copy, reference_copy)


@given(
    _block_cases(),
    st.lists(st.lists(st.integers(-3, 3), min_size=48, max_size=48), max_size=6),
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
)
@example((None, 40, _SPREAD, 60), [[1] * 48], [1, -2, 1])
@example((1000003, 40, _SPREAD, 60), [[1] * 48], [1, -2, 1])
@example((INT64_PRIME, 13, _UNIT_MIX13, 30), [[1] * 48], [2, 0, -1])
@settings(max_examples=150, deadline=None)
def test_contains_block_matches_reference(case, probes, coeffs):
    """`contains_block` gives, vector by vector, the verdict of the fully
    reduced reference's `contains`, and so does `contains`, over Q and over
    F_p (float64 and int64 products): on members (the stored rows and a
    combination of three), on non-members and on an empty block."""
    p, ambient, rows, cut = case
    space, reference = _new_space(p, ambient), _reference_space(p, ambient)
    for row in rows[:cut]:
        space.insert(row)
        reference.insert(row)
    members = rows[:cut] + [
        [sum(c * x for c, x in zip(coeffs, column)) for column in zip(*rows[k : k + 3])]
        for k in range(max(0, cut - 2))
    ]
    block = members + [v[:ambient] for v in probes] + rows[cut:]
    expected = [reference.contains(v) for v in block]
    assert all(expected[: len(members)])
    assert space.contains_block(block) == expected
    assert [space.contains(v) for v in block] == expected
    assert space.contains_block([]) == []


@pytest.mark.parametrize("scale", [1, 2**31, 2**61, 2**62, 2**63 - 1, 2**63, 2**70])
def test_rational_contains_block_exact_past_int64(scale):
    """Rows and vectors with entries at and past the int64 range get the
    reference's verdicts."""
    rows = [[1, 0, 2, -1], [0, 1, -1, 3], [0, 0, scale, 1]]
    space, reference = RationalRowSpace(4), _ReducedRowSpace(4)
    for row in rows[:2]:
        space.insert(row)
        reference.insert(row)
    block = [
        [scale, 0, 2 * scale, -scale],  # a member
        [scale, -scale, 3 * scale, -4 * scale],  # a member
        [scale, -scale, 3 * scale, -4 * scale + 1],  # one off a member
        [-scale, scale, 0, 0],  # not a member
        [0, 0, 1, 0],
    ]
    assert space.contains_block(block) == [reference.contains(v) for v in block] == [
        True, True, False, False, False
    ]
    space.insert(rows[2])
    reference.insert(rows[2])
    block.append([0, 0, scale, 1])
    assert space.contains_block(block) == [reference.contains(v) for v in block]


@given(
    st.permutations(list(range(6))),
    st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6), max_size=2),
)
@settings(max_examples=80, deadline=None)
def test_rational_traces_match_fully_reduced_reference(g, seeds, noise):
    """On invariant spans the pivot trace and the checked trace equal the
    reference's, also after further rows are inserted into a read span; on
    spans that need not be invariant both refuse or both agree."""
    g = tuple(g)
    space = _orbit_span(RationalRowSpace(6), seeds[:1], g)
    reference = _orbit_span(_ReducedRowSpace(6), seeds[:1], g)
    assert space.pivot_trace(g) == reference.pivot_trace(g)
    space, reference = _orbit_span(space, seeds[1:], g), _orbit_span(reference, seeds[1:], g)
    assert space.trace_under_permutation(g) == reference.trace_under_permutation(g)
    assert space.pivot_trace(g) == reference.pivot_trace(g)
    _same_span(space, reference)
    for row in noise:
        space.insert(row)
        reference.insert(row)
    try:
        expected = reference.trace_under_permutation(g)
    except ExactLAError:
        with pytest.raises(ExactLAError):
            space.trace_under_permutation(g)
    else:
        assert space.trace_under_permutation(g) == expected


def test_filtration_snapshots_match_fully_reduced_reference(corpus, monkeypatch, fp_engines):
    """Every degree's span of the filtrations on the corpus loci, over Q and
    over F_p (both engines; float64 and int64 products on numpy), has the
    reduced basis and pivots of a filtration whose row space is fully
    reduced on every insert; one locus reads its degrees from the top down.
    The loci that need characteristic zero run over Q only, and the int64
    prime only on loci small enough for its products."""
    loci = {}
    for name, M in corpus.items():
        loci[f"{name}-covectors"] = covector_locus(M)
        if topes(M):
            loci[f"{name}-topes"] = tope_locus(M)
    loci["kostant4"] = kostant_locus(4)
    loci["permutohedral4"] = permutohedral_locus(4)
    loci["permmatrix4"] = permmatrix_locus(4)
    for field in (QQ, GF, PrimeField(INT64_PRIME)):
        runs = {
            name: locus
            for name, locus in loci.items()
            if not (field.characteristic and locus.requires_char_zero)
            and len(locus) * (field.characteristic - 1) ** 2 < 2**63
        }
        for engine in fp_engines() if field.characteristic else ["rational"]:
            built = {name: EvaluationFiltration(locus, field).build() for name, locus in runs.items()}
            with monkeypatch.context() as patch:
                reduced_fp = lambda self, ambient: _ReducedFpRowSpace(ambient, self.p)  # noqa: E731
                patch.setattr(RationalField, "rowspace", lambda self, ambient: _ReducedRowSpace(ambient))
                patch.setattr(PrimeField, "rowspace", reduced_fp)
                patch.setattr(exactla._SmallPrimeField, "rowspace", reduced_fp)
                for name, locus in runs.items():
                    reference = EvaluationFiltration(locus, field).build()
                    filt = built[name]
                    assert isinstance(filt.space, FpRowSpace) == (engine == "numpy"), (field, engine)
                    assert filt._standard == reference._standard, (field, engine, name)
                    assert len(filt.snapshots) == len(reference.snapshots), (field, engine, name)
                    order = range(len(filt.snapshots))
                    for d in reversed(order) if name == "braid4-covectors" else order:
                        _same_span(filt.snapshots[d], reference.snapshots[d])


@pytest.mark.parametrize("field", [QQ, GF], ids=["rational", "fp"])
def test_filtration_snapshots_share_rows_and_build_no_reduced_basis(braid4, field, monkeypatch, fp_engines):
    """A Hilbert series reads ranks only.  Over Q, and over F_p on the exact
    engine, no reduced basis is built past rank 0, and each degree's
    snapshot reads the growing space's stored rows, not a copy of them.  On
    the numpy engine no `_basis` is scattered from the free columns, the
    last snapshot shares the space's arrays, and later inserts write into no
    array an earlier snapshot holds."""
    for engine in fp_engines() if field is GF else ["rational"]:
        filt = EvaluationFiltration(covector_locus(braid4), field)
        if engine == "numpy":
            monkeypatch.setattr(FpRowSpace, "_rows", None)  # building `_basis` would raise
            held = []
            while not filt.complete:
                held.append([a.copy() for a in _fp_state(filt.snapshots[-1])])
                filt.advance_degree()
        assert filt.hilbert().coeffs == (1, 12, 36, 26)
        space = filt.space
        if engine == "numpy":
            assert len(held) == len(filt.snapshots) - 1
            assert all(a is b for a, b in zip(_fp_state(filt.snapshots[-1]), _fp_state(space)))
            for d, snapshot in enumerate(filt.snapshots):
                assert snapshot.rank == sum(filt.coeffs[: d + 1])
                if d < len(held):
                    assert all(np.array_equal(a, b) for a, b in zip(_fp_state(snapshot), held[d]))
            continue
        assert type(space) is (SmallFpRowSpace if field is GF else RationalRowSpace)
        assert list(space._reduced) == [0]
        for d, snapshot in enumerate(filt.snapshots):
            assert snapshot.rank == sum(filt.coeffs[: d + 1])
            assert snapshot._reduced is space._reduced
            assert all(snapshot._stored[k] is space._stored[k] for k in range(snapshot.rank))


def _fp_state(space):
    """The arrays an F_p row space holds."""
    return space._pivots, space._free, space._R


def _checked_trace(space, perm):
    try:
        return space.trace_under_permutation(perm)
    except ExactLAError:
        return None


@given(_block_cases(primes=(1000003, INT64_PRIME)), st.data())
@example((1000003, 40, _SPREAD, 0), None)
@example((INT64_PRIME, 13, _UNIT_MIX13, 0), None)
@settings(max_examples=100, deadline=None)
def test_fp_copies_keep_their_own_span(case, data):
    """Copies taken between `insert_block` calls over F_p (float64 and int64
    products) keep their span while the original grows, while a copy of one
    of them grows, and after the original grows further: each one's pivots,
    `_basis`, `contains_block` verdicts, pivot trace and checked trace equal
    those of a fresh space given the same rows, with the basis updated and
    the invariance checked in slices of any size."""
    p, ambient, rows, _ = case
    if data is None:  # an explicit example: copies after every 10 rows, slices of 2 rows
        cuts, chunk, perm = list(range(0, len(rows), 10)), 2, list(range(1, ambient)) + [0]
        extra = [[1] * ambient]
    else:
        cuts = data.draw(st.lists(st.integers(0, len(rows)), max_size=5))
        chunk = data.draw(st.sampled_from([2, 256]))
        perm = data.draw(st.permutations(range(ambient)))
        entry = st.integers(-2, 2) | st.integers(0, p - 1)
        extra = data.draw(st.lists(st.lists(entry, min_size=ambient, max_size=ambient), max_size=4))
    cuts = sorted(set(cuts) | {0, len(rows)})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactla, "_CHUNK_ROWS", chunk)
        space, spans = FpRowSpace(ambient, p), []
        for lo, hi in zip(cuts, cuts[1:]):
            spans.append((space.copy(), rows[:lo]))
            space.insert_block(rows[lo:hi])
        spans.append((space.copy(), rows))
        middle, prefix = spans[len(spans) // 2]
        diverged = middle.copy()
        diverged.insert_block(extra)
        space.insert_block(extra)
        spans += [(diverged, prefix + extra), (space, rows + extra)]
        probes = rows + extra + [apply_point_permutation(v, perm) for v in rows[:5]]
        for copy, prefix in spans:
            fresh = FpRowSpace(ambient, p)
            for row in prefix:
                fresh.insert(row)
            assert copy.rank == fresh.rank
            assert copy.pivots == fresh.pivots
            assert copy._basis.tolist() == fresh._basis.tolist()
            assert copy.contains_block(probes) == fresh.contains_block(probes)
            assert copy.pivot_trace(perm) == fresh.pivot_trace(perm)
            assert _checked_trace(copy, perm) == _checked_trace(fresh, perm)


@given(_block_cases(primes=(1000003, INT64_PRIME)), st.data())
@example((1000003, 40, _SPREAD, 20), None)
@example((INT64_PRIME, 13, _UNIT_MIX13, 30), None)
@settings(max_examples=100, deadline=None)
def test_fp_row_spaces_agree(case, data):
    """Fed the same integral blocks, the numpy row space and the exact one
    accept the same indices and agree on the pivots, the fully reduced
    basis, `contains_block`, expansion coefficients, the pivot trace and the
    checked trace, which both refuse on a span the permutation does not keep."""
    p, ambient, rows, cut = case
    if data is None:  # an explicit example: a rotation, and the rows it moves
        perm = list(range(1, ambient)) + [0]
    else:
        perm = data.draw(st.permutations(range(ambient)))
    numpy_space, exact_space = FpRowSpace(ambient, p), SmallFpRowSpace(ambient, p)
    for lo, hi in ((0, cut), (cut, len(rows))):
        taken = numpy_space.insert_block(rows[lo:hi])
        assert exact_space.insert_block(rows[lo:hi]) == taken
        assert exact_space.pivots == numpy_space.pivots
        assert exact_space.rows == numpy_space._basis.tolist()
    probes = rows + [apply_point_permutation(v, perm) for v in rows[:5]] + [[1] * ambient]
    assert exact_space.contains_block(probes) == numpy_space.contains_block(probes)
    for v in probes[:8]:
        assert exact_space.expansion_coefficients(v) == numpy_space.expansion_coefficients(v)
    assert exact_space.pivot_trace(perm) == numpy_space.pivot_trace(perm)
    assert _checked_trace(exact_space, perm) == _checked_trace(numpy_space, perm)


def test_prime_field_chooses_its_engine_from_the_point_count():
    """From `_NUMPY_POINTS` points on the prime field is itself; below, it is
    a RationalField with the same name, p and characteristic whose row space
    is exact.  Both sides refuse the same primes with the same message."""
    n = exactla._NUMPY_POINTS
    assert GF.for_points(n) is GF and GF.for_points(10**6) is GF
    assert QQ.for_points(1) is QQ and QQ.for_points(n) is QQ
    for points in (1, n - 1):
        small = GF.for_points(points)
        assert isinstance(small, RationalField)
        assert (small.name, small.p, small.characteristic) == (GF.name, GF.p, GF.characteristic)
        assert type(small.rowspace(3)) is SmallFpRowSpace
        assert small.of(Fraction(1, 2)) == GF.of(Fraction(1, 2)) and small.of(-1) == GF.p - 1
        assert small.is_zero((GF.p, 0, -2 * GF.p)) and not small.is_zero((GF.p + 1, 0))
        assert small.for_points(points) is small
    top = PrimeField(INT64_PRIME)  # 13 * (p - 1)^2 < 2^63 <= 14 * (p - 1)^2
    assert top.for_points(13).p == INT64_PRIME
    with pytest.MonkeyPatch.context() as patch:
        for threshold in (0, 100):  # refused on the numpy side, and on the exact side
            patch.setattr(exactla, "_NUMPY_POINTS", threshold)
            with pytest.raises(ExactLAError) as refused:
                top.for_points(14)
            with pytest.raises(ExactLAError) as direct:
                FpRowSpace(14, INT64_PRIME)
            assert str(refused.value) == str(direct.value)


# ---------------------------------------------------------------------------
# residues stored as uint32 at large primes: p = 2^31 - 1, which two points
# admit, and past 2^31, which only one point admits, up to the largest prime
# with (p - 1)^2 < 2^63


P_TWO_POINT_EDGE = 2**31 - 1
P_ONE_POINT_EDGE = 2147483659  # the least prime above 2^31
P_ONE_POINT_TOP = 3037000493


def _python_echelon(rows, p):
    """(taken, basis, pivots) of greedy insertion mod p in Python ints, the
    basis fully reduced with pivot entries 1, rows in acceptance order."""
    taken, basis, pivots = [], [], []
    for k, row in enumerate(rows):
        v = [x % p for x in row]
        for b, j in zip(basis, pivots):
            v = [(x - v[j] * y) % p for x, y in zip(v, b)]
        j = next((i for i, x in enumerate(v) if x), None)
        if j is None:
            continue
        inv = pow(v[j], -1, p)
        v = [x * inv % p for x in v]
        basis = [[(x - b[j] * y) % p for x, y in zip(b, v)] for b in basis]
        taken.append(k)
        basis.append(v)
        pivots.append(j)
    return taken, basis, pivots


def _python_trace(basis, pivots, perm, p):
    """The trace of j -> perm[j] on the span mod p, or None when it is not invariant."""
    for row in basis:
        moved = apply_point_permutation(row, perm)
        for b, j in zip(basis, pivots):
            moved = [(x - moved[j] * y) % p for x, y in zip(moved, b)]
        if any(moved):
            return None
    inverse = _inv(perm)
    return sum(row[inverse[j]] for row, j in zip(basis, pivots)) % p


@pytest.mark.parametrize(
    "p, ambient", [(P_TWO_POINT_EDGE, 2), (P_ONE_POINT_EDGE, 1), (P_ONE_POINT_TOP, 1)]
)
def test_residues_at_the_type_edge_match_python_ints(p, ambient):
    field = PrimeField(p)
    top = [p - 1, p - 2, (p - 1) // 2, 1, 0]
    vectors = [list(t) for t in itertools.product(top, repeat=ambient)]
    for u in vectors:
        for w in vectors:
            got = field.product(field.vector(u), field.vector(w))
            assert got.dtype == np.uint32
            assert got.tolist() == [x * y % p for x, y in zip(u, w)]
    terms = [(p - 1, vectors[0]), (-1, vectors[1]), (Fraction(1, 3), vectors[2])]
    terms.append((p - 2, vectors[0]))
    got = field.combination(((c, field.vector(v)) for c, v in terms), ambient)
    assert got.dtype == np.uint32
    assert got.tolist() == [
        sum(field.of(c) * v[k] for c, v in terms) % p for k in range(ambient)
    ]
    assert not FpRowSpace(ambient, p)._float_ok  # the int64 product branch
    for first in range(len(vectors)):
        rows = vectors[first:] + vectors[:first]
        for cut in (1, len(rows) // 2):
            space = FpRowSpace(ambient, p)
            taken = space.insert_block(rows[:cut])
            taken += [cut + i for i in space.insert_block(rows[cut:])]
            assert taken == _python_echelon(rows, p)[0]
            assert space._basis.dtype == np.uint32
            assert space._basis.tolist() == _python_echelon(rows, p)[1]
            assert space._R.dtype == np.uint32
        # a span of one vector: contains and the traces, checked or refused
        line = FpRowSpace(ambient, p)
        line.insert(rows[0])
        _, basis, pivots = _python_echelon(rows[:1], p)
        for v in vectors:
            assert line.contains(v) == (len(_python_echelon([rows[0], v], p)[0]) == len(basis))
        for perm in itertools.permutations(range(ambient)):
            expected = _python_trace(basis, pivots, perm, p)
            if expected is None:
                with pytest.raises(ExactLAError):
                    line.trace_under_permutation(perm)
            else:
                assert line.trace_under_permutation(perm) == expected


def test_residues_are_stored_in_32_bits(braid3, fp_engines):
    """On the numpy engine vectors, cached columns, stored bases and reduced
    bases are uint32: the arrays a filtration keeps take half the bytes of
    int64.  On the exact engine cached columns are tuples of ints and the
    stored and reduced rows hold residues, each below p < 2^32."""
    assert GF.vector([1, -1, 2]).dtype == np.uint32
    for engine in fp_engines():
        filt = EvaluationFiltration(covector_locus(braid3), GF).build()
        if engine == "numpy":
            assert all(column.dtype == np.uint32 for column in filt._columns.values())
            assert all(snapshot._R.dtype == np.uint32 for snapshot in filt.snapshots)
            assert all(snapshot._basis.dtype == np.uint32 for snapshot in filt.snapshots)
            continue
        assert type(filt.space) is SmallFpRowSpace
        for column in filt._columns.values():
            assert type(column) is tuple and all(type(x) is int for x in column)
        for snapshot in filt.snapshots:
            rows = snapshot._stored[: snapshot.rank] + snapshot.rows
            assert all(type(x) is int and 0 <= x < GF.p for row in rows for x in row)
