import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from covg import (
    COM,
    GroundSet,
    Polynomial,
    PrimeField,
    QQ,
    SignedVector,
    braid_com,
    contract,
    covector_ideal_generators,
    covector_locus,
    fixture,
    gr_membership,
    hilbert_from_nbc,
    hilbert_series,
    kostant_locus,
    nbc_basis,
    permmatrix_locus,
    permutohedral_locus,
    tope_ideal_generators,
    tope_locus,
    topes,
    verify_basis,
    verify_covector_presentation,
    z_ideal_generators,
)
from covg import harmonics, permstats
from covg.exactla import ExactLAError, FpRowSpace, RationalRowSpace, elementary_symmetric
from covg.com import flats_of
from covg.matroidal import (
    MatroidalError,
    basic_sets,
    circuits,
    codim,
    minimal_nonbasic_sets,
    mixing_subsets,
    nbc_sets,
)
from covg.harmonics import (
    EmptyLocusError,
    EvaluationFiltration,
    HarmonicsError,
    HilbertSeries,
    PointLocus,
    braid_tope_series_report,
    symmetric_circuit_generator,
)

sv = SignedVector.from_string
GF = PrimeField(1000003)


# ---------------------------------------------------------------------------
# loci


def test_tope_locus_figure1_rows(figure1):
    locus = tope_locus(figure1)
    assert locus.variables == ("y1+", "y1-", "y2+", "y2-", "y3+", "y3-", "y4+", "y4-")
    rows = {tuple(int(c) for c in p) for p in locus.points}
    assert (1, 0, 1, 0, 1, 0, 1, 0) in rows  # the all-plus tope
    assert len(rows) == 6


def test_covector_locus_marked_face(figure1):
    locus = covector_locus(figure1)
    k = locus.labels.index("0+-+")
    assert tuple(int(c) for c in locus.points[k]) == (0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0)


def test_tope_locus_braid3_rows(braid3):
    locus = tope_locus(braid3)
    rows = {tuple(int(c) for c in p) for p in locus.points}
    assert (1, 0, 1, 0, 1, 0) in rows  # chamber of the identity ordering
    assert len(rows) == 6


def test_covector_locus_braid3_single_block(braid3):
    locus = covector_locus(braid3)
    k = locus.labels.index("000")
    assert tuple(int(c) for c in locus.points[k]) == (0, 0, 1, 0, 0, 1, 0, 0, 1)


def test_empty_locus_raises():
    M = COM(GroundSet(("a", "b")), [sv("0+"), sv("0-"), sv("00")])
    locus = tope_locus(M)
    assert len(locus) == 0
    with pytest.raises(EmptyLocusError):
        hilbert_series(locus)


def test_point_locus_validation():
    data = {"variables": ["x"], "points": [{"label": "a", "coords": [1]}, {"label": "b", "coords": ["1"]}]}
    with pytest.raises(HarmonicsError, match="locus points must be distinct"):
        PointLocus.from_json_dict(data)


def test_point_locus_json_roundtrip(figure1):
    locus = covector_locus(figure1)
    again = PointLocus.from_json_dict(locus.to_json_dict())
    assert again.points == locus.points
    assert again.labels == locus.labels


def test_point_locus_reads_exact_json_numbers():
    from covg import jsonio

    data = jsonio.loads('{"variables": ["u", "v"], "points": ['
                        '{"label": "a", "coords": [1, "-1/2"]}, {"label": "b", "coords": ["4/2", 0]}]}')
    locus = PointLocus.from_json_dict(data)
    assert locus.points == ((1, Fraction(-1, 2)), (2, 0))
    assert type(locus.points[1][0]) is int
    assert hilbert_series(locus).coeffs == (1, 1)


@pytest.mark.parametrize("bad", ["0.1", "true", "1.0"])
def test_point_locus_refuses_inexact_json_numbers(bad):
    from covg import jsonio

    data = jsonio.loads('{"variables": ["u"], "points": [{"label": "a", "coords": [%s]}]}' % bad)
    with pytest.raises(TypeError):
        PointLocus.from_json_dict(data)


def test_point_locus_refuses_coordinates_that_are_not_a_list():
    data = {"variables": ["u", "v"], "points": [{"label": "a", "coords": "12"}]}
    with pytest.raises(HarmonicsError):
        PointLocus.from_json_dict(data)


def test_locus_builders_yield_int_coordinates(braid3, figure1):
    loci = [
        tope_locus(braid3),
        covector_locus(figure1),
        kostant_locus(3),
        permutohedral_locus(3),
        permmatrix_locus(3),
    ]
    for locus in loci:
        assert all(type(c) is int for p in locus.points for c in p), locus.variables


def test_rational_evaluation_vectors_are_ints(braid3):
    locus = covector_locus(braid3)
    filt = EvaluationFiltration(locus, QQ)
    gens = covector_ideal_generators(braid3)
    vectors = [filt.evaluate(g) for g in gens] + [filt.evaluate(Polynomial.one(locus.variables))]
    filt.build()
    vectors += list(filt._columns.values())
    assert all(type(x) is int for v in vectors for x in v)


# ---------------------------------------------------------------------------
# Hilbert series


def test_hilbert_braid2_small(braid2):
    assert hilbert_series(tope_locus(braid2)).coeffs == (1, 1)


def test_hilbert_braid3_big(braid3):
    assert hilbert_series(covector_locus(braid3)).coeffs == (1, 6, 6)


def test_hilbert_single_point():
    M = COM(GroundSet(("a",)), [sv("+")])
    assert hilbert_series(covector_locus(M)).coeffs == (1,)


def test_hilbert_fp_matches_rational(braid3, figure1):
    for M in (braid3, figure1):
        locus = covector_locus(M)
        assert hilbert_series(locus, GF).coeffs == hilbert_series(locus, QQ).coeffs


def test_hilbert_fp_requires_large_prime(braid3):
    with pytest.raises(HarmonicsError):
        hilbert_series(covector_locus(braid3), PrimeField(11))


def test_hilbert_fp_at_int64_bound(braid3):
    # 13 points: primes are accepted while 13 * (p - 1)^2 < 2^63, about p < 8.4e8
    locus = covector_locus(braid3)
    assert hilbert_series(locus, PrimeField(842312381)).coeffs == (1, 6, 6)
    with pytest.raises(ExactLAError):
        hilbert_series(locus, PrimeField(842312407))


def _sequential_filtration(locus, field):
    """Standard monomials, Hilbert coefficients and row space of the degree
    filtration built with one FpRowSpace.insert per glex-descending candidate."""
    n, n_vars, p = len(locus), len(locus.variables), field.p
    coords = np.array([[field.of(c) for c in pt] for pt in locus.points], dtype=np.int64)

    def column(exps):
        v = np.ones(n, dtype=np.int64)
        for k, e in enumerate(exps):
            for _ in range(e):
                v = v * coords[:, k] % p
        return v

    space = FpRowSpace(n, p)
    unit = (0,) * n_vars
    space.insert(column(unit))
    standard, coeffs = [[unit]], [1]
    while space.rank < n:
        children = {e[:i] + (e[i] + 1,) + e[i + 1 :] for e in standard[-1] for i in range(n_vars)}
        new = [e for e in sorted(children, reverse=True) if space.rank < n and space.insert(column(e))]
        standard.append(new)
        coeffs.append(len(new))
    return standard, coeffs, space


def test_block_filtration_matches_sequential_insert(braid4, fp_engines):
    """On both F_p engines the block-inserted filtration has the standard
    monomials, ranks, reduced basis and pivots of sequential inserts."""
    for engine in fp_engines():
        for locus in (permmatrix_locus(5), covector_locus(braid4)):
            filt = EvaluationFiltration(locus, GF).build()
            standard, coeffs, space = _sequential_filtration(locus, GF)
            assert filt._standard == standard, engine
            assert filt.coeffs == coeffs, engine
            basis = filt.space._basis.tolist() if engine == "numpy" else filt.space.rows
            assert basis == space._basis.tolist(), engine
            assert filt.space.pivots == space.pivots, engine


def _pointwise_column(locus, field, exps):
    return field.vector([math.prod(c**e for c, e in zip(pt, exps)) for pt in locus.points])


def _all_children_filtration(locus, field):
    """Standard monomials and Hilbert coefficients of the degree filtration
    built by offering every child x_i * s of every standard s, one insert at a
    time in glex-descending order, with columns evaluated point by point."""
    n, n_vars = len(locus), len(locus.variables)
    space = field.rowspace(n)
    unit = (0,) * n_vars
    space.insert(_pointwise_column(locus, field, unit))
    standard, coeffs = [[unit]], [1]
    while space.rank < n:
        children = {e[:i] + (e[i] + 1,) + e[i + 1 :] for e in standard[-1] for i in range(n_vars)}
        new = [
            e
            for e in sorted(children, reverse=True)
            if space.rank < n and space.insert(_pointwise_column(locus, field, e))
        ]
        standard.append(new)
        coeffs.append(len(new))
    return standard, coeffs


def _reference_border(standard, n_vars):
    """The border as it was first built: every child x_i * s of every standard
    s is counted, and a child is kept when its count equals its support size."""
    count = {}
    for exps in standard:
        for i in range(n_vars):
            child = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
            count[child] = count.get(child, 0) + 1
    return sorted((c for c, k in count.items() if k == len(c) - c.count(0)), reverse=True)


def _reference_loci(corpus):
    loci = {}
    for name, M in corpus.items():
        loci[f"{name}-covectors"] = covector_locus(M)
        if topes(M):
            loci[f"{name}-topes"] = tope_locus(M)
    for n in range(1, 6):
        loci[f"kostant{n}"] = kostant_locus(n)
        loci[f"permutohedral{n}"] = permutohedral_locus(n)
        loci[f"permmatrix{n}"] = permmatrix_locus(n)
    return loci


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "Fp"])
def test_border_candidates_match_all_children_reference(corpus, field, fp_engines):
    """Offering only the order-ideal border gives the standard sets and ranks
    of offering every child; each degree's border equals the count-based one,
    and every cached column is the pointwise evaluation, whichever divisor
    built it: over F_p its residues on the exact engine, the stored uint32
    entries themselves on numpy.  The Kostant and permutohedral loci are
    refused over F_p, so their F_p runs use an unflagged copy of the same
    points."""
    for engine in fp_engines() if field.characteristic else ["rational"]:
        for name, locus in _reference_loci(corpus).items():
            if field.characteristic:
                locus = PointLocus(locus.variables, locus.labels, locus.points)
            filt = EvaluationFiltration(locus, field).build()
            standard, coeffs = _all_children_filtration(locus, field)
            assert filt._standard == standard, (engine, name)
            assert filt.coeffs == coeffs, (engine, name)
            n_vars = len(locus.variables)
            for d in range(1, len(filt._standard)):
                below = filt._standard[d - 1]
                border = [c for c, _, _ in harmonics._border(below, n_vars)]
                assert border == _reference_border(below, n_vars), (engine, name, d)
            for exps, column in filt._columns.items():
                if engine == "exact":
                    column = [x % field.p for x in column]
                reference = list(_pointwise_column(locus, field, exps))
                assert list(column) == reference, (engine, name, exps)


def test_standard_monomials_form_an_order_ideal(corpus):
    for name, locus in _reference_loci(corpus).items():
        filt = EvaluationFiltration(locus).build()
        for d in range(1, len(filt._standard)):
            below = set(filt._standard[d - 1])
            for m in filt._standard[d]:
                for i, e in enumerate(m):
                    if e:
                        assert m[:i] + (e - 1,) + m[i + 1 :] in below, (name, m)


def test_row_space_is_offered_only_the_border(monkeypatch):
    """On the braid5 covector locus the border of degrees 3 and 4 is exactly
    the standard set, 250 and 150 vectors.  Offering every child (2480 and
    5641) hands the row space 1451 and 1024 vectors after the per-degree
    dedup and the stop at full rank."""
    offered = []
    insert_block = FpRowSpace.insert_block

    def counting(self, vecs):
        offered.append(len(vecs))
        return insert_block(self, vecs)

    monkeypatch.setattr(FpRowSpace, "insert_block", counting)
    filt = EvaluationFiltration(covector_locus(braid_com(5)), GF)
    per_degree = []
    while not filt.complete:
        offered.clear()
        filt.advance_degree()
        per_degree.append(sum(offered))
    assert filt.coeffs == [1, 20, 120, 250, 150]
    assert per_degree[2:] == [250, 150]


def test_zero_vectors_never_reach_the_row_space(monkeypatch):
    """Border products that vanish on every point are skipped before the row
    space: on `permutohedral_locus(4)` many degree-2 products do."""
    offered = []
    insert_block = RationalRowSpace.insert_block

    def recording(self, vecs):
        offered.extend(vecs)
        return insert_block(self, vecs)

    monkeypatch.setattr(RationalRowSpace, "insert_block", recording)
    filt = EvaluationFiltration(permutohedral_locus(4)).build()
    assert filt.coeffs == list(permstats.eulerian(4))
    assert offered and all(any(v) for v in offered)


def test_hilbert_fp_permmatrix6():
    assert hilbert_series(permmatrix_locus(6), GF).coeffs == (1, 25, 181, 381, 131, 1)


def test_hilbert_invariants(corpus):
    for M in corpus.values():
        locus = covector_locus(M)
        series = hilbert_series(locus)
        assert series.coeffs[0] == 1
        assert series.at_one() == len(M)
        assert len(series.coeffs) <= len(M)  # zero beyond the point-count degree
        if topes(M):
            small = hilbert_series(tope_locus(M))
            assert small.at_one() == len(topes(M))


def test_hilbert_series_str():
    assert str(HilbertSeries((1, 6, 6))) == "1 + 6q + 6q^2"
    assert str(HilbertSeries(())) == "0"


@given(
    st.lists(
        st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
        min_size=1,
        max_size=5,
        unique=True,
    )
)
@settings(max_examples=40, deadline=None)
def test_hilbert_engine_matches_naive_sympy_ranks(pts):
    """Independent oracle: enumerate every monomial up to each degree with no
    pruning and take matrix ranks with sympy's exact arithmetic."""
    import sympy
    from itertools import combinations_with_replacement

    locus = PointLocus(
        ("u", "v"),
        tuple(str(i) for i in range(len(pts))),
        tuple((Fraction(a), Fraction(b)) for a, b in pts),
    )
    series = hilbert_series(locus)

    n = len(pts)
    coeffs = []
    prev_rank = 0
    d = 0
    while prev_rank < n:
        rows = []
        for total in range(d + 1):
            for combo in combinations_with_replacement(range(2), total):
                e = [combo.count(0), combo.count(1)]
                rows.append([
                    sympy.Integer(a) ** e[0] * sympy.Integer(b) ** e[1] for a, b in pts
                ])
        rank = sympy.Matrix(rows).rank()
        coeffs.append(rank - prev_rank)
        prev_rank = rank
        d += 1
        assert d <= n
    assert series.coeffs == tuple(coeffs)


# ---------------------------------------------------------------------------
# evaluation through cached monomial columns


NONINTEGRAL_LOCUS = PointLocus(
    ("a", "b", "c"),
    ("p", "q", "r", "s"),
    (
        (Fraction(1, 2), Fraction(3), Fraction(-2, 3)),
        (Fraction(0), Fraction(1, 3), Fraction(5)),
        (Fraction(2), Fraction(-1), Fraction(1, 7)),
        (Fraction(7, 5), Fraction(0), Fraction(0)),
    ),
)
EVALUATION_LOCI = [
    covector_locus(braid_com(3)),
    covector_locus(fixture("figure1")),
    NONINTEGRAL_LOCUS,
]


def _reference_evaluation(locus, poly, field):
    """Per-point exact Polynomial.evaluate, read into the field."""
    return [field.of(poly.evaluate(pt)) for pt in locus.points]


@st.composite
def _locus_and_polynomials(draw):
    locus = draw(st.sampled_from(EVALUATION_LOCI))
    n = len(locus.variables)
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        max_size=6,
    )
    polys = [Polynomial(locus.variables, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]
    return locus, polys


@settings(max_examples=60, deadline=None)
@given(_locus_and_polynomials(), st.sampled_from([QQ, GF]))
def test_cached_evaluation_matches_pointwise_reference(fp_engines, case, field):
    """A polynomial's evaluation vector is its pointwise value: exactly over
    Q and on the numpy engine, and in its residues on the exact engine."""
    locus, polys = case
    for engine in fp_engines() if field.characteristic else ["rational"]:
        filt = EvaluationFiltration(locus, field)
        for stage in range(2):
            for poly in polys:
                reference = _reference_evaluation(locus, poly, field)
                vector = filt.evaluate(poly)
                if engine == "exact":
                    vector = [x % field.p for x in vector]
                assert list(vector) == reference, (engine, stage, str(poly))
            filt.build()  # the second pass reads columns shared with the standard monomials


# ---------------------------------------------------------------------------
# graded membership


def test_membership_constant_coordinate(figure1):
    locus = covector_locus(figure1)
    y4m = Polynomial.variable(locus.variables, "y4-")
    assert gr_membership(locus, y4m)  # vanishes identically: constant 0 agrees


def test_membership_sum_relation(figure1):
    locus = covector_locus(figure1)
    s = (
        Polynomial.variable(locus.variables, "y1+")
        + Polynomial.variable(locus.variables, "y1-")
        + Polynomial.variable(locus.variables, "z1")
    )
    assert gr_membership(locus, s)


def test_membership_rejected_for_mixed_values(figure1):
    locus = covector_locus(figure1)
    y1p = Polynomial.variable(locus.variables, "y1+")
    assert not gr_membership(locus, y1p)


def test_membership_requires_homogeneous(figure1):
    locus = covector_locus(figure1)
    y = Polynomial.variable(locus.variables, "y1+")
    with pytest.raises(HarmonicsError):
        gr_membership(locus, y + Polynomial.one(locus.variables))
    with pytest.raises(HarmonicsError):
        gr_membership(locus, Polynomial.one(locus.variables))


def top_degree_form(f):
    """The highest-degree homogeneous component of f."""
    d = f.degree()
    return Polynomial(f.vars, {e: c for e, c in f.terms.items() if sum(e) == d})


def test_membership_iff_top_form_of_vanishing_poly(figure1):
    """Both directions of the evaluation-span criterion on explicit witnesses."""
    locus = covector_locus(figure1)
    filt = EvaluationFiltration(locus, QQ)
    # direction 1: a member really is a top form: reconstruct the lower part
    g = (
        Polynomial.variable(locus.variables, "y1+")
        + Polynomial.variable(locus.variables, "y1-")
        + Polynomial.variable(locus.variables, "z1")
    )
    assert gr_membership(locus, g, QQ, filt)
    space = filt.space_upto(0)
    coeffs = space.expansion_coefficients(list(filt.evaluate(g)))
    assert coeffs is not None  # g agrees with a degree-0 polynomial on the locus
    h = Polynomial.constant(locus.variables, coeffs[0] / space.rows[0][0])
    f = g - h
    assert all(f.evaluate(p) == 0 for p in locus.points)  # f vanishes, tau(f) = g
    # direction 2: top forms of vanishing polynomials are members
    y = Polynomial.variable(locus.variables, "y2+")
    z = Polynomial.variable(locus.variables, "z2")
    f = y * y - y  # vanishes on 0/1 coordinates
    assert all(f.evaluate(p) == 0 for p in locus.points)
    assert gr_membership(locus, top_degree_form(f), QQ, filt)
    f2 = (y + z) * (y + z) - (y + z)
    assert all(f2.evaluate(p) == 0 for p in locus.points)
    assert gr_membership(locus, top_degree_form(f2), QQ, filt)


# ---------------------------------------------------------------------------
# ideal generators


def test_tope_ideal_braid2(braid2):
    gens = tope_ideal_generators(braid2)
    graded = {str(g) for g in gens["graded"]}
    assert graded == {"y12+^2", "y12+*y12-", "y12-^2", "y12+ + y12-"}


def test_tope_ideal_affine_vanishes(corpus):
    for M in corpus.values():
        if not topes(M):
            continue
        locus = tope_locus(M)
        for g in tope_ideal_generators(M)["affine"]:
            assert all(g.evaluate(p) == 0 for p in locus.points)


def test_tope_ideal_graded_membership(corpus):
    for M in corpus.values():
        if not topes(M):
            continue
        locus = tope_locus(M)
        filt = EvaluationFiltration(locus, QQ)
        for g in tope_ideal_generators(M)["graded"]:
            assert gr_membership(locus, g, QQ, filt), str(g)


def test_tope_ideal_includes_circuit_monomials(figure1):
    gens = {str(g) for g in tope_ideal_generators(figure1)["graded"]}
    assert "y4-" in gens  # the nonsymmetric circuit at element 4
    assert "y1+*y2-*y3-" in gens  # one of the symmetric pair on {1,2,3}


def test_symmetric_circuit_contributes_linear_form():
    # two coincident hyperplanes: the symmetric circuits (+,-) and (-,+) have
    # two-element support, so each contributes e_1 = a sum of two variables
    M = COM(GroundSet(("a", "b")), [sv("++"), sv("--"), sv("00")])
    gens = {str(g) for g in tope_ideal_generators(M)["graded"]}
    assert "ya+ + yb-" in gens
    assert "ya- + yb+" in gens


def test_z_ideal_figure1_display(figure1):
    gens = [str(g) for g in z_ideal_generators(figure1)]
    assert gens == [
        "z1*z2*z3",
        "z4",
        "z1*z2 - z1*z3",
        "z1*z2 - z2*z3",
        "z1*z3 - z2*z3",
    ]


def test_z_ideal_boolean_flats():
    # every subset is a flat: differences never occur, only nonbasic products
    M = COM(
        GroundSet(("a", "b")),
        [sv("++"), sv("--"), sv("00"), sv("0+"), sv("0-"), sv("+0"), sv("-0"), sv("+-"), sv("-+")],
    )
    gens = [str(g) for g in z_ideal_generators(M)]
    assert all(" - " not in g for g in gens)


def test_covector_ideal_examples(figure1):
    gens = {str(g) for g in covector_ideal_generators(figure1)}
    assert "z1*z2*y3+" in gens and "z1*z2*y3-" in gens  # flat {1,2,3}, basic {1,2}
    assert "y4-" in gens  # circuit of the contraction at the empty flat
    # the mixing subset is the smallest support element
    default = symmetric_circuit_generator(figure1, frozenset({1}), sv("+-0"), {0})
    assert default in set(covector_ideal_generators(figure1))


def test_covector_ideal_j_choice(figure1):
    F = frozenset({1})
    g = symmetric_circuit_generator(figure1, F, sv("+-0"), {1})
    assert str(g) == "y1+*z2 + z2*y3- + z2*z3"
    g2 = symmetric_circuit_generator(figure1, F, sv("+-0"), {0})
    assert str(g2) == "y1+*z2 + z1*z2 + z2*y3-"
    with pytest.raises(HarmonicsError):
        symmetric_circuit_generator(figure1, F, sv("+-0"), {0, 1})


def test_covector_ideal_membership(corpus):
    for name, M in corpus.items():
        locus = covector_locus(M)
        filt = EvaluationFiltration(locus, QQ)
        for g in covector_ideal_generators(M):
            assert gr_membership(locus, g, QQ, filt), (name, str(g))


# ---------------------------------------------------------------------------
# NBC bases and the structure report


def test_nbc_basis_braid2(braid2):
    bases = nbc_basis(braid2)
    degs = sorted(m.degree() for m in bases.covector)
    assert degs == [0, 1, 1]
    assert {str(m) for m in bases.covector} == {"1", "y12+", "z12"}


def test_nbc_basis_sizes(corpus):
    for M in corpus.values():
        bases = nbc_basis(M)
        assert len(bases.covector) == len(M)
        assert len(bases.tope) == len(topes(M))


def test_nbc_basis_stratum_degrees(corpus):
    from covg.matroidal import codim, nbc_sets

    for M in corpus.values():
        bases = nbc_basis(M)
        for F, monos in bases.covector_strata.items():
            MF = contract(M, F)
            sizes = sorted(len(N) for N in nbc_sets(MF))
            c = codim(M, F)
            assert sorted(m.degree() - c for m in monos) == sizes


def test_verify_basis(figure1):
    bases = nbc_basis(figure1)
    assert verify_basis(covector_locus(figure1), bases.covector)
    assert verify_basis(tope_locus(figure1), bases.tope)
    # duplicating a column must fail
    dup = bases.covector[:-1] + [bases.covector[0]]
    assert not verify_basis(covector_locus(figure1), dup)
    with pytest.raises(HarmonicsError):
        verify_basis(covector_locus(figure1), bases.covector[:-1])


def test_hilbert_from_nbc_matches_rank(corpus):
    for M in corpus.values():
        pair = hilbert_from_nbc(M)
        assert pair["covector"].coeffs == hilbert_series(covector_locus(M)).coeffs
        if topes(M):
            assert pair["tope"].coeffs == hilbert_series(tope_locus(M)).coeffs


def test_presentation_report(figure1, figure1_rect, braid3):
    for M in (figure1, figure1_rect, braid3):
        rep = verify_covector_presentation(M)
        assert rep["ok"]
        assert rep["membership"]["checked"] > 0
        assert rep["j_sweep"]["checked"] > 0


def test_hilbert_from_nbc_independent_of_order(corpus):
    # presentations fix the ground order; the NBC counts they rest on do not depend on it
    rng = random.Random(7)
    for name, M in corpus.items():
        expected = hilbert_from_nbc(M)
        n = M.ground.size
        for _ in range(3):
            order = list(range(n))
            rng.shuffle(order)
            position = {e: k for k, e in enumerate(order)}
            tope = HilbertSeries.from_degree_counts(len(N) for N in nbc_sets(M, order))
            degrees = []
            for F in flats_of(M):
                keep = [i for i in range(n) if i not in F]
                sub_order = sorted(range(len(keep)), key=lambda i: position[keep[i]])
                c = codim(M, F)
                degrees += [c + len(N) for N in nbc_sets(contract(M, F), sub_order)]
            assert tope == expected["tope"], (name, order)
            assert HilbertSeries.from_degree_counts(degrees) == expected["covector"], (name, order)


def test_nbc_paths_refuse_unequal_basic_sets():
    # the flat {a,b,c} is the closure of {a} and of {b,c}: its codimension is undefined
    M = COM(GroundSet(("a", "b", "c")), [sv(s) for s in ("+++", "+0+", "++0", "000", "---", "-0-", "--0")])
    assert sorted(map(sorted, basic_sets(M, frozenset({0, 1, 2})))) == [[0], [1, 2]]
    with pytest.raises(MatroidalError, match="unequal sizes"):
        hilbert_from_nbc(M)
    with pytest.raises(MatroidalError, match="unequal sizes"):
        nbc_basis(M)


def test_single_tope_series():
    M = COM(GroundSet(("a",)), [sv("+")])
    assert hilbert_from_nbc(M)["covector"].coeffs == (1,)


# ---------------------------------------------------------------------------
# permutation loci


def test_kostant_locus_points():
    locus = kostant_locus(3)
    assert len(locus) == 6
    assert set(locus.labels) == {"123", "132", "213", "231", "312", "321"}
    k = locus.labels.index("213")
    assert locus.points[k] == (Fraction(2), Fraction(1), Fraction(3))


def test_permutohedral_point_for_213():
    locus = permutohedral_locus(3)
    assert locus.variables == ("x1", "x2", "x3", "x12", "x13", "x23")
    k = locus.labels.index("213")
    assert tuple(int(c) for c in locus.points[k]) == (0, 1, 0, -2, 0, 0)


def test_permmatrix_locus_n2():
    locus = permmatrix_locus(2)
    rows = {tuple(int(c) for c in p) for p in locus.points}
    assert rows == {(1, 0, 0, 1), (0, 1, 1, 0)}


def test_loci_hilbert_series_match_statistics():
    assert hilbert_series(kostant_locus(3)).coeffs == tuple(permstats.mahonian(3))
    assert hilbert_series(permutohedral_locus(3)).coeffs == tuple(permstats.eulerian(3))
    assert hilbert_series(permmatrix_locus(3)).coeffs == tuple(permstats.lis_defect(3))


def test_char_zero_enforced_for_one_line_loci():
    with pytest.raises(HarmonicsError):
        hilbert_series(kostant_locus(3), GF)
    with pytest.raises(HarmonicsError):
        hilbert_series(permutohedral_locus(3), GF)


def test_locus_cap():
    with pytest.raises(HarmonicsError, match="permutation loci capped at n = 7"):
        kostant_locus(8)


def test_permstats_identities():
    for n in range(1, 6):
        assert permstats.distribution(n, permstats.cycle_count) == permstats.rising_factorial_coefficients(n)
        assert sum(permstats.mahonian(n)) == sum(permstats.eulerian(n))


def test_braid_tope_series_report():
    r = braid_tope_series_report(3)
    assert r["matches_cycle_defect"]
    assert not r["matches_rising_factorial"]
    assert r["computed"] == [1, 3, 2]


# ---------------------------------------------------------------------------
# factored generators against the Polynomial path
#
# The reference below is the Polynomial construction of the presentations that
# the factored generators replaced: each generator built as a product of
# Polynomials.  The factored generators must expand to exactly these
# polynomials (so every report string is the same) and evaluate to the
# vectors `EvaluationFiltration.evaluate` gives them.


def _ref_monomial(vars, indices):
    exps = [0] * len(vars)
    for k in indices:
        exps[k] += 1
    return Polynomial.monomial(vars, exps)


def _ref_frame(M, F, vars):
    zB = _ref_monomial(vars, [3 * e + 2 for e in harmonics.default_basic_set(M, F)])
    return zB, [e for e in range(M.ground.size) if e not in F]


def _ref_symmetric_term(vars, stride, keep, X, J):
    terms = []
    for i in sorted(X.support()):
        term = _ref_monomial(vars, [stride * keep[i] + (X[i] < 0)])
        terms.append(term + _ref_monomial(vars, [3 * keep[i] + 2]) if i in J else term)
    return elementary_symmetric(len(terms) - 1, terms)


def _ref_circuit_generators(vars, stride, keep, circs, mixed):
    monomials = [
        _ref_monomial(vars, [stride * keep[i] + (c.vector[i] < 0) for i in c.vector.support()])
        for c in circs
    ]
    symmetric = [
        _ref_symmetric_term(vars, stride, keep, c.vector, {min(c.vector.support())} if mixed else ())
        for c in circs
        if c.symmetric
    ]
    return monomials, symmetric


def _ref_tope_generators(M):
    vars = harmonics.small_variables(M.ground)
    n = M.ground.size
    one = Polynomial.one(vars)
    affine, graded = [], []
    for e in range(n):
        yp, ym = _ref_monomial(vars, [2 * e]), _ref_monomial(vars, [2 * e + 1])
        affine += [yp * ym, yp + ym - one]
        graded += [yp * yp, yp * ym, ym * ym, yp + ym]
    monomials, symmetric = _ref_circuit_generators(vars, 2, range(n), circuits(M), mixed=False)
    return {"affine": affine + monomials, "graded": graded + monomials + symmetric}


def _ref_z_generators(M):
    vars = harmonics.big_variables(M.ground)
    gens = [_ref_monomial(vars, [3 * e + 2 for e in C]) for C in minimal_nonbasic_sets(M)]
    for F in flats_of(M):
        zs = [_ref_monomial(vars, [3 * e + 2 for e in B]) for B in basic_sets(M, F)]
        gens += [a - b for k, a in enumerate(zs) for b in zs[k + 1 :]]
    return gens


def _ref_covector_generators(M):
    vars = harmonics.big_variables(M.ground)
    gens = _ref_z_generators(M)
    for e in range(M.ground.size):
        yp, ym, z = (_ref_monomial(vars, [3 * e + k]) for k in range(3))
        gens += [yp * yp, yp * ym, yp * z, ym * ym, ym * z, z * z, yp + ym + z]
    for F in flats_of(M):
        zB, keep = _ref_frame(M, F, vars)
        gens += [zB * _ref_monomial(vars, [3 * e + k]) for e in sorted(F) for k in (0, 1)]
        monomials, symmetric = _ref_circuit_generators(vars, 3, keep, circuits(contract(M, F)), True)
        gens += [zB * g for g in monomials + symmetric]
    return gens


@pytest.mark.parametrize("name", ["braid3", "braid4", "figure1"])
def test_factored_generators_expand_to_reference_polynomials(name, request):
    """Every generator list, and every J-sweep generator, is the Polynomial
    the reference builds, in the same order: report strings do not change."""
    M = request.getfixturevalue(name)
    vars = harmonics.big_variables(M.ground)
    assert covector_ideal_generators(M) == _ref_covector_generators(M)
    assert z_ideal_generators(M) == _ref_z_generators(M)
    assert tope_ideal_generators(M) == _ref_tope_generators(M)
    for F, X, J in mixing_subsets(M, harmonics._J_SWEEP_MAX_SUPPORT):
        zB, keep = _ref_frame(M, F, vars)
        expected = zB * _ref_symmetric_term(vars, 3, keep, X, J)
        assert symmetric_circuit_generator(M, F, X, J) == expected


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["Q", "Fp"])
@pytest.mark.parametrize("name", ["braid3", "braid4", "figure1"])
def test_factored_vectors_match_polynomial_evaluation(name, field, request):
    """The factored evaluation vector of every covector-ideal, J-sweep and
    tope generator equals `EvaluationFiltration.evaluate` of its Polynomial,
    and the factored degree of every homogeneous one equals its degree."""
    M = request.getfixturevalue(name)
    frames = harmonics._frames(M)
    sweep = [
        harmonics._symmetric(frames[F], 3, X, J)
        for F, X, J in mixing_subsets(M, harmonics._J_SWEEP_MAX_SUPPORT)
    ]
    tope = harmonics._tope_generators(M)
    for locus, graded, affine in (
        (covector_locus(M), harmonics._covector_generators(M, frames) + sweep, []),
        (tope_locus(M), tope["graded"], tope["affine"]),
    ):
        filt = EvaluationFiltration(locus, field)
        vector = harmonics._evaluator(filt)
        for g in graded + affine:
            poly = harmonics._polynomial(locus.variables, g)
            assert [int(x) for x in vector(g)] == [int(x) for x in filt.evaluate(poly)], str(poly)
            if g in graded:
                assert poly.is_homogeneous() and harmonics._degree(g) == poly.degree(), str(poly)


@pytest.mark.parametrize("chunk", [2, 256])
@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["Q", "Fp"])
def test_nonmembers_match_gr_membership_at_every_rank(field, chunk, monkeypatch):
    """On three points of a line, `_nonmembers` gives gr_membership's
    verdicts, in order, in chunks of any size: x is tested against the
    snapshot of rank 1, x^2 and x^2 + x^2 against that of rank 2 = n - 1,
    and none is a member; x^3 and x^4 meet the full-rank snapshot."""
    monkeypatch.setattr(harmonics, "_CHUNK_ROWS", chunk)
    locus = PointLocus(("x",), ("a", "b", "c"), ((0,), (1,), (2,)))
    filt = EvaluationFiltration(locus, field)
    gens = [harmonics._mono((0,) * d) for d in (1, 2, 3, 4)]
    gens.append(harmonics._sum((1, (0, 0)), (1, (0, 0))))
    polys = [harmonics._polynomial(locus.variables, g) for g in gens]
    expected = [i for i, g in enumerate(polys) if not gr_membership(locus, g, field, filt)]
    assert harmonics._nonmembers(filt, gens) == expected == [0, 1, 4]


def _lower_symmetric_degree(gen):
    mono, k, forms = gen
    return mono, k - 1, forms  # e_{s-2} in place of e_{s-1}


def _drop_zB(gen):
    _, k, forms = gen
    return (), k, forms


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["Q", "Fp"])
@pytest.mark.parametrize("mutate", [_lower_symmetric_degree, _drop_zB])
@pytest.mark.parametrize("name", ["braid3", "figure1"])
def test_mutated_symmetric_terms_fail_as_polynomials_do(name, mutate, field, request, monkeypatch, tmp_path):
    """With the symmetric terms mutated, the report's membership failures and
    J-sweep failures are those that testing each mutated Polynomial with
    gr_membership finds, in order, and `covg verify` exits nonzero."""
    from covg import cli

    M = request.getfixturevalue(name)
    symmetric = harmonics._symmetric
    monkeypatch.setattr(harmonics, "_symmetric", lambda *args: mutate(symmetric(*args)))
    report = verify_covector_presentation(M, field)
    locus = covector_locus(M)
    filt = EvaluationFiltration(locus, field)
    members = [str(g) for g in covector_ideal_generators(M) if not gr_membership(locus, g, field, filt)]
    sweep = [
        {"flat": sorted(F), "circuit": X.to_string(), "J": sorted(J)}
        for F, X, J in mixing_subsets(M, harmonics._J_SWEEP_MAX_SUPPORT)
        if not gr_membership(locus, symmetric_circuit_generator(M, F, X, J), field, filt)
    ]
    assert sweep, "the mutant must break some J-sweep generator"
    assert report["membership"]["failures"] == members
    assert report["j_sweep"]["failures"] == sweep
    assert not report["ok"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(M.to_json_dict()))
    argv = ["--field", field.name, "verify", str(path), "--what", "big-theorem"]
    assert cli.run(argv) == 1


@pytest.mark.parametrize("name", ["braid3", "braid4"])
def test_tope_presentation_tests_vectors_in_the_filtration_field(name, request, monkeypatch, tmp_path, fp_engines):
    """Over F_p the small-generators report tests each affine generator's
    vector with the filtration's field, on either engine, and equals the
    report over Q; an affine generator that does not vanish (y_1+) is named
    on both engines, and `covg verify --what small-generators` exits 1."""
    from covg import cli

    M = request.getfixturevalue(name)
    expected = harmonics.verify_tope_presentation(M, QQ)
    assert not expected["affine_nonvanishing"] and not expected["graded_nonmembers"]
    tope_generators = harmonics._tope_generators

    def with_bad_affine(M):
        gens = tope_generators(M)
        return {**gens, "affine": gens["affine"] + [harmonics._mono((0,))]}

    for engine in fp_engines():
        assert harmonics.verify_tope_presentation(M, GF) == expected, engine
        with monkeypatch.context() as patch:
            patch.setattr(harmonics, "_tope_generators", with_bad_affine)
            report = harmonics.verify_tope_presentation(M, GF)
            assert report["affine_nonvanishing"] == ["y12+"], engine
            path = tmp_path / f"{name}-{engine}.json"
            path.write_text(json.dumps(M.to_json_dict()))
            assert cli.run(["--field", GF.name, "verify", str(path), "--what", "small-generators"]) == 1
