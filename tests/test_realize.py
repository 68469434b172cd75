from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from covg import (
    COM,
    AffineForm,
    Arrangement,
    GroundSet,
    SignedVector,
    braid_arrangement,
    braid_com,
    enumerate_covectors,
    fixture,
    lp_strict_feasible,
    topes,
)
from covg import jsonio, realize
from covg.realize import (
    EmptyRegionError,
    LPResult,
    RealizeError,
    braid_covector,
    ordered_set_partitions,
    simplex_max,
)


def form(coeffs, const=0):
    return AffineForm(tuple(F(c) for c in coeffs), F(const))


FOUR_LINES = (
    form((1, 0)),          # x = 0
    form((3, -2)),         # 3x - 2y = 0
    form((0, 1)),          # y = 0
    form((4, 3), 15),      # 4x + 3y + 15 = 0
)
LABELS = ("1", "2", "3", "4")


def square(half):
    return (
        form((1, 0), half),
        form((-1, 0), half),
        form((0, 1), half),
        form((0, -1), half),
    )


def test_lp_explicit_witness():
    r = lp_strict_feasible([form((1, -1, 0)), form((1, 0, -1)), form((0, -1, 1))], [], 3)
    assert r.feasible
    x = r.witness
    assert x[0] - x[1] > 0 and x[0] - x[2] > 0 and x[2] - x[1] > 0


def test_lp_contradiction():
    assert not lp_strict_feasible([form((1,)), form((-1,))], [], 1).feasible


def test_lp_cyclic_contradiction():
    forms = [form((1, -1, 0)), form((0, 1, -1)), form((-1, 0, 1))]
    assert not lp_strict_feasible(forms, [], 3).feasible


def test_lp_with_equalities():
    r = lp_strict_feasible([form((1, 0))], [form((0, 1), -2)], 2)
    assert r.feasible
    assert r.witness[1] == 2 and r.witness[0] > 0
    r2 = lp_strict_feasible([form((1, 0), -1), form((-1, 0))], [], 2)  # x > 1 and x < 0
    assert not r2.feasible


def test_lp_inconsistent_equalities():
    r = lp_strict_feasible([], [form((1,), 0), form((1,), -1)], 1)
    assert not r.feasible


def test_lp_witness_is_exact():
    r = lp_strict_feasible([form((7, -3), F(1, 5))], [], 2)
    assert r.feasible
    assert 7 * r.witness[0] - 3 * r.witness[1] + F(1, 5) > 0


@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2)),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=50, deadline=None)
def test_lp_monotone_and_sound(rows):
    """Adding a constraint never flips infeasible to feasible, and a returned
    witness always satisfies every strict inequality exactly."""
    forms = [form((a, b), c) for a, b, c in rows]
    results = []
    for k in range(1, len(forms) + 1):
        r = lp_strict_feasible(forms[:k], [], 2)
        results.append(r.feasible)
        if r.feasible:
            assert all(f.evaluate(r.witness) > 0 for f in forms[:k])
    for earlier, later in zip(results, results[1:]):
        if later:
            assert earlier


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-3, 3)),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=40, deadline=None)
def test_lp_agrees_with_float_solver_on_decisive_instances(rows):
    """Cross-check against scipy's LP on the same slack formulation, counting
    only instances where the float optimum is far from zero."""
    from scipy.optimize import linprog

    forms = [form((a, b), c) for a, b, c in rows]
    exact = lp_strict_feasible(forms, [], 2).feasible
    # maximize t subject to a.x + c >= t, t <= 1; variables (x1, x2, t)
    a_ub = [[-a, -b, 1] for a, b, _ in rows] + [[0, 0, 1]]
    b_ub = [c for _, _, c in rows] + [1]
    res = linprog(
        [0, 0, -1], A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * 3, method="highs"
    )
    if res.status == 0 and abs(res.x[2]) > 1e-6:
        assert exact == (res.x[2] > 0)


# ---------------------------------------------------------------------------
# reference LP: the simplex on a Fraction tableau that the integer-pivot one
# replaced, kept as the oracle for its results


def _ref_pivot(T, basis, r, c):
    piv = T[r][c]
    row_r = T[r] = [x / piv if x else x for x in T[r]]
    support = [j for j, y in enumerate(row_r) if y]
    for i, row in enumerate(T):
        f = row[c]
        if i != r and f:
            for j in support:
                row[j] -= f * row_r[j]
    basis[r] = c


def _ref_optimize(T, basis, cost, ncols):
    m = len(T)
    while True:
        y = [(i, cost[v]) for i, v in enumerate(basis) if cost[v]]
        basic = set(basis)
        entering = None
        for j in range(ncols):
            if j in basic:
                continue
            if cost[j] - sum(yi * T[i][j] for i, yi in y) > 0:
                entering = j
                break
        if entering is None:
            return "optimal"
        leaving, best = None, None
        for i in range(m):
            a = T[i][entering]
            if a > 0:
                key = (T[i][-1] / a, basis[i])
                if best is None or key < best:
                    best, leaving = key, i
        if leaving is None:
            return "unbounded"
        _ref_pivot(T, basis, leaving, entering)


def _reference_simplex_max(A, b, c):
    """Two-phase Bland simplex over Fractions, artificial basis in phase 1."""
    m, n = len(A), len(c)
    A = [[F(v) for v in row] for row in A]
    b = [F(v) for v in b]
    c = [F(v) for v in c]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    T = [A[i] + [F(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    _ref_optimize(T, basis, [F(0)] * n + [F(-1)] * m, n + m)
    if sum(T[i][-1] for i in range(m) if basis[i] >= n) != 0:
        return "infeasible", None, None
    drop = []
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if T[i][j] != 0:
                    _ref_pivot(T, basis, i, j)
                    break
            else:
                drop.append(i)
    T = [row[:n] + [row[-1]] for i, row in enumerate(T) if i not in drop]
    basis = [v for i, v in enumerate(basis) if i not in drop]
    if _ref_optimize(T, basis, c, n) == "unbounded":
        return "unbounded", None, None
    x = [F(0)] * n
    for i, v in enumerate(basis):
        x[v] = T[i][-1]
    return "optimal", sum(ci * xi for ci, xi in zip(c, x)), x


def _reference_lp_strict_feasible(strict, equalities, d):
    """lp_strict_feasible's slack LP, rows in Fractions, on the reference simplex."""
    nvars = 2 * d + 2 + len(strict) + 1
    tp, tm = 2 * d, 2 * d + 1
    A, b = [], []
    for k, f in enumerate(list(strict) + list(equalities)):
        row = [F(0)] * nvars
        for i, a in enumerate(f.coeffs):
            row[i], row[d + i] = a, -a
        if k < len(strict):
            row[tp], row[tm], row[2 * d + 2 + k] = F(-1), F(1), F(-1)
        A.append(row)
        b.append(-f.const)
    row = [F(0)] * nvars
    row[tp], row[tm], row[-1] = F(1), F(-1), F(1)
    A.append(row)
    b.append(F(1))
    c = [F(0)] * nvars
    c[tp], c[tm] = F(1), F(-1)
    status, value, x = _reference_simplex_max(A, b, c)
    if status != "optimal" or value <= 0:
        return LPResult(False, None)
    return LPResult(True, tuple(x[i] - x[d + i] for i in range(d)))


_ENTRY = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def small_lps(draw):
    """A x = b, x >= 0 with 1-4 rows and 1-5 columns of int and Fraction
    entries.  b is drawn freely (negative entries and infeasible systems
    included) or as A x0 for a nonnegative x0 with zeros, which makes
    degenerate vertices; a row may repeat a multiple of an earlier one."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    A = [draw(st.lists(_ENTRY, min_size=n, max_size=n)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        k = draw(st.sampled_from((1, 2, F(-1, 2))))
        A[-1] = [k * v for v in A[0]]
    if draw(st.booleans()):
        b = draw(st.lists(_ENTRY, min_size=m, max_size=m))
    else:
        x0 = draw(st.lists(st.sampled_from((0, 0, 1, 2, F(1, 3))), min_size=n, max_size=n))
        b = [sum(a * v for a, v in zip(row, x0)) for row in A]
    c = draw(st.lists(_ENTRY, min_size=n, max_size=n))
    return A, b, c


@given(small_lps())
@example(([[1, 1]], [-1], [0, 0]))  # infeasible after the sign flip
@example(([[1, -1]], [1], [0, 1]))  # unbounded
@example(([[1, 1, 0], [2, 2, 0], [1, 0, 1]], [0, 0, 0], [1, 1, 1]))  # degenerate, redundant row
# c = 0, so x is where phase 1 ends: unit artificial costs on the rows scaled
# to integers would end elsewhere
@example(([[-1, F(-1, 3), F(3, 4)], [3, 2, 2]], [F(7, 18), F(23, 3)], [0, 0, 0]))
# a ratio-test tie that Bland's rule breaks by basic index, not by row
@example((
    [[0, 0, F(-3, 5), 4, 2, -1, 3], [0, 3, F(-2, 3), 3, 0, -2, -1], [3, 0, 2, 3, 0, 0, F(-5, 2)]],
    [F(1, 3), 0, 0],
    [-2, F(-5, 6), 0, 0, -2, 0, 0],
))
@settings(max_examples=300, deadline=None)
def test_simplex_matches_fraction_reference(lp):
    """The integer-pivot simplex gives the Fraction simplex's status, value
    and x on every LP, fractional rows included: scaling a row to integers
    and weighting its artificial by the inverse scale leaves Bland's pivots
    as they were.  An optimal x is a feasible point of value c.x."""
    A, b, c = lp
    got = simplex_max(A, b, c)
    assert got == _reference_simplex_max(A, b, c)
    status, value, x = got
    if status == "optimal":
        assert all(type(v) is F and v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(A, b))
        assert sum(ci * xi for ci, xi in zip(c, x)) == value


def _halfspace_arrangement(n):
    """The braid arrangement restricted to x_1 - x_n > 1."""
    braid = braid_arrangement(n)
    coeffs = (1,) + (0,) * (n - 2) + (-1,)
    return Arrangement(n, braid.labels, braid.forms, (form(coeffs, -1),))


@pytest.mark.parametrize("name, calls", [("braid3", 14), ("braid4", 139), ("halfspace4", 59)])
def test_enumeration_lps_match_fraction_reference(monkeypatch, name, calls):
    """Every LP the enumeration issues gives the reference's verdict and witness."""
    arr = _halfspace_arrangement(4) if name == "halfspace4" else braid_arrangement(int(name[-1]))
    lp, seen = realize.lp_strict_feasible, []

    def recorded(strict, eqs, d):
        seen.append((list(strict), list(eqs), d))
        return lp(strict, eqs, d)

    monkeypatch.setattr(realize, "lp_strict_feasible", recorded)
    enumerate_covectors(arr)
    assert len(seen) == calls
    for strict, eqs, d in seen:
        assert lp(strict, eqs, d) == _reference_lp_strict_feasible(strict, eqs, d)


def test_simplex_bounded_optimum():
    # max x + y with x + y <= 4, x <= 3 (slacks s1, s2)
    status, value, x = simplex_max(
        [[1, 1, 1, 0], [1, 0, 0, 1]], [4, 3], [1, 1, 0, 0]
    )
    assert status == "optimal" and value == 4


def test_simplex_unbounded():
    status, _, _ = simplex_max([[1, -1]], [1], [0, 1])
    assert status == "unbounded"


def test_simplex_infeasible():
    # x1 + x2 = -1 has no nonnegative solution
    status, _, _ = simplex_max([[1, 1]], [-1], [0, 0])
    # rows with negative b are flipped, so this is -x1 - x2 = 1: infeasible
    assert status == "infeasible"


def test_simplex_takes_fractions_and_ints_alike_and_leaves_inputs_alone():
    # max x1 with -x1 - x2 = -3/2 (flipped to x1 + x2 = 3/2) and x1 <= 1 (slack s)
    A = [[F(-1), -1, 0], [1, 0, F(1)]]
    b = [F(-3, 2), 1]
    c = [1, F(0), 0]
    before = [row[:] for row in A], b[:], c[:]
    status, value, x = simplex_max(A, b, c)
    assert status == "optimal" and value == 1 and x == [1, F(1, 2), 0]
    assert all(type(v) is F for v in x)
    assert (A, b, c) == before


def test_enumerate_one_hyperplane():
    arr = Arrangement(1, ("h",), (form((1,)),), ())
    M = enumerate_covectors(arr)
    assert {v.to_string() for v in M.covectors} == {"+", "-", "0"}


def test_enumerate_empty_region():
    arr = Arrangement(1, ("h",), (form((1,)),), (form((1,)), form((-1,))))
    with pytest.raises(EmptyRegionError):
        enumerate_covectors(arr)


def test_enumerate_form_cap():
    forms = tuple(form((1,), k) for k in range(15))
    arr = Arrangement(1, tuple(map(str, range(15))), forms, ())
    with pytest.raises(RealizeError, match="enumeration capped at 14 forms, got 15"):
        enumerate_covectors(arr)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_matches_braid(n):
    assert enumerate_covectors(braid_arrangement(n)) == braid_com(n)


def test_enumerate_figure1_square_region(figure1):
    arr = Arrangement(2, LABELS, FOUR_LINES, square(F(1, 2)))
    assert enumerate_covectors(arr) == figure1


def test_enumerate_figure1_rectangle_region(figure1_rect):
    region = (form((1, 0), 3), form((-1, 0), 4), form((0, 1), 2), form((0, -1), 2))
    arr = Arrangement(2, LABELS, FOUR_LINES, region)
    assert enumerate_covectors(arr) == figure1_rect


def _reference_enumerate(arr):
    """The enumeration with one LP for each child of every feasible sign prefix.

    Returns the COM and the number of feasible proper prefixes (k < m).  It
    calls the LP function directly, so patching covg.realize does not see it.
    """
    m = len(arr.forms)
    region = list(arr.region)
    if not lp_strict_feasible(region, [], arr.dimension).feasible:
        raise EmptyRegionError("the region is empty")
    found, signs, inner = [], [0] * m, [0]

    def descend(k, strict, eqs):
        if k == m:
            found.append(SignedVector(tuple(signs)))
            return
        inner[0] += 1
        f = arr.forms[k]
        for s, add_strict, add_eq in ((1, f, None), (-1, -f, None), (0, None, f)):
            signs[k] = s
            new_strict = strict + [add_strict] if add_strict is not None else strict
            new_eqs = eqs + [add_eq] if add_eq is not None else eqs
            if lp_strict_feasible(new_strict, new_eqs, arr.dimension).feasible:
                descend(k + 1, new_strict, new_eqs)
        signs[k] = 0

    descend(0, region, [])
    return COM(GroundSet(arr.labels), found), inner[0]


@st.composite
def arrangements(draw):
    """Small integer arrangements in dimension 1-3, degenerate forms included:
    constant forms (zero linear part, constant +, - or 0), and repeats,
    negations and parallel shifts of earlier forms."""
    d = draw(st.integers(1, 3))
    small = st.integers(-2, 2)

    def fresh():
        return form(draw(st.lists(small, min_size=d, max_size=d)), draw(small))

    forms = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("fresh", "constant", "repeat", "negate", "parallel")))
        if kind == "constant":
            forms.append(form((0,) * d, draw(st.sampled_from((1, -1, 0)))))
        elif kind == "fresh" or not forms:
            forms.append(fresh())
        else:
            g = draw(st.sampled_from(forms))
            if kind == "repeat":
                forms.append(g)
            elif kind == "negate":
                forms.append(-g)
            else:
                k = draw(st.sampled_from((2, 3, -1, -2)))
                forms.append(AffineForm(tuple(k * a for a in g.coeffs), draw(small)))
    region = tuple(fresh() for _ in range(draw(st.integers(0, 3))))
    labels = tuple(f"h{i}" for i in range(len(forms)))
    return Arrangement(d, labels, tuple(forms), region)


@given(arrangements())
@settings(max_examples=60, deadline=None)
def test_enumerate_matches_three_lp_reference(arr):
    """The witness-carrying enumeration gives the reference's COM, with exactly
    one LP per feasible proper sign prefix plus one for the region."""
    try:
        expected, inner = _reference_enumerate(arr)
    except EmptyRegionError:
        with pytest.raises(EmptyRegionError):
            enumerate_covectors(arr)
        return
    with mock.patch.object(realize, "lp_strict_feasible", wraps=realize.lp_strict_feasible) as lp:
        got = enumerate_covectors(arr)
    assert got == expected
    assert lp.call_count == 1 + inner


@pytest.mark.parametrize(
    "name, parent_calls, calls",
    [("braid3", 40, 14), ("braid4", 415, 139), ("figure1-square", 79, 27)],
)
def test_enumerate_lp_count(monkeypatch, figure1, name, parent_calls, calls):
    """One LP per feasible proper prefix, plus one for the region, made through
    the module attribute that perfbench/tracing.py wraps."""
    if name == "figure1-square":
        arr, expected = Arrangement(2, LABELS, FOUR_LINES, square(F(1, 2))), figure1
    else:
        n = int(name[-1])
        arr, expected = braid_arrangement(n), braid_com(n)
    reference, inner = _reference_enumerate(arr)
    assert reference == expected and 1 + 3 * inner == parent_calls
    lp = mock.Mock(wraps=realize.lp_strict_feasible)
    monkeypatch.setattr(realize, "lp_strict_feasible", lp)
    assert enumerate_covectors(arr) == expected
    assert lp.call_count == calls == 1 + inner


def test_enumerate_rejects_a_witness_outside_its_cell(monkeypatch):
    """Each propagated witness is checked exactly: an LP that hands back a
    point outside the cell makes the enumeration raise."""
    lp = realize.lp_strict_feasible

    def reflected(strict, eqs, d):
        r = lp(strict, eqs, d)
        return LPResult(r.feasible, r.witness and tuple(-x for x in r.witness))

    monkeypatch.setattr(realize, "lp_strict_feasible", reflected)
    with pytest.raises(RealizeError, match="witness"):
        enumerate_covectors(braid_arrangement(3))


def test_evaluate_rejects_wrong_length():
    f = form((1, 2), 3)
    assert f.evaluate((F(1), F(1, 2))) == 5
    for point in ((F(1),), (F(1), F(1), F(1)), ()):
        with pytest.raises(RealizeError):
            f.evaluate(point)


def _fubini(n):
    # a(n) = sum_k C(n,k) a(n-k), independent of the enumeration code
    from math import comb

    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def test_braid_counts():
    from math import factorial

    for n in range(1, 6):
        assert len(ordered_set_partitions(n)) == _fubini(n)
    assert len(braid_com(4)) == _fubini(4) == 75
    assert len(braid_com(5)) == _fubini(5) == 541
    assert len(topes(braid_com(4))) == factorial(4)


def test_braid_covector_convention():
    # all-singleton blocks in increasing order give the all-plus tope
    blocks = (frozenset({1}), frozenset({2}), frozenset({3}))
    assert braid_covector(3, blocks).to_string() == "+++"
    # one block means every pair ties
    assert braid_covector(3, (frozenset({1, 2, 3}),)).to_string() == "000"
    # 2 before 1: the pair 12 flips
    blocks = (frozenset({2}), frozenset({1}), frozenset({3}))
    assert braid_covector(3, blocks).to_string() == "-++"


def test_braid_validation_bounds():
    with pytest.raises(RealizeError, match="braid family needs n >= 1"):
        braid_com(0)
    with pytest.raises(RealizeError, match="braid family capped at n = 9"):
        braid_com(10)


def test_fixture_names():
    assert len(fixture("figure1")) == 13
    assert len(fixture("figure1-rectangle")) == 15
    with pytest.raises(RealizeError):
        fixture("figure2")


def test_fixture_files_are_canonical():
    from importlib import resources

    for name, fname in (
        ("figure1", "figure1.json"),
        ("figure1-rectangle", "figure1_rectangle.json"),
    ):
        shipped = resources.files("covg.data").joinpath(fname).read_text()
        assert shipped == jsonio.dumps(fixture(name).to_json_dict())


def test_fixture_figure1_contains_marked_face(figure1):
    assert "0+-+" in {v.to_string() for v in figure1.covectors}


def test_arrangement_json_roundtrip(tmp_path):
    arr = Arrangement(
        3,
        ("12", "13"),
        (form((1, -1, 0)), form((1, 0, -1))),
        (form((1, 1, 1), F(-1, 2)),),
    )
    path = tmp_path / "arr.json"
    jsonio.write_json(path, arr.to_json_dict())
    first = path.read_bytes()
    again = Arrangement.from_json_dict(jsonio.read_json(path))
    assert again == arr
    jsonio.write_json(path, again.to_json_dict())
    assert path.read_bytes() == first


def test_arrangement_rational_strings():
    d = form((F(1, 2), -2), F(3)).to_json_dict()
    assert d == {"coeffs": ["1/2", "-2"], "const": "3"}
    assert AffineForm.from_json_dict(d) == form((F(1, 2), -2), F(3))
