from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from covg import (
    AffineForm,
    Arrangement,
    braid_arrangement,
    braid_com,
    enumerate_covectors,
    fixture,
    lp_strict_feasible,
    topes,
)
from covg import jsonio
from covg.realize import (
    EmptyRegionError,
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
    with pytest.raises(RealizeError):
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
    with pytest.raises(RealizeError):
        braid_com(0)
    with pytest.raises(RealizeError):
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
