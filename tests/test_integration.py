"""End-to-end runs on arrangement families outside the shared corpus: parallel
lines (a nonbasic pair), a vertex-triangle arrangement (no zero covector,
every pair a flat), and a central arrangement in 3-space (an oriented
matroid), each pushed through counting, presentation, and decomposition."""

from fractions import Fraction as F

import pytest

from covg import (
    AffineForm,
    Arrangement,
    automorphism_group_bruteforce,
    covector_locus,
    enumerate_covectors,
    flat_poset,
    hilbert_from_nbc,
    hilbert_series,
    nbc_basis,
    nbc_sets,
    tope_locus,
    topes,
    verify_basis,
    verify_covector_presentation,
    verify_graded_module_structure,
    z_ideal_generators,
)
from covg.matroidal import check_tope_contraction_count, minimal_nonbasic_sets


def form(coeffs, const=0):
    return AffineForm(tuple(F(c) for c in coeffs), F(const))


@pytest.fixture(scope="module")
def parallels():
    # x = 0 and x = 1 never meet; y = 0 crosses both
    arr = Arrangement(2, ("a", "b", "c"), (form((1, 0)), form((1, 0), -1), form((0, 1))), ())
    return enumerate_covectors(arr)


@pytest.fixture(scope="module")
def triangle():
    # three generic lines bounding a triangle; no common point, so no zero covector
    arr = Arrangement(
        2, ("a", "b", "c"), (form((1, 0)), form((0, 1)), form((1, 1), -2)), ()
    )
    return enumerate_covectors(arr)


@pytest.fixture(scope="module")
def central3d():
    arr = Arrangement(
        3,
        ("x", "y", "z", "s"),
        (form((1, 0, 0)), form((0, 1, 0)), form((0, 0, 1)), form((1, 1, 1))),
        (),
    )
    return enumerate_covectors(arr)


def test_parallels_structure(parallels):
    assert len(parallels) == 15
    assert len(topes(parallels)) == 6
    # the parallel pair is never simultaneously zero
    flats = {tuple(sorted(f)) for f in flat_poset(parallels)}
    assert (0, 1) not in flats
    assert frozenset({0, 1}) in set(minimal_nonbasic_sets(parallels))
    assert "za*zb" in {str(g) for g in z_ideal_generators(parallels)}


def test_triangle_structure(triangle):
    # 7 chambers, 9 edges, 3 vertices
    assert len(triangle) == 19
    assert len(topes(triangle)) == 7
    flats = {tuple(sorted(f)) for f in flat_poset(triangle)}
    assert flats == {(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)}


def test_central3d_is_oriented_matroid(central3d):
    from covg import SignedVector

    assert SignedVector((0, 0, 0, 0)) in central3d
    assert len(topes(central3d)) == 14


@pytest.mark.parametrize("name", ["parallels", "triangle", "central3d"])
def test_counting_and_presentation(name, request):
    M = request.getfixturevalue(name)
    assert check_tope_contraction_count(M)["ok"]
    assert len(nbc_sets(M)) == len(topes(M))
    pair = hilbert_from_nbc(M)
    assert pair["covector"].coeffs == hilbert_series(covector_locus(M)).coeffs
    assert pair["tope"].coeffs == hilbert_series(tope_locus(M)).coeffs
    bases = nbc_basis(M)
    assert verify_basis(covector_locus(M), bases.covector)
    assert verify_basis(tope_locus(M), bases.tope)
    assert verify_covector_presentation(M)["ok"]


@pytest.mark.parametrize("name", ["parallels", "triangle", "central3d"])
def test_decomposition_under_full_automorphisms(name, request):
    M = request.getfixturevalue(name)
    G = automorphism_group_bruteforce(M)
    assert verify_graded_module_structure(M, G).ok
