from fractions import Fraction

import pytest

from covg import (
    COM,
    GroundSet,
    GroupSpec,
    SignedPermutation,
    SignedVector,
    automorphism_group_bruteforce,
    braid_automorphism_generators,
    covector_locus,
    graded_character,
    hilbert_series,
    induced_character,
    locus_action,
    verify_graded_module_structure,
)
from covg.equivariant import EquivariantError, restricted_permutation

sv = SignedVector.from_string


@pytest.fixture(scope="module")
def s3(braid3):
    return GroupSpec.from_generators(braid3, braid_automorphism_generators(3))


@pytest.fixture(scope="module")
def s4(braid4):
    return GroupSpec.from_generators(braid4, braid_automorphism_generators(4))


def test_group_closure_order(s3, s4):
    assert s3.order == 6
    assert s4.order == 24


def test_group_rejects_non_automorphism(figure1):
    flip4 = SignedPermutation((0, 1, 2, 3), (1, 1, 1, -1))
    with pytest.raises(EquivariantError):
        GroupSpec.from_generators(figure1, [flip4])


def test_group_checks_each_generator_once_before_closure(braid4, figure1, monkeypatch):
    import covg.equivariant

    calls, products = [], []
    real_verify, real_compose = covg.equivariant.verify_automorphism, SignedPermutation.compose

    def counting_verify(M, w):
        calls.append(w)
        return real_verify(M, w)

    def counting_compose(self, other):
        products.append(1)
        return real_compose(self, other)

    monkeypatch.setattr(covg.equivariant, "verify_automorphism", counting_verify)
    monkeypatch.setattr(SignedPermutation, "compose", counting_compose)
    gens = braid_automorphism_generators(4)
    assert GroupSpec.from_generators(braid4, gens).order == 24
    assert calls == list(gens)

    calls.clear()
    products.clear()
    flip4 = SignedPermutation((0, 1, 2, 3), (1, 1, 1, -1))
    with pytest.raises(EquivariantError, match="not an automorphism of the COM"):
        GroupSpec.from_generators(figure1, [flip4, SignedPermutation.identity(4)])
    assert calls == [flip4]
    assert products == []  # refused before the closure multiplied anything


def test_locus_action_identity(braid3):
    locus = covector_locus(braid3)
    ident = SignedPermutation.identity(3)
    assert locus_action(locus, ident) == tuple(range(13))


def test_locus_action_braid2_transposition(braid2):
    locus = covector_locus(braid2)
    flip = SignedPermutation((0,), (-1,))
    perm = locus_action(locus, flip)
    fixed = [k for k, img in enumerate(perm) if k == img]
    assert len(fixed) == 1
    assert locus.labels[fixed[0]] == "0"


def test_locus_action_three_cycle_fixes_one_point(braid3, s3):
    locus = covector_locus(braid3)
    cycles = [
        w
        for w in s3.elements
        if locus_action(locus, w) != tuple(range(13))
        and sum(1 for k, img in enumerate(locus_action(locus, w)) if k == img) == 1
    ]
    # both 3-cycles fix exactly one covector: the single-block one
    assert len(cycles) == 2
    for w in cycles:
        perm = locus_action(locus, w)
        fixed = [k for k, img in enumerate(perm) if k == img]
        assert locus.labels[fixed[0]] == "000"


def test_locus_action_requires_automorphism(figure1):
    locus = covector_locus(figure1)
    flip4 = SignedPermutation((0, 1, 2, 3), (1, 1, 1, -1))
    with pytest.raises(EquivariantError):
        locus_action(locus, flip4)


def test_graded_character_identity_column(braid3, s3):
    locus = covector_locus(braid3)
    ch = graded_character(locus, s3)
    ident = SignedPermutation.identity(3)
    assert ch.values[ident] == tuple(
        Fraction(c) for c in hilbert_series(locus).coeffs
    )


def test_graded_character_column_sums_are_fixed_points(braid3, s3):
    locus = covector_locus(braid3)
    ch = graded_character(locus, s3)
    for w in s3.elements:
        perm = locus_action(locus, w)
        fixed = sum(1 for k, img in enumerate(perm) if k == img)
        assert sum(ch.values[w]) == fixed


def test_graded_character_braid2_transposition(braid2):
    G = GroupSpec.from_generators(braid2, braid_automorphism_generators(2))
    ch = graded_character(covector_locus(braid2), G)
    flip = SignedPermutation((0,), (-1,))
    assert ch.values[flip] == (Fraction(1), Fraction(0))


def test_characters_are_class_functions(braid3, s3):
    ch = graded_character(covector_locus(braid3), s3)
    for x in s3.elements:
        for w in s3.elements:
            conj = x.inverse().compose(w).compose(x)
            assert ch.values[conj] == ch.values[w]


def test_character_values_are_integers(braid4, s4):
    ch = graded_character(covector_locus(braid4), s4)
    for vals in ch.values.values():
        for v in vals:
            assert v.denominator == 1


def test_induced_character_from_whole_group(braid3, s3):
    ch = graded_character(covector_locus(braid3), s3)
    ind = induced_character(s3, s3.elements, ch.values)
    assert ind == ch


def test_induced_character_from_trivial_group(braid3, s3):
    ident = SignedPermutation.identity(3)
    ind = induced_character(s3, (ident,), {ident: (Fraction(1),)})
    for w in s3.elements:
        expected = Fraction(6) if w == ident else Fraction(0)
        assert ind.values[w] == (expected,)


def test_induced_character_of_stabilizer_is_orbit_permutation_character(braid3, s3):
    # inducing the trivial character of a flat stabilizer counts fixed flats
    rep = next(f for f, _ in s3.flat_orbits() if len(f) == 1)
    stab = s3.stabilizer_elements(rep)
    chi = {w: (Fraction(1),) for w in stab}
    ind = induced_character(s3, stab, chi)
    orbit = {frozenset(w.perm[i] for i in rep) for w in s3.elements}
    for w in s3.elements:
        fixed = sum(1 for f in orbit if frozenset(w.perm[i] for i in f) == f)
        assert ind.values[w] == (Fraction(fixed),)


def test_induced_character_rejects_non_subgroup(braid3, s3):
    not_closed = tuple(w for w in s3.elements if w.perm != tuple(range(3)))[:2]
    with pytest.raises(EquivariantError):
        induced_character(s3, not_closed, {w: (Fraction(1),) for w in not_closed})


def test_restricted_permutation(braid3, s3):
    F = frozenset({0})
    for w in s3.stabilizer_elements(F):
        r = restricted_permutation(w, F, 3)
        assert len(r) == 2


def test_decomposition_braid3(braid3, s3):
    assert verify_graded_module_structure(braid3, s3).ok


def test_decomposition_trivial_group(figure1):
    G = GroupSpec.from_generators(figure1, [])
    rep = verify_graded_module_structure(figure1, G)
    assert rep.ok  # reduces to the dimension identity per degree


def test_decomposition_figure1_full_group(figure1):
    G = automorphism_group_bruteforce(figure1)
    assert G.order >= 2  # the global sign flip on the three concurrent lines
    assert verify_graded_module_structure(figure1, G).ok


def test_bruteforce_cap():
    M7 = COM(GroundSet(tuple("abcdefg")), [SignedVector((1,) * 7)])
    with pytest.raises(EquivariantError):
        automorphism_group_bruteforce(M7)


def test_bruteforce_contains_known_automorphism(figure1):
    G = automorphism_group_bruteforce(figure1)
    flip123 = SignedPermutation((0, 1, 2, 3), (-1, -1, -1, 1))
    assert flip123 in G.elements


def test_group_json_roundtrip(braid3, s3):
    data = s3.to_json_dict()
    again = GroupSpec.from_json_dict(braid3, data)
    assert set(again.elements) == set(s3.elements)
