from fractions import Fraction

import pytest

from covg import (
    COM,
    QQ,
    COMError,
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
    permmatrix_locus,
    tope_locus,
    verify_graded_module_structure,
)
from covg import equivariant
from covg.com import contract, flats_of
from covg.equivariant import (
    DecompositionReport,
    EquivariantError,
    GradedCharacter,
    _element_key,
    _generating_set,
    _orbit,
    restricted_permutation,
)
from covg.exactla import ExactLAError, PrimeField, RationalRowSpace
from covg.harmonics import EvaluationFiltration
from covg.matroidal import codim
from covg.realize import braid_com

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
    """The refusal names the failing generator by its position in the list."""
    flip4 = SignedPermutation((0, 1, 2, 3), (1, 1, 1, -1))
    with pytest.raises(EquivariantError, match=r"^generator 0 "):
        GroupSpec.from_generators(figure1, [flip4])
    with pytest.raises(
        EquivariantError,
        match=r"^generator 1 \(perm \(0, 1, 2, 3\), signs \(1, 1, 1, -1\)\) is not an automorphism",
    ):
        GroupSpec.from_generators(figure1, [SignedPermutation.identity(4), flip4])


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


def test_group_order_cap(braid3, monkeypatch):
    import covg.equivariant

    monkeypatch.setattr(covg.equivariant, "MAX_GROUP_ORDER", 5)
    with pytest.raises(EquivariantError, match="group closure exceeded 5 elements"):
        GroupSpec.from_generators(braid3, braid_automorphism_generators(3))


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


def test_locus_action_refuses_labels_that_are_not_covectors(braid2):
    """Every label is read as a covector of the signed permutation's length:
    a permutation label is not one, nor is a covector of another length."""
    with pytest.raises(COMError, match="must use only"):
        locus_action(permmatrix_locus(3), SignedPermutation.identity(3))
    with pytest.raises(COMError, match="sizes differ"):
        locus_action(covector_locus(braid2), SignedPermutation.identity(3))


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


def test_graded_character_equals_only_characters(braid3, s3):
    """Comparing a character with another type is False, not an AttributeError."""
    ch = graded_character(covector_locus(braid3), s3)
    assert GradedCharacter(1, {}) != None  # noqa: E711
    assert not ch == "character" and ch != ch.values
    assert ch == induced_character(s3, s3.elements, ch.values)


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


# ---------------------------------------------------------------------------
# per-element reference algorithms: a checked trace for every element and
# degree, and induction by the x^-1 g x sum over the whole group


def _reference_traces(locus, actions, field=QQ):
    """{key: per-degree traces} for {key: signed permutation}, each a checked trace."""
    filt = EvaluationFiltration(locus, field).build()
    out = {}
    for key, w in actions.items():
        perm = locus_action(locus, w)
        traces = [0] + [
            filt.space_upto(d).trace_under_permutation(perm) for d in range(len(filt.coeffs))
        ]
        out[key] = tuple(field.of(t - prev) for prev, t in zip(traces, traces[1:]))
    return out


def _reference_induced(group, sub, chi):
    degrees = max(len(v) for v in chi.values())
    values = {}
    for g in group.elements:
        acc = [Fraction(0)] * degrees
        for x in group.elements:
            conj = x.inverse().compose(g).compose(x)
            if conj in sub:
                for d, v in enumerate(chi[conj]):
                    acc[d] += v
        values[g] = tuple(a / len(sub) for a in acc)
    return GradedCharacter(degrees, values)


def _reference_decomposition(M, group):
    locus = covector_locus(M)
    big = _reference_traces(locus, {w: w for w in group.elements})
    lhs = GradedCharacter(max(map(len, big.values())), big)
    n = M.ground.size
    reps, parts = [], []
    for rep, _ in group.flat_orbits():
        reps.append(rep)
        stab = set(group.stabilizer_elements(rep))
        actions = {w: restricted_permutation(w, rep, n) for w in stab}
        shift = (0,) * codim(M, rep)
        chi = {w: shift + v for w, v in _reference_traces(tope_locus(contract(M, rep)), actions).items()}
        parts.append(_reference_induced(group, stab, chi))
    width = max([lhs.degrees] + [p.degrees for p in parts])
    rhs = GradedCharacter(width, {
        w: tuple(sum((p.value(w, d) for p in parts), Fraction(0)) for d in range(width))
        for w in group.elements
    })
    mismatches = [
        {
            "element": {"perm": list(w.perm), "signs": list(w.signs)},
            "degree": d,
            "covector_side": str(lhs.value(w, d)),
            "induced_side": str(rhs.value(w, d)),
        }
        for w in group.elements
        for d in range(width)
        if lhs.value(w, d) != rhs.value(w, d)
    ]
    return DecompositionReport(reps, lhs, rhs, mismatches)


@pytest.fixture(scope="module", params=["braid3", "braid4", "figure1", "figure1_rect"])
def com_and_group(request):
    M = request.getfixturevalue(request.param)
    if request.param.startswith("figure1"):
        return M, automorphism_group_bruteforce(M)
    n = {"braid3": 3, "braid4": 4}[request.param]
    return M, GroupSpec.from_generators(M, braid_automorphism_generators(n))


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["rational", "fp"])
def test_graded_character_matches_per_element_reference(com_and_group, field):
    M, G = com_and_group
    locus = covector_locus(M)
    expected = _reference_traces(locus, {w: w for w in G.elements}, field)
    assert graded_character(locus, G, field).values == expected


def test_decomposition_matches_per_element_reference(com_and_group):
    M, G = com_and_group
    report = verify_graded_module_structure(M, G)
    assert report.ok
    assert report.as_dict() == _reference_decomposition(M, G).as_dict()


def _assert_conjugacy_classes(G):
    flat = [w for members in G.classes for w in members]
    assert len(flat) == len(set(flat)) == G.order
    assert set(flat) == set(G.elements)
    for i, members in enumerate(G.classes):
        assert G.order % len(members) == 0
        assert members[0] == min(members, key=lambda w: (w.perm, w.signs))
        assert all(G.class_index[w] == i for w in members)
        conjugates = {x.compose(members[0]).compose(G.inverses[x]) for x in G.elements}
        assert conjugates == set(members)
    ident = SignedPermutation.identity(G.com.ground.size)
    assert all(G.inverses[w].compose(w) == ident for w in G.elements)


def test_conjugacy_classes(s3, s4, figure1):
    for G in (s3, s4, automorphism_group_bruteforce(figure1)):
        _assert_conjugacy_classes(G)
    assert len(s3.classes) == 3
    assert len(s4.classes) == 5


def test_conjugacy_classes_braid5():
    G = GroupSpec.from_generators(braid_com(5), braid_automorphism_generators(5))
    _assert_conjugacy_classes(G)
    assert sorted(map(len, G.classes)) == [1, 10, 15, 20, 20, 24, 30]


def test_graded_character_checks_generators_only(braid4, s4, monkeypatch):
    """One checked trace per generator and degree snapshot, made through the
    class attribute that perfbench/tracing.py wraps; the other traces are
    read at the pivots."""
    calls = []
    checked = RationalRowSpace.trace_under_permutation

    def counting(self, perm):
        calls.append(perm)
        return checked(self, perm)

    monkeypatch.setattr(RationalRowSpace, "trace_under_permutation", counting)
    locus = covector_locus(braid4)
    filt = EvaluationFiltration(locus).build()
    graded_character(locus, s4, filtration=filt)
    assert len(filt.snapshots) == 4
    assert len(calls) == len(s4.generators) * len(filt.snapshots) == 12  # per element: 96


def test_decomposition_checks_stabilizer_generators_only(braid4, s4, monkeypatch):
    """The decomposition makes one checked trace per generator and degree on
    the covector side, and per stabilizer generator and degree on each
    contraction's tope side."""
    expected = len(s4.generators) * len(EvaluationFiltration(covector_locus(braid4)).build().snapshots)
    for rep, _ in s4.flat_orbits():
        tope_side = EvaluationFiltration(tope_locus(contract(braid4, rep))).build()
        expected += len(_generating_set(s4, set(s4.stabilizer_elements(rep)))) * len(tope_side.snapshots)
    calls = []
    checked = RationalRowSpace.trace_under_permutation

    def counting(self, perm):
        calls.append(perm)
        return checked(self, perm)

    monkeypatch.setattr(RationalRowSpace, "trace_under_permutation", counting)
    assert verify_graded_module_structure(braid4, s4).ok
    assert len(calls) == expected


def test_graded_character_refuses_a_noninvariant_span(braid3, s3, monkeypatch):
    """The generator check is what the pivot reads rest on: a failing check raises."""
    def refuse(self, perm):
        raise ExactLAError("subspace is not invariant under the permutation")

    monkeypatch.setattr(RationalRowSpace, "trace_under_permutation", refuse)
    with pytest.raises(ExactLAError):
        graded_character(covector_locus(braid3), s3)


def test_decomposition_closes_each_stabilizer_once(braid4, s4, monkeypatch):
    """verify_graded_module_structure builds one generating set per flat
    orbit, for its invariance check, and induces without repeating
    induced_character's closure test: a stabilizer is a subgroup."""
    calls = []
    closing = equivariant._generating_set

    def counting(group, sub):
        calls.append(frozenset(sub))
        return closing(group, sub)

    monkeypatch.setattr(equivariant, "_generating_set", counting)
    assert verify_graded_module_structure(braid4, s4).ok
    assert calls == [frozenset(s4.stabilizer_elements(rep)) for rep, _ in s4.flat_orbits()]


def test_induced_character_rejects_subset_generating_more(s3):
    """{e, (12), (123)} contains the identity but generates all of S_3; {(12)}
    is closed except that it lacks the identity."""
    s12, s23 = braid_automorphism_generators(3)
    cycle = s12.compose(s23)
    for subset in ((SignedPermutation.identity(3), s12, cycle), (s12,)):
        assert set(subset) <= set(s3.elements)
        with pytest.raises(EquivariantError, match="not closed"):
            induced_character(s3, subset, {w: (Fraction(1),) for w in subset})


@pytest.mark.parametrize("name", ["braid3", "braid4", "braid5", "figure1"])
def test_flat_orbits_match_all_elements_reference(name, figure1):
    """Each orbit, walked under the generators, is the flat's image under
    every group element; representatives and their order are those of one
    scan over the flats."""
    if name == "figure1":
        M, G = figure1, automorphism_group_bruteforce(figure1)
    else:
        n = int(name[-1])
        M = braid_com(n)
        G = GroupSpec.from_generators(M, braid_automorphism_generators(n))
    expected, seen = [], set()
    for f in flats_of(M):
        if f not in seen:
            orbit = frozenset(frozenset(w.perm[i] for i in f) for w in G.elements)
            seen |= orbit
            expected.append((min(orbit, key=lambda g: tuple(sorted(g))), orbit))
    assert G.flat_orbits() == expected
    assert len(expected) < len(flats_of(M))  # some orbit holds several flats


def test_flat_orbits_and_stabilizers_are_memoized(braid3, monkeypatch):
    import covg.equivariant

    G = GroupSpec.from_generators(braid3, braid_automorphism_generators(3))
    first = G.flat_orbits()
    monkeypatch.setattr(covg.equivariant, "flats_of", None)  # a second walk would fail
    assert G.flat_orbits() == first
    stab = G.stabilizer_elements({0})
    assert G.stabilizer_elements(frozenset({0})) is stab


# ---------------------------------------------------------------------------
# the orbit walk against naive product fixpoints


def _product_fixpoint(elements):
    """All products of the given group elements: multiply every pair until nothing is new."""
    closed = set(elements)
    while True:
        grown = closed | {a.compose(b) for a in closed for b in closed}
        if grown == closed:
            return closed
        closed = grown


@pytest.mark.parametrize("n", [3, 4, 5])
def test_group_closure_matches_product_fixpoint(n):
    gens = braid_automorphism_generators(n)
    G = GroupSpec.from_generators(braid_com(n), gens)
    assert set(G.elements) == _product_fixpoint(gens)
    assert list(G.elements) == sorted(G.elements, key=_element_key)


@pytest.mark.parametrize("name", ["braid4", "braid5", "figure1"])
def test_generating_set_of_each_flat_stabilizer(name, figure1):
    """`_generating_set` closes to each flat stabilizer, and refuses the
    stabilizer less one non-identity element; the walk it runs, confined to
    that smaller set, stops with None."""
    if name == "figure1":
        M, G = figure1, automorphism_group_bruteforce(figure1)
    else:
        n = int(name[-1])
        M = braid_com(n)
        G = GroupSpec.from_generators(M, braid_automorphism_generators(n))
    ident = SignedPermutation.identity(M.ground.size)
    for flat in flats_of(M):
        stab = set(G.stabilizer_elements(flat))
        gens = _generating_set(G, stab)
        assert _product_fixpoint([ident, *gens]) == stab

        def walk(w):
            return (g.compose(w) for g in gens)

        assert _orbit([ident], walk, inside=stab) == stab
        for h in sorted(stab - {ident}, key=_element_key):
            # {e, h} less h is the trivial group, still a subgroup
            assert _generating_set(G, stab - {h}) == ([] if len(stab) == 2 else None)
            assert _orbit([ident], walk, inside=stab - {h}) is None
