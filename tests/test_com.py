import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from covg import (
    COM,
    AxiomError,
    COMError,
    GroundSet,
    SignedPermutation,
    SignedVector,
    act,
    braid_arrangement,
    braid_com,
    check_axioms,
    coloops,
    compose,
    contract,
    enumerate_covectors,
    flat_poset,
    restrict,
    separator,
    topes,
    verify_automorphism,
)

sv = SignedVector.from_string

signs_st = st.lists(st.sampled_from([1, -1, 0]), min_size=1, max_size=6)


def test_compose_fills_single_zero():
    assert compose(sv("0+-+"), sv("-+-+")) == sv("-+-+")


def test_compose_identity_and_zero():
    assert compose(sv("00"), sv("+-")) == sv("+-")
    x = sv("+0-")
    assert compose(x, x) == x


def test_compose_length_mismatch():
    with pytest.raises(COMError):
        compose(sv("+"), sv("+-"))
    with pytest.raises(COMError):
        separator(sv("+"), sv("+-"))


def test_separator_examples():
    assert separator(sv("+-0"), sv("--+")) == frozenset({0})
    assert separator(sv("+0"), sv("-0")) == frozenset({0})
    x = sv("+0-")
    assert separator(x, x) == frozenset()


@given(signs_st, signs_st, signs_st)
def test_compose_associative_idempotent(a, b, c):
    n = min(len(a), len(b), len(c))
    x, y, z = SignedVector(a[:n]), SignedVector(b[:n]), SignedVector(c[:n])
    assert compose(compose(x, y), z) == compose(x, compose(y, z))
    assert compose(x, x) == x


@given(signs_st, signs_st)
def test_flat_of_composition_is_intersection(a, b):
    n = min(len(a), len(b))
    x, y = SignedVector(a[:n]), SignedVector(b[:n])
    assert _zero_set(compose(x, y)) == _zero_set(x) & _zero_set(y)


def _zero_set(v):
    return frozenset(i for i, s in enumerate(v.signs) if not s)


def test_axioms_pass_figure1(figure1):
    report = check_axioms(figure1.covectors)
    assert report["ok"]


def test_axioms_fail_two_opposite_topes():
    report = check_axioms([sv("+"), sv("-")])
    assert report["face_symmetry"]["ok"]
    assert not report["strong_elimination"]["ok"]
    x, y, i = report["strong_elimination"]["witness"]
    assert i == 0


def test_axioms_single_tope():
    assert check_axioms([sv("+-+")])["ok"]


def test_axioms_face_symmetry_failure():
    # {0, +} is closed for elimination trivia but +, -(+) = - is missing
    report = check_axioms([sv("0"), sv("+")])
    assert not report["face_symmetry"]["ok"]


def test_axioms_witnesses_on_figure1_mutants(figure1, braid3):
    assert check_axioms(figure1.covectors)["ok"]
    assert check_axioms(braid3.covectors)["ok"]
    report = check_axioms([v for v in figure1.covectors if v.to_string() != "-+-+"])
    assert not report["face_symmetry"]["ok"]
    x, y = map(sv, report["face_symmetry"]["witness"])
    assert compose(x, -y) == sv("-+-+")
    # strong elimination alone fails; its witness is the first pair of the
    # canonical scan, as in the definition
    family = [v for v in figure1.covectors if v.to_string() != "000+"]
    report = check_axioms(family)
    assert report["face_symmetry"]["ok"] and not report["strong_elimination"]["ok"]
    assert report == _reference_axioms(family)


def test_axioms_catch_missing_meeting_point(figure1):
    # removing the common zero covector breaks strong elimination for pairs
    # of opposite rays, whose witness had to vanish on both lines
    family = [v for v in figure1.covectors if v.to_string() != "000+"]
    report = check_axioms(family)
    assert not report["strong_elimination"]["ok"]


def test_axioms_braid6():
    assert check_axioms(braid_com(6).covectors)["ok"]


@pytest.mark.parametrize("n", [5, 6])
def test_axioms_braid_without_zero_covector(n):
    # face symmetry holds, so the support classes decide strong elimination,
    # and one of them fails; the witness is checked against the definition
    family = [v for v in braid_com(n).covectors if any(v.signs)]
    report = check_axioms(family)
    assert report["face_symmetry"]["ok"] and not report["strong_elimination"]["ok"]
    x, y, i = report["strong_elimination"]["witness"]
    x, y = sv(x), sv(y)
    sep = separator(x, y)
    assert i in sep
    w = compose(x, y)
    off = [j for j in range(len(w)) if j not in sep]
    assert not any(z[i] == 0 and all(z[j] == w[j] for j in off) for z in family)


def test_axioms_ground_set_limit():
    # the sign keys are Python ints, so no ground-set width is refused
    for n in (40, 70):
        zero, plus, minus = sv("0" * n), sv("+" * n), sv("-" * n)
        assert check_axioms([zero, plus, minus])["ok"]
        report = check_axioms([zero, plus])
        assert report["face_symmetry"]["witness"] == [zero.to_string(), plus.to_string()]
        assert report["strong_elimination"]["ok"]


def _reference_axioms(vectors):
    """The axioms by their definitions, in check_axioms's scan order."""
    vs = sorted(set(vectors), key=SignedVector.sort_key)
    family = set(vs)
    fs = next(((x, y) for x in vs for y in vs if compose(x, -y) not in family), None)

    def first_uneliminated():
        for y in vs:
            for x in vs:
                sep = separator(x, y)
                w = compose(x, y)
                off = [j for j in range(len(w)) if j not in sep]
                agreeing = [z for z in vs if all(z[j] == w[j] for j in off)]
                for i in sorted(sep):
                    if all(z[i] for z in agreeing):
                        return x, y, i
        return None

    se = first_uneliminated()
    return {
        "face_symmetry": {
            "ok": fs is None,
            "witness": None if fs is None else [fs[0].to_string(), fs[1].to_string()],
        },
        "strong_elimination": {
            "ok": se is None,
            "witness": None if se is None else [se[0].to_string(), se[1].to_string(), se[2]],
        },
        "ok": fs is None and se is None,
    }


def test_axioms_match_reference(figure1, braid3, braid4):
    # braid3 with its columns repeated to 20 and 36 elements (parallel
    # elements keep it a COM) runs the uint32 and uint64 words
    wide = [[SignedVector((v.signs * 12)[:width]) for v in braid3.covectors] for width in (20, 36)]
    rng = random.Random(20250601)
    kinds = set()
    for cov in [list(figure1.covectors), list(braid3.covectors), list(braid4.covectors), *wide]:
        n = len(cov[0])
        for _ in range(12):
            family = rng.sample(cov, rng.randint(1, min(len(cov), 30)))
            if rng.random() < 0.5:
                family = [v for v in cov if v != rng.choice(cov)]
            if rng.random() < 0.4:
                family.append(SignedVector(rng.choice((1, -1, 0)) for _ in range(n)))
            expected = _reference_axioms(family)
            assert check_axioms(family) == expected
            fs, se = expected["face_symmetry"]["ok"], expected["strong_elimination"]["ok"]
            kinds.add("face symmetry" if not fs else "elimination only" if not se else "ok")
    assert kinds == {"face symmetry", "elimination only", "ok"}


def test_com_constructor_validates():
    data = {"ground": ["a"], "covectors": ["+", "-"]}
    with pytest.raises(AxiomError):
        COM.from_json_dict(data)
    unchecked = COM(GroundSet(("a",)), [sv("+"), sv("-")])
    assert len(unchecked) == 2
    assert COM.from_json_dict(data, check=False) == unchecked


def test_com_closed_under_composition(corpus):
    for M in corpus.values():
        for x in M.covectors:
            for y in M.covectors:
                assert compose(x, y) in M


def test_topes_figure1(figure1):
    ts = {t.to_string() for t in topes(figure1)}
    assert ts == {"++++", "++-+", "-+-+", "---+", "--++", "+-++"}


def test_topes_braid3(braid3):
    assert len(topes(braid3)) == 6


def test_coloops(figure1, braid2):
    assert coloops(figure1) == frozenset()
    assert coloops(braid2) == frozenset()
    M = COM(GroundSet(("a", "b")), [sv("0+"), sv("0-"), sv("00")])
    assert coloops(M) == frozenset({0})


def test_tope_empty_with_coloop():
    M = COM(GroundSet(("a", "b")), [sv("0+"), sv("0-"), sv("00")])
    assert topes(M) == ()


def test_flat_poset_figure1(figure1):
    flats = {frozenset(figure1.ground.labels[i] for i in f) for f in flat_poset(figure1)}
    assert flats == {
        frozenset(),
        frozenset({"1"}),
        frozenset({"2"}),
        frozenset({"3"}),
        frozenset({"1", "2", "3"}),
    }


def test_flat_poset_rectangle(figure1_rect):
    flats = {
        frozenset(figure1_rect.ground.labels[i] for i in f)
        for f in flat_poset(figure1_rect)
    }
    assert frozenset({"4"}) in flats
    assert len(flats) == 6


def test_flat_poset_single_tope():
    M = COM(GroundSet(("a",)), [sv("+")])
    assert flat_poset(M) == (frozenset(),)


def test_flat_poset_intersection_closed(corpus):
    for M in corpus.values():
        flats = set(flat_poset(M))
        for f in flats:
            for g in flats:
                assert f & g in flats
        assert flat_poset(M)[0] == coloops(M)


def test_restrict_figure1(figure1):
    R = restrict(figure1, frozenset({0, 1, 2}))
    assert R.ground.labels == ("1", "2", "3")
    assert SignedVector((0, 0, 0)) in R
    R2 = restrict(figure1, frozenset({1}))
    assert {v.to_string() for v in R2.covectors} == {"+", "-", "0"}


def test_restrict_empty_flat(figure1):
    R = restrict(figure1, frozenset())
    assert R.ground.size == 0
    assert len(R) == 1


def test_restrict_requires_flat(figure1):
    with pytest.raises(COMError):
        restrict(figure1, frozenset({3}))  # {4} is not a flat
    for bad in ({-1}, {9}):  # indices off the ground set name no flat either
        with pytest.raises(COMError, match="is not a flat"):
            contract(figure1, bad)


def test_contract_figure1(figure1):
    C = contract(figure1, frozenset({1}))
    assert {v.to_string() for v in C.covectors} == {"+++", "00+", "--+"}
    assert C.ground.labels == ("1", "3", "4")
    C2 = contract(figure1, frozenset({0, 1, 2}))
    assert [v.to_string() for v in C2.covectors] == ["+"]


def test_contract_empty_flat_is_identity(figure1):
    assert contract(figure1, frozenset()) == figure1


def test_contract_never_has_coloops(corpus):
    for M in corpus.values():
        for F in flat_poset(M):
            assert coloops(contract(M, F)) == frozenset()


def test_unchecked_constructions_satisfy_the_axioms(corpus):
    """Minors, generated and enumerated families are built without an axiom
    check; they must be COMs all the same."""
    for M in corpus.values():
        for F in flat_poset(M):
            assert check_axioms(contract(M, F).covectors)["ok"]
            R = restrict(M, F)
            assert check_axioms(R.covectors)["ok"]
            assert SignedVector((0,) * len(F)) in R
    for n in range(1, 5):
        assert check_axioms(braid_com(n).covectors)["ok"]
    for n in range(1, 4):
        assert check_axioms(enumerate_covectors(braid_arrangement(n)).covectors)["ok"]


def test_act_and_automorphism(braid2, figure1):
    ident = SignedPermutation.identity(figure1.ground.size)
    assert verify_automorphism(figure1, ident)
    # swapping the two chambers of one hyperplane: sign flip
    flip = SignedPermutation((0,), (-1,))
    assert verify_automorphism(braid2, flip)
    assert act(flip, sv("+")) == sv("-")
    # sign flip at element 4 is not an automorphism: every covector has +
    flip4 = SignedPermutation((0, 1, 2, 3), (1, 1, 1, -1))
    assert not verify_automorphism(figure1, flip4)


def test_automorphisms_compose(figure1):
    flip123 = SignedPermutation((0, 1, 2, 3), (-1, -1, -1, 1))
    assert verify_automorphism(figure1, flip123)
    assert verify_automorphism(figure1, flip123.compose(flip123))


def test_signed_permutation_algebra():
    w = SignedPermutation((1, 2, 0), (1, -1, 1))
    assert w.compose(w.inverse()) == SignedPermutation.identity(3)
    assert w.inverse().compose(w) == SignedPermutation.identity(3)
    x = sv("+-0")
    assert act(w.inverse(), act(w, x)) == x


def test_com_json_roundtrip(figure1):
    data = figure1.to_json_dict()
    again = COM.from_json_dict(data)
    assert again == figure1


def test_com_hash_follows_equality(figure1):
    shuffled = COM(figure1.ground, reversed(figure1.covectors))
    assert shuffled == figure1 and hash(shuffled) == hash(figure1)
    assert len({figure1, shuffled, COM.from_json_dict(figure1.to_json_dict())}) == 1


def test_empty_ground_set():
    M = COM(GroundSet(()), [SignedVector(())])
    assert len(M) == 1
    assert topes(M) == (SignedVector(()),)
    assert flat_poset(M) == (frozenset(),)


def test_contract_is_built_once_per_flat(figure1):
    for F in flat_poset(figure1):
        assert contract(figure1, F) is contract(figure1, set(F))
