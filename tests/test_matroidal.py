import random

import pytest

from covg import (
    COM,
    GroundSet,
    SignedVector,
    basic_sets,
    braid_com,
    check_tope_contraction_count,
    check_two_values,
    circuits,
    closure,
    codim,
    contract,
    flat_poset,
    minimal_nonbasic_sets,
    mixing_subsets,
    nbc_sets,
    nonbasic,
    topes,
)
from covg.com import bits, mask_of
from covg.matroidal import MatroidalError, _submasks, default_basic_set

sv = SignedVector.from_string


def test_circuits_of_figure1_contraction(figure1):
    MF = contract(figure1, frozenset({1}))
    got = {(c.vector.to_string(), c.symmetric) for c in circuits(MF)}
    assert got == {("00-", False), ("+-0", True), ("-+0", True)}


def test_circuit_of_point_contraction(figure1):
    MF = contract(figure1, frozenset({0, 1, 2}))
    got = [(c.vector.to_string(), c.symmetric) for c in circuits(MF)]
    assert got == [("-", False)]


def test_free_com_has_no_circuits():
    M = COM(GroundSet(("a",)), [sv("+"), sv("-"), sv("0")])
    assert circuits(M) == ()


def test_circuit_ground_cap():
    labels = tuple(f"e{i}" for i in range(15))
    M = COM(GroundSet(labels), [SignedVector((1,) * 15)])
    with pytest.raises(MatroidalError, match="circuit search capped at 14 ground elements, got 15"):
        circuits(M)


def test_circuit_conditions_hold(corpus):
    """Both defining conditions, rechecked against the full definition:
    composition with a circuit never fixes a covector, and every proper
    signed subset does fix one."""
    from covg.com import compose

    for M in corpus.values():
        for c in circuits(M):
            x = c.vector
            assert all(compose(x, y) != y for y in M.covectors)
            supp = sorted(x.support())
            for drop in supp:
                z = SignedVector(0 if i == drop else s for i, s in enumerate(x.signs))
                assert any(compose(z, y) == y for y in M.covectors)


def _circuits_by_definition(M):
    """Circuits straight from the definition, over all 3^n sign vectors: X != 0
    fixes no covector (compose(X, Y) != Y for every Y), while each corank-1
    subpattern of X fixes some covector; X is symmetric when -X is a circuit."""
    from itertools import product

    from covg.com import compose

    def fixes_some(x):
        return any(compose(x, y) == y for y in M.covectors)

    found = set()
    for signs in product((0, 1, -1), repeat=M.ground.size):
        x = SignedVector(signs)
        if not any(signs) or fixes_some(x):
            continue
        if all(
            fixes_some(SignedVector(0 if j == i else s for j, s in enumerate(signs)))
            for i, s in enumerate(signs)
            if s
        ):
            found.add(x)
    return {(x.to_string(), -x in found) for x in found}


def _corpus_and_braid4_contractions(corpus, braid4):
    coms = list(corpus.values()) + [contract(braid4, F) for F in flat_poset(braid4)]
    assert len(coms) == len(corpus) + 15
    return coms


def test_circuit_search_complete(corpus, braid4):
    """circuits(M) is exactly the set the definition gives, flags included."""
    for M in _corpus_and_braid4_contractions(corpus, braid4):
        expected = _circuits_by_definition(M)
        assert {(c.vector.to_string(), c.symmetric) for c in circuits(M)} == expected, M


def test_condition_one_monotone_under_shrinking(corpus):
    """If a pattern fixes no covector, neither does any extension of it;
    equivalently shrinking a fixing pattern keeps it fixing.  This is the
    monotonicity that justifies the corank-1 minimality check."""
    from covg.com import compose

    rng = random.Random(7)
    for M in corpus.values():
        vectors = list(M.covectors)
        for _ in range(50):
            y = rng.choice(vectors)
            z = SignedVector(s if rng.random() < 0.5 else 0 for s in y.signs)
            assert compose(z, y) == y  # any subpattern of y fixes y
            # and shrinking z further still fixes y
            z2 = SignedVector(s if rng.random() < 0.5 else 0 for s in z.signs)
            assert compose(z2, y) == y


def test_symmetric_circuit_support_singleton_iff_coloop(corpus):
    from covg import coloops

    def singleton_supports(M):
        return {
            next(iter(c.vector.support()))
            for c in circuits(M)
            if c.symmetric and len(c.vector.support()) == 1
        }

    M = COM(GroundSet(("a", "b")), [sv("0+"), sv("0-"), sv("00")])
    assert singleton_supports(M) == coloops(M) == {0}
    for M in corpus.values():  # the corpus is coloop-free
        assert singleton_supports(M) == coloops(M) == frozenset()


def test_nbc_count_equals_topes(corpus):
    for name, M in corpus.items():
        assert len(nbc_sets(M)) == len(topes(M)), name


def test_nbc_count_order_invariant(corpus):
    rng = random.Random(11)
    for M in corpus.values():
        n = M.ground.size
        for _ in range(5):
            order = list(range(n))
            rng.shuffle(order)
            assert len(nbc_sets(M, tuple(order))) == len(topes(M))


def test_nbc_sets_figure1(figure1):
    sets = nbc_sets(figure1)
    assert len(sets) == 6
    labelled = {frozenset(figure1.ground.labels[i] for i in s) for s in sets}
    assert labelled == {
        frozenset(),
        frozenset({"1"}),
        frozenset({"2"}),
        frozenset({"3"}),
        frozenset({"1", "2"}),
        frozenset({"1", "3"}),
    }


def test_nbc_avoids_circuit_supports(corpus):
    for M in corpus.values():
        supports = [c.vector.support() for c in circuits(M)]
        for N in nbc_sets(M):
            assert all(not supp <= N for supp in supports)


def test_nbc_all_subsets_when_no_circuits():
    M = COM(GroundSet(("a",)), [sv("+"), sv("-"), sv("0")])
    assert len(nbc_sets(M)) == 2  # every subset of a 1-element set


def test_closure_figure1(figure1):
    assert closure(figure1, {0, 1}) == frozenset({0, 1, 2})
    assert closure(figure1, set()) == frozenset()
    assert closure(figure1, {3}) is None


def test_closure_empty_is_coloops():
    M = COM(GroundSet(("a", "b")), [sv("0+"), sv("0-"), sv("00")])
    assert closure(M, set()) == frozenset({0})


def test_basic_sets_figure1(figure1):
    F = frozenset({0, 1, 2})
    basics = basic_sets(figure1, F)
    assert set(basics) == {
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    }
    assert codim(figure1, F) == 2
    assert default_basic_set(figure1, F) == frozenset({0, 1})
    assert codim(figure1, frozenset()) == 0
    assert basic_sets(figure1, frozenset()) == (frozenset(),)


def test_minimal_nonbasic_figure1(figure1):
    got = minimal_nonbasic_sets(figure1)
    assert set(got) == {frozenset({0, 1, 2}), frozenset({3})}
    assert nonbasic(figure1, {3})
    assert nonbasic(figure1, {0, 1, 2})
    assert not nonbasic(figure1, {0, 1})


def test_minimal_nonbasic_sets_match_their_definition(corpus):
    """One closure per subset mask gives the sets that `nonbasic` calls
    minimal nonbasic, also where no flat contains a set (the only flat of a
    lone tope is the empty set, so its one element is nonbasic)."""
    coms = dict(corpus, braid5=braid_com(5), lone_tope=COM(GroundSet(("a",)), [sv("+")]))
    for name, M in coms.items():
        n = M.ground.size
        subsets = [frozenset(i for i in range(n) if sub >> i & 1) for sub in range(1 << n)]
        expected = {
            C for C in subsets if nonbasic(M, C) and not any(nonbasic(M, C - {c}) for c in C)
        }
        got = minimal_nonbasic_sets(M)
        assert set(got) == expected and len(got) == len(expected), name
    assert minimal_nonbasic_sets(coms["lone_tope"]) == (frozenset({0}),)


def test_basic_sets_match_their_definition(corpus):
    """The closure table over a flat gives the basic sets that `closure`
    defines, in the same order and with the same frozenset iteration order,
    also for a flat whose basic sets differ in size."""
    signs = ("+++", "+0+", "++0", "000", "---", "-0-", "--0")
    unequal = COM(GroundSet(("a", "b", "c")), [sv(s) for s in signs])
    coms = dict(
        corpus,
        braid5=braid_com(5),
        lone_tope=COM(GroundSet(("a",)), [sv("+")]),
        parallel4=_parallel_class(4),
        unequal=unequal,
    )
    for name, M in coms.items():
        for F in flat_poset(M):
            expected = [
                B
                for B in map(bits, _submasks(mask_of(F)))
                if closure(M, B) == F and all(closure(M, B - {b}) != F for b in B)
            ]
            expected.sort(key=lambda s: tuple(sorted(s)))
            got = [tuple(b) for b in basic_sets(M, F)]
            assert got == [tuple(b) for b in expected], (name, sorted(F))
    assert sorted(map(sorted, basic_sets(unequal, frozenset({0, 1, 2})))) == [[0], [1, 2]]


def test_basic_sets_share_cardinality(corpus):
    for M in corpus.values():
        for F in flat_poset(M):
            sizes = {len(b) for b in basic_sets(M, F)}
            assert len(sizes) == 1


def test_basic_sets_nest_along_flat_containment(corpus):
    for M in corpus.values():
        flats = list(flat_poset(M))
        for f1 in flats:
            for f2 in flats:
                if f1 <= f2:
                    b1s, b2s = basic_sets(M, f1), basic_sets(M, f2)
                    assert any(b1 <= b2 for b1 in b1s for b2 in b2s)


def test_basic_sets_requires_flat(figure1):
    for bad in ({3}, {-1}, {9}):
        with pytest.raises(MatroidalError, match="is not a flat"):
            basic_sets(figure1, frozenset(bad))


def test_tope_contraction_count_figure1(figure1):
    rep = check_tope_contraction_count(figure1)
    assert rep["ok"]
    assert rep["covectors"] == 13
    counts = sorted(rep["topes_per_flat"].values(), reverse=True)
    assert counts == [6, 2, 2, 2, 1]


def test_tope_contraction_count_corpus(corpus):
    for M in corpus.values():
        assert check_tope_contraction_count(M)["ok"]


def test_tope_contraction_single_tope():
    M = COM(GroundSet(("a",)), [sv("+")])
    rep = check_tope_contraction_count(M)
    assert rep["ok"] and rep["covectors"] == 1


def test_two_values_figure1(figure1):
    rep = check_two_values(figure1, frozenset({1}), sv("+-0"), {1})
    assert rep["ok"]


def test_two_values_exhaustive_braid(braid3, braid4):
    for M in (braid3, braid4):
        for F in flat_poset(M):
            MF = contract(M, F)
            for c in circuits(MF):
                if not c.symmetric:
                    continue
                supp = sorted(c.vector.support())
                for sub in range(1, 2 ** len(supp) - 1):
                    J = {supp[i] for i in range(len(supp)) if sub >> i & 1}
                    assert check_two_values(M, F, c.vector, J)["ok"]


def test_two_values_rejects_bad_subset(figure1):
    with pytest.raises(MatroidalError):
        check_two_values(figure1, frozenset({1}), sv("+-0"), set())
    with pytest.raises(MatroidalError):
        check_two_values(figure1, frozenset({1}), sv("+-0"), {0, 1})
    with pytest.raises(MatroidalError):
        check_two_values(figure1, frozenset({1}), sv("00-"), {0})


def _explicit_two_values_loop(M):
    out = []
    for F in flat_poset(M):
        MF = contract(M, F)
        for c in circuits(MF):
            if not c.symmetric:
                continue
            supp = sorted(c.vector.support())
            for sub in range(1, 2 ** len(supp) - 1):
                J = frozenset(supp[i] for i in range(len(supp)) if sub >> i & 1)
                out.append((F, c.vector, J))
    return out


def test_mixing_subsets_matches_explicit_loop(figure1, braid3, braid4):
    for M in (figure1, braid3, braid4):
        expected = _explicit_two_values_loop(M)
        assert expected
        assert list(mixing_subsets(M)) == expected
        capped = list(mixing_subsets(M, max_support=2))
        assert capped == [t for t in expected if len(t[1].support()) <= 2]
        assert all(len(X.support()) <= 2 for _F, X, _J in capped)
    assert list(mixing_subsets(braid4, max_support=2))


def test_two_values_sweep_checks_each_contraction_once(braid4, monkeypatch):
    import covg.com

    calls = []
    real = covg.com.check_axioms

    def counting(vectors):
        calls.append(1)
        return real(vectors)

    monkeypatch.setattr(covg.com, "check_axioms", counting)
    covg.com._contract_cached.cache_clear()
    reports = [check_two_values(braid4, F, X, J) for F, X, J in mixing_subsets(braid4)]
    assert reports and all(rep["ok"] for rep in reports)
    assert len(flat_poset(braid4)) == 15
    assert calls == []  # contractions of a COM are COMs: none is re-checked


def test_sign_masks_match_covectors(corpus, braid4):
    """The keys and masks a COM computes once agree with its covectors and flats."""
    from covg.com import bits, flats_of, mask_of, vector_of

    for M in _corpus_and_braid4_contractions(corpus, braid4):
        n = M.ground.size
        for k, v in enumerate(M.covectors):
            assert vector_of(M.keys[k], n) == v
            assert bits(M.zero_masks[k]) == frozenset(i for i, s in enumerate(v.signs) if not s)
        assert M.flat_masks == {mask_of(F) for F in flats_of(M)}


def test_basic_sets_read_flat_masks(braid4, monkeypatch):
    import covg.matroidal

    calls = []
    real = covg.matroidal.flats_of

    def counting(M):
        calls.append(1)
        return real(M)

    monkeypatch.setattr(covg.matroidal, "flats_of", counting)
    flats = covg.matroidal.flats_of(braid4)
    basics = [basic_sets(braid4, F) for F in flats]
    assert len(basics[-1]) == 16  # spanning trees of K_4
    assert len(calls) == 1  # basic_sets and closure read braid4.flat_masks


def _parallel_class(n):
    """{0, +^n, -^n}: n parallel elements, a COM on n elements with two flats."""
    vectors = [SignedVector((s,) * n) for s in (0, 1, -1)]
    return COM(GroundSet(tuple(f"e{i}" for i in range(n))), vectors)


def test_subset_scans_refused_up_front():
    from covg.matroidal import MAX_SUBSET_GROUND

    M = _parallel_class(MAX_SUBSET_GROUND + 1)
    whole = frozenset(range(MAX_SUBSET_GROUND + 1))
    with pytest.raises(MatroidalError, match=r"^minimal_nonbasic_sets scans 2\^21 subsets"):
        minimal_nonbasic_sets(M)
    with pytest.raises(MatroidalError, match=r"^basic_sets scans 2\^21 subsets; capped at 20"):
        basic_sets(M, whole)
    assert basic_sets(M, frozenset()) == (frozenset(),)
    # below the cap the scans run: every pair of parallel elements is minimal nonbasic
    pairs = tuple(frozenset({i, j}) for i in range(4) for j in range(i + 1, 4))
    assert minimal_nonbasic_sets(_parallel_class(4)) == pairs
