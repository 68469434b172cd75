"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints a single PASS line on success (visible with -s or in the
captured-output section) and enforces the stated runtime bounds.  All
arithmetic is exact, so every equality is checked with zero tolerance.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from covg import (
    GroupSpec,
    QQ,
    braid_arrangement,
    braid_automorphism_generators,
    braid_com,
    check_axioms,
    contract,
    covector_locus,
    enumerate_covectors,
    flat_poset,
    graded_character,
    hilbert_series,
    jsonio,
    kostant_locus,
    locus_action,
    nbc_basis,
    permmatrix_locus,
    permutohedral_locus,
    tope_ideal_generators,
    tope_locus,
    topes,
    verify_basis,
    verify_covector_presentation,
    verify_graded_module_structure,
    z_ideal_generators,
)
from covg import permstats
from covg.harmonics import EvaluationFiltration, braid_tope_series_report, gr_membership
from covg.matroidal import (
    basic_sets,
    check_tope_contraction_count,
    check_two_values,
    circuits,
    codim,
    minimal_nonbasic_sets,
    nbc_sets,
)

BRAID_BIG_TABLE = {
    1: [1],
    2: [1, 2],
    3: [1, 6, 6],
    4: [1, 12, 36, 26],
    5: [1, 20, 120, 250, 150],
}


def _cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "covg.cli", *argv],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode in (0, 1), proc.stderr
    return proc.returncode, json.loads(proc.stdout)


def test_criterion_1_figure1_worked_example(figure1):
    started = time.monotonic()
    assert check_axioms(figure1.covectors)["ok"]
    assert len(figure1) == 13
    assert len(topes(figure1)) == 6
    flats = {frozenset(figure1.ground.labels[i] for i in f) for f in flat_poset(figure1)}
    assert flats == {
        frozenset(),
        frozenset({"1"}),
        frozenset({"2"}),
        frozenset({"3"}),
        frozenset({"1", "2", "3"}),
    }
    basics = basic_sets(figure1, frozenset({0, 1, 2}))
    assert set(basics) == {frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}
    assert set(minimal_nonbasic_sets(figure1)) == {
        frozenset({0, 1, 2}),
        frozenset({3}),
    }
    assert [str(g) for g in z_ideal_generators(figure1)] == [
        "z1*z2*z3",
        "z4",
        "z1*z2 - z1*z3",
        "z1*z2 - z2*z3",
        "z1*z3 - z2*z3",
    ]
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: figure1 worked example ({elapsed:.2f}s)")


def test_criterion_2_braid_big_hilbert_table(tmp_path):
    times = {}
    for n in range(1, 6):
        com_path = tmp_path / f"braid{n}.json"
        jsonio.write_json(com_path, braid_com(n).to_json_dict())
        field_args = [] if n <= 4 else ["--field", "fp:1000003"]
        started = time.monotonic()
        code, rep = _cli(*field_args, "hilbert", str(com_path), "--which", "big", "--method", "rank")
        times[n] = time.monotonic() - started
        assert code == 0
        assert rep["results"]["coeffs"] == BRAID_BIG_TABLE[n], n
        code, rep = _cli("hilbert", str(com_path), "--which", "big", "--method", "nbc")
        assert rep["results"]["coeffs"] == BRAID_BIG_TABLE[n], n
    assert all(times[n] < 10.0 for n in range(1, 5)), times
    assert times[5] < 30.0, times
    # rational confirmation of the n=5 row, within the five-minute budget
    started = time.monotonic()
    assert hilbert_series(covector_locus(braid_com(5)), QQ).coeffs == tuple(
        BRAID_BIG_TABLE[5]
    )
    assert time.monotonic() - started < 300.0
    print(f"\nACCEPTANCE 2 PASS: braid big Hilbert table n=1..5, rank and nbc agree ({times[5]:.1f}s at n=5)")


def test_criterion_3_small_braid_series_and_flag():
    for n in range(2, 6):
        report = braid_tope_series_report(n)
        expected = [1]
        for i in range(1, n):
            nxt = [0] * (len(expected) + 1)
            for d, c in enumerate(expected):
                nxt[d] += c
                nxt[d + 1] += i * c
            expected = nxt
        assert report["computed"] == expected, n
        assert sum(report["computed"]) == math.factorial(n)
        assert report["matches_cycle_defect"]
        assert not report["matches_rising_factorial"]  # the documented discrepancy
    print("\nACCEPTANCE 3 PASS: small braid series equals prod(1+iq), rising-factorial form flagged")


def test_criterion_4_generator_membership_suite(corpus):
    for name, M in corpus.items():
        locus = tope_locus(M)
        filt = EvaluationFiltration(locus, QQ)
        gens = tope_ideal_generators(M)
        for g in gens["affine"]:
            assert all(g.evaluate(p) == 0 for p in locus.points), (name, str(g))
        for g in gens["graded"]:
            assert gr_membership(locus, g, QQ, filt), (name, str(g))
        rep = verify_covector_presentation(M)
        assert not rep["membership"]["failures"], name
        assert not rep["j_sweep"]["failures"], name
    print("\nACCEPTANCE 4 PASS: all ideal generators pass graded membership, every J choice")


def test_criterion_5_basis_suite(corpus):
    for name, M in corpus.items():
        bases = nbc_basis(M)
        assert len(bases.covector) == len(M), name
        assert verify_basis(covector_locus(M), bases.covector), name
        if topes(M):
            assert verify_basis(tope_locus(M), bases.tope), name
        for F, monos in bases.covector_strata.items():
            MF = contract(M, F)
            assert len(monos) == len(nbc_sets(MF)), (name, F)
            c = codim(M, F)
            expected = sorted(len(N) + c for N in nbc_sets(MF))
            assert sorted(m.degree() for m in monos) == expected, (name, F)
    print("\nACCEPTANCE 5 PASS: NBC monomials are bases; stratum sizes match")


def test_criterion_6_counting_lemmas(corpus):
    rng = random.Random(2024)
    for name, M in corpus.items():
        n = M.ground.size
        assert len(nbc_sets(M)) == len(topes(M)), name
        for _ in range(5):
            order = list(range(n))
            rng.shuffle(order)
            assert len(nbc_sets(M, tuple(order))) == len(topes(M)), name
        assert check_tope_contraction_count(M)["ok"], name
        flats = list(flat_poset(M))
        for F in flats:
            sizes = {len(b) for b in basic_sets(M, F)}
            assert len(sizes) == 1, (name, F)
        for f1 in flats:
            for f2 in flats:
                if f1 <= f2:
                    assert any(
                        b1 <= b2
                        for b1 in basic_sets(M, f1)
                        for b2 in basic_sets(M, f2)
                    ), (name, f1, f2)
    print("\nACCEPTANCE 6 PASS: NBC/tope counts, contraction counting, basic-set lemmas")


def test_criterion_7_two_values_exhaustive(corpus):
    started = time.monotonic()
    checked = 0
    for name, M in corpus.items():
        for F in flat_poset(M):
            MF = contract(M, F)
            for c in circuits(MF):
                if not c.symmetric:
                    continue
                supp = sorted(c.vector.support())
                for sub in range(1, 2 ** len(supp) - 1):
                    J = {supp[i] for i in range(len(supp)) if sub >> i & 1}
                    rep = check_two_values(M, F, c.vector, J)
                    checked += 1
                    assert rep["ok"], (name, F, c.vector.to_string(), J)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    assert checked > 100
    print(f"\nACCEPTANCE 7 PASS: two-values check, {checked} (flat, circuit, J) triples ({elapsed:.1f}s)")


@pytest.mark.parametrize("n", [3, 4])
def test_criterion_8_equivariant(n):
    started = time.monotonic()
    M = braid_com(n)
    G = GroupSpec.from_generators(M, braid_automorphism_generators(n))
    locus = covector_locus(M)
    ch = graded_character(locus, G)
    series = hilbert_series(locus)
    ident = next(w for w in G.elements if w.perm == tuple(range(M.ground.size))
                 and all(s == 1 for s in w.signs))
    assert tuple(int(v) for v in ch.values[ident]) == series.coeffs
    for w in G.elements:
        perm = locus_action(locus, w)
        fixed = sum(1 for k, img in enumerate(perm) if k == img)
        assert sum(ch.values[w]) == fixed
    assert verify_graded_module_structure(M, G).ok
    elapsed = time.monotonic() - started
    if n == 4:
        assert elapsed < 120.0
    print(f"\nACCEPTANCE 8 PASS: graded character and decomposition for braid n={n} ({elapsed:.1f}s)")


def test_criterion_8_equivariant_braid5_gate():
    """The braid n=5 decomposition check under S_5, over Q, in under 60 s."""
    started = time.monotonic()
    M = braid_com(5)
    G = GroupSpec.from_generators(M, braid_automorphism_generators(5))
    assert len(G.classes) == 7
    assert verify_graded_module_structure(M, G).ok
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8 PASS: decomposition for braid n=5 under S_5 ({elapsed:.1f}s)")


def test_criterion_9_permutation_loci():
    for n in range(1, 6):
        assert hilbert_series(kostant_locus(n)).coeffs == tuple(permstats.mahonian(n)), n
    for n in range(1, 5):
        assert hilbert_series(permutohedral_locus(n)).coeffs == tuple(permstats.eulerian(n)), n
        assert hilbert_series(permmatrix_locus(n)).coeffs == tuple(permstats.lis_defect(n)), n
    assert hilbert_series(kostant_locus(3)).coeffs == (1, 2, 2, 1)
    assert hilbert_series(permutohedral_locus(3)).coeffs == (1, 4, 1)
    assert hilbert_series(permmatrix_locus(3)).coeffs == (1, 4, 1)
    print("\nACCEPTANCE 9 PASS: Mahonian, Eulerian, and lis-defect distributions recovered")


def test_criterion_10_realization(tmp_path):
    for n in range(1, 5):
        assert enumerate_covectors(braid_arrangement(n)) == braid_com(n), n
    from covg import AffineForm, lp_strict_feasible
    from fractions import Fraction as F

    def form(coeffs, const=0):
        return AffineForm(tuple(F(c) for c in coeffs), F(const))

    r = lp_strict_feasible([form((1, -1, 0)), form((1, 0, -1)), form((0, -1, 1))], [], 3)
    assert r.feasible and r.witness[0] > r.witness[1]
    assert not lp_strict_feasible([form((1,)), form((-1,))], [], 1).feasible
    assert not lp_strict_feasible(
        [form((1, -1, 0)), form((0, 1, -1)), form((-1, 0, 1))], [], 3
    ).feasible
    arr = braid_arrangement(3)
    path = tmp_path / "braid3_arr.json"
    jsonio.write_json(path, arr.to_json_dict())
    first = path.read_bytes()
    from covg import Arrangement

    again = Arrangement.from_json_dict(jsonio.read_json(path))
    jsonio.write_json(path, again.to_json_dict())
    assert path.read_bytes() == first
    print("\nACCEPTANCE 10 PASS: enumeration matches braid n<=4, LP suite, JSON round-trip")
