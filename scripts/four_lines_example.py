#!/usr/bin/env python3
"""Walk the four-lines fixture end to end: combinatorics, ideals, bases,
Hilbert series, and the equivariant decomposition under its full
automorphism group."""

from covg import (
    automorphism_group_bruteforce,
    covector_locus,
    fixture,
    flat_poset,
    graded_character,
    hilbert_from_nbc,
    hilbert_series,
    nbc_basis,
    tope_locus,
    topes,
    verify_basis,
    verify_covector_presentation,
    verify_graded_module_structure,
    z_ideal_generators,
)
from covg.matroidal import basic_sets, circuits, codim, minimal_nonbasic_sets


def labels(M, s):
    return "{" + ",".join(M.ground.labels[i] for i in sorted(s)) + "}"


def main():
    M = fixture("figure1")
    print(f"covectors: {len(M)}   topes: {len(topes(M))}")
    print("flats:", " ".join(labels(M, f) for f in flat_poset(M)))
    print("circuits:", ", ".join(
        f"{c.vector.to_string()}{'*' if c.symmetric else ''}" for c in circuits(M)
    ), "(* = symmetric)")
    print("minimal nonbasic sets:", " ".join(labels(M, c) for c in minimal_nonbasic_sets(M)))
    top = frozenset({0, 1, 2})
    print(
        f"basic sets of {labels(M, top)}:",
        " ".join(labels(M, b) for b in basic_sets(M, top)),
        f"(codim {codim(M, top)})",
    )
    print("z-relations:", ", ".join(str(g) for g in z_ideal_generators(M)))
    print("tope series:   ", hilbert_series(tope_locus(M)))
    print("covector series:", hilbert_series(covector_locus(M)),
          "| via NBC:", hilbert_from_nbc(M)["covector"])
    bases = nbc_basis(M)
    print("basis check:", verify_basis(covector_locus(M), bases.covector))
    print("presentation check:", verify_covector_presentation(M)["ok"])
    G = automorphism_group_bruteforce(M)
    print(f"automorphism group order: {G.order}")
    ch = graded_character(covector_locus(M), G)
    for w in G.elements:
        print("  perm", w.perm, "signs", w.signs, "character", [str(v) for v in ch.values[w]])
    print("decomposition check:", verify_graded_module_structure(M, G).ok)


if __name__ == "__main__":
    main()
