"""Group actions on loci, graded characters, induction, and the check that
the covector ring decomposes into induced tope rings of contractions.

Groups are supplied by generators and closed by breadth-first multiplication;
nothing here searches for the full automorphism group (a brute-force search
for tiny ground sets lives at the bottom as a test utility).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from .com import COM, SignedPermutation, SignedVector, act, contract, flats_of, verify_automorphism
from .config import DEFAULT_LIMITS
from .exactla import QQ, rational
from .harmonics import EvaluationFiltration, covector_locus, tope_locus
from .matroidal import codim


class EquivariantError(Exception):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """A finite group of COM automorphisms, closed and cached from generators."""

    com: COM
    generators: tuple
    elements: tuple

    @classmethod
    def from_generators(cls, com, generators, limits=DEFAULT_LIMITS):
        n = com.ground.size
        gens = tuple(generators) or (SignedPermutation.identity(n),)
        for g in gens:
            if len(g) != n:
                raise EquivariantError("generator size does not match the ground set")
        # products of automorphisms are automorphisms: checking the generators
        # refuses a bad group before any closure work
        for g in gens:
            if not verify_automorphism(com, g):
                raise EquivariantError(
                    "a closed group element is not an automorphism of the COM"
                )
        seen = {SignedPermutation.identity(n)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    u = g.compose(w)
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
                        if len(seen) > limits.max_group_order:
                            raise EquivariantError(
                                f"group closure exceeded {limits.max_group_order} elements"
                            )
            frontier = nxt
        elements = tuple(sorted(seen, key=lambda w: (w.perm, w.signs)))
        return cls(com, gens, elements)

    @property
    def order(self):
        return len(self.elements)

    def stabilizer_elements(self, flat):
        flat = frozenset(flat)
        return tuple(
            w for w in self.elements if frozenset(w.perm[i] for i in flat) == flat
        )

    def flat_orbits(self):
        """Orbits on the flat poset, each listed with its lex-smallest representative."""
        flats = list(flats_of(self.com))
        seen = set()
        orbits = []
        for f in flats:
            if f in seen:
                continue
            orbit = {frozenset(w.perm[i] for i in f) for w in self.elements}
            seen |= orbit
            rep = min(orbit, key=lambda g: tuple(sorted(g)))
            orbits.append((rep, frozenset(orbit)))
        return orbits

    def to_json_dict(self):
        labels = self.com.ground.labels
        return {
            "generators": [
                {"perm": [labels[g.perm[i]] for i in range(len(g))], "signs": list(g.signs)}
                for g in self.generators
            ]
        }

    @classmethod
    def from_json_dict(cls, com, data, limits=DEFAULT_LIMITS):
        gens = []
        for g in data["generators"]:
            perm = tuple(com.ground.index(l) for l in g["perm"])
            signs = tuple(map(rational, g["signs"]))
            gens.append(SignedPermutation(perm, signs))
        return cls.from_generators(com, gens, limits)


def locus_action(locus, w):
    """The permutation of locus point indices induced by a signed permutation.

    Points must be labeled by covector strings; the image of a label must be
    present, otherwise w is not an automorphism and we refuse.
    """
    if locus.label_kind != "covector":
        raise EquivariantError("only covector-labeled loci carry this action")
    index = {l: k for k, l in enumerate(locus.labels)}
    perm = []
    for label in locus.labels:
        image = act(w, SignedVector.from_string(label)).to_string()
        if image not in index:
            raise EquivariantError(
                f"image covector {image} is missing; not an automorphism"
            )
        perm.append(index[image])
    return tuple(perm)


@dataclass
class GradedCharacter:
    """Per-element traces on the graded pieces of the evaluation filtration."""

    degrees: int
    values: dict  # SignedPermutation -> tuple of field values, one per degree

    def value(self, w, d):
        v = self.values[w]
        return v[d] if 0 <= d < len(v) else 0

    def __eq__(self, other):
        if set(self.values) != set(other.values):
            return False
        n = max(self.degrees, other.degrees)
        return all(
            self.value(w, d) == other.value(w, d)
            for w in self.values
            for d in range(n)
        )


def graded_character(locus, group, field=QQ, filtration=None):
    """Traces of each group element on each filtration quotient F_d / F_{d-1}."""
    if field.characteristic and field.characteristic <= group.order:
        raise EquivariantError("character computations need char 0 or p > group order")
    filt = filtration or EvaluationFiltration(locus, field)
    filt.build()
    values = {}
    for w in group.elements:
        diffs = _graded_traces(filt, locus_action(locus, w))
        if diffs[0] != 1:
            raise EquivariantError("degree-0 character value must be 1")
        values[w] = tuple(diffs)
    return GradedCharacter(len(filt.coeffs), values)


def _graded_traces(filt, perm):
    """Trace of a point permutation on each quotient F_d / F_{d-1} of a built filtration."""
    traces = [0] + [
        filt.space_upto(d).trace_under_permutation(perm) for d in range(len(filt.coeffs))
    ]
    return [filt.field.of(t - prev) for prev, t in zip(traces, traces[1:])]


def induced_character(group, sub_elements, chi_values):
    """Induce a by-degree character from a subgroup to the whole group.

    chi_values maps each subgroup element to a tuple of degree values; the
    induced value at g is the average over x in G of chi(x^-1 g x), counting
    only conjugates landing in the subgroup.
    """
    sub = set(sub_elements)
    if not sub:
        raise EquivariantError("subgroup must be nonempty")
    if not sub <= set(group.elements):
        raise EquivariantError("subgroup elements must lie in the group")
    for a in sub:
        for b in sub:
            if a.compose(b) not in sub:
                raise EquivariantError("subgroup is not closed under composition")
    degrees = max((len(v) for v in chi_values.values()), default=0)
    values = {}
    for g in group.elements:
        acc = [Fraction(0)] * degrees
        for x in group.elements:
            conj = x.inverse().compose(g).compose(x)
            if conj in sub:
                v = chi_values[conj]
                for d in range(degrees):
                    acc[d] += v[d] if d < len(v) else 0
        values[g] = tuple(a / len(sub) for a in acc)
    return GradedCharacter(degrees, values)


@dataclass
class DecompositionReport:
    orbit_reps: list
    lhs: GradedCharacter
    rhs: GradedCharacter
    mismatches: list

    @property
    def ok(self):
        return not self.mismatches

    def as_dict(self):
        def table(ch):
            return {
                "|".join(map(str, w.perm)) + ";" + "|".join(map(str, w.signs)): [
                    str(v) for v in vals
                ]
                for w, vals in sorted(ch.values.items(), key=lambda kv: (kv[0].perm, kv[0].signs))
            }

        return {
            "orbit_representatives": [sorted(f) for f in self.orbit_reps],
            "covector_character": table(self.lhs),
            "induced_sum_character": table(self.rhs),
            "mismatches": self.mismatches,
            "ok": self.ok,
        }


def restricted_permutation(w, flat, n):
    """Restrict a flat-stabilizing signed permutation to the complement of the flat."""
    keep = [i for i in range(n) if i not in flat]
    back = {e: k for k, e in enumerate(keep)}
    perm = tuple(back[w.perm[i]] for i in keep)
    signs = tuple(w.signs[i] for i in keep)
    return SignedPermutation(perm, signs)


def verify_graded_module_structure(M, group, field=QQ, limits=DEFAULT_LIMITS):
    """Match the graded character of the covector locus against the sum over
    flat orbits of induced, degree-shifted tope characters of contractions."""
    if field.characteristic:
        raise EquivariantError("the decomposition check compares characters over the rationals")
    big = graded_character(covector_locus(M), group, field)
    n = M.ground.size
    reps = []
    induced_parts = []
    for rep, _orbit in group.flat_orbits():
        reps.append(rep)
        stab = group.stabilizer_elements(rep)
        MF = contract(M, rep)
        locus = tope_locus(MF)
        filt = EvaluationFiltration(locus, field).build()
        shift = codim(M, rep)
        chi = {}
        for w in stab:
            perm = locus_action(locus, restricted_permutation(w, rep, n))
            chi[w] = tuple([0] * shift + _graded_traces(filt, perm))
        induced_parts.append(induced_character(group, stab, chi))
    width = max([big.degrees] + [ind.degrees for ind in induced_parts])
    total = {w: [Fraction(0)] * width for w in group.elements}
    for ind in induced_parts:
        for w in group.elements:
            for d in range(width):
                total[w][d] += ind.value(w, d)
    rhs = GradedCharacter(width, {w: tuple(v) for w, v in total.items()})
    mismatches = []
    for w in group.elements:
        for d in range(width):
            if big.value(w, d) != rhs.value(w, d):
                mismatches.append(
                    {
                        "element": {"perm": list(w.perm), "signs": list(w.signs)},
                        "degree": d,
                        "covector_side": str(big.value(w, d)),
                        "induced_side": str(rhs.value(w, d)),
                    }
                )
    return DecompositionReport(reps, big, rhs, mismatches)


def automorphism_group_bruteforce(M, limits=DEFAULT_LIMITS):
    """All signed permutations preserving the covector set; test utility only.

    Cost is n! 2^n automorphism checks, so the ground set is capped at 6.
    """
    n = M.ground.size
    if n > 6:
        raise EquivariantError("brute-force automorphism search is capped at 6 elements")
    found = []
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            w = SignedPermutation(perm, signs)
            if verify_automorphism(M, w):
                found.append(w)
    return GroupSpec.from_generators(M, tuple(found), limits)
