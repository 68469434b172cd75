"""Group actions on loci, graded characters, induction, and the check that
the covector ring decomposes into induced tope rings of contractions.

Groups are supplied by generators.  One breadth-first orbit walk, `_orbit`,
closes them, finds their conjugacy classes, walks their orbits on flats and
tests subgroup generating sets; nothing here searches for the full
automorphism group (a brute-force search for tiny ground sets lives at the
bottom as a test utility).  `graded_character` is the one routine that builds
a filtration, checks its invariance and reads traces: the decomposition check
calls it on the covector locus and on each contraction's tope locus.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from . import jsonio
from .com import COMError, Record, SignedPermutation, SignedVector, act, contract, flats_of, verify_automorphism
from .exactla import QQ, rational
from .harmonics import EvaluationFiltration, covector_locus, tope_locus
from .matroidal import codim


class EquivariantError(Exception):
    pass


def _element_key(w):
    return (w.perm, w.signs)


MAX_GROUP_ORDER = 100_000  # elements a generated group may close to


def _orbit(start, step, inside=None):
    """The set reached from the elements `start` by repeated `step(w)` images,
    breadth first; None as soon as an image falls outside `inside`, if given."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for u in step(w):
                if u in seen:
                    continue
                if inside is not None and u not in inside:
                    return None
                seen.add(u)
                nxt.append(u)
                if len(seen) > MAX_GROUP_ORDER:
                    raise EquivariantError(f"group closure exceeded {MAX_GROUP_ORDER} elements")
        frontier = nxt
    return seen


class GroupSpec:
    """A finite group of COM automorphisms, closed and cached from generators.

    The element inverses and the conjugacy classes are computed once, at
    construction: `classes` lists each class in element order with its smallest
    element first, and `class_index` maps each element to its class.  Flat
    orbits and flat stabilizers are computed on first use and kept.
    """

    def __init__(self, com, generators, elements):
        self.com = com
        self.generators = generators
        self.elements = elements
        self.inverses = {w: w.inverse() for w in elements}
        # the generators generate G, so the conjugacy class of g is its orbit
        # under conjugation by the generators
        def conjugates(w):
            return (s.compose(w).compose(self.inverses[s]) for s in generators)

        classes, self.class_index = [], {}
        for g in elements:
            if g in self.class_index:
                continue
            members = _orbit([g], conjugates)
            self.class_index.update(dict.fromkeys(members, len(classes)))
            # every smaller element is already classified, so g is the smallest
            classes.append(tuple(sorted(members, key=_element_key)))
        self.classes = tuple(classes)
        self._orbits = None
        self._stabilizers = {}

    @classmethod
    def from_generators(cls, com, generators):
        """The group the generators close to, refusing (COMError) a generator
        that is not a signed bijection of 0..k-1 and (EquivariantError) one
        whose size is not the ground set's or that is not an automorphism."""
        n = com.ground.size
        gens = tuple(generators) or (SignedPermutation.identity(n),)
        for g in gens:
            if sorted(g.perm) != list(range(len(g))):
                raise COMError("perm must be a bijection of 0..n-1")
            if len(g.signs) != len(g) or any(s not in (1, -1) for s in g.signs):
                raise COMError("signs must be +1/-1, one per index")
        for g in gens:
            if len(g) != n:
                raise EquivariantError("generator size does not match the ground set")
        # products of automorphisms are automorphisms: checking the generators
        # refuses a bad group before any closure work
        for k, g in enumerate(gens):
            if not verify_automorphism(com, g):
                raise EquivariantError(
                    f"generator {k} (perm {g.perm}, signs {g.signs}) is not an automorphism of the COM"
                )
        seen = _orbit([SignedPermutation.identity(n)], lambda w: (g.compose(w) for g in gens))
        return cls(com, gens, tuple(sorted(seen, key=_element_key)))

    @property
    def order(self):
        return len(self.elements)

    def stabilizer_elements(self, flat):
        flat = frozenset(flat)
        if flat not in self._stabilizers:
            self._stabilizers[flat] = tuple(
                w for w in self.elements if frozenset(w.perm[i] for i in flat) == flat
            )
        return self._stabilizers[flat]

    def flat_orbits(self):
        """Orbits on the flat poset, each listed with its lex-smallest representative."""
        if self._orbits is None:
            def images(f):
                return (frozenset(g.perm[i] for i in f) for g in self.generators)

            seen = set()
            orbits = []
            for f in flats_of(self.com):
                if f in seen:
                    continue
                orbit = _orbit([f], images)
                seen |= orbit
                rep = min(orbit, key=lambda g: tuple(sorted(g)))
                orbits.append((rep, frozenset(orbit)))
            self._orbits = tuple(orbits)
        return list(self._orbits)

    def to_json_dict(self):
        labels = self.com.ground.labels
        return {
            "generators": [
                {"perm": [labels[g.perm[i]] for i in range(len(g))], "signs": list(g.signs)}
                for g in self.generators
            ]
        }

    @classmethod
    def from_json_dict(cls, com, data):
        """Read generators by ground label, refusing (TypeError) a generator
        list, `perm` or `signs` that is not a list, a `perm` entry that is not
        a string and an inexact sign, and (COMError) an unknown label;
        from_generators checks the rest."""
        gens = []
        for g in jsonio.array(data["generators"], "generators"):
            perm = tuple(com.ground.index(l) for l in jsonio.strings(g["perm"], "perm"))
            signs = tuple(map(rational, jsonio.array(g["signs"], "signs")))
            gens.append(SignedPermutation(perm, signs))
        return cls.from_generators(com, gens)


def locus_action(locus, w):
    """The permutation of locus point indices induced by a signed permutation.

    Points must be labeled by covector strings of w's length, else COMError;
    the image of a label must be present, otherwise w is not an automorphism
    and we refuse.
    """
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


class GradedCharacter(Record):
    """Per-element traces on the graded pieces of the evaluation filtration:
    values maps each SignedPermutation to a tuple of field values, one per
    degree below degrees.  Characters that differ only by trailing zeros are
    equal, so a character is not hashable."""

    __slots__ = ("degrees", "values")

    def value(self, w, d):
        v = self.values[w]
        return v[d] if 0 <= d < len(v) else 0

    def __eq__(self, other):
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        if set(self.values) != set(other.values):
            return False
        n = max(self.degrees, other.degrees)
        return all(
            self.value(w, d) == other.value(w, d)
            for w in self.values
            for d in range(n)
        )


def graded_character(locus, group, field=QQ, filtration=None):
    """Traces of each group element on each filtration quotient F_d / F_{d-1}.

    Each F_d is checked to be invariant under the generators, hence under the
    whole group; the trace of one representative per conjugacy class is then
    read at the pivots, valid on an invariant span, and shared by its class.
    """
    if field.characteristic and field.characteristic <= group.order:
        raise EquivariantError("character computations need char 0 or p > group order")
    filt = filtration or EvaluationFiltration(locus, field)
    filt.build()
    spaces = [filt.space_upto(d) for d in range(len(filt.coeffs))]
    perms = [locus_action(locus, g) for g in group.generators]
    for space in spaces:
        for perm in perms:
            space.trace_under_permutation(perm)
    per_class = []
    for members in group.classes:
        perm = locus_action(locus, members[0])
        traces = [0] + [space.pivot_trace(perm) for space in spaces]
        diffs = tuple(field.of(t - prev) for prev, t in zip(traces, traces[1:]))
        if diffs[0] != 1:
            raise EquivariantError("degree-0 character value must be 1")
        per_class.append(diffs)
    values = {w: per_class[group.class_index[w]] for w in group.elements}
    return GradedCharacter(len(filt.coeffs), values)


def _generating_set(group, sub):
    """A greedy generating set of the set `sub` of group elements, or None if
    `sub` is not a subgroup.

    Elements join in group order when they lie outside the closure of those
    taken so far; `sub` is a subgroup iff that closure ends up equal to it.
    """
    gens = []
    closure = {SignedPermutation.identity(group.com.ground.size)}
    for h in group.elements:
        if h not in sub or h in closure:
            continue
        gens.append(h)
        closure = _orbit(closure, lambda w: (g.compose(w) for g in gens), inside=sub)
        if closure is None:
            return None
    return gens if closure == sub else None


def induced_character(group, sub_elements, chi_values):
    """Induce a by-degree character from a subgroup to the whole group.

    chi_values maps each subgroup element to a tuple of degree values.  By
    Frobenius' formula the induced value at g is |G| / (|Cl(g)| |H|) times the
    sum of chi over the elements of H conjugate to g.
    """
    sub = set(sub_elements)
    if not sub:
        raise EquivariantError("subgroup must be nonempty")
    if not sub <= set(group.elements):
        raise EquivariantError("subgroup elements must lie in the group")
    if _generating_set(group, sub) is None:
        raise EquivariantError("subgroup is not closed under composition")
    return _induce(group, sub, chi_values)


def _induce(group, sub, chi_values):
    """induced_character on a set `sub` of group elements known to be a subgroup."""
    degrees = max((len(v) for v in chi_values.values()), default=0)
    sums = [[0] * degrees for _ in group.classes]
    for h in sub:
        acc = sums[group.class_index[h]]
        for d, x in enumerate(chi_values[h]):
            acc[d] += x
    per_class = [
        tuple(Fraction(group.order * x, len(members) * len(sub)) for x in acc)
        for members, acc in zip(group.classes, sums)
    ]
    values = {g: per_class[group.class_index[g]] for g in group.elements}
    return GradedCharacter(degrees, values)


class DecompositionReport(Record):
    """The covector character (lhs), the induced sum (rhs) over the flat
    orbit representatives, and the degrees where they differ."""

    __slots__ = ("orbit_reps", "lhs", "rhs", "mismatches")

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


def verify_graded_module_structure(M, group, field=QQ):
    """Match the graded character of the covector locus against the sum over
    flat orbits of induced, degree-shifted tope characters of contractions.

    A flat's stabilizer acts on the contraction M/F through its restricted
    permutations.  Their distinct images form a group generated by the images
    of a generating set of the stabilizer, and that group's tope character on
    M/F is one `graded_character` call; each stabilizer element takes its
    image's value.  A stabilizer is a subgroup by construction, so the
    character is induced without `induced_character`'s closure test."""
    if field.characteristic:
        raise EquivariantError("the decomposition check compares characters over the rationals")
    big = graded_character(covector_locus(M), group, field)
    n = M.ground.size
    reps = []
    induced_parts = []
    for rep, _ in group.flat_orbits():
        reps.append(rep)
        stab = set(group.stabilizer_elements(rep))
        MF = contract(M, rep)
        image = {w: restricted_permutation(w, rep, n) for w in stab}
        gens = tuple(image[g] for g in _generating_set(group, stab))
        restricted = GroupSpec(MF, gens, tuple(sorted(set(image.values()), key=_element_key)))
        values = graded_character(tope_locus(MF), restricted, field).values
        shift = (0,) * codim(M, rep)
        induced_parts.append(_induce(group, stab, {w: shift + values[image[w]] for w in stab}))
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


def automorphism_group_bruteforce(M):
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
    return GroupSpec.from_generators(M, tuple(found))
