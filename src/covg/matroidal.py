"""Circuits, no-broken-circuit sets, closure, basic sets, and the counting
checks that tie them to topes and contractions.

Everything here reads the sign keys and masks a COM computes once (see
covg.com): a sign pattern is a sign key, a set of ground elements a mask.
The circuit search enumerates all 3^n sign patterns against the set of
patterns realized by some covector; a sign pattern is realized when a
covector agrees with it on its whole support, so the realized patterns are
the covector keys cut down to each subset of their support.  Minimality is
checked on corank-1 subpatterns only: if a pattern is unrealized, so is
every superpattern extending it on new elements, hence failing condition
(1) is monotone under shrinking supports and the corank-1 check suffices.
That monotonicity is itself exercised by the tests.

Closure and basic sets meet flat masks.  The subset scans of basic_sets and
minimal_nonbasic_sets visit 2^n subsets and refuse more than
MAX_SUBSET_GROUND elements up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .com import COMError, SignedVector, bits, contract, flats_of, mask_of, topes, vector_of


class MatroidalError(COMError):
    pass


def _submasks(mask):
    """Every submask of mask, from mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _realized_patterns(M):
    """The sign keys of all patterns that some covector extends."""
    n = M.ground.size
    full, seen = (1 << n) - 1, set()
    for key in M.keys:
        seen.update(key & (sub | sub << n) for sub in _submasks((key | key >> n) & full))
    return seen


@dataclass(frozen=True)
class Circuit:
    vector: SignedVector
    symmetric: bool


MAX_CIRCUIT_GROUND = 14  # ground-set size for 3^n circuit search


@lru_cache(maxsize=256)
def _circuits_cached(M):
    n = M.ground.size
    if n > MAX_CIRCUIT_GROUND:
        raise MatroidalError(
            f"circuit search capped at {MAX_CIRCUIT_GROUND} ground elements, got {n}"
        )
    realized = _realized_patterns(M)
    # key bit of + and of - at each element, built once: the loop below runs 3^n times
    signs = [(1 << i, 1 << n + i) for i in range(n)]
    both = [plus | minus for plus, minus in signs]
    found = set()
    for supp in range(1, 1 << n):
        positions = [i for i in range(n) if supp >> i & 1]
        for choice in range(1 << len(positions)):
            key = 0
            for t, i in enumerate(positions):
                key |= signs[i][choice >> t & 1]
            if key in realized:
                continue
            if all(key & ~both[i] in realized for i in positions):
                found.add(key)
    full = (1 << n) - 1
    circuits = [Circuit(vector_of(k, n), (k >> n | (k & full) << n) in found) for k in found]
    circuits.sort(key=lambda c: c.vector.sort_key())
    return tuple(circuits)


def circuits(M):
    """All circuits of M, each flagged symmetric when its negative is one too."""
    return _circuits_cached(M)


def nbc_sets(M, order=None):
    """No-broken-circuit subsets of the ground set for a fixed total order.

    A subset is excluded when it contains the full support of any circuit, or
    the support of a symmetric circuit minus its order-smallest element.
    """
    n = M.ground.size
    order = tuple(order) if order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise MatroidalError("order must be a permutation of the ground indices")
    position = {e: k for k, e in enumerate(order)}
    forbidden = []
    for c in circuits(M):
        supp = c.vector.support()
        forbidden.append(mask_of(supp))
        if c.symmetric:
            forbidden.append(mask_of(supp - {min(supp, key=position.get)}))
    forbidden = sorted(set(forbidden))
    out = []
    for sub in range(1 << n):
        if all(f & sub != f for f in forbidden):
            out.append(bits(sub))
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return tuple(out)


def closure(M, C):
    """Smallest flat containing C, or None when no flat contains C."""
    c = mask_of(C)
    meet = None
    for f in M.flat_masks:
        if f & c == c:
            meet = f if meet is None else meet & f
    return None if meet is None else bits(meet)


MAX_SUBSET_GROUND = 20  # elements whose 2^n subsets basic_sets and minimal_nonbasic_sets scan


def _refuse_subset_scan(size, what):
    if size > MAX_SUBSET_GROUND:
        raise MatroidalError(
            f"{what} scans 2^{size} subsets; capped at {MAX_SUBSET_GROUND} elements"
        )


def basic_sets(M, F):
    """All inclusion-minimal subsets of the flat F whose closure is F."""
    F = frozenset(F)
    if min(F, default=0) < 0 or mask_of(F) not in M.flat_masks:
        raise MatroidalError(f"{sorted(F)} is not a flat")
    _refuse_subset_scan(len(F), "basic_sets")
    out = []
    for sub in _submasks(mask_of(F)):
        B = bits(sub)
        if closure(M, B) != F:
            continue
        if all(closure(M, B - {b}) != F for b in B):
            out.append(B)
    out.sort(key=lambda s: tuple(sorted(s)))
    return tuple(out)


def default_basic_set(M, F):
    """Lexicographically smallest basic set of F.

    Refuses a flat whose basic sets differ in size, so every z_B(F) and every
    codimension comes from a flat with one codimension.
    """
    basics = basic_sets(M, F)
    sizes = {len(b) for b in basics}
    if len(sizes) != 1:
        raise MatroidalError(f"basic sets of {sorted(F)} have unequal sizes {sizes}")
    return basics[0]


def codim(M, F):
    """Common cardinality of the basic sets of F."""
    return len(default_basic_set(M, F))


def nonbasic(M, C):
    """True when C is basic for no flat."""
    C = frozenset(C)
    target = closure(M, C)
    if target is None:
        return True
    return any(closure(M, C - {c}) == target for c in C)


def minimal_nonbasic_sets(M):
    """Inclusion-minimal nonbasic subsets (supersets of nonbasic sets stay nonbasic)."""
    n = M.ground.size
    _refuse_subset_scan(n, "minimal_nonbasic_sets")
    out = []
    for sub in range(1 << n):
        C = bits(sub)
        if nonbasic(M, C) and all(not nonbasic(M, C - {c}) for c in C):
            out.append(C)
    out.sort(key=lambda s: tuple(sorted(s)))
    return tuple(out)


@dataclass
class TopeContractionReport:
    total: int
    per_flat: dict
    injective: bool
    labels: tuple

    @property
    def ok(self):
        return self.injective and self.total == sum(self.per_flat.values())

    def as_dict(self):
        return {
            "covectors": self.total,
            "topes_per_flat": {
                ",".join(self.labels[i] for i in sorted(f)): c
                for f, c in self.per_flat.items()
            },
            "sum": sum(self.per_flat.values()),
            "restriction_injective": self.injective,
            "ok": self.ok,
        }


def check_tope_contraction_count(M):
    """Covectors are counted by topes of contractions, one flat at a time."""
    per_flat = {}
    injective = True
    for F in flats_of(M):
        MF = contract(M, F)
        per_flat[F] = len(topes(MF))
        keep = [i for i in range(M.ground.size) if i not in F]
        f = mask_of(F)
        images = [v.restrict(keep) for v, z in zip(M.covectors, M.zero_masks) if z == f]
        if len(set(images)) != len(images):
            injective = False
    return TopeContractionReport(len(M), per_flat, injective, M.ground.labels)


@dataclass
class TwoValuesReport:
    flat: frozenset
    circuit: SignedVector
    subset: frozenset
    failures: tuple  # covectors of the contraction missing a 0 or a 1 value

    @property
    def ok(self):
        return not self.failures

    def as_dict(self):
        return {
            "flat": sorted(self.flat),
            "circuit": self.circuit.to_string(),
            "subset": sorted(self.subset),
            "failures": [v.to_string() for v in self.failures],
            "ok": self.ok,
        }


def mixing_subsets(M, max_support=None):
    """Yield (F, X, J): each flat F, each symmetric circuit X of the contraction
    at F with at most max_support elements (no cap when None), and each
    nonempty proper subset J of the support of X."""
    for F in flats_of(M):
        for c in circuits(contract(M, F)):
            supp = sorted(c.vector.support())
            if not c.symmetric or (max_support is not None and len(supp) > max_support):
                continue
            for sub in range(1, 2 ** len(supp) - 1):
                yield F, c.vector, frozenset(supp[i] for i in range(len(supp)) if sub >> i & 1)


def check_two_values(M, F, circuit_vector, J):
    """Shifted sign indicators take both values 0 and 1 on every covector.

    For a symmetric circuit X of the contraction at F and a proper nonempty
    J inside its support, the indicator at i is 1 when the covector matches
    X(i), plus (for i in J) 1 when the covector vanishes at i.  Every
    covector of the contraction must give some indicator 0 and some 1.
    """
    F = frozenset(F)
    MF = contract(M, F)
    X = circuit_vector
    sym = {c.vector for c in circuits(MF) if c.symmetric}
    if X not in sym:
        raise MatroidalError(f"{X.to_string()} is not a symmetric circuit of the contraction")
    J = frozenset(J)
    supp = X.support()
    if not (J and J < supp):
        raise MatroidalError("J must be a nonempty proper subset of the circuit support")
    failures = []
    for Y in MF.covectors:
        values = set()
        for i in supp:
            val = int(Y[i] == X[i]) + int(i in J and Y[i] == 0)
            values.add(val)
        if not {0, 1} <= values:
            failures.append(Y)
    return TwoValuesReport(F, X, J, tuple(failures))
