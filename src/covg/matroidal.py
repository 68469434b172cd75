"""Circuits, no-broken-circuit sets, closure, basic sets, and the counting
checks that tie them to topes and contractions.

Circuit search packs signed vectors two bits per element (00=0, 01=+, 10=-)
and enumerates all 3^n sign patterns against the set of patterns realized by
some covector; a sign pattern is realized when a covector agrees with it on
its whole support.  Minimality is checked on corank-1 subpatterns only: if a
pattern is unrealized, so is every superpattern extending it on new elements,
hence failing condition (1) is monotone under shrinking supports and the
corank-1 check suffices.  That monotonicity is itself exercised by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .com import COMError, SignedVector, contract, flats_of, topes


class MatroidalError(COMError):
    pass


def _pack(signs):
    key = 0
    for i, s in enumerate(signs):
        if s == 1:
            key |= 1 << (2 * i)
        elif s == -1:
            key |= 2 << (2 * i)
    return key


def _unpack(key, n):
    out = []
    for i in range(n):
        code = (key >> (2 * i)) & 3
        out.append(0 if code == 0 else (1 if code == 1 else -1))
    return SignedVector(out)


def _expand_masks(n):
    # expand2[mask] doubles each bit of mask into a 2-bit field
    table = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        i = low.bit_length() - 1
        table[m] = table[m ^ low] | (3 << (2 * i))
    return table


def _realized_patterns(M):
    """All packed sign patterns that some covector extends."""
    n = M.ground.size
    expand = _expand_masks(n)
    seen = set()
    for v in M.covectors:
        key = _pack(v.signs)
        supp = 0
        for i in v.support():
            supp |= 1 << i
        sub = supp
        while True:
            seen.add(key & expand[sub])
            if sub == 0:
                break
            sub = (sub - 1) & supp
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
    masks2 = [3 << (2 * i) for i in range(n)]
    found = set()
    for supp in range(1, 1 << n):
        positions = [i for i in range(n) if supp >> i & 1]
        k = len(positions)
        for choice in range(1 << k):
            key = 0
            for t, i in enumerate(positions):
                key |= (2 if choice >> t & 1 else 1) << (2 * i)
            if key in realized:
                continue
            if all((key & ~masks2[i]) in realized for i in positions):
                found.add(key)
    circuits = []
    for key in found:
        v = _unpack(key, n)
        neg_key = _pack((-v).signs)
        circuits.append(Circuit(v, neg_key in found))
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
        mask = 0
        for i in supp:
            mask |= 1 << i
        forbidden.append(mask)
        if c.symmetric:
            smallest = min(supp, key=position.get)
            forbidden.append(mask & ~(1 << smallest))
    forbidden = sorted(set(forbidden))
    out = []
    for sub in range(1 << n):
        if all(f & sub != f for f in forbidden):
            out.append(frozenset(i for i in range(n) if sub >> i & 1))
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return tuple(out)


@lru_cache(maxsize=256)
def _flat_masks(M):
    """Bitmask of each flat of M; cached per COM like its flat poset."""
    masks = []
    for f in flats_of(M).flats:
        mask = 0
        for i in f:
            mask |= 1 << i
        masks.append(mask)
    return tuple(masks)


def closure(M, C):
    """Smallest flat containing C, or None when no flat contains C."""
    masks = _flat_masks(M)
    cmask = 0
    for i in C:
        cmask |= 1 << i
    meet = None
    for mask in masks:
        if mask & cmask == cmask:
            meet = mask if meet is None else meet & mask
    if meet is None:
        return None
    return frozenset(i for i in range(M.ground.size) if meet >> i & 1)


def basic_sets(M, F):
    """All inclusion-minimal subsets of the flat F whose closure is F."""
    F = frozenset(F)
    if F not in set(flats_of(M).flats):
        raise MatroidalError(f"{sorted(F)} is not a flat")
    elems = sorted(F)
    out = []
    for sub in range(1 << len(elems)):
        B = frozenset(elems[i] for i in range(len(elems)) if sub >> i & 1)
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
    out = []
    for sub in range(1 << n):
        C = frozenset(i for i in range(n) if sub >> i & 1)
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
        images = [v.restrict(keep) for v in M.covectors if v.zero_set() == F]
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
