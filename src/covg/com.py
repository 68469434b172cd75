"""Conditional oriented matroids: signed vectors, axiom checking, flats,
restriction/contraction, and signed-permutation actions.

A signed vector assigns +, - or 0 to every ground element; a conditional
oriented matroid (COM) is a family of signed vectors closed under face
symmetry and strong elimination.  Sign values are the ints +1, -1, 0, and
the canonical order on covectors is lexicographic on the per-element codes
0 -> 0, + -> 1, - -> 2.

Sets of ground elements are masks (bit i for element i; mask_of and bits
convert), and a signed vector is its sign key: the plus mask in bits
0..n-1 and the minus mask in bits n..2n-1 of one Python int (key_of and
vector_of convert).  A COM computes, once, the key and the zero-set mask of
each covector and the set of those zero-set masks, its flats; topes,
coloops, flats, contractions and the matroidal searches read these.

check_axioms, the trust boundary for families from outside, works on the
same keys and imports no numpy.  Face symmetry is tested once per zero set;
strong elimination is decided on pairs of covectors with the same support,
which given face symmetry is exact (see check_axioms), with memoised bitset
queries over covector indices.  braid5 checks in about 0.04 s and braid6 in
about 1.5 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, or_

SIGN_CHARS = {1: "+", -1: "-", 0: "0"}
CHAR_SIGNS = {"+": 1, "-": -1, "0": 0}
CODE_OF_SIGN = {0: 0, 1: 1, -1: 2}


class COMError(Exception):
    pass


class AxiomError(COMError):
    """Raised when a covector family fails the COM axioms."""


@dataclass(frozen=True)
class GroundSet:
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise COMError("ground-set labels must be distinct")

    @property
    def size(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise COMError(
                f"unknown ground label {label!r}; the ground set is {list(self.labels)}"
            ) from None

    def __iter__(self):
        return iter(range(self.size))


class SignedVector:
    """Immutable sign assignment over a ground set, entries in {+1,-1,0}."""

    __slots__ = ("signs",)

    def __init__(self, signs):
        signs = tuple(signs)
        if any(s not in (1, -1, 0) for s in signs):
            raise COMError(f"signs must be +1, -1 or 0, got {signs}")
        object.__setattr__(self, "signs", signs)

    def __setattr__(self, *a):
        raise AttributeError("SignedVector is immutable")

    @classmethod
    def from_string(cls, s):
        try:
            return cls(CHAR_SIGNS[ch] for ch in s)
        except KeyError:
            raise COMError(f"covector string {s!r} must use only '+', '-', '0'")

    def to_string(self):
        return "".join(SIGN_CHARS[s] for s in self.signs)

    def __len__(self):
        return len(self.signs)

    def __getitem__(self, i):
        return self.signs[i]

    def __eq__(self, other):
        return isinstance(other, SignedVector) and self.signs == other.signs

    def __hash__(self):
        return hash(self.signs)

    def __repr__(self):
        return f"SignedVector({self.to_string()!r})"

    def sort_key(self):
        return tuple(CODE_OF_SIGN[s] for s in self.signs)

    def __neg__(self):
        return SignedVector(-s for s in self.signs)

    def support(self):
        return frozenset(i for i, s in enumerate(self.signs) if s)

    def zero_set(self):
        return frozenset(i for i, s in enumerate(self.signs) if not s)

    def is_tope(self):
        return all(self.signs)

    def restrict(self, indices):
        return SignedVector(self.signs[i] for i in indices)


def compose(x, y):
    """x with zeros filled from y: (x o y)(i) = x(i) if nonzero else y(i)."""
    if len(x) != len(y):
        raise COMError("compose needs vectors of equal length")
    return SignedVector(a if a else b for a, b in zip(x.signs, y.signs))


def separator(x, y):
    """Indices where x and y carry opposite nonzero signs."""
    if len(x) != len(y):
        raise COMError("separator needs vectors of equal length")
    return frozenset(i for i, (a, b) in enumerate(zip(x.signs, y.signs)) if a and a == -b)


@dataclass
class AxiomReport:
    face_symmetry_ok: bool
    face_symmetry_witness: tuple | None
    strong_elimination_ok: bool
    strong_elimination_witness: tuple | None

    @property
    def ok(self):
        return self.face_symmetry_ok and self.strong_elimination_ok

    def as_dict(self):
        fs = self.face_symmetry_witness
        se = self.strong_elimination_witness
        return {
            "face_symmetry": {
                "ok": self.face_symmetry_ok,
                "witness": None if fs is None else [fs[0].to_string(), fs[1].to_string()],
            },
            "strong_elimination": {
                "ok": self.strong_elimination_ok,
                "witness": None
                if se is None
                else [se[0].to_string(), se[1].to_string(), se[2]],
            },
            "ok": self.ok,
        }


def key_of(v):
    """v's sign key: plus mask (bits 0..n-1) and minus mask (bits n..2n-1) as one int."""
    n, key = len(v), 0
    for i, s in enumerate(v.signs):
        if s:
            key |= 1 << (i if s > 0 else n + i)
    return key


def vector_of(key, n):
    """The signed vector of length n whose sign key is key."""
    return SignedVector(1 if key >> i & 1 else -1 if key >> n + i & 1 else 0 for i in range(n))


def mask_of(indices):
    """The mask with bit i set for each ground index i."""
    return reduce(or_, (1 << i for i in indices), 0)


def bits(mask):
    """The ground indices whose bits are set in mask."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _first_face_symmetry_miss(keys, n):
    """First (X, Y) index pair, X first, with X o -Y outside the family.

    X o -Y depends on Y only through -Y restricted to the zero set of X, so
    the restrictions are built once per zero set (once per flat) and each X
    is tested against those; Y is scanned only at the first X that fails.
    """
    family, full = set(keys), (1 << n) - 1
    negated = [(k >> n | k << n) & (full | full << n) for k in keys]
    restrictions = {}
    for a, kx in enumerate(keys):
        z = full & ~(kx | kx >> n)
        zz = z | z << n
        if z not in restrictions:
            restrictions[z] = {g & zz for g in negated}
        if any(kx | r not in family for r in restrictions[z]):
            return a, next(b for b, g in enumerate(negated) if kx | g & zz not in family)
    return None


class _Cover(dict):
    """cover[S << 2n | w off S]: the elements e of S at which some covector
    is zero and agrees with the key w off S, computed on first lookup.

    The covectors that agree with w off S are an AND of bitsets over
    covector indices, one bitset per element and sign.
    """

    def __init__(self, keys, n):
        self.n, self.everything = n, (1 << len(keys)) - 1
        # key bit (f for + at f, n + f for - at f) -> indices of the covectors with it
        self.signed = {1 << b: 0 for b in range(2 * n)}
        self.zero = {1 << f: 0 for f in range(n)}  # element bit -> indices of covectors 0 there
        for k, key in enumerate(keys):
            for f in range(n):
                low = 1 << f
                if key & (low | low << n):
                    self.signed[key & (low | low << n)] |= 1 << k
                else:
                    self.zero[low] |= 1 << k

    def __missing__(self, query):
        n, signed, zero = self.n, self.signed, self.zero
        full = (1 << n) - 1
        S, w = query >> 2 * n, query & ((1 << 2 * n) - 1)
        agree, rest = self.everything, w
        while rest:
            low = rest & -rest
            agree &= signed[low]
            rest ^= low
        rest = full & ~(S | w | w >> n)
        while rest:
            low = rest & -rest
            agree &= zero[low]
            rest ^= low
        covered, rest = 0, S
        while rest:
            low = rest & -rest
            if agree & zero[low]:
                covered |= low
            rest ^= low
        self[query] = covered
        return covered


def _support_classes_eliminate(keys, n, cover):
    """Strong elimination on the pairs of covectors with the same support.

    Given face symmetry this decides strong elimination for all pairs: see
    check_axioms.
    """
    full, shift, classes = (1 << n) - 1, 2 * n, {}
    for k in keys:
        classes.setdefault((k | k >> n) & full, []).append(k)
    for members in classes.values():
        for i, kw in enumerate(members):
            for kv in members[i + 1 :]:
                S = kw & kv >> n | kw >> n & kv
                if cover[S << shift | kw & ~(S | S << n)] != S:
                    return False
    return True


def _first_uneliminated(keys, n, cover):
    """First (X, Y, i), Y first, then X, then the lowest i, that no Z eliminates.

    Z eliminates i between X and Y when Z(i) = 0 and Z = X o Y off Sep(X, Y).
    """
    full = (1 << n) - 1
    for b, ky in enumerate(keys):
        for a, kx in enumerate(keys):
            S = kx & ky >> n | kx >> n & ky
            if S:
                z = full & ~(kx | kx >> n)
                w = kx | ky & (z | z << n)
                bad = S & ~cover[S << 2 * n | w & ~(S | S << n)]
                if bad:
                    return a, b, (bad & -bad).bit_length() - 1
    return None


def check_axioms(vectors):
    """Check face symmetry and strong elimination for a covector family.

    Returns an AxiomReport; a failing axiom carries the first violating
    witness (X, Y) resp. (X, Y, i) in canonical scan order: the first X, then
    the first Y, for face symmetry; the first Y, then the first X, then the
    lowest i, for strong elimination.

    Each covector is a plus mask P and a minus mask N in one Python int (see
    key_of), with zero set Z = ~(P|N).  X o -Y is (P_X | N_Y&Z_X, N_X | P_Y&Z_X),
    looked up in the family's set of keys, and Sep(X, Y) is
    (P_X&N_Y) | (N_X&P_Y).

    Strong elimination is decided on support classes, exactly.  Face
    symmetry gives composition, X o Y = X o -(X o -Y).  For X, Y with
    separator S != {}, W = X o Y and V = Y o X are then in the family, have
    the same support, Sep(W, V) = S and W = V = X o Y off S.  So (W, V) asks
    for the same eliminations as (X, Y): a Z with Z(e) = 0 for e in S and
    Z = X o Y off S.  Hence, given face symmetry, strong elimination holds
    iff it holds on the unordered pairs of covectors with equal support:
    10,290 pairs on braid5 (541 covectors on 10 elements) against 275,040
    ordered pairs with a nonempty separator.  Each pair is one memoised
    query (S, W off S) to _Cover.  Only when face symmetry fails or a
    support class fails does the canonical scan over all pairs run, with the
    same queries, to find the first witness.  braid5 checks in about 0.04 s
    and braid6 (4683 covectors on 15 elements) in about 1.5 s on a 2-vCPU
    x86-64 machine; no numpy, float or BLAS call is made.
    """
    vectors = set(vectors)
    if not vectors:
        return AxiomReport(True, None, True, None)
    n = len(next(iter(vectors)))
    if any(len(v) != n for v in vectors):
        raise COMError("covectors must all have the same length")
    vectors = sorted(vectors, key=SignedVector.sort_key)
    keys = [key_of(v) for v in vectors]
    fs = _first_face_symmetry_miss(keys, n)
    cover = _Cover(keys, n)
    se = None
    if fs is not None or not _support_classes_eliminate(keys, n, cover):
        se = _first_uneliminated(keys, n, cover)
    return AxiomReport(
        fs is None,
        None if fs is None else tuple(vectors[k] for k in fs),
        se is None,
        None if se is None else (vectors[se[0]], vectors[se[1]], se[2]),
    )


class COM:
    """A ground set plus a deduplicated, canonically sorted covector family.

    The constructor checks structure only (nonempty, lengths); it does not
    check the axioms.  Families from outside come in through from_json_dict,
    which does; minors, enumerated and generated families are COMs by
    theorem or by construction and are built as they are.

    keys[k] and zero_masks[k] are the sign key and zero-set mask of
    covectors[k]; flat_masks is the set of zero-set masks.
    """

    __slots__ = ("ground", "covectors", "keys", "zero_masks", "flat_masks", "_set", "_hash")

    def __init__(self, ground, covectors):
        if not isinstance(ground, GroundSet):
            ground = GroundSet(tuple(ground))
        covectors = sorted(set(covectors), key=SignedVector.sort_key)
        if not covectors:
            raise COMError("a COM needs at least one covector")
        if any(len(v) != ground.size for v in covectors):
            raise COMError("covector length does not match ground-set size")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "covectors", tuple(covectors))
        full = (1 << ground.size) - 1
        keys = tuple(key_of(v) for v in covectors)
        zero_masks = tuple(full & ~(k | k >> ground.size) for k in keys)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "zero_masks", zero_masks)
        object.__setattr__(self, "flat_masks", frozenset(zero_masks))
        object.__setattr__(self, "_set", frozenset(covectors))
        # flats_of, contract and circuits are lru_caches keyed on the COM: hash it once
        object.__setattr__(self, "_hash", hash((ground.labels, self.covectors)))

    def __setattr__(self, *a):
        raise AttributeError("COM is immutable")

    def __contains__(self, v):
        return v in self._set

    def __len__(self):
        return len(self.covectors)

    def __eq__(self, other):
        return (
            isinstance(other, COM)
            and self.ground.labels == other.ground.labels
            and self.covectors == other.covectors
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"COM({len(self)} covectors on {list(self.ground.labels)})"

    def to_json_dict(self):
        return {
            "ground": list(self.ground.labels),
            "covectors": [v.to_string() for v in self.covectors],
        }

    @classmethod
    def from_json_dict(cls, data, check=True):
        """Read a COM from its JSON form; raises AxiomError unless check is False."""
        ground = GroundSet(tuple(data["ground"]))
        covectors = [SignedVector.from_string(s) for s in data["covectors"]]
        M = cls(ground, covectors)
        if check:
            report = check_axioms(M.covectors)
            if not report.ok:
                raise AxiomError(f"covector family fails the COM axioms: {report.as_dict()}")
        return M


def topes(M):
    """Covectors with full support (empty when M has a coloop)."""
    return tuple(v for v, z in zip(M.covectors, M.zero_masks) if not z)


def coloops(M):
    """Elements that are zero in every covector."""
    return bits(reduce(and_, M.flat_masks))


@dataclass(frozen=True)
class FlatPoset:
    """The zero sets of covectors, ordered by containment (a meet-semilattice)."""

    flats: tuple  # frozensets of ground indices, sorted by (size, content)

    def __contains__(self, f):
        return frozenset(f) in set(self.flats)

    def __iter__(self):
        return iter(self.flats)

    def __len__(self):
        return len(self.flats)

    @property
    def minimum(self):
        return self.flats[0]


def flat_poset(M):
    flats = M.flat_masks
    for f in flats:
        for g in flats:
            if f & g not in flats:
                raise COMError(
                    "flat family is not intersection-closed; the covector family "
                    "cannot satisfy the COM axioms"
                )
    ordered = tuple(sorted(map(bits, flats), key=lambda f: (len(f), tuple(sorted(f)))))
    poset = FlatPoset(ordered)
    if poset.minimum != coloops(M):
        raise COMError("minimum flat does not equal the coloop set")
    return poset


def _require_flat(M, F):
    """F's mask, when F is a flat of M."""
    F = frozenset(F)
    if min(F, default=0) < 0 or mask_of(F) not in M.flat_masks:
        raise COMError(f"{sorted(F)} is not a flat of this COM")
    return mask_of(F)


def restrict(M, F):
    """Restriction to a flat F: covectors cut down to the coordinates in F.

    A restriction of a COM is a COM, so the result is not re-checked.
    """
    f = _require_flat(M, F)
    keep = [i for i in range(M.ground.size) if f >> i & 1]
    ground = GroundSet(tuple(M.ground.labels[i] for i in keep))
    return COM(ground, {v.restrict(keep) for v in M.covectors})


def contract(M, F):
    """Contraction at a flat F: covectors vanishing on F, restricted to the rest.

    Cached per (M, F), so each contraction is built once.  A contraction of
    a COM is a COM (Bandelt-Chepoi-Knauer), so it is not re-checked.
    """
    return _contract_cached(M, frozenset(F))


@lru_cache(maxsize=256)
def _contract_cached(M, F):
    f = _require_flat(M, F)
    keep = [i for i in range(M.ground.size) if not f >> i & 1]
    ground = GroundSet(tuple(M.ground.labels[i] for i in keep))
    return COM(ground, {v.restrict(keep) for v, z in zip(M.covectors, M.zero_masks) if z & f == f})


@dataclass(frozen=True)
class SignedPermutation:
    """A permutation of ground indices with a sign attached to each source index."""

    perm: tuple
    signs: tuple

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))
        object.__setattr__(self, "signs", tuple(self.signs))
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise COMError("perm must be a bijection of 0..n-1")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise COMError("signs must be +1/-1, one per index")

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)), (1,) * n)

    def __len__(self):
        return len(self.perm)

    def compose(self, other):
        """self after other: (self * other)(X) = self(other(X))."""
        perm = tuple(self.perm[other.perm[i]] for i in range(len(self)))
        signs = tuple(other.signs[i] * self.signs[other.perm[i]] for i in range(len(self)))
        return SignedPermutation(perm, signs)

    def inverse(self):
        n = len(self)
        perm = [0] * n
        signs = [1] * n
        for i in range(n):
            perm[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return SignedPermutation(tuple(perm), tuple(signs))


def act(w, x):
    """Apply a signed permutation to a signed vector: (w.x)(w(i)) = sign_i x(i)."""
    if len(w) != len(x):
        raise COMError("signed permutation and vector sizes differ")
    out = [0] * len(x)
    for i, s in enumerate(x.signs):
        out[w.perm[i]] = w.signs[i] * s
    return SignedVector(out)


def verify_automorphism(M, w):
    """True iff w maps the covector set into itself."""
    return all(act(w, v) in M for v in M.covectors)


@lru_cache(maxsize=256)
def _flats_cached(M):
    return flat_poset(M)


def flats_of(M):
    """Cached flat poset of M."""
    return _flats_cached(M)
