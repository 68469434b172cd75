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
flat_poset and flats_of give the flats as a sorted tuple of frozensets.

The constructors here check nothing.  Families from outside come in
through COM.from_json_dict, the one place a family is checked: it refuses
malformed JSON fields, repeated ground labels, bad sign characters, an
empty family and covectors of the wrong length, and runs check_axioms.
Minors, enumerated and generated families are COMs by theorem or by
construction and are built unchecked.

check_axioms works on the same keys, imports no numpy and returns the
report dict `covg check` prints.  Face symmetry is tested once per zero
set; strong elimination is decided on pairs of covectors with the same
support, which given face symmetry is exact (see check_axioms), with
memoised bitset queries over covector indices.  braid5 checks in about
0.04 s and braid6 in about 1.5 s.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_, attrgetter, or_

from . import jsonio

SIGN_CHARS = {1: "+", -1: "-", 0: "0"}
CHAR_SIGNS = {"+": 1, "-": -1, "0": 0}
CODE_OF_SIGN = {0: 0, 1: 1, -1: 2}


class COMError(Exception):
    pass


class AxiomError(COMError):
    """Raised when a covector family fails the COM axioms."""


class Record:
    """An immutable value whose fields are its subclass's __slots__.

    Record(*values) sets the fields in order; records are equal when their
    types are the same and their fields equal, and hash as their one field
    or as the tuple of their fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.__slots__)} values, not {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(repr(getattr(self, name)) for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class GroundSet(Record):
    """The ground labels, distinct strings, in element order."""

    __slots__ = ("labels",)

    @property
    def size(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise COMError(
                f"unknown ground label {label!r}; the ground set is {list(self.labels)}"
            ) from None

    def __iter__(self):
        return iter(range(self.size))


class SignedVector(Record):
    """Immutable sign assignment over a ground set, entries in {+1,-1,0}."""

    __slots__ = ("signs",)

    def __init__(self, signs):
        object.__setattr__(self, "signs", tuple(signs))

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

    def __repr__(self):
        return f"SignedVector({self.to_string()!r})"

    def sort_key(self):
        return tuple(CODE_OF_SIGN[s] for s in self.signs)

    def __neg__(self):
        return SignedVector(-s for s in self.signs)

    def support(self):
        return frozenset(i for i, s in enumerate(self.signs) if s)

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

    Returns the report dict: "ok" for each axiom and for both, and for a
    failing axiom the first violating witness [X, Y] resp. [X, Y, i], covectors
    as strings, in canonical scan order: the first X, then the first Y, for
    face symmetry; the first Y, then the first X, then the lowest i, for
    strong elimination.

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
    vectors = sorted(set(vectors), key=SignedVector.sort_key)
    fs = se = None
    if vectors:
        n = len(vectors[0])
        if any(len(v) != n for v in vectors):
            raise COMError("covectors must all have the same length")
        keys = [key_of(v) for v in vectors]
        fs = _first_face_symmetry_miss(keys, n)
        cover = _Cover(keys, n)
        if fs is not None or not _support_classes_eliminate(keys, n, cover):
            se = _first_uneliminated(keys, n, cover)
    return {
        "face_symmetry": {
            "ok": fs is None,
            "witness": None if fs is None else [vectors[k].to_string() for k in fs],
        },
        "strong_elimination": {
            "ok": se is None,
            "witness": None
            if se is None
            else [vectors[se[0]].to_string(), vectors[se[1]].to_string(), se[2]],
        },
        "ok": fs is None and se is None,
    }


class COM:
    """A ground set plus a deduplicated, canonically sorted covector family.

    The constructor checks nothing: it expects a GroundSet of distinct
    string labels and a nonempty family of covectors as long as it.
    Families from outside come in through from_json_dict, which checks
    that and, unless told not to, the axioms; minors, enumerated and
    generated families are COMs by theorem or by construction and are built
    as they are.

    keys[k] and zero_masks[k] are the sign key and zero-set mask of
    covectors[k]; flat_masks is the set of zero-set masks.
    """

    __slots__ = ("ground", "covectors", "keys", "zero_masks", "flat_masks", "_set", "_hash")

    def __init__(self, ground, covectors):
        covectors = sorted(set(covectors), key=SignedVector.sort_key)
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
        """Read a COM from its JSON form, refusing what the constructor trusts.

        Raises TypeError unless `ground` and `covectors` are lists of
        strings; COMError for repeated ground labels, a covector with a
        character other than '+', '-', '0', an empty family, or a covector
        whose length is not the ground set's; and, unless check is False,
        AxiomError for a family that fails the COM axioms.
        """
        labels = tuple(jsonio.strings(data["ground"], "ground"))
        if len(set(labels)) != len(labels):
            raise COMError("ground-set labels must be distinct")
        strings = jsonio.strings(data["covectors"], "covectors")
        covectors = [SignedVector.from_string(s) for s in strings]
        if not covectors:
            raise COMError("a COM needs at least one covector")
        if any(len(v) != len(labels) for v in covectors):
            raise COMError("covector length does not match ground-set size")
        M = cls(GroundSet(labels), covectors)
        if check:
            report = check_axioms(M.covectors)
            if not report["ok"]:
                raise AxiomError(f"covector family fails the COM axioms: {report}")
        return M


def topes(M):
    """Covectors with full support (empty when M has a coloop)."""
    return tuple(v for v, z in zip(M.covectors, M.zero_masks) if not z)


def coloops(M):
    """Elements that are zero in every covector."""
    return bits(reduce(and_, M.flat_masks))


def flat_poset(M):
    """The flats of M, the zero sets of its covectors, as a tuple sorted by size,
    then content: the coloop set, the intersection of all the flats of a COM,
    comes first."""
    return tuple(sorted(map(bits, M.flat_masks), key=lambda f: (len(f), tuple(sorted(f)))))


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


class SignedPermutation(Record):
    """A permutation of ground indices with a sign attached to each source index."""

    __slots__ = ("perm", "signs")

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
    """The flats of M as flat_poset sorts them, cached per COM."""
    return _flats_cached(M)
