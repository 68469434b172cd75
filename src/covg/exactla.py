"""Exact linear algebra substrate: exact numbers, sparse multivariate
polynomials, coefficient fields, and incremental row spaces with
fraction-free elimination.

Numbers stay field-free until a row space needs them.  `rational` reads an
int, a Fraction or a string "p" or "p/q" into an int where the value is
integral and a Fraction otherwise, and refuses floats and bools; polynomial
coefficients and locus coordinates are such numbers.  A field enters only
where evaluation vectors are formed and reduced, and `for_points` picks its
vector format from the locus's point count.  `RationalField` keeps a vector
as a tuple of exact numbers (all ints over an integral locus) for the
fraction-free `RationalRowSpace`.  `PrimeField` keeps an array of residues
mod p, stored as uint32, for the numpy-backed `FpRowSpace`, which stores its
rows in the same integer type; below `_NUMPY_POINTS` points it hands over to
the same field on `RationalField`'s tuples of ints, congruent mod p to the
field's values, and `SmallFpRowSpace` reduces them.  numpy is imported only
where a prime field runs on a locus of at least `_NUMPY_POINTS` points, so
work over Q and small spans over F_p never load it.

Membership queries, traces and expansion coefficients read every row
space's fully reduced basis at its pivots; the layouts differ with the
arithmetic.  `RationalRowSpace` keeps an echelon prefix: primitive integer
rows in insertion order, each reduced against the pivots of the rows before
it and never rewritten, so a copy is a prefix view, and the fully reduced
basis is built per rank only when a query asks.  `SmallFpRowSpace` is that
prefix mod p, with each row scaled to 1 at its pivot.  `FpRowSpace` keeps
the fully reduced, pivot-normalized basis itself, on its free (non-pivot)
columns only: a vector reduced against it is zero at every pivot, so a block
of vectors is reduced, or tested, with one product on the free columns.
Each insert binds new arrays, so a copy shares them and keeps its own rank.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import add, mul


class ExactLAError(Exception):
    pass


def rational(x):
    """The exact number x: an int when it is integral, else a Fraction.

    Accepts ints, Fractions and strings such as "3", "-1/3" or "0.25"; refuses
    floats and bools, which do not carry an exact value.
    """
    if type(x) is int:
        return x
    if isinstance(x, str):
        x = Fraction(x)
    elif not isinstance(x, Fraction):
        raise TypeError(f"{x!r} is not an exact number: give an int or a string 'p' or 'p/q'")
    return x.numerator if x.denominator == 1 else x


# ---------------------------------------------------------------------------
# coefficient fields
#
# A field reads exact numbers into its elements and owns the vector format of
# evaluation vectors: `vector` builds one from exact numbers, `product` and
# `add` are the pointwise product and sum, `is_zero` tests for the zero
# vector, `combination` forms sum c * v over (c, v) pairs, `support` lists the
# points where a vector is nonzero, `take` reads a vector at a list of points
# and `spread` places values at such points of an otherwise zero vector, and
# `rowspace` makes a fresh, empty row space that accepts these vectors.


class RationalField:
    """The rationals; elements and vector entries are exact numbers."""

    name = "rational"
    characteristic = 0
    of = staticmethod(rational)

    def for_points(self, n):
        """The field in the vector format that suits a locus of n points: this one."""
        return self

    def vector(self, values):
        return tuple(map(self.of, values))

    def product(self, u, v):
        return tuple(map(mul, u, v))

    def add(self, u, v):
        return tuple(map(add, u, v))

    def is_zero(self, v):
        return not any(v)

    def support(self, v):
        return [i for i, x in enumerate(v) if x]

    def take(self, v, points):
        return tuple(map(v.__getitem__, points))

    def spread(self, w, points, ambient):
        out = [0] * ambient
        for i, x in zip(points, w):
            out[i] = x
        return tuple(out)

    def combination(self, terms, ambient):
        total = (0,) * ambient
        for c, v in terms:
            c = self.of(c)
            total = tuple(a + c * x for a, x in zip(total, v))
        return total

    def rowspace(self, ambient):
        return RationalRowSpace(ambient)

    def __repr__(self):
        return "QQ"


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for n < 3.3e24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the numpy type of stored residues: every prime a field admits is below 2^32
_RESIDUE = "uint32"
# loci with at least this many points run the prime field on numpy; smaller
# ones finish their spans over F_p before numpy would have loaded (BENCH_28.json)
_NUMPY_POINTS = 256


def _check_products(points, p):
    """Refuse a prime too large for exact int64 dot products of this length."""
    if points * (p - 1) ** 2 >= 2**63:
        raise ExactLAError(
            f"the prime {p} is too large for exact int64 elimination on {points} points: "
            "need points * (p - 1)^2 < 2^63"
        )


def _residue(x, p):
    """The residue mod p of the exact number x, read by `rational`."""
    x = rational(x)
    if type(x) is int:
        return x % p
    den = x.denominator % p
    if den == 0:
        raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
    return x.numerator * pow(den, -1, p) % p


class PrimeField:
    """The field of integers mod p; elements are ints in [0, p), vectors arrays
    of uint32 residues.

    Residues are promoted to int64 before every multiplication: under NumPy 2
    a Python int times a uint32 array stays uint32, so neither a product of
    two vectors nor a scaled vector may be formed in the stored type.
    """

    def __init__(self, p):
        # a product of two residues must be exact in int64, and no row space
        # (which needs points * (p - 1)^2 < 2^63) admits a larger prime
        if (p - 1) ** 2 >= 2**63:
            raise ExactLAError(
                f"the prime {p} is too large for exact int64 residue products: "
                "need (p - 1)^2 < 2^63"
            )
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"fp:{p}"
        self.characteristic = p

    def of(self, x):
        return _residue(x, self.p)

    def for_points(self, n):
        """This field for a locus of n points: itself from `_NUMPY_POINTS`
        points on, below that the same field on tuples of ints, which loads
        no numpy.  Either way the prime must keep n-term int64 dot products
        exact."""
        _check_products(n, self.p)
        return self if n >= _NUMPY_POINTS else _SmallPrimeField(self.p)

    def vector(self, values):
        import numpy as np

        values = tuple(values)
        if all(type(x) is int for x in values):  # one pass; bools take the checked path
            try:
                return np.remainder(np.array(values, dtype=np.int64), self.p).astype(_RESIDUE)
            except OverflowError:
                pass
        return np.array([self.of(x) for x in values], dtype=_RESIDUE)

    def product(self, u, v):
        import numpy as np

        out = np.multiply(u, v, dtype=np.int64)
        return np.remainder(out, self.p, out=out).astype(_RESIDUE, copy=False)

    def add(self, u, v):
        import numpy as np

        out = np.add(u, v, dtype=np.int64)
        return np.remainder(out, self.p, out=out).astype(_RESIDUE, copy=False)

    def is_zero(self, v):
        return not v.any()

    def support(self, v):
        import numpy as np

        return np.flatnonzero(v)

    def take(self, v, points):
        return v[points]

    def spread(self, w, points, ambient):
        import numpy as np

        out = np.zeros(ambient, dtype=_RESIDUE)
        out[points] = w
        return out

    def combination(self, terms, ambient):
        import numpy as np

        total = np.zeros(ambient, dtype=np.int64)
        for c, v in terms:
            total += np.multiply(v, self.of(c), dtype=np.int64)  # < p + (p - 1)^2 < 2^63
            np.remainder(total, self.p, out=total)
        return total.astype(_RESIDUE, copy=False)

    def rowspace(self, ambient):
        return FpRowSpace(ambient, self.p)

    def __repr__(self):
        return f"GF({self.p})"


class _SmallPrimeField(RationalField):
    """GF(p) on `RationalField`'s tuples: a vector's entries are ints
    congruent mod p to its values, and `SmallFpRowSpace` reduces them."""

    def __init__(self, p):
        self.p = p
        self.name = f"fp:{p}"
        self.characteristic = p

    def of(self, x):
        return _residue(x, self.p)

    def is_zero(self, v):
        p = self.p
        return not any(x % p for x in v)

    def rowspace(self, ambient):
        return SmallFpRowSpace(ambient, self.p)

    __repr__ = PrimeField.__repr__


QQ = RationalField()


def field_from_name(name):
    """Parse 'rational' or 'fp:<p>' into a field object."""
    if name == "rational":
        return QQ
    if name.startswith("fp:"):
        return PrimeField(int(name[3:]))
    raise ValueError(f"unknown field spec {name!r} (expected 'rational' or 'fp:<p>')")


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
#
# Monomials are dense exponent tuples over the declared variable list; the
# repo-wide monomial order is graded lexicographic (degree first, then the
# exponent tuple with earlier variables weighing more).


def monomial_mul(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


def glex_key(exps):
    return (sum(exps), exps)


class Polynomial:
    """Sparse polynomial with exact rational coefficients over a declared
    variable list.

    ``terms`` maps exponent tuples to nonzero coefficients, read by
    `rational`.  No field is attached: a field reads the coefficients when a
    polynomial is evaluated into its vectors.  Instances are treated as
    immutable values.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(self.vars):
                raise ExactLAError("exponent tuple does not match variable list")
            c = rational(coeff)
            if c:
                clean[exps] = c
        self.terms = clean

    # -- constructors

    @classmethod
    def zero(cls, vars):
        return cls(vars)

    @classmethod
    def constant(cls, vars, value):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def one(cls, vars):
        return cls.constant(vars, 1)

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        i = vars.index(name)
        return cls(vars, {tuple(int(k == i) for k in range(len(vars))): 1})

    @classmethod
    def monomial(cls, vars, exps, coeff=1):
        return cls(vars, {tuple(exps): coeff})

    # -- ring operations

    def _check(self, other):
        if self.vars != other.vars:
            raise ExactLAError("polynomials live in different rings")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Polynomial(self.vars, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = monomial_mul(e1, e2)
                terms[e] = terms.get(e, 0) + c1 * c2
        return Polynomial(self.vars, terms)

    def scale(self, c):
        c = rational(c)
        return Polynomial(self.vars, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def evaluate(self, point):
        """Exact value at a point given as a sequence of exact numbers."""
        if len(point) != len(self.vars):
            raise ExactLAError("point dimension does not match variable list")
        total = 0
        for exps, coeff in self.terms.items():
            val = coeff
            for x, e in zip(point, exps):
                if e:
                    val = val * x**e
            total = total + val
        return rational(total)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, key=glex_key, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                self.vars[i] if e == 1 else f"{self.vars[i]}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            if not mono:
                piece = str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = f"-{mono}"
            else:
                piece = f"{c}*{mono}"
            bits.append(piece)
        out = bits[0]
        for piece in bits[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


def elementary_symmetric(d, polys):
    """e_d of a nonempty list of polynomials; e_0 = 1."""
    polys = list(polys)
    if not polys:
        raise ExactLAError("elementary_symmetric needs at least one polynomial")
    if d < 0 or d > len(polys):
        raise ExactLAError(f"e_{d} of {len(polys)} polynomials is out of range")
    vars = polys[0].vars
    total = Polynomial.zero(vars)
    for combo in combinations(polys, d):
        prod = Polynomial.one(vars)
        for p in combo:
            prod = prod * p
        total = total + prod
    return total


# ---------------------------------------------------------------------------
# row spaces
#
# Both row spaces answer from the fully reduced basis, in which every row is
# zero at every pivot but its own: it is unique up to row scale, so
# expansion coefficients and traces can be read off at its pivots, and a
# vector cleared by it at the pivots is zero there.  The module docstring
# says what each one stores.

def apply_point_permutation(vec, perm):
    """Push a coordinate vector forward along j -> perm[j]."""
    out = [None] * len(vec)
    for j, v in zip(perm, vec):
        out[j] = v
    return out


_NORMALIZE_BITS = 512  # renormalize integer rows once entries exceed this,
_NORMALIZE_EVERY = 16  # looked at after this many row operations
_ECHELON_LEAF = 32  # FpRowSpace._echelon eliminates blocks this small row by row
# rows per block: harmonics inserts and tests vectors in chunks this size, and
# FpRowSpace promotes and updates its rows in slices this size; bounds the temporaries
_CHUNK_ROWS = 256


def _copy(space):
    """A copy sharing the stored state: inserting into either one leaves the
    other's span as it was (see each class)."""
    dup = object.__new__(type(space))
    dup.__dict__.update(space.__dict__)
    return dup


def _contains(space, vec):
    return space.contains_block([vec])[0]


class RationalRowSpace:
    """Row space over Q, stored as primitive integer rows (fraction-free).

    `_stored` holds the rows in insertion order, each primitive with a
    positive entry at its pivot and zero at the pivots of the rows before
    it, and `_pivots` their pivot columns.  A copy shares these lists and
    the `_reduced` table (rank -> fully reduced basis of the first rank
    rows) and reads only its first `rank` rows; a space that grows while
    holding fewer rows than the lists stops sharing.

    `rows` is the fully reduced basis: the primitive rows of the span, in
    insertion order, each zero at every pivot but its own.
    `contains_block`, the traces and `expansion_coefficients` read it.  A
    larger rank's basis is built from the largest smaller one already in the
    shared table, so a filtration's snapshots build theirs degree by degree.
    """

    def __init__(self, ambient):
        self.ambient = ambient
        self._rank = 0
        self._stored = []  # rows in insertion order; a longer space may share the list
        self._pivots = []  # pivot column of each stored row; shared along with the rows
        self._reduced = {0: []}
        self._free = None  # (rank, ...) as `_free_rows` returns it, for that rank

    @property
    def rank(self):
        return self._rank

    @property
    def pivots(self):
        return self._pivots[: self._rank]

    copy = _copy

    def _append(self, row, j):
        """Store a row with pivot j, raising the rank by one."""
        r = self._rank
        if r < len(self._pivots):  # rows past r belong to a longer space: stop sharing
            self._stored, self._pivots = self._stored[:r], self._pivots[:r]
            self._reduced = {rank: basis for rank, basis in self._reduced.items() if rank <= r}
        self._stored.append(row)
        self._pivots.append(j)
        self._rank = r + 1

    def _reduced_basis(self):
        r = self._rank
        basis = self._reduced.get(r)
        if basis is None:
            base = max(k for k in self._reduced if k < r)
            basis = self._reduced[r] = self._extend_basis(self._reduced[base], base, r)
        return basis

    @property
    def rows(self):
        return list(self._reduced_basis())

    def _intvec(self, vec):
        if len(vec) != self.ambient:
            raise ExactLAError("vector length does not match ambient dimension")
        if all(type(v) is int for v in vec):
            return list(vec)
        vec = list(map(rational, vec))  # ints and Fractions; floats and bools raise
        mult = 1
        for v in vec:
            mult = mult * v.denominator // math.gcd(mult, v.denominator)
        return [int(v * mult) for v in vec]

    def _reduce(self, v):
        # one pass in insertion order: each row is zero at the pivots before its own
        ops = 0
        for row, j in zip(self._stored, self._pivots[: self._rank]):
            a = v[j]
            if a:
                p = row[j]
                if p == 1:  # as at every pivot of the braid5 covector locus
                    v = [x - a * y for x, y in zip(v, row)]
                else:
                    v = [p * x - a * y for x, y in zip(v, row)]
                ops += 1
                if not ops % _NORMALIZE_EVERY and (
                    max(map(abs, v), default=0).bit_length() > _NORMALIZE_BITS
                ):
                    v = self._primitive(v)
        return v

    @staticmethod
    def _primitive(v):
        g = math.gcd(*v)
        if g > 1:
            v = [x // g for x in v]
        return v

    def insert(self, vec):
        """Add a vector to the span; returns True iff the rank increased."""
        v = self._reduce(self._intvec(vec))
        j = next((k for k, x in enumerate(v) if x), None)
        if j is None:
            return False
        if v[j] < 0:
            v = [-x for x in v]
        self._append(self._primitive(v), j)
        return True

    def insert_block(self, vecs):
        """Insert the vectors in order; return the indices of those that raised the rank.

        The whole block is read first, so a refused entry leaves the span as it was."""
        taken = []
        for i, vec in enumerate([self._intvec(vec) for vec in vecs]):
            if self.rank == self.ambient:
                break
            if self.insert(vec):
                taken.append(i)
        return taken

    def _extend_basis(self, basis, base, r):
        """The fully reduced basis at rank r from the one at rank base."""
        pivots = self._pivots[base:r]
        # the new rows are zero at the earlier pivots: clear each one at the
        # pivots of the new rows after it, the last first, then clear the
        # earlier basis at the new pivots
        fresh = []
        for k in range(r - 1, base - 1, -1):
            fresh.insert(0, self._clear(self._stored[k], fresh, pivots[k - base + 1 :]))
        return [self._clear(row, fresh, pivots) for row in basis] + fresh

    def _clear(self, row, rows, pivots):
        """The primitive row left when rows with exclusive pivots clear row there.

        Each row is zero at the others' pivots, so row's entry a at a pivot j
        is what its row f must take away: L * row - sum (L * a / f[j]) * f
        with L the lcm of the f[j] involved.  Every entry is one such sum, so
        no fraction-free factor piles up from row to row.
        """
        hits = [(a, f, f[j]) for f, j in zip(rows, pivots) if (a := row[j])]
        return self._primitive(self._subtract(row, hits)) if hits else row

    @staticmethod
    def _subtract(row, hits):
        """L * row - sum (L * a / p) * f over the hits (a, f, p), L the lcm of the p."""
        lcm = math.lcm(*(p for _, _, p in hits))
        v = [lcm * x for x in row] if lcm > 1 else row
        for a, f, p in hits:
            m = lcm // p * a
            v = [x - m * y for x, y in zip(v, f)]
        return v

    contains = _contains

    def contains_block(self, vecs):
        """For each vector, whether it lies in the span.

        Against the fully reduced basis a vector v is cleared by one multiple
        of each row f it meets at that row's pivot j, with no fraction-free
        growth: the residue is L * v - sum (L * v[j] / f[j]) * f, L the lcm
        of the f[j] met.  It is zero at every pivot, so only the other
        columns are formed, and v lies in the span iff they vanish.
        """
        pivots = self.pivots
        free, rows, heads = self._free_rows()
        out = []
        for vec in vecs:
            v = self._intvec(vec)
            rest = list(map(v.__getitem__, free))
            hits = [(a, f, p) for a, f, p in zip(map(v.__getitem__, pivots), rows, heads) if a]
            out.append(not any(self._subtract(rest, hits) if hits else rest))
        return out

    def _free_rows(self):
        """What `contains_block` reads, built once per rank: the non-pivot
        columns, each basis row on them and its pivot entry."""
        if self._free is None or self._free[0] != self._rank:
            basis, pivots = self._reduced_basis(), self.pivots
            free = sorted(set(range(self.ambient)).difference(pivots))
            rows = [list(map(row.__getitem__, free)) for row in basis]
            heads = [row[j] for row, j in zip(basis, pivots)]
            self._free = (self._rank, free, rows, heads)
        return self._free[1:]

    def expansion_coefficients(self, vec):
        """Coefficients of vec on the `rows` basis, or None if outside the span."""
        if not self.contains(vec):
            return None
        # pivot columns are exclusive to their rows, so each coefficient sits at its pivot
        return [Fraction(vec[j], row[j]) for row, j in zip(self._reduced_basis(), self.pivots)]

    def trace_under_permutation(self, perm):
        """Trace of the coordinate permutation j -> perm[j] restricted to the span.

        Raises if the span is not invariant under the permutation.
        """
        if not all(self.contains_block([apply_point_permutation(row, perm) for row in self.rows])):
            raise ExactLAError("subspace is not invariant under the permutation")
        return self.pivot_trace(perm)

    def pivot_trace(self, perm):
        """Trace of the coordinate permutation j -> perm[j] on the span, read at the pivots.

        Unchecked: the value is the trace only when the span is invariant
        under the permutation (see `trace_under_permutation`).  In the fully
        reduced basis pivot columns are exclusive, so the image of a row
        with pivot j has coefficient row[perm^-1(j)] / row[j] on that row.
        """
        inverse = [0] * len(perm)
        for k, j in enumerate(perm):
            inverse[j] = k
        total = Fraction(0)
        for row, j in zip(self._reduced_basis(), self._pivots):
            total += Fraction(row[inverse[j]], row[j])
        return total


class SmallFpRowSpace(RationalRowSpace):
    """Row space over F_p on lists of int residues, for spans too small to
    pay for numpy: `RationalRowSpace`'s echelon prefix with its per-field
    steps taken mod p.  Rows are normalized to 1 at their pivots, so the
    fully reduced basis, the pivots and every answer equal `FpRowSpace`'s."""

    def __init__(self, ambient, p):
        super().__init__(ambient)
        self.p = p

    def _intvec(self, vec):
        if len(vec) != self.ambient:
            raise ExactLAError("vector length does not match ambient dimension")
        p = self.p
        return [x % p if type(x) is int else _residue(x, p) for x in vec]

    def _reduce(self, v):
        # a stored row is zero before its pivot, so only v[j:] changes; entries
        # are reduced once, at the end
        p = self.p
        for row, j in zip(self._stored, self._pivots[: self._rank]):
            if a := v[j] % p:
                v[j:] = [x - a * y for x, y in zip(v[j:], row[j:])]
        return [x % p for x in v]

    def _primitive(self, v):
        a = next(x for x in v if x)
        if a == 1:
            return v
        a = pow(a, -1, self.p)
        return [x * a % self.p for x in v]

    def _subtract(self, row, hits):
        for a, f, _ in hits:
            row = [x - a * y for x, y in zip(row, f)]
        return [x % self.p for x in row]

    def expansion_coefficients(self, vec):
        if not self.contains(vec):
            return None
        v = self._intvec(vec)
        return [v[j] for j in self.pivots]

    def pivot_trace(self, perm):
        return int(super().pivot_trace(perm)) % self.p  # every row is 1 at its pivot


class FpRowSpace:
    """Row space over F_p backed by numpy arrays of uint32 residues.

    The span is kept as its fully reduced, pivot-normalized basis, on the
    free columns only: `_pivots` holds the pivot columns in acceptance
    order, `_free` the other columns in increasing order, and `_R` (rank x
    free) the basis rows there.  Row i of `_basis` is 1 at `_pivots[i]`, 0
    at the other pivots and `_R[i]` on the free columns; `contains_block`
    and the traces read `_R` without building it.

    A vector cleared by the basis at the pivots is zero there, so
    `insert_block` reduces a block with one product on the free columns,
    puts the residual in echelon form there, and clears the old rows at the
    new pivots.  Every insert binds new arrays and writes into none it had,
    so `copy` shares them and a copy keeps its own rank.  `_R` is uint32;
    products and row operations run in int64 or float64 and are cast back
    when stored.
    """

    def __init__(self, ambient, p):
        import numpy as np

        _check_products(ambient, p)
        self.ambient = ambient
        self.p = p
        # float64 matmul is exact as long as every dot product stays < 2^53
        self._float_ok = ambient * (p - 1) * (p - 1) < 2**53
        self._pivots = np.zeros(0, dtype=np.intp)
        self._free = np.arange(ambient)
        self._R = np.zeros((0, ambient), dtype=_RESIDUE)

    @property
    def rank(self):
        return len(self._pivots)

    @property
    def pivots(self):
        return self._pivots.tolist()

    copy = _copy

    def _rows(self, lo, hi):
        """Rows lo to hi of the fully reduced basis, on all columns."""
        import numpy as np

        R = self._R[lo:hi]
        out = np.zeros((len(R), self.ambient), dtype=_RESIDUE)
        out[:, self._free] = R
        out[np.arange(len(R)), self._pivots[lo:hi]] = 1
        return out

    @property
    def _basis(self):
        return self._rows(0, self.rank)

    def _read(self, vec):
        """An integer array as it is; any other vector's entries read exactly
        into residues, so Fractions are not truncated and floats and bools raise."""
        import numpy as np

        if isinstance(vec, np.ndarray) and vec.dtype.kind in "iu":
            return vec
        return [_residue(x, self.p) for x in vec]

    def _block(self, vecs):
        """The vectors, read as residues, stacked into one int64 array."""
        import numpy as np

        block = np.remainder([self._read(v) for v in vecs], self.p, dtype=np.int64)
        if block.shape[1:] != (self.ambient,):
            raise ExactLAError("vector length does not match ambient dimension")
        return block

    # Every product below is an `_eliminate` whose inner dimension counts rows
    # of one echelon basis, hence is at most `ambient`, and whose factors are
    # residues in [0, p), stored as uint32 and promoted to float64 or int64
    # before they are multiplied: each dot product is at most
    # ambient * (p - 1)^2, which `_float_ok` bounds below 2^53 for the float64
    # branch and `__init__` bounds below 2^63 for the int64 branch.  The
    # leaf's outer products are single int64 products (p - 1)^2 < 2^63.

    def _eliminate(self, rest, coeffs, matrix):
        """rest - coeffs @ matrix mod p, as a fresh int64 array, or rest
        itself when coeffs is zero.  The product is summed over slices of
        `_CHUNK_ROWS` rows of matrix, so only one slice is promoted at a
        time; every partial sum stays below the bound on the whole."""
        import numpy as np

        if not coeffs.any():
            return rest
        kind = np.float64 if self._float_ok else np.int64
        prod = coeffs[..., :_CHUNK_ROWS].astype(kind) @ matrix[:_CHUNK_ROWS].astype(kind)
        for lo in range(_CHUNK_ROWS, len(matrix), _CHUNK_ROWS):
            hi = lo + _CHUNK_ROWS
            prod += coeffs[..., lo:hi].astype(kind) @ matrix[lo:hi].astype(kind)
        out = prod.astype(np.int64, copy=False)
        np.subtract(rest, out, out=out)
        return np.remainder(out, self.p, out=out)

    def insert(self, vec):
        """Add a vector to the span; returns True iff the rank increased."""
        return bool(self.insert_block([vec]))

    def insert_block(self, vecs):
        """Insert the vectors in order; return the indices of those that raised the rank.

        The accepted indices equal those of inserting each vector in turn:
        the greedy independent set in row order is unique, and so is the
        fully reduced basis at a fixed pivot set.  The block is cleared at
        the pivots, on the free columns, its residual is put in echelon form
        there by `_echelon`, and `_extend` adds the new rows.
        """
        if not len(vecs):
            return []
        block = self._block(vecs)
        if self.rank == self.ambient:
            return []
        rest = self._eliminate(block[:, self._free], block[:, self._pivots], self._R)
        taken, rows, pivots = self._echelon(rest, self.ambient - self.rank)
        if taken:
            self._extend(rows, pivots)
        return taken

    def _extend(self, rows, pivots):
        """Add fully reduced, pivot-normalized rows on the free columns, with
        pivots at these positions of `_free`: the old rows are cleared at
        the new pivots, in slices of `_CHUNK_ROWS`, into fresh arrays."""
        import numpy as np

        r = self.rank
        keep = np.ones(len(self._free), dtype=bool)
        keep[pivots] = False
        R = np.empty((r + len(rows), int(keep.sum())), dtype=_RESIDUE)
        fresh = rows[:, keep]
        for lo in range(0, r, _CHUNK_ROWS):
            old = self._R[lo : lo + _CHUNK_ROWS]
            R[lo : lo + len(old)] = self._eliminate(old[:, keep], old[:, pivots], fresh)
        R[r:] = fresh
        self._pivots = np.concatenate([self._pivots, self._free[pivots]])
        self._free = self._free[keep]
        self._R = R

    def _echelon(self, block, room):
        """Greedy independent rows of a block.

        Returns (indices, rows, pivots): the first `room` at most of the rows
        that are independent of all earlier ones, and the fully reduced
        echelon basis of their span with its pivots in acceptance order.
        Recursive on halves (rank-profile revealing, as in
        Jeannerod-Pernet-Storjohann): echelon the first half, reduce the
        second half against it, recurse, back-substitute.
        """
        import numpy as np

        live = np.flatnonzero(block.any(axis=1))
        block = block[live]
        if len(block) <= _ECHELON_LEAF:
            taken, rows, pivots = self._echelon_leaf(block, room)
        else:
            half = len(block) // 2
            taken, rows, pivots = self._echelon(block[:half], room)
            if len(taken) < room:
                rest = block[half:]
                rest = self._eliminate(rest, rest[:, pivots], rows)
                more, more_rows, more_pivots = self._echelon(rest, room - len(taken))
                if more:
                    rows = self._eliminate(rows, rows[:, more_pivots], more_rows)
                    rows = np.concatenate([rows, more_rows])
                    taken = taken + [half + i for i in more]
                    pivots = pivots + more_pivots
        return [int(live[i]) for i in taken], rows, pivots

    def _echelon_leaf(self, block, room):
        """Row by row: each accepted row is normalized at its first nonzero
        column j and clears column j of the rows that meet it there; it is
        zero before j, so only columns from j on change."""
        import numpy as np

        block = block.copy()
        taken, pivots = [], []
        for i in range(len(block)):
            nz = np.flatnonzero(block[i])
            if nz.size == 0:
                continue
            j = int(nz[0])
            v = block[i, j:] * pow(int(block[i, j]), -1, self.p) % self.p
            block[i, j:] = v
            hit = np.flatnonzero(block[:, j])
            hit = hit[hit != i]
            block[hit, j:] = (block[hit, j:] - np.outer(block[hit, j], v)) % self.p
            taken.append(i)
            pivots.append(j)
            if len(taken) == room:
                break
        return taken, block[taken], pivots

    contains = _contains

    def contains_block(self, vecs):
        """For each vector, whether it lies in the span.

        A vector cleared at the pivots by the basis rows is zero there, so
        the whole block is tested with one product on the free columns: its
        entries at the pivots times `_R` (inner dimension rank <= ambient).
        """
        if not len(vecs):
            return []
        block = self._block(vecs)
        rest = self._eliminate(block[:, self._free], block[:, self._pivots], self._R)
        return (~rest.any(axis=1)).tolist()

    def expansion_coefficients(self, vec):
        """Coefficients of vec on the `_basis` rows, or None if outside the span."""
        if not self.contains(vec):
            return None
        # rows have pivot entry 1 and exclusive pivot columns: each coefficient is vec at its pivot
        return [int(x) for x in self._block([vec])[0, self._pivots]]

    def trace_under_permutation(self, perm):
        """Trace of the coordinate permutation j -> perm[j] restricted to the span.

        Raises if the span is not invariant under the permutation.  The
        moved basis rows are tested as `contains_block` tests a block, in
        slices of `_CHUNK_ROWS`; a span of full rank has no free columns and
        is invariant under every permutation.
        """
        import numpy as np

        inverse = np.argsort(perm)  # a moved row at column c is the row at inverse[c]
        at_free, at_pivots = inverse[self._free], inverse[self._pivots]
        if at_free.size:
            for lo in range(0, self.rank, _CHUNK_ROWS):
                rows = self._rows(lo, lo + _CHUNK_ROWS)
                if self._eliminate(rows[:, at_free], rows[:, at_pivots], self._R).any():
                    raise ExactLAError("subspace is not invariant under the permutation")
        return self.pivot_trace(perm)

    def pivot_trace(self, perm):
        """Trace of the coordinate permutation j -> perm[j] on the span, read at the pivots.

        Unchecked: the value is the trace only when the span is invariant
        under the permutation (see `trace_under_permutation`).  Rows have
        pivot entry 1, so the image of a row with pivot j has coefficient
        row[perm^-1(j)] on it: 1 where perm fixes j, 0 at another pivot, and
        the row's `_R` entry at a free column.
        """
        import numpy as np

        source = np.argsort(perm)[self._pivots]
        column = np.full(self.ambient, -1)
        column[self._free] = np.arange(len(self._free))
        at = column[source]
        rows = np.flatnonzero(at >= 0)
        fixed = int(np.count_nonzero(source == self._pivots))
        return (fixed + int(self._R[rows, at[rows]].sum())) % self.p
