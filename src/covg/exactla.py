"""Exact linear algebra substrate: exact numbers, sparse multivariate
polynomials, coefficient fields, and incremental row spaces with
fraction-free elimination.

Numbers stay field-free until a row space needs them.  `rational` reads an
int, a Fraction or a string "p" or "p/q" into an int where the value is
integral and a Fraction otherwise, and refuses floats and bools; polynomial
coefficients and locus coordinates are such numbers.  A field enters only
where evaluation vectors are formed and reduced: `RationalField` keeps a
vector as a tuple of exact numbers (all ints over an integral locus) for the
fraction-free `RationalRowSpace`, and `PrimeField` keeps an array of residues
mod p, stored as uint32, for the numpy-backed `FpRowSpace`, which stores
its rows in the same integer type.  numpy is
imported only where the prime field and its row space run, so work over Q
never loads it.

Both row spaces keep one layout, an echelon prefix: rows in insertion order,
each reduced against the pivots of the rows before it and never rewritten,
so the span of the first r rows stays readable while later rows are added
and a copy is a prefix view.  Deciding rank needs nothing more.  The fully
reduced basis, which membership queries, traces and expansion coefficients
read at the pivots, is built per rank only when one of them asks.  Only the
arithmetic is per field: `RationalRowSpace` stores one primitive integer
row at a time, `FpRowSpace` one block of residue rows per `insert_block`
call that raises the rank.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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

    def of(self, x):
        return rational(x)

    def vector(self, values):
        return tuple(map(rational, values))

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
            c = rational(c)
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

    def vector(self, values):
        import numpy as np

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

    def homogeneous_component(self, d):
        return Polynomial(self.vars, {e: c for e, c in self.terms.items() if sum(e) == d})

    def top_degree_form(self):
        """Highest-degree homogeneous component (zero poly maps to itself)."""
        return self.homogeneous_component(self.degree())

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
# Both row spaces keep one layout, an echelon prefix.  Rows are stored in
# insertion order, each owning a pivot column and zero at the pivots of the
# rows stored before it, and a stored row is never rewritten: the first r rows
# span what the space spanned at rank r, so a copy is a prefix view.  One pass
# over the stored rows in their order reduces any vector, eliminating at each
# pivot in turn: a row changes no entry at the pivots already passed.  The
# fully reduced basis, in which every row is zero at every pivot but its own,
# is unique up to row scale, so expansion coefficients and traces can be read
# off at its pivots; it is built per rank, and only when one of them asks.
# Only the arithmetic is per field: over Q a stored entry is one primitive
# integer row, over F_p a block of pivot-normalized residue rows.


def apply_point_permutation(vec, perm):
    """Push a coordinate vector forward along j -> perm[j]."""
    out = [None] * len(vec)
    for j, v in zip(perm, vec):
        out[j] = v
    return out


_NORMALIZE_BITS = 512  # renormalize integer rows once entries exceed this,
_NORMALIZE_EVERY = 16  # looked at after this many row operations
_ECHELON_LEAF = 32  # FpRowSpace._echelon eliminates blocks this small row by row


class _EchelonPrefix:
    """The echelon-prefix layout that both row spaces share.

    `_stored` holds the entries in insertion order, entry k raising the rank
    to `_ends[k]`, and `_pivots` the pivot column of every stored row.  A
    copy shares these lists and the `_reduced` table (rank -> fully reduced
    basis of the first rank rows) and reads only its first `rank` rows; a
    space that grows while holding fewer rows than the lists stops sharing.
    Each class binds `copy` as its own attribute, so that wrapping one
    class's method leaves the other's alone.
    """

    def __init__(self, ambient, empty_basis):
        self.ambient = ambient
        self._rank = 0
        self._stored = []  # entries in insertion order; a longer space may share the list
        self._ends = []  # rank after each entry; shared along with the entries
        self._pivots = []  # pivot column of each stored row; shared along with the entries
        self._reduced = {0: empty_basis}

    @property
    def rank(self):
        return self._rank

    @property
    def pivots(self):
        return self._pivots[: self._rank]

    def copy(self):
        dup = object.__new__(type(self))
        dup.__dict__.update(self.__dict__)
        return dup

    def _append(self, entry, pivots):
        """Store an entry whose rows have these pivots, raising the rank by their count."""
        r = self._rank
        if r < len(self._pivots):  # rows past r belong to a longer space: stop sharing
            k = bisect_right(self._ends, r)
            self._stored, self._ends, self._pivots = self._stored[:k], self._ends[:k], self._pivots[:r]
            self._reduced = {rank: basis for rank, basis in self._reduced.items() if rank <= r}
        self._stored.append(entry)
        self._pivots.extend(pivots)
        self._rank = r + len(pivots)
        self._ends.append(self._rank)

    def _entries(self, lo, hi):
        """(entry, start, end) for the stored entries that raise the rank from lo to hi."""
        k = bisect_right(self._ends, lo)
        while lo < hi:
            yield self._stored[k], lo, self._ends[k]
            lo, k = self._ends[k], k + 1

    def _reduced_basis(self):
        r = self._rank
        basis = self._reduced.get(r)
        if basis is None:
            base = max(k for k in self._reduced if k < r)
            basis = self._reduced[r] = self._extend_basis(self._reduced[base], base, r)
        return basis


class RationalRowSpace(_EchelonPrefix):
    """Row space over Q, stored as primitive integer rows (fraction-free).

    Each stored entry is one row, primitive with a positive entry at its
    pivot.  `rows` is the fully reduced basis: the primitive rows of the
    span, in insertion order, each zero at every pivot but its own.
    `contains_block`, the traces and `expansion_coefficients` read it.  A
    larger rank's basis is built from the largest smaller one already in the
    shared table, so a filtration's snapshots build theirs degree by degree.
    """

    copy = _EchelonPrefix.copy

    def __init__(self, ambient):
        super().__init__(ambient, [])
        self._free = None  # (rank, ...) as `_free_rows` returns it, for that rank

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
        self._append(self._primitive(v), [j])
        return True

    def insert_block(self, vecs):
        """Insert the vectors in order; return the indices of those that raised the rank."""
        taken = []
        for i, vec in enumerate(vecs):
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

    def contains(self, vec):
        return self.contains_block([vec])[0]

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


class FpRowSpace(_EchelonPrefix):
    """Row space over F_p backed by numpy arrays of uint32 residues.

    Each stored entry is the block of rows that one rank-raising
    `insert_block` call added: pivot-normalized, fully reduced among
    themselves and zero at the pivots of the blocks before it.  A vector is
    reduced with one product per block.  `_basis` is the fully reduced
    basis, which `contains_block`, the traces and `expansion_coefficients`
    read; it is built per rank as over Q, each later block clearing the
    basis before it at its pivots.  Stored blocks and reduced bases are kept
    as uint32; products and row operations run in int64, and a block is cast
    back to uint32 when it is stored.
    """

    copy = _EchelonPrefix.copy

    def __init__(self, ambient, p):
        import numpy as np

        # int64 dot products of length ambient with entries < p are exact only
        # while ambient * (p - 1)^2 < 2^63
        if ambient * (p - 1) ** 2 >= 2**63:
            raise ExactLAError(
                f"the prime {p} is too large for exact int64 elimination on {ambient} points: "
                "need points * (p - 1)^2 < 2^63"
            )
        super().__init__(ambient, np.zeros((0, ambient), dtype=_RESIDUE))
        self.p = p
        # float64 matmul is exact as long as every dot product stays < 2^53
        self._float_ok = ambient * (p - 1) * (p - 1) < 2**53

    @property
    def _basis(self):
        return self._reduced_basis()

    def _read(self, vec):
        """An integer array as it is; any other vector's entries read exactly
        into residues, so Fractions are not truncated and floats and bools raise."""
        import numpy as np

        if isinstance(vec, np.ndarray) and vec.dtype.kind in "iu":
            return vec
        return [_residue(x, self.p) for x in vec]

    def _vec(self, vec):
        return self._block([vec])[0]

    def _block(self, vecs):
        """The vectors, read as residues, stacked into one int64 array."""
        import numpy as np

        block = np.remainder([self._read(v) for v in vecs], self.p, dtype=np.int64)
        if block.shape[1:] != (self.ambient,):
            raise ExactLAError("vector length does not match ambient dimension")
        return block

    # Every product below is a `_combine` whose inner dimension counts rows of
    # one echelon basis, hence is at most `ambient`, and whose factors are
    # residues in [0, p), stored as uint32 and promoted to float64 or int64
    # before they are multiplied: each dot product is at most
    # ambient * (p - 1)^2, which `_float_ok` bounds below 2^53 for the float64
    # branch and `__init__` bounds below 2^63 for the int64 branch.  The
    # leaf's outer products are single int64 products (p - 1)^2 < 2^63.

    def _combine(self, coeffs, matrix):
        """coeffs @ matrix mod p, as a fresh int64 array."""
        import numpy as np

        if self._float_ok:
            prod = (coeffs.astype(np.float64) @ matrix.astype(np.float64)).astype(np.int64)
        else:
            prod = coeffs.astype(np.int64, copy=False) @ matrix.astype(np.int64, copy=False)
        return np.remainder(prod, self.p, out=prod)

    def _clear(self, v, rows, pivots):
        """v (a vector or a block) less the multiples of pivot-normalized rows
        with exclusive pivots that make it zero at those pivots; int64 unless
        nothing is taken away, when v itself is returned."""
        import numpy as np

        coeffs = v[..., pivots]
        if not coeffs.any():
            return v
        out = self._combine(coeffs, rows)
        np.subtract(v, out, out=out)
        return np.remainder(out, self.p, out=out)

    def _reduce(self, v):
        # one product per block in insertion order: each block is zero at the pivots before its own
        for block, start, end in self._entries(0, self._rank):
            v = self._clear(v, block, self._pivots[start:end])
        return v

    def insert(self, vec):
        """Add a vector to the span; returns True iff the rank increased."""
        return bool(self.insert_block([vec]))

    def insert_block(self, vecs):
        """Insert the vectors in order; return the indices of those that raised the rank.

        The accepted indices equal those of inserting each vector in turn:
        the greedy independent set in row order is unique, and so is the
        fully reduced basis at a fixed pivot set.  The block is reduced
        against the stored blocks, its residual is put in echelon form by
        `_echelon`, and the new rows are stored as one block.
        """
        if not len(vecs):
            return []
        block = self._block(vecs)
        if self._rank == self.ambient:
            return []
        taken, rows, pivots = self._echelon(self._reduce(block), self.ambient - self._rank)
        if taken:
            self._append(rows.astype(_RESIDUE, copy=False), pivots)
        return taken

    def _echelon(self, block, room):
        """Greedy independent rows of a block that is zero at the stored pivots.

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
                rest = self._clear(block[half:], rows, pivots)
                more, more_rows, more_pivots = self._echelon(rest, room - len(taken))
                if more:
                    rows = np.concatenate([self._clear(rows, more_rows, more_pivots), more_rows])
                    taken = taken + [half + i for i in more]
                    pivots = pivots + more_pivots
        return [int(live[i]) for i in taken], rows, pivots

    def _echelon_leaf(self, block, room):
        import numpy as np

        block = block.copy()
        taken, pivots = [], []
        for i in range(len(block)):
            nz = np.flatnonzero(block[i])
            if nz.size == 0:
                continue
            j = int(nz[0])
            v = block[i] * pow(int(block[i, j]), -1, self.p) % self.p
            col = block[:, j].copy()
            col[i] = 0
            block = (block - np.outer(col, v)) % self.p
            block[i] = v
            taken.append(i)
            pivots.append(j)
            if len(taken) == room:
                break
        return taken, block[taken], pivots

    def _extend_basis(self, basis, base, r):
        """The fully reduced basis at rank r from the one at rank base."""
        import numpy as np

        out = np.empty((r, self.ambient), dtype=_RESIDUE)
        out[:base] = basis
        # each block is zero at the pivots before its own: it clears the rows
        # above it at its pivots and joins them
        for block, start, end in self._entries(base, r):
            out[:start] = self._clear(out[:start], block, self._pivots[start:end])
            out[start:end] = block
        return out

    def contains(self, vec):
        return self.contains_block([vec])[0]

    def contains_block(self, vecs):
        """For each vector, whether it lies in the span.

        A vector cleared at the pivots by the basis rows is zero there, so
        the whole block is tested with one product: its entries at the
        pivots times the basis at the other columns (a `_combine` with inner
        dimension rank <= ambient).
        """
        import numpy as np

        if not len(vecs):
            return []
        block, pivots = self._block(vecs), self.pivots
        free = np.ones(self.ambient, dtype=bool)
        free[pivots] = False
        rest, coeffs = block[:, free], block[:, pivots]
        if coeffs.any():
            rest = np.remainder(rest - self._combine(coeffs, self._basis[:, free]), self.p)
        return (~rest.any(axis=1)).tolist()

    def expansion_coefficients(self, vec):
        """Coefficients of vec on the `_basis` rows, or None if outside the span."""
        if not self.contains(vec):
            return None
        # rows have pivot entry 1 and exclusive pivot columns: each coefficient is vec at its pivot
        return [int(x) for x in self._vec(vec)[self.pivots]]

    def trace_under_permutation(self, perm):
        """Trace of the coordinate permutation j -> perm[j] restricted to the span.

        Raises if the span is not invariant under the permutation.  All moved
        rows are reduced with one product against the basis (a `_combine`
        with inner dimension rank <= ambient).
        """
        import numpy as np

        basis = self._basis
        moved = basis[:, np.argsort(perm)]  # moved[i, perm[k]] = row_i[k]
        if self._clear(moved, basis, self.pivots).any():
            raise ExactLAError("subspace is not invariant under the permutation")
        return self.pivot_trace(perm)

    def pivot_trace(self, perm):
        """Trace of the coordinate permutation j -> perm[j] on the span, read at the pivots.

        Unchecked: the value is the trace only when the span is invariant
        under the permutation (see `trace_under_permutation`).  Rows have
        pivot entry 1, so the image of a row with pivot j has coefficient
        row[perm^-1(j)] on it.
        """
        import numpy as np

        inverse = np.argsort(perm)
        return int(self._basis[np.arange(self._rank), inverse[self.pivots]].sum()) % self.p
