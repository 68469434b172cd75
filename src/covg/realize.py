"""Build COMs from rational affine arrangements restricted to open polyhedral
regions, via exact LP feasibility of strict sign systems; plus the braid
family and shipped fixtures.

The LP maximizes a slack t with every strict inequality relaxed to >= t and
t capped at 1; the open system is feasible exactly when the optimum is
positive.  The simplex runs over Fractions with Bland's rule, so there is no
cycling and no tolerance anywhere.

Enumeration carries an exact witness point down the tree of sign prefixes
and needs at most one LP per feasible prefix, by two facts about a cell P
that is open and convex in its equality locus L, and a form f affine on L:
f cannot vanish in P without taking both signs there, and if f is 0 at a
point of P but never positive in P, then f is 0 on all of L.  Each
reported covector's cell holds a witness checked exactly against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import product

from . import jsonio
from .com import COM, GroundSet, SignedPermutation, SignedVector
from .exactla import rational


class RealizeError(Exception):
    pass


class EmptyRegionError(RealizeError):
    pass


@dataclass(frozen=True)
class AffineForm:
    """a . x + c with exact rational coefficients."""

    coeffs: tuple
    const: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(v) for v in self.coeffs))
        object.__setattr__(self, "const", Fraction(self.const))

    @property
    def dimension(self):
        return len(self.coeffs)

    def evaluate(self, point):
        if len(point) != self.dimension:
            raise RealizeError(
                f"a point of dimension {len(point)} given to a form of dimension {self.dimension}"
            )
        return sum((a * x for a, x in zip(self.coeffs, point)), self.const)

    def __neg__(self):
        return AffineForm(tuple(-a for a in self.coeffs), -self.const)

    def to_json_dict(self):
        return {
            "coeffs": [str(a) for a in self.coeffs],
            "const": str(self.const),
        }

    @classmethod
    def from_json_dict(cls, data):
        coeffs = jsonio.array(data["coeffs"], "coeffs")
        return cls(tuple(map(rational, coeffs)), rational(data["const"]))


@dataclass(frozen=True)
class Arrangement:
    """Labeled affine forms plus an open polyhedral region (strict inequalities)."""

    dimension: int
    labels: tuple
    forms: tuple
    region: tuple

    def to_json_dict(self):
        return {
            "dimension": self.dimension,
            "forms": {l: f.to_json_dict() for l, f in zip(self.labels, self.forms)},
            "region": [f.to_json_dict() for f in self.region],
        }

    @classmethod
    def from_json_dict(cls, data):
        """Read an arrangement, refusing (TypeError) a `forms` that is not an
        object, a `coeffs` or `region` that is not a list and an inexact
        number, and (RealizeError) a dimension that is not a nonnegative
        integer or a form of another dimension.  Form labels are the keys of
        `forms`, distinct because the JSON reader refuses a repeated key."""
        named = data["forms"]
        if not isinstance(named, dict):
            raise TypeError(f"'forms' must be a JSON object, got {type(named).__name__}")
        forms = tuple(AffineForm.from_json_dict(d) for d in named.values())
        region = jsonio.array(data.get("region", []), "region")
        region = tuple(AffineForm.from_json_dict(d) for d in region)
        dimension = rational(data["dimension"])
        if type(dimension) is not int or dimension < 0:
            raise RealizeError("the dimension must be a nonnegative integer")
        if any(f.dimension != dimension for f in forms + region):
            raise RealizeError("all forms must share the ambient dimension")
        return cls(dimension, tuple(named), forms, region)


# ---------------------------------------------------------------------------
# exact simplex


def _pivot(T, basis, r, c):
    """Pivot on T[r][c]; only the columns where the pivot row is nonzero change."""
    piv = T[r][c]
    row_r = T[r] = [x / piv if x else x for x in T[r]]
    support = [j for j, y in enumerate(row_r) if y]
    for i, row in enumerate(T):
        f = row[c]
        if i != r and f:
            for j in support:
                row[j] -= f * row_r[j]
    basis[r] = c


def _optimize(T, basis, cost, ncols):
    """Bland-rule maximization of cost over the current tableau (in place)."""
    m = len(T)
    while True:
        # the nonzero dual values; a zero one would only add zero terms
        y = [(i, cost[v]) for i, v in enumerate(basis) if cost[v]]
        basic = set(basis)
        entering = None
        for j in range(ncols):
            if j in basic:
                continue
            rc = cost[j] - sum(yi * T[i][j] for i, yi in y)
            if rc > 0:
                entering = j
                break
        if entering is None:
            return "optimal"
        leaving = None
        best = None
        for i in range(m):
            a = T[i][entering]
            if a > 0:
                ratio = T[i][-1] / a
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    leaving = i
        if leaving is None:
            return "unbounded"
        _pivot(T, basis, leaving, entering)


def _fractions(values):
    """A new list of the values as Fractions; entries that already are stay as they are."""
    return [v if type(v) is Fraction else Fraction(v) for v in values]


def simplex_max(A, b, c):
    """Maximize c.x subject to A x = b, x >= 0, over exact rationals.

    Returns (status, value, x) with status 'optimal'|'infeasible'|'unbounded'.
    """
    m, n = len(A), len(c)
    A = [_fractions(row) for row in A]
    b = _fractions(b)
    c = _fractions(c)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]

    # phase 1: artificial basis, maximize minus their sum
    T = [A[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(-1)] * m
    _optimize(T, basis, cost1, n + m)
    if sum(T[i][-1] for i in range(m) if basis[i] >= n) != 0:
        return "infeasible", None, None

    # pivot artificials out of the basis; rows that cannot pivot are redundant
    drop = []
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if T[i][j] != 0:
                    _pivot(T, basis, i, j)
                    break
            else:
                drop.append(i)
    if drop:
        T = [row for i, row in enumerate(T) if i not in drop]
        basis = [v for i, v in enumerate(basis) if i not in drop]
    T = [row[:n] + [row[-1]] for row in T]

    status = _optimize(T, basis, c, n)
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i, v in enumerate(basis):
        x[v] = T[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return "optimal", value, x


@dataclass
class LPResult:
    feasible: bool
    witness: tuple | None


def lp_strict_feasible(strict, equalities, dimension):
    """Decide whether all strict forms can be made positive on the equality locus.

    Maximizes t subject to form(x) >= t for each strict form, form(x) = 0 for
    each equality, and t <= 1; strictly feasible iff the optimum is positive.
    The witness is an exact rational point.
    """
    strict = list(strict)
    equalities = list(equalities)
    d = dimension
    # columns: u (d) | v (d) | t+ | t- | surplus per strict | cap slack
    nvars = 2 * d + 2 + len(strict) + 1
    tp, tm = 2 * d, 2 * d + 1
    A, b = [], []
    for k, f in enumerate(strict):
        row = [Fraction(0)] * nvars
        for i, a in enumerate(f.coeffs):
            row[i] = a
            row[d + i] = -a
        row[tp] = Fraction(-1)
        row[tm] = Fraction(1)
        row[2 * d + 2 + k] = Fraction(-1)
        A.append(row)
        b.append(-f.const)
    for f in equalities:
        row = [Fraction(0)] * nvars
        for i, a in enumerate(f.coeffs):
            row[i] = a
            row[d + i] = -a
        A.append(row)
        b.append(-f.const)
    row = [Fraction(0)] * nvars
    row[tp], row[tm], row[-1] = Fraction(1), Fraction(-1), Fraction(1)
    A.append(row)
    b.append(Fraction(1))
    c = [Fraction(0)] * nvars
    c[tp], c[tm] = Fraction(1), Fraction(-1)

    status, value, x = simplex_max(A, b, c)
    if status != "optimal" or value <= 0:
        return LPResult(False, None)
    witness = tuple(x[i] - x[d + i] for i in range(d))
    return LPResult(True, witness)


def _certified(witness, strict, eqs):
    """witness, after checking exactly that it lies in the cell strict > 0, eqs = 0."""
    if all(g.evaluate(witness) > 0 for g in strict) and all(
        h.evaluate(witness) == 0 for h in eqs
    ):
        return witness
    raise RealizeError("a propagated witness misses its cell")


MAX_FORMS = 14  # hyperplanes accepted by the sign-vector enumerator


def enumerate_covectors(arr):
    """All sign vectors of the arrangement whose open cell meets the region.

    Depth-first over sign prefixes; an infeasible prefix prunes its whole
    subtree, which is sound because prefixes only gain constraints.  Each
    feasible prefix carries an exact witness w of its cell P, which is open
    and convex in its equality locus L, and decides the three children of
    the next form f with one LP:

    * f(w) = v != 0 with sign s: w witnesses child s.  If the LP finds u in
      child -s, then w + v/(v - f(u)) (u - w) lies on the segment between
      two points of P where f = 0, and witnesses child 0; if child -s is
      empty, so is child 0, since f is affine on L and cannot vanish in the
      open P without taking both signs there.
    * f(w) = 0: w witnesses child 0.  If the LP finds u in child +, then
      w - lam (u - w) witnesses child -, with lam small enough to keep every
      strict form positive; if child + is empty, f is 0 on all of L and
      child - is empty too.

    Every propagated witness is checked exactly against its cell before the
    descent, so each reported covector comes with an exact point of its
    cell.  The sign vectors of an arrangement's cells form a COM, so the
    result is not checked against the axioms.
    """
    m = len(arr.forms)
    if m > MAX_FORMS:
        raise RealizeError(f"enumeration capped at {MAX_FORMS} forms, got {m}")
    region = list(arr.region)
    root = lp_strict_feasible(region, [], arr.dimension)
    if not root.feasible:
        raise EmptyRegionError("the region is empty")

    found = []
    signs = [0] * m

    def toward(w, u, lam):
        return tuple(x + lam * (y - x) for x, y in zip(w, u))

    def descend(k, strict, eqs, w):
        if k == m:
            found.append(SignedVector(tuple(signs)))
            return
        f = arr.forms[k]
        v = f.evaluate(w)
        # child sign -> (strict forms, equalities) of its cell
        children = {1: (strict + [f], eqs), -1: (strict + [-f], eqs), 0: (strict, eqs + [f])}
        witness = {}
        if v:
            s = 1 if v > 0 else -1
            witness[s] = w
            u = lp_strict_feasible(*children[-s], arr.dimension).witness
            if u is not None:
                witness[-s] = u
                witness[0] = toward(w, u, v / (v - f.evaluate(u)))
        else:
            witness[0] = w
            u = lp_strict_feasible(*children[1], arr.dimension).witness
            if u is not None:
                witness[1] = u
                values = ((g.evaluate(w), g.evaluate(u)) for g in strict)
                lam = min([Fraction(1)] + [gw / (2 * (gu - gw)) for gw, gu in values if gu > gw])
                witness[-1] = toward(w, u, -lam)
        for s in (1, -1, 0):
            if s in witness:
                signs[k] = s
                child_strict, child_eqs = children[s]
                child_w = _certified(witness[s], child_strict, child_eqs)
                descend(k + 1, child_strict, child_eqs, child_w)
        signs[k] = 0

    descend(0, region, [], _certified(root.witness, region, []))
    return COM(GroundSet(arr.labels), found)


# ---------------------------------------------------------------------------
# braid family


def braid_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def braid_labels(n):
    return tuple(f"{i}{j}" for i, j in braid_pairs(n))


def braid_arrangement(n):
    """Forms x_i - x_j for i < j in R^n, with no region restriction."""
    forms = []
    for i, j in braid_pairs(n):
        coeffs = [Fraction(0)] * n
        coeffs[i - 1] = Fraction(1)
        coeffs[j - 1] = Fraction(-1)
        forms.append(AffineForm(tuple(coeffs), Fraction(0)))
    return Arrangement(n, braid_labels(n), tuple(forms), ())


def ordered_set_partitions(n):
    """All ordered set partitions of 1..n as tuples of blocks (frozensets)."""
    out = []
    for k in range(1, n + 1):
        for assign in product(range(k), repeat=n):
            if set(assign) != set(range(k)):
                continue
            blocks = tuple(
                frozenset(i + 1 for i in range(n) if assign[i] == t) for t in range(k)
            )
            out.append(blocks)
    return out


def braid_covector(n, blocks):
    """Sign vector of an ordered set partition: earlier block means larger coordinate."""
    level = {}
    for depth, block in enumerate(blocks):
        for i in block:
            level[i] = depth
    signs = []
    for i, j in braid_pairs(n):
        if level[i] < level[j]:
            signs.append(1)
        elif level[i] > level[j]:
            signs.append(-1)
        else:
            signs.append(0)
    return SignedVector(signs)


MAX_BRAID_N = 9  # single-digit pair labels


def braid_com(n):
    """The COM of the arrangement x_i = x_j; covectors are ordered set partitions.

    The family is the face set of a real arrangement, a COM by construction,
    so it is not checked against the axioms.
    """
    if n < 1:
        raise RealizeError("braid family needs n >= 1")
    if n > MAX_BRAID_N:
        raise RealizeError(f"braid family capped at n = {MAX_BRAID_N}")
    covectors = [braid_covector(n, blocks) for blocks in ordered_set_partitions(n)]
    return COM(GroundSet(braid_labels(n)), covectors)


def braid_automorphism_generators(n):
    """Adjacent transpositions of 1..n acting on the pair ground set.

    Swapping k and k+1 maps the pair (i,j) to (s(i), s(j)); when the images
    arrive out of order the pair flips orientation, hence a -1 sign.
    """
    pairs = braid_pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    gens = []
    for k in range(1, n):
        s = {i: i for i in range(1, n + 1)}
        s[k], s[k + 1] = k + 1, k
        perm, signs = [], []
        for i, j in pairs:
            a, b = s[i], s[j]
            if a < b:
                perm.append(index[(a, b)])
                signs.append(1)
            else:
                perm.append(index[(b, a)])
                signs.append(-1)
        gens.append(SignedPermutation(tuple(perm), tuple(signs)))
    return gens


# ---------------------------------------------------------------------------
# fixtures

FIXTURE_NAMES = ("figure1", "figure1-rectangle")


def fixture(name):
    """A COM shipped as data (see data/*.json), read and axiom-checked like any input."""
    files = {"figure1": "figure1.json", "figure1-rectangle": "figure1_rectangle.json"}
    if name not in files:
        raise RealizeError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    text = resources.files("covg.data").joinpath(files[name]).read_text()
    return COM.from_json_dict(jsonio.loads(text))
