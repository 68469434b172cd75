"""Build COMs from rational affine arrangements restricted to open polyhedral
regions, via exact LP feasibility of strict sign systems; plus the braid
family and shipped fixtures.

The LP maximizes a slack t with every strict inequality relaxed to >= t and
t capped at 1; the open system is feasible exactly when the optimum is
positive.  The simplex runs on an integer tableau over one common
denominator, pivoting the Edmonds-Bareiss way (every division exact), with
Bland's rule, so there is no cycling and no tolerance anywhere; its
solutions are returned as Fractions.

Enumeration carries an exact witness point down the tree of sign prefixes
and needs at most one LP per feasible prefix, by two facts about a cell P
that is open and convex in its equality locus L, and a form f affine on L:
f cannot vanish in P without taking both signs there, and if f is 0 at a
point of P but never positive in P, then f is 0 on all of L.  Each
reported covector's cell holds a witness checked exactly against it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from . import jsonio
from .com import COM, GroundSet, Record, SignedPermutation, SignedVector
from .exactla import rational


class RealizeError(Exception):
    pass


class EmptyRegionError(RealizeError):
    pass


class AffineForm(Record):
    """a . x + c with exact rational coefficients, held as Fractions."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs, const):
        super().__init__(tuple(Fraction(v) for v in coeffs), Fraction(const))

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


class Arrangement(Record):
    """Labeled affine forms plus an open polyhedral region (strict inequalities)."""

    __slots__ = ("dimension", "labels", "forms", "region")

    def __repr__(self):
        return f"Arrangement({self.dimension}, {self.labels!r}, {len(self.region)} region forms)"

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


def _scale(values):
    """The least positive d with d * v integral for every v, and those integers."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _pivot(T, basis, r, c, det):
    """Edmonds-Bareiss pivot on T[r][c]; returns the new common denominator.

    T / det is the tableau, every entry of T an integer (up to sign, a minor
    of the starting matrix), so each division is exact.  The pivot row is
    unchanged.  A negative pivot negates T, which keeps det positive.
    """
    row_r = T[r]
    p = row_r[c]
    for i, row in enumerate(T):
        if i == r:
            continue
        f = row[c]
        if f:
            T[i] = [(x * p - f * y) // det for x, y in zip(row, row_r)]
        elif p != det:
            T[i] = [x * p // det for x in row]
    basis[r] = c
    if p < 0:
        T[:] = [[-x for x in row] for row in T]
        p = -p
    return p


def _optimize(T, basis, det):
    """Bland-rule maximization over T, whose last row holds det times the
    reduced costs (in place); returns the status and the final det."""
    cost = T[-1]
    m = len(T) - 1
    while True:
        # basic columns have reduced cost 0, so the first positive one is nonbasic
        entering = next((j for j, z in enumerate(cost[:-1]) if z > 0), None)
        if entering is None:
            return "optimal", det
        # Bland's ratio test, min rhs/a over a > 0 by cross-multiplication, ties to
        # the smaller basic index
        leaving = None
        for i in range(m):
            a = T[i][entering]
            if a > 0:
                if leaving is None:
                    leaving, num, den = i, T[i][-1], a
                    continue
                lhs, rhs = T[i][-1] * den, num * a
                if lhs < rhs or lhs == rhs and basis[i] < basis[leaving]:
                    leaving, num, den = i, T[i][-1], a
        if leaving is None:
            return "unbounded", det
        det = _pivot(T, basis, leaving, entering, det)
        cost = T[-1]


def _simplex(rows, scales, c):
    """Maximize c.x subject to the rows, x >= 0, on an integer tableau.

    Each row is integers with its right-hand side last, and stands for that
    row divided by its scale; c is integers.  Phase 1 gives the artificial
    variable of row i the cost -1/scale_i (times the lcm of the scales):
    then every reduced cost keeps its sign and every ratio test its
    winner, so the pivots are those of the unscaled rows with unit
    artificial costs.  Returns (status, value, x) as simplex_max does.
    """
    m, n = len(rows), len(c)
    rows = [row if row[-1] >= 0 else [-v for v in row] for row in rows]
    common = lcm(*scales)
    weights = [common // d for d in scales]

    # phase 1: artificial basis, maximize minus their (scaled) sum
    T = [row[:n] + [int(i == j) for j in range(m)] + row[n:] for i, row in enumerate(rows)]
    T.append(
        [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)]
        + [0] * m
        + [sum(w * row[-1] for w, row in zip(weights, rows))]
    )
    basis = [n + i for i in range(m)]
    _, det = _optimize(T, basis, 1)
    if T[-1][-1]:
        return "infeasible", None, None

    # pivot artificials out of the basis; rows that cannot pivot are redundant
    drop = []
    for i in range(m):
        if basis[i] >= n:
            j = next((j for j in range(n) if T[i][j]), None)
            if j is None:
                drop.append(i)
            else:
                det = _pivot(T, basis, i, j, det)
    T = [row[:n] + [row[-1]] for i, row in enumerate(T[:m]) if i not in drop]
    basis = [v for i, v in enumerate(basis) if i not in drop]

    # phase 2: the reduced costs of c at this basis, times det
    cost = [det * cj for cj in c] + [0]
    for row, v in zip(T, basis):
        if c[v]:
            cost = [z - c[v] * y for z, y in zip(cost, row)]
    T.append(cost)
    status, det = _optimize(T, basis, det)
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for row, v in zip(T, basis):
        x[v] = Fraction(row[-1], det)
    return "optimal", Fraction(-T[-1][-1], det), x


def simplex_max(A, b, c):
    """Maximize c.x subject to A x = b, x >= 0, over exact rationals.

    Entries are ints or Fractions.  Returns (status, value, x) with status
    'optimal'|'infeasible'|'unbounded' and x a list of Fractions.
    """
    rows, scales = [], []
    for row, bi in zip(A, b):
        d, ints = _scale(list(row) + [bi])
        rows.append(ints)
        scales.append(d)
    dc, cost = _scale(c)
    status, value, x = _simplex(rows, scales, cost)
    return status, value if value is None else value / dc, x


class LPResult(Record):
    """The outcome of lp_strict_feasible: a bool and, when feasible, a point."""

    __slots__ = ("feasible", "witness")


def lp_strict_feasible(strict, equalities, dimension):
    """Decide whether all strict forms can be made positive on the equality locus.

    Maximizes t subject to form(x) >= t for each strict form, form(x) = 0 for
    each equality, and t <= 1; strictly feasible iff the optimum is positive.
    Each form's row is scaled to integers.  The witness is an exact rational
    point.
    """
    strict = list(strict)
    d = dimension
    # columns: u (d) | v (d) | t+ | t- | surplus per strict | cap slack | rhs
    nvars = 2 * d + 2 + len(strict) + 1
    tp, tm = 2 * d, 2 * d + 1
    rows, scales = [], []
    for k, f in enumerate(strict + list(equalities)):
        s, ints = _scale(f.coeffs + (f.const,))
        row = [0] * (nvars + 1)
        row[:d] = ints[:d]
        row[d : 2 * d] = [-a for a in ints[:d]]
        if k < len(strict):
            row[tp], row[tm], row[2 * d + 2 + k] = -s, s, -s
        row[-1] = -ints[d]
        rows.append(row)
        scales.append(s)
    row = [0] * (nvars + 1)
    row[tp], row[tm], row[-2], row[-1] = 1, -1, 1, 1
    rows.append(row)
    scales.append(1)
    c = [0] * nvars
    c[tp], c[tm] = 1, -1

    status, value, x = _simplex(rows, scales, c)
    if status != "optimal" or value <= 0:
        return LPResult(False, None)
    return LPResult(True, tuple(x[i] - x[d + i] for i in range(d)))


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
    from importlib import resources  # its one user; 14-20 ms of a plain `import covg.cli`

    files = {"figure1": "figure1.json", "figure1-rectangle": "figure1_rectangle.json"}
    if name not in files:
        raise RealizeError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    text = resources.files("covg.data").joinpath(files[name]).read_text()
    return COM.from_json_dict(jsonio.loads(text))
