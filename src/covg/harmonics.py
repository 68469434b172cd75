"""Point loci, graded Hilbert series via evaluation spans, graded-ideal
membership, ideal presentations, and NBC bases.

The engine never materializes the graded vanishing ideal: every dimension or
membership question about the quotient by it is answered through the spans
E_d of evaluation vectors of monomials of degree <= d on the locus.  The
Hilbert coefficient in degree d is rank E_d - rank E_{d-1}, and a homogeneous
form of degree d lies in the graded ideal exactly when its evaluation vector
already lies in E_{d-1}.

Monomials are offered degree by degree, each degree in descending
exponent-tuple order.  Degree first, then reversed tuple-lex, is a monomial
order, and greedy insertion in a monomial order accepts exactly the standard
monomials: the complement of the leading-term ideal of the vanishing ideal.
So the standard monomials form an order ideal, and a monomial with a
non-standard divisor is never standard.  Degree d offers only the border of
the standard set of degree d - 1, the monomials all of whose degree-(d-1)
divisors are standard, as the Buchberger-Moeller algorithm for points does
(Moeller-Buchberger, LNCS 144, 1982; Marinari-Moeller-Mora, AAECC 4, 1993).
Every standard monomial earlier in the order is still offered, so each
candidate's verdict, the standard sets and every rank are those of offering
every monomial, over Q and over F_p.

Candidates of one degree are inserted in blocks (`EvaluationFiltration`): the
row space returns the same accepted set as inserting them one at a time, and
over F_p, from `exactla._NUMPY_POINTS` points on, reduces each block with a
few matrix products whose dot products stay exact under the prime bound the
field enforces.  Candidates that vanish on every point are skipped, which
never changes a rank: the zero vector lies in every span.

Loci, polynomials and generators are field-free: coordinates and
coefficients are exact numbers (ints wherever they are integral).  The field
enters only at the filtration, which builds, multiplies, tests and combines
evaluation vectors through it and reduces them in the row space it
makes.

The presentations follow the flat filtration of the big ring, whose
subquotient at a flat F is the graded ring of the contraction M/F: the
covector presentation adds, at each flat F, z_B(F) times the circuit
generators of M/F (a signed y-monomial per circuit, and e_{s-1} of the
signed y-variables of each symmetric circuit of support size s, one of them
mixed with its z-variable), and the tope presentation is the same circuit
builder on the circuits of M itself, in the y-variables alone, with nothing
mixed.

Presentations and NBC bases are taken against the ground order: NBC sets
break circuits at their smallest element, each flat F uses its
lexicographically smallest basic set B for z_B(F), and each symmetric
circuit's mixing subset J is its smallest support element.  Another order
enters only through `matroidal.nbc_sets` (`covg nbc --order`).  The NBC
Hilbert series is the degree count of the NBC basis.

The verification reports test their generators in factored form: each is a
monomial times e_k of linear forms, evaluated from the cached monomial
columns with the e_k recurrence on vectors, and each degree's vectors are
tested against E_{d-1} in blocks (`_nonmembers`); a Polynomial is built only
to name a generator that fails.  verify_covector_presentation,
verify_tope_presentation and braid_tope_series_report return their report
dicts; `covg verify --what big-theorem` and `--what small-generators` print
the first two as they are.
"""

from __future__ import annotations

from itertools import combinations, islice, permutations

from . import jsonio
from .com import Record, contract, flats_of, topes
from .exactla import _CHUNK_ROWS, QQ, Polynomial, elementary_symmetric, rational
from .matroidal import (
    basic_sets,
    circuits,
    default_basic_set,
    minimal_nonbasic_sets,
    mixing_subsets,
    nbc_sets,
)
from .realize import braid_com
from . import permstats


class HarmonicsError(Exception):
    pass


class EmptyLocusError(HarmonicsError):
    pass


# ---------------------------------------------------------------------------
# loci


class PointLocus(Record):
    """Finite labeled point set with exact coordinates and named variables.

    The constructor trusts its arguments: one label per point, distinct
    points, each a tuple of exact numbers (ints where integral, else
    Fractions) with one coordinate per variable.  The locus builders below
    make them so; points from outside come in through from_json_dict, which
    refuses (TypeError) a `variables` or `points` entry that is not a list,
    a variable or point label that is not a string and an inexact
    coordinate, and (HarmonicsError) a repeated variable or label,
    coordinates that are not a list, a point whose length is not the
    variable count and a repeated point.
    """

    __slots__ = ("variables", "labels", "points", "requires_char_zero")

    def __init__(self, variables, labels, points, requires_char_zero=False):
        super().__init__(variables, labels, points, requires_char_zero)

    def __repr__(self):
        return f"PointLocus({len(self)} points in {list(self.variables)})"

    def __len__(self):
        return len(self.points)

    def to_json_dict(self):
        return {
            "variables": list(self.variables),
            "points": [
                {"label": l, "coords": [str(c) for c in p]}
                for l, p in zip(self.labels, self.points)
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        variables = tuple(jsonio.strings(data["variables"], "variables"))
        pts = jsonio.array(data["points"], "points")
        labels = tuple(jsonio.strings([p["label"] for p in pts], "label"))
        for what, names in (("variables", variables), ("point labels", labels)):
            if len(set(names)) != len(names):
                raise HarmonicsError(f"locus {what} must be distinct")
        if not all(isinstance(p["coords"], list) for p in pts):
            raise HarmonicsError("point coordinates must be JSON lists")
        points = tuple(tuple(map(rational, p["coords"])) for p in pts)
        if any(len(p) != len(variables) for p in points):
            raise HarmonicsError("point length does not match variable count")
        if len(set(points)) != len(points):
            raise HarmonicsError("locus points must be distinct")
        return cls(variables, labels, points)


def small_variables(ground):
    out = []
    for l in ground.labels:
        out += [f"y{l}+", f"y{l}-"]
    return tuple(out)


def big_variables(ground):
    out = []
    for l in ground.labels:
        out += [f"y{l}+", f"y{l}-", f"z{l}"]
    return tuple(out)


def _sign_locus(vectors, variables, signs):
    """One 0/1 point per signed vector, labeled by its string: at each
    element, one coordinate per sign in `signs` indicating that sign."""
    pts = tuple(tuple(int(s == t) for s in v.signs for t in signs) for v in vectors)
    return PointLocus(variables, tuple(v.to_string() for v in vectors), pts)


def tope_locus(M):
    """One 0/1 point per tope: coordinates indicate the sign at each element."""
    return _sign_locus(topes(M), small_variables(M.ground), (1, -1))


def covector_locus(M):
    """One 0/1 point per covector, with a third coordinate flagging zeros."""
    return _sign_locus(M.covectors, big_variables(M.ground), (1, -1, 0))


# ---------------------------------------------------------------------------
# Hilbert series and evaluation filtration


class HilbertSeries(Record):
    """Coefficients of a Hilbert series, nonnegative ints by degree."""

    __slots__ = ("coeffs",)

    def at_one(self):
        return sum(self.coeffs)

    def __getitem__(self, d):
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for d, c in enumerate(self.coeffs):
            if not c:
                continue
            if d == 0:
                bits.append(str(c))
            else:
                q = "q" if d == 1 else f"q^{d}"
                bits.append(q if c == 1 else f"{c}{q}")
        return " + ".join(bits) if bits else "0"

    @classmethod
    def from_degree_counts(cls, degrees):
        degrees = list(degrees)
        if not degrees:
            return cls(())
        coeffs = [0] * (max(degrees) + 1)
        for d in degrees:
            coeffs[d] += 1
        return cls(tuple(coeffs))


def _border(standard, n_vars):
    """The border of one degree of an order ideal, glex-descending.

    Each monomial x_i * s all of whose divisors of the degree of s lie in
    `standard` is listed once, as (x_i * s, s, i) with x_i its last variable:
    it is made only from that divisor, and kept when its divisors by the
    earlier variables of its support are in `standard` too.
    """
    members = set(standard)
    border = []
    for exps in standard:
        last = max((k for k, e in enumerate(exps) if e), default=0)
        for i in range(last, n_vars):
            child = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
            if all(
                child[:k] + (e - 1,) + child[k + 1 :] in members
                for k, e in enumerate(child[:i])
                if e
            ):
                border.append((child, exps, i))
    border.sort(reverse=True)
    return border


class EvaluationFiltration:
    """Degree filtration of functions on a locus by monomial evaluation spans.

    Evaluation columns of monomials are cached by exponent tuple; each is one
    variable-column product of a cached divisor.  Columns are in the vector
    format of `self.field`, which `for_points` picks from the point count:
    over Q a tuple of exact numbers, all ints on an integral locus, for a
    `RationalRowSpace`; over F_p, from `_NUMPY_POINTS` points on, an array
    of uint32 residues for an `FpRowSpace` (the only case that loads numpy),
    and below that a tuple of ints congruent mod p to the values, for a
    `SmallFpRowSpace`.  Every vector op goes through `self.field`.

    The candidates of degree d are the border of the standard set of degree
    d - 1, as in the Buchberger-Moeller algorithm for points: a monomial is
    offered only when every one of its degree-(d-1) divisors is standard.
    `_border` makes each candidate once, as x_i * s from its divisor s by its
    last variable x_i, and keeps it when its divisors by the other variables
    of its support are in a set of the standard monomials of degree d - 1;
    no other (s, i) pair is formed or counted.  Its column is the product of
    the cached column of s with that of x_i, and is the same exact vector
    whichever divisor builds it.  Degree first, then reversed tuple-lex, is a
    monomial order, so the accepted monomials are the complement of a
    leading-term ideal and form an order ideal: a monomial with a
    non-standard divisor is a multiple of a leading term and is never
    standard, and no verdict changes.

    Each degree's candidates go to the row space in glex-descending chunks of
    at most `_CHUNK_ROWS` through `insert_block`, which accepts exactly the
    vectors that one-at-a-time insertion would, so the standard monomials and
    every rank are those of sequential insertion.  On numpy a chunk costs one
    product against the reduced basis on its free columns, a recursive
    echelon form of the residual there, and one product that clears the
    basis at the new pivots; every product has inner
    dimension at most the point count, and the row space's prime bound
    (points * (p - 1)^2 below 2^53 for float64, below 2^63 for int64) keeps
    each dot product exact once residues are promoted from their stored type.
    Candidates whose vector is zero are skipped before the row space sees
    them: products that vanish on every point are common on the border
    (230 of 351 degree-2 candidates on `permutohedral_locus(5)`, 99 of 325
    on `permmatrix_locus(6)`).  Any other repeated vector already lies in
    the span and is rejected by `insert_block`.

    `snapshots[d]` is the row space of E_d, taken when degree d is done: a
    copy that shares what the one growing row space stores and is never
    written by its later inserts.  Over Q, and over F_p below
    `_NUMPY_POINTS` points, it is a prefix view of rows that are never
    rewritten, and the fully reduced basis that membership queries and
    traces read is built for each degree from the previous degree's when
    first asked for.  On numpy it holds that basis, on its free columns, as
    it was at the end of degree d.
    """

    def __init__(self, locus, field=QQ):
        if len(locus) == 0:
            raise EmptyLocusError("the locus has no points")
        if field.characteristic:
            if locus.requires_char_zero:
                raise HarmonicsError("this locus requires a characteristic-zero field")
            if field.characteristic <= len(locus):
                raise HarmonicsError(
                    "prime fields are only trusted here when p exceeds the point count"
                )
        self.locus = locus
        # before the columns: a prime field refuses primes too large for int64
        self.field = field = field.for_points(len(locus))
        self.n_points = len(locus)
        self.n_vars = len(locus.variables)
        self.space = field.rowspace(self.n_points)
        self._var_evals = [field.vector(col) for col in zip(*locus.points)]
        ones = field.vector((1,) * self.n_points)
        unit = (0,) * self.n_vars
        self._columns = {unit: ones}
        self.coeffs = []
        self.snapshots = []
        self._standard = []
        self.complete = False
        self.space.insert(ones)
        self.coeffs.append(1)
        self.snapshots.append(self.space.copy())
        self._standard.append([unit])
        if self.space.rank == self.n_points:
            self.complete = True

    def _column(self, exps):
        """Evaluation vector of the monomial with these exponents."""
        chain = []
        while exps not in self._columns:
            i = next(k for k, e in enumerate(exps) if e)
            chain.append((exps, i))
            exps = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
        vec = self._columns[exps]
        for exps, i in reversed(chain):
            vec = self._columns[exps] = self.field.product(vec, self._var_evals[i])
        return vec

    def advance_degree(self):
        if self.complete:
            return
        d = len(self.coeffs)
        if d >= self.n_points:
            raise HarmonicsError(
                "evaluation spans failed to fill by the point-count degree bound; "
                "this signals an arithmetic bug"
            )
        product, is_zero = self.field.product, self.field.is_zero
        new_standard, chunk = [], []
        for exps, parent, i in _border(self._standard[d - 1], self.n_vars):
            v = product(self._columns[parent], self._var_evals[i])
            if not is_zero(v):
                chunk.append((exps, v))
            if len(chunk) == _CHUNK_ROWS:
                self._insert_chunk(chunk, new_standard)
                chunk = []
                if self.space.rank == self.n_points:
                    break
        self._insert_chunk(chunk, new_standard)
        h = len(new_standard)
        self.coeffs.append(h)
        self._standard.append(new_standard)
        self.snapshots.append(self.space.copy())
        if self.space.rank == self.n_points:
            self.complete = True
        elif h == 0:
            raise HarmonicsError(
                "evaluation spans stagnated below full rank; this signals an arithmetic bug"
            )

    def _insert_chunk(self, chunk, new_standard):
        for k in self.space.insert_block([v for _, v in chunk]):
            exps, v = chunk[k]
            self._columns[exps] = v
            new_standard.append(exps)

    def build(self):
        while not self.complete:
            self.advance_degree()
        return self

    def hilbert(self):
        self.build()
        return HilbertSeries(tuple(self.coeffs))

    def space_upto(self, d):
        """Row space of evaluation vectors of all monomials of degree <= d."""
        if d < 0:
            return self.field.rowspace(self.n_points)
        while not self.complete and len(self.snapshots) <= d:
            self.advance_degree()
        return self.snapshots[min(d, len(self.snapshots) - 1)]

    def evaluate(self, poly):
        """Evaluation vector of a polynomial, its coefficients read in this field."""
        if tuple(poly.vars) != tuple(self.locus.variables):
            raise HarmonicsError("polynomial variables do not match the locus")
        return self.field.combination(
            ((c, self._column(exps)) for exps, c in poly.terms.items()), self.n_points
        )


def hilbert_series(locus, field=QQ):
    """Graded dimension counts of the locus's orbit-harmonics quotient."""
    return EvaluationFiltration(locus, field).hilbert()


def gr_membership(locus, poly, field=QQ, filtration=None):
    """Is this homogeneous form a top form of a function vanishing on the locus?

    Equivalent test: its evaluation vector lies in the span of evaluations of
    strictly smaller-degree monomials.
    """
    if poly.is_zero or not poly.is_homogeneous():
        raise HarmonicsError("membership test needs a nonzero homogeneous polynomial")
    d = poly.degree()
    if d < 1:
        raise HarmonicsError("membership test needs degree at least 1")
    filt = filtration or EvaluationFiltration(locus, field)
    return filt.space_upto(d - 1).contains(filt.evaluate(poly))


# ---------------------------------------------------------------------------
# ideal presentations
#
# Element e owns the variables y_e+ and y_e- at indices stride*e and
# stride*e + 1: stride 2 in the tope locus's variables, 3 in the covector
# locus's, where z_e follows at 3e + 2.
#
# Generators are built in factored form, a tuple (mono, k, forms): the
# monomial at the variable indices `mono` (a repeated index is a power) times
# e_k of the linear forms `forms`, each a tuple of (coefficient, variable
# indices) terms; k = 0 with no forms is the monomial alone.  `_polynomial`
# expands one into a Polynomial, and `_evaluator` evaluates it on a locus
# from cached monomial columns without expanding it.


def _monomial(vars, indices, coeff=1):
    """The monomial in the variables at these indices; a repeated index is a power."""
    exps = [0] * len(vars)
    for k in indices:
        exps[k] += 1
    return Polynomial.monomial(vars, exps, coeff)


def _mono(indices):
    return (tuple(indices), 0, ())


def _sum(*terms):
    """The sum of c * (the monomial at indices) over the (c, indices) terms:
    e_1 of one single-term form per term, so that only the terms' vectors
    are kept, not each sum's."""
    return ((), 1, tuple((term,) for term in terms))


def _polynomial(vars, gen):
    """The Polynomial of a factored generator."""
    mono, k, forms = gen
    poly = _monomial(vars, mono)
    if not forms:
        return poly
    linear = []
    for form in forms:
        terms = [_monomial(vars, indices, c) for c, indices in form]
        linear.append(sum(terms[1:], terms[0]))
    return poly * elementary_symmetric(k, linear)


def _degree(gen):
    """The degree of a homogeneous factored generator: |mono| plus k times
    the degree of its forms."""
    mono, k, forms = gen
    return len(mono) + k * len(forms[0][0][1]) if k else len(mono)


def _evaluator(filt):
    """The function that maps a factored generator to its evaluation vector.

    Monomial columns come from the filtration's cache, and each form's
    vector is formed once per evaluator.  e_k of the s forms is built by the
    recurrence e_j <- e_j + v * e_(j-1) over their vectors v, for the j that
    can still reach k with the forms left, and multiplied pointwise by the
    monomial's column.  The product vanishes wherever that column does, so
    e_k is formed only at the points where it does not (z_B(F) is nonzero
    only on the covectors that vanish on F), and spread back to the locus.
    """
    field, product, add = filt.field, filt.field.product, filt.field.add
    columns, forms_at, supports, restricted = {}, {}, {}, {}

    def column(indices):
        vec = columns.get(indices)
        if vec is None:
            exps = [0] * filt.n_vars
            for i in indices:
                exps[i] += 1
            vec = columns[indices] = filt._column(tuple(exps))
        return vec

    def form_vector(form):
        vec = forms_at.get(form)
        if vec is None:
            terms = [(c, column(indices)) for c, indices in form]
            vec = forms_at[form] = field.combination(terms, filt.n_points)
        return vec

    def support(mono):
        """The points where the monomial's column is nonzero, and its values there."""
        found = supports.get(mono)
        if found is None:
            vec = column(mono)
            points = field.support(vec)
            found = supports[mono] = (points, field.take(vec, points))
        return found

    def vector(gen):
        mono, k, forms = gen
        if not k:
            return column(mono)
        points, values = support(mono)
        e = {}  # e_j of the forms read so far, j >= 1; e_0 = 1
        for i, form in enumerate(forms, 1):
            v = restricted.get((mono, form))
            if v is None:
                v = restricted[mono, form] = field.take(form_vector(form), points)
            for j in range(min(i, k), max(1, k - len(forms) + i) - 1, -1):
                term = product(v, e[j - 1]) if j > 1 else v
                e[j] = add(e[j], term) if j in e else term
        return field.spread(product(values, e[k]), points, filt.n_points)

    return vector


def _nonmembers(filt, gens):
    """Positions, in order, of the factored homogeneous generators (any
    iterable) that are not graded members.

    A form of degree d is a member when its evaluation vector lies in
    E_{d-1}.  The generators go in chunks of `_CHUNK_ROWS`, and a chunk's
    generators of one degree are evaluated and tested together, with one
    `contains_block` against that snapshot; against a snapshot of full rank
    every generator is a member, and none is evaluated.
    """
    vector, gens = _evaluator(filt), iter(gens)
    out, start = [], 0
    while chunk := list(islice(gens, _CHUNK_ROWS)):
        by_degree = {}
        for i, gen in enumerate(chunk, start):
            by_degree.setdefault(_degree(gen), []).append(i)
        for d, indices in by_degree.items():
            space = filt.space_upto(d - 1)
            if space.rank < filt.n_points:
                verdicts = space.contains_block([vector(chunk[i - start]) for i in indices])
                out += [i for i, ok in zip(indices, verdicts) if not ok]
        start += len(chunk)
    return sorted(out)


def _contraction_frame(M, F):
    """The indices of z_B(F) in the covector variables, and the ground element
    at each position of the contraction M/F."""
    zB = tuple(3 * e + 2 for e in default_basic_set(M, F))
    return zB, [e for e in range(M.ground.size) if e not in F]


def _frames(M):
    """The contraction frame of each flat, in flat order."""
    return {F: _contraction_frame(M, F) for F in flats_of(M)}


def _symmetric(frame, stride, X, J):
    """z_B times e_{s-1} of the signed y-variables of the s support positions
    of X (read on the ground through keep), the one at each position in J
    plus its z; frame is (z_B, keep)."""
    zB, keep = frame
    forms = []
    for i in sorted(X.support()):
        y = (1, (stride * keep[i] + (X[i] < 0),))
        forms.append((y, (1, (3 * keep[i] + 2,))) if i in J else (y,))
    return zB, len(forms) - 1, tuple(forms)


def _circuit_generators(frame, stride, circs, mixed):
    """The circuit relations of circs, circuits of a COM whose position i is
    ground element keep[i], each times z_B: the signed y-monomial of each
    circuit, and the symmetric term of each symmetric circuit, mixed at
    J = {its smallest support position} when `mixed` and at J = {} otherwise."""
    zB, keep = frame
    monomials = [
        _mono(zB + tuple(stride * keep[i] + (c.vector[i] < 0) for i in c.vector.support()))
        for c in circs
    ]
    symmetric = [
        _symmetric(frame, stride, c.vector, {min(c.vector.support())} if mixed else ())
        for c in circs
        if c.symmetric
    ]
    return monomials, symmetric


def _tope_generators(M):
    n = M.ground.size
    affine, graded = [], []
    for e in range(n):
        yp, ym = 2 * e, 2 * e + 1
        linear = (1, (yp,)), (1, (ym,))
        affine += [_mono((yp, ym)), _sum(*linear, (-1, ()))]
        graded += [_mono(m) for m in ((yp, yp), (yp, ym), (ym, ym))] + [_sum(*linear)]
    monomials, symmetric = _circuit_generators(((), range(n)), 2, circuits(M), mixed=False)
    return {"affine": affine + monomials, "graded": graded + monomials + symmetric}


def tope_ideal_generators(M):
    """Generators of the vanishing ideal of the tope locus and its graded ideal.

    Affine list: y_i+ y_i-, y_i+ + y_i- - 1, and one squarefree monomial per
    circuit.  Graded list: all quadratics in each {y_i+, y_i-}, the sums
    y_i+ + y_i-, the circuit monomials, and for each symmetric circuit with
    support size s the elementary symmetric polynomial e_{s-1} of its signed
    y-variables: the circuit relations the covector presentation builds for
    each contraction, here on M itself and in the y-variables alone.
    """
    vars = small_variables(M.ground)
    return {
        which: [_polynomial(vars, g) for g in gens]
        for which, gens in _tope_generators(M).items()
    }


def _z_generators(M):
    gens = [_mono(3 * e + 2 for e in C) for C in minimal_nonbasic_sets(M)]
    for F in flats_of(M):
        zs = [tuple(3 * e + 2 for e in B) for B in basic_sets(M, F)]
        gens += [_sum((1, a), (-1, b)) for k, a in enumerate(zs) for b in zs[k + 1 :]]
    return gens


def z_ideal_generators(M):
    """z-variable relations carried by the flat structure: a product over each
    minimal nonbasic set, and a difference for each pair of basic sets of a flat."""
    vars = big_variables(M.ground)
    return [_polynomial(vars, g) for g in _z_generators(M)]


def symmetric_circuit_generator(M, F, circuit_vector, J):
    """The degree codim(F)+s-1 generator attached to a symmetric circuit of the
    contraction at F, built from the mixing subset J of its support."""
    frame = _contraction_frame(M, F)
    J = frozenset(J)
    if not (J and J < circuit_vector.support()):
        raise HarmonicsError("J must be a nonempty proper subset of the circuit support")
    return _polynomial(big_variables(M.ground), _symmetric(frame, 3, circuit_vector, J))


def _covector_generators(M, frames):
    gens = _z_generators(M)
    for e in range(M.ground.size):
        yp, ym, z = 3 * e, 3 * e + 1, 3 * e + 2
        gens += [_mono(m) for m in ((yp, yp), (yp, ym), (yp, z), (ym, ym), (ym, z), (z, z))]
        gens.append(_sum((1, (yp,)), (1, (ym,)), (1, (z,))))
    for F, frame in frames.items():
        zB = frame[0]
        gens += [_mono(zB + (3 * e + k,)) for e in sorted(F) for k in (0, 1)]
        monomials, symmetric = _circuit_generators(frame, 3, circuits(contract(M, F)), mixed=True)
        gens += monomials + symmetric
    return gens


def covector_ideal_generators(M):
    """Generators presenting the graded function ring of the covector locus.

    On top of the z-variable relations: per-element quadratics and the sums
    y_i+ + y_i- + z_i; and per flat F, z_B(F) times each y_i^± for i in F and
    times each circuit relation of the contraction at F, as the tope
    presentation builds them, with each symmetric circuit's mixing subset
    J = {smallest support element}.
    """
    vars = big_variables(M.ground)
    return [_polynomial(vars, g) for g in _covector_generators(M, _frames(M))]


# ---------------------------------------------------------------------------
# NBC bases


class NbcBases(Record):
    """Monomials spanning the tope-locus and the covector-locus quotients, and
    covector_strata: flat -> the covector monomials that flat contributes."""

    __slots__ = ("tope", "covector", "covector_strata")


def nbc_basis(M):
    """Monomial bases indexed by NBC sets.

    Tope side: one squarefree y+ monomial per NBC set.  Covector side: per
    flat F, the z-monomial of its basic set times the NBC monomials of the
    contraction at F; sizes add up to the covector count.
    """
    vars = big_variables(M.ground)
    tope = [_monomial(small_variables(M.ground), [2 * e for e in N]) for N in nbc_sets(M)]
    strata = {}
    for F, (zB, keep) in _frames(M).items():
        strata[F] = [
            _monomial(vars, zB + tuple(3 * keep[i] for i in N)) for N in nbc_sets(contract(M, F))
        ]
    covector = [m for monos in strata.values() for m in monos]
    if len(covector) != len(M):
        raise HarmonicsError(
            f"covector basis size {len(covector)} does not match covector count {len(M)}"
        )
    return NbcBases(tope, covector, strata)


def verify_basis(locus, monomials, field=QQ, filtration=None):
    """Do these polynomials evaluate to an invertible matrix on the locus?"""
    monomials = list(monomials)
    if len(monomials) != len(locus):
        raise HarmonicsError(
            f"need exactly {len(locus)} polynomials for this locus, got {len(monomials)}"
        )
    filt = filtration or EvaluationFiltration(locus, field)
    space = filt.field.rowspace(len(locus))
    taken = space.insert_block([filt.evaluate(p) for p in monomials])
    return len(taken) == len(locus)


def _degree_series(monomials):
    return HilbertSeries.from_degree_counts(m.degree() for m in monomials)


def hilbert_from_nbc(M):
    """Hilbert series from NBC counting alone: the degree counts of the NBC
    bases, so the covector side is the codim-shifted sum of the NBC-size
    counts of the contractions."""
    bases = nbc_basis(M)
    return {"tope": _degree_series(bases.tope), "covector": _degree_series(bases.covector)}


# ---------------------------------------------------------------------------
# the structure verification report


_J_SWEEP_MAX_SUPPORT = 5  # the J-sweep covers symmetric circuits with at most this many elements


def verify_covector_presentation(M, field=QQ):
    """Check the covector-locus presentation end to end.

    (a) every z-relation and covector-ideal generator is a graded member,
    (b) the NBC monomials are a basis of functions on the covector locus,
    (c) the rank Hilbert series equals the degree count of that basis,
    (d) for symmetric circuits with support size <= _J_SWEEP_MAX_SUPPORT,
        membership holds for every admissible mixing subset J, not just the
        default.

    The generators of (a) and (d) are evaluated in factored form and tested
    one degree at a time (`_nonmembers`); a Polynomial is built only for a
    generator that fails.  Returns the report dict: the generators checked
    and those that are not members, basis_ok, both Hilbert series, the
    J-sweep count and its failures, and "ok" when all four checks pass.
    """
    locus = covector_locus(M)
    filt = EvaluationFiltration(locus, field)
    frames = _frames(M)
    gens = _covector_generators(M, frames)
    failures = [str(_polynomial(locus.variables, gens[i])) for i in _nonmembers(filt, gens)]
    bases = nbc_basis(M)
    basis_ok = verify_basis(locus, bases.covector, field, filt)
    h_rank = list(filt.hilbert().coeffs)
    h_nbc = list(_degree_series(bases.covector).coeffs)
    sweep = list(mixing_subsets(M, _J_SWEEP_MAX_SUPPORT))
    j_gens = (_symmetric(frames[F], 3, X, J) for F, X, J in sweep)
    j_failures = [
        {"flat": sorted(F), "circuit": X.to_string(), "J": sorted(J)}
        for F, X, J in (sweep[i] for i in _nonmembers(filt, j_gens))
    ]
    return {
        "membership": {"checked": len(gens), "failures": failures},
        "basis_ok": basis_ok,
        "hilbert": {"rank_method": h_rank, "nbc_method": h_nbc, "ok": h_rank == h_nbc},
        "j_sweep": {"checked": len(sweep), "failures": j_failures},
        "ok": not failures and basis_ok and h_rank == h_nbc and not j_failures,
    }


def verify_tope_presentation(M, field=QQ):
    """Check the tope-locus presentation: every affine generator vanishes on
    the tope locus, and every graded generator is a graded member.

    Returns the report dict that `covg verify --what small-generators`
    prints: the counts of both lists, the affine generators that do not
    vanish and the graded ones that are not members.
    """
    locus = tope_locus(M)
    filt = EvaluationFiltration(locus, field)
    gens = _tope_generators(M)
    vector = _evaluator(filt)
    affine_bad = [g for g in gens["affine"] if not filt.field.is_zero(vector(g))]
    graded_bad = [gens["graded"][i] for i in _nonmembers(filt, gens["graded"])]
    return {
        "affine_checked": len(gens["affine"]),
        "affine_nonvanishing": [str(_polynomial(locus.variables, g)) for g in affine_bad],
        "graded_checked": len(gens["graded"]),
        "graded_nonmembers": [str(_polynomial(locus.variables, g)) for g in graded_bad],
    }


# ---------------------------------------------------------------------------
# permutation loci


MAX_LOCUS_N = 7  # permutation loci stop at n! = 5040 points


def _check_locus_n(n):
    if n < 1:
        raise HarmonicsError("permutation loci need n >= 1")
    if n > MAX_LOCUS_N:
        raise HarmonicsError(f"permutation loci capped at n = {MAX_LOCUS_N}")


def _permutation_locus(n, variables, coords, char_zero):
    """The points coords(w) of the permutations w of 1..n, labeled by one-line notation."""
    labels, points = [], []
    for w in permutations(range(1, n + 1)):
        labels.append("".join(map(str, w)))
        points.append(tuple(coords(w)))
    return PointLocus(variables, tuple(labels), tuple(points), char_zero)


def kostant_locus(n):
    """Permutations embedded by one-line notation in n-space."""
    _check_locus_n(n)
    return _permutation_locus(n, tuple(f"x{i}" for i in range(1, n + 1)), lambda w: w, True)


def proper_nonempty_subsets(n):
    subsets = []
    for size in range(1, n):
        subsets.extend(tuple(sorted(c)) for c in combinations(range(1, n + 1), size))
    return subsets


def permutohedral_locus(n):
    """Permutations embedded by descent-free prefix drops over proper subsets.

    The coordinate at a subset I is w(j) - w(j+1) when I is the set of the
    first j letters of w, and 0 otherwise.
    """
    _check_locus_n(n)
    subsets = proper_nonempty_subsets(n)
    variables = tuple("x" + "".join(map(str, s)) for s in subsets)
    index = {s: k for k, s in enumerate(subsets)}

    def coords(w):
        c = [0] * len(subsets)
        for j in range(1, n):
            c[index[tuple(sorted(w[:j]))]] = w[j - 1] - w[j]
        return c

    return _permutation_locus(n, variables, coords, True)


def permmatrix_locus(n):
    """Permutations embedded as flattened permutation matrices."""
    _check_locus_n(n)
    cells = [(i, j) for i in range(n) for j in range(1, n + 1)]
    variables = tuple(f"m{i + 1}{j}" for i, j in cells)
    return _permutation_locus(n, variables, lambda w: [int(w[i] == j) for i, j in cells], False)


# ---------------------------------------------------------------------------
# braid tope-series closed forms


def braid_tope_series_report(n, field=QQ):
    """Compare the computed tope-locus Hilbert series of the braid COM with the
    two cycle-statistic generating functions.

    The computed series matches sum_w q^(n - cyc w); the rising factorial
    q(q+1)...(q+n-1) (which counts cycles directly, with zero constant term)
    does not, so sources quoting the latter for this grading are using the
    reversed convention.  Returns the report dict: the three coefficient lists
    and whether the computed one matches each closed form.
    """
    computed = list(hilbert_series(tope_locus(braid_com(n)), field).coeffs)
    defect = permstats.cycle_defect(n)  # sum_w q^(n - cyc w) = prod (1 + i q)
    rising = permstats.rising_factorial_coefficients(n)  # q(q+1)...(q+n-1) = sum_w q^(cyc w)
    return {
        "n": n,
        "computed": computed,
        "cycle_defect_gf": defect,
        "rising_factorial_gf": rising,
        "matches_cycle_defect": computed == defect,
        "matches_rising_factorial": computed == rising,
    }
