"""The record classes: the `Record` contract (construction, value equality
and hashing, immutability, repr) for every subclass, and an import of the
command line that loads neither dataclasses nor numpy, nor, without
`site`, importlib.resources."""

import subprocess
import sys
from pathlib import Path
from fractions import Fraction as F

import pytest

from covg import (
    AffineForm,
    Arrangement,
    GroundSet,
    GroupSpec,
    HilbertSeries,
    PointLocus,
    SignedPermutation,
    SignedVector,
    braid_automorphism_generators,
    braid_com,
)
from covg.com import Record
from covg.equivariant import DecompositionReport, GradedCharacter
from covg.harmonics import NbcBases
from covg.matroidal import Circuit
from covg.realize import LPResult


@pytest.mark.parametrize(
    "make, other",
    [
        (lambda: SignedPermutation((1, 0, 2), (1, -1, 1)), SignedPermutation((1, 0, 2), (1, 1, 1))),
        (lambda: GroundSet(("a", "b")), GroundSet(("b", "a"))),
        (lambda: Circuit(SignedVector((1, -1, 0)), True), Circuit(SignedVector((1, -1, 0)), False)),
        (lambda: HilbertSeries((1, 6, 6)), HilbertSeries((1, 6))),
        (lambda: SignedVector((1, -1, 0)), SignedVector((1, -1, 1))),
        (
            lambda: PointLocus(("x",), ("p", "q"), ((0,), (1,))),
            PointLocus(("x",), ("p", "q"), ((0,), (1,)), True),
        ),
        (lambda: AffineForm((1, F(1, 2)), 0), AffineForm((1, F(1, 2)), 1)),
        (
            lambda: Arrangement(1, ("h",), (AffineForm((1,), 0),), ()),
            Arrangement(1, ("h",), (AffineForm((1,), 0),), (AffineForm((1,), 0),)),
        ),
        (lambda: LPResult(True, (F(1, 2),)), LPResult(False, None)),
    ],
    ids=[
        "SignedPermutation", "GroundSet", "Circuit", "HilbertSeries", "SignedVector",
        "PointLocus", "AffineForm", "Arrangement", "LPResult",
    ],
)
def test_records_compare_and_hash_by_value(make, other):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, other}) == 2
    assert a != other and a != object()


def test_signed_permutations_key_characters():
    """Group elements built apart are the same dict keys: graded characters
    are dicts keyed by SignedPermutation."""
    M = braid_com(3)
    group = GroupSpec.from_generators(M, braid_automorphism_generators(3))
    table = {w: k for k, w in enumerate(group.elements)}
    for w in group.elements:
        copy = SignedPermutation(tuple(i for i in w.perm), tuple(s for s in w.signs))
        assert copy is not w and table[copy] == table[w]
    assert SignedPermutation.identity(3) in table


@pytest.mark.parametrize(
    "record, field",
    [
        (GroundSet(("a",)), "labels"),
        (SignedPermutation((0,), (1,)), "perm"),
        (PointLocus(("x",), ("p",), ((0,),)), "requires_char_zero"),
        (HilbertSeries((1,)), "coeffs"),
        (Circuit(SignedVector((1,)), False), "symmetric"),
        (AffineForm((1,), 0), "const"),
        (Arrangement(1, ("h",), (AffineForm((1,), 0),), ()), "region"),
        (LPResult(False, None), "feasible"),
        (NbcBases([], [], {}), "tope"),
        (GradedCharacter(1, {}), "values"),
        (DecompositionReport((), GradedCharacter(1, {}), GradedCharacter(1, {}), ()), "mismatches"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
)
def test_frozen_records_refuse_writes(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1


_V = SignedVector((1, -1, 0))
_FORM = AffineForm((1,), F(-1, 2))
_CHI = GradedCharacter(1, {})

# (class, constructor arguments, repr)
_RECORDS = [
    (GroundSet, (("a", "b"),), "GroundSet(('a', 'b'))"),
    (SignedVector, ((1, -1, 0),), "SignedVector('+-0')"),
    (SignedPermutation, ((1, 0), (1, -1)), "SignedPermutation((1, 0), (1, -1))"),
    (Circuit, (_V, True), "Circuit(SignedVector('+-0'), True)"),
    (
        PointLocus,
        (("x",), ("p", "q"), ((0,), (1,)), False),
        "PointLocus(2 points in ['x'])",
    ),
    (HilbertSeries, ((1, 6, 6),), "HilbertSeries((1, 6, 6))"),
    (NbcBases, ([], [], {}), "NbcBases([], [], {})"),
    (AffineForm, ((F(1),), F(-1, 2)), "AffineForm((Fraction(1, 1),), Fraction(-1, 2))"),
    (Arrangement, (1, ("h",), (_FORM,), ()), "Arrangement(1, ('h',), 0 region forms)"),
    (LPResult, (True, (F(1, 2),)), "LPResult(True, (Fraction(1, 2),))"),
    (GradedCharacter, (1, {}), "GradedCharacter(1, {})"),
    (
        DecompositionReport,
        ((), _CHI, _CHI, ()),
        "DecompositionReport((), GradedCharacter(1, {}), GradedCharacter(1, {}), ())",
    ),
]


def test_record_cases_cover_every_subclass():
    assert {cls for cls, _, _ in _RECORDS} == set(Record.__subclasses__())


@pytest.mark.parametrize("cls, fields, text", _RECORDS, ids=[cls.__name__ for cls, _, _ in _RECORDS])
def test_record_contract(cls, fields, text):
    """A wrong argument count is a TypeError; a record equals one built from
    the same arguments and hashes as its one field or the tuple of its
    fields, and is unhashable when they are (a list, a dict, a character)."""
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*fields, None)
    record = cls(*fields)
    assert record == cls(*fields) and repr(record) == text
    key = fields[0] if len(fields) == 1 else fields
    try:
        expected = hash(key)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


def test_affine_form_holds_fractions():
    f = AffineForm((1, F(1, 2)), -3)
    assert all(type(v) is F for v in f.coeffs + (f.const,))
    assert f == AffineForm((F(1), F(1, 2)), F(-3)) and hash(f) == hash(-(-f))


_NEW_MODULES = """
import sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import covg.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _cli_import_loads(*flags):
    """The modules that `import covg.cli` adds in a fresh interpreter run with flags."""
    code = _NEW_MODULES.format(src=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "covg.cli" in loaded
    return loaded


def test_cli_import_loads_no_heavy_modules():
    """`import covg.cli` in a fresh interpreter, with no bytecode written,
    loads neither dataclasses (nor the inspect it pulls in) nor numpy.
    Without `site` (-S), whose path hooks may import it first, it loads no
    importlib.resources either: only `realize.fixture` reads packaged data."""
    assert not _cli_import_loads("-B") & {"dataclasses", "inspect", "numpy"}
    assert not _cli_import_loads("-B", "-S") & {
        "dataclasses", "inspect", "numpy", "importlib.resources"
    }
