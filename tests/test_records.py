"""The record classes: value equality and hashing, immutability, and an import
of the command line that loads neither dataclasses nor numpy, nor, without
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
from covg.matroidal import Circuit


@pytest.mark.parametrize(
    "make, other",
    [
        (lambda: SignedPermutation((1, 0, 2), (1, -1, 1)), SignedPermutation((1, 0, 2), (1, 1, 1))),
        (lambda: GroundSet(("a", "b")), GroundSet(("b", "a"))),
        (lambda: Circuit(SignedVector((1, -1, 0)), True), Circuit(SignedVector((1, -1, 0)), False)),
        (lambda: HilbertSeries((1, 6, 6)), HilbertSeries((1, 6))),
    ],
    ids=["SignedPermutation", "GroundSet", "Circuit", "HilbertSeries"],
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
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
)
def test_frozen_records_refuse_writes(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1


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
