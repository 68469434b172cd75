"""Golden CLI reports: byte-identical output and exit codes for the span engine
and the NBC Hilbert series.

The span-engine reports under tests/golden/ were written by the program
before the coefficient field was confined to the row spaces, and the
`--method nbc` reports before the NBC Hilbert series was read off the NBC
basis, the `loci --hilbert` reports before the span engine offered only
the order-ideal border as candidates, and the F_p `verify` and `character`
reports before the F_p row space kept its rows as an echelon prefix, and the
`refuse-*` error reports (exit 2, one per resource cap the CLI can reach)
before the caps became module constants (refuse-basic-parallel21 when the
subset-scan cap came in), and the `basic` reports of braid3's top flat
and figure1's flat 1,2,3 before basic_sets read the closure table, and the
`check-*` reports (one pass, one face-symmetry witness, one
strong-elimination witness) before the
axiom check left numpy, and the `verify --what two-values` and
`--what tope-count` reports and refuse-flats-figure1-elimination (whose
message embeds the axiom report) before the checks returned their report
dicts in place of report records; every later change must reproduce
them exactly.  Inputs live next to them and are passed by relative
path, so each report's `inputs` block is stable.  To rewrite the reports
after an intended change of output, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
from pathlib import Path

import pytest

from covg import COM, jsonio
from covg.cli import run
from covg.harmonics import (
    covector_ideal_generators,
    nbc_basis,
    symmetric_circuit_generator,
    tope_ideal_generators,
    z_ideal_generators,
)
from covg.matroidal import mixing_subsets

GOLDEN = Path(__file__).resolve().parent / "golden"

FP = ("--field", "fp:1000003")

# case name -> (argv, exit code)
CASES = {}
for _com, _group in (("braid3", "braid3-group"), ("figure1", "figure1-group")):
    for _which in ("big", "small"):
        CASES[f"{_com}-hilbert-{_which}"] = (("hilbert", f"{_com}.json", "--which", _which), 0)
        CASES[f"{_com}-hilbert-{_which}-fp"] = ((*FP, "hilbert", f"{_com}.json", "--which", _which), 0)
        CASES[f"{_com}-hilbert-{_which}-nbc"] = (
            ("hilbert", f"{_com}.json", "--which", _which, "--method", "nbc"),
            0,
        )
    for _what in ("big-theorem", "small-generators"):
        CASES[f"{_com}-verify-{_what}"] = (("verify", f"{_com}.json", "--what", _what), 0)
        CASES[f"{_com}-verify-{_what}-fp"] = ((*FP, "verify", f"{_com}.json", "--what", _what), 0)
    for _what in ("two-values", "tope-count"):
        CASES[f"{_com}-verify-{_what}"] = (("verify", f"{_com}.json", "--what", _what), 0)
    CASES[f"{_com}-character"] = (
        ("character", f"{_com}.json", "--group", f"{_group}.json", "--verify-decomposition"),
        0,
    )
    CASES[f"{_com}-character-fp"] = ((*FP, "character", f"{_com}.json", "--group", f"{_group}.json"), 0)
for _family in ("kostant", "permutohedral", "permmatrix"):
    CASES[f"loci-{_family}4-hilbert"] = (("loci", "--family", _family, "--n", "4", "--hilbert"), 0)
CASES["loci-permmatrix4-hilbert-fp"] = ((*FP, "loci", "--family", "permmatrix", "--n", "4", "--hilbert"), 0)
CASES["refuse-braid10"] = (("braid", "--n", "10"), 2)
CASES["refuse-loci-kostant8"] = (("loci", "--family", "kostant", "--n", "8"), 2)
CASES["refuse-enumerate-forms15"] = (("enumerate", "forms15.json"), 2)
CASES["refuse-circuits-ground15"] = (("circuits", "ground15.json"), 2)
CASES["refuse-basic-parallel21"] = (("basic", "parallel21.json", "--flat", "empty"), 2)
CASES["braid3-basic-top"] = (("basic", "braid3.json", "--flat", "12,13,23"), 0)
CASES["figure1-basic-123"] = (("basic", "figure1.json", "--flat", "1,2,3"), 0)
CASES["check-braid3"] = (("check", "braid3.json"), 0)
CASES["check-figure1-face-symmetry"] = (("check", "figure1-no-face-symmetry.json"), 1)
CASES["check-figure1-elimination"] = (("check", "figure1-no-elimination.json"), 1)
CASES["refuse-flats-figure1-elimination"] = (("flats", "figure1-no-elimination.json"), 2)


def _report(argv, capsys):
    code = run(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    argv, expected_code = CASES[name]
    monkeypatch.chdir(GOLDEN)
    code, out = _report(argv, capsys)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


GENERATOR_COMS = ("braid3", "figure1")


def _generator_lists(M):
    """str() of every generator list and NBC basis, in order: a wrong generator
    that still lies in the ideal passes the `verify` reports, not these."""
    tope, bases = tope_ideal_generators(M), nbc_basis(M)
    lists = {
        "tope_affine": tope["affine"],
        "tope_graded": tope["graded"],
        "z": z_ideal_generators(M),
        "covector": covector_ideal_generators(M),
        "nbc_tope": bases.tope,
        "nbc_covector": bases.covector,
        "j_sweep": [symmetric_circuit_generator(M, F, X, J) for F, X, J in mixing_subsets(M, 5)],
    }
    return {name: [str(g) for g in gens] for name, gens in lists.items()}


@pytest.mark.parametrize("com", GENERATOR_COMS)
def test_generators_match_golden(com):
    M = COM.from_json_dict(jsonio.read_json(GOLDEN / f"{com}.json"))
    expected = (GOLDEN / f"{com}-generators.json").read_text(encoding="utf-8")
    assert jsonio.dumps(_generator_lists(M)) == expected


def _write_all():
    from covg import GroupSpec, automorphism_group_bruteforce, braid_automorphism_generators
    from covg import AffineForm, Arrangement, GroundSet, SignedVector
    from covg import braid_com, fixture

    os.chdir(GOLDEN)
    braid3, figure1 = braid_com(3), fixture("figure1")
    jsonio.write_json("braid3.json", braid3.to_json_dict())
    jsonio.write_json("figure1.json", figure1.to_json_dict())
    group = GroupSpec.from_generators(braid3, braid_automorphism_generators(3))
    jsonio.write_json("braid3-group.json", group.to_json_dict())
    jsonio.write_json("figure1-group.json", automorphism_group_bruteforce(figure1).to_json_dict())
    # one past the enumerator's form cap and the circuit search's ground cap
    labels = tuple(f"e{i}" for i in range(15))
    forms = tuple(AffineForm((1,), -k) for k in range(15))
    jsonio.write_json("forms15.json", Arrangement(1, labels, forms, ()).to_json_dict())
    ground15 = COM(GroundSet(labels), [SignedVector((1,) * 15)])
    jsonio.write_json("ground15.json", ground15.to_json_dict())
    # one past the subset-scan cap: 21 parallel elements, {0, +^21, -^21}
    parallel21 = COM(
        GroundSet(tuple(f"e{i}" for i in range(21))),
        [SignedVector((s,) * 21) for s in (0, 1, -1)],
    )
    jsonio.write_json("parallel21.json", parallel21.to_json_dict())
    # figure1 less one covector: -+-+ breaks face symmetry, 000+ only strong elimination
    for name, dropped in (("face-symmetry", "-+-+"), ("elimination", "000+")):
        kept = [v for v in figure1.covectors if v.to_string() != dropped]
        jsonio.write_json(f"figure1-no-{name}.json", COM(figure1.ground, kept).to_json_dict())

    import contextlib
    import io

    for name, (argv, expected_code) in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(list(argv))
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.json").write_text(buf.getvalue(), encoding="utf-8")
    for com in GENERATOR_COMS:
        M = COM.from_json_dict(jsonio.read_json(f"{com}.json"))
        jsonio.write_json(f"{com}-generators.json", _generator_lists(M))


if __name__ == "__main__":
    _write_all()
