import json
import subprocess
import sys
from pathlib import Path

import pytest

from covg import exactla, jsonio
from covg.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def report(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture()
def fig1_path(tmp_path, figure1):
    path = tmp_path / "figure1.json"
    jsonio.write_json(path, figure1.to_json_dict())
    return str(path)


@pytest.fixture()
def braid3_path(tmp_path, braid3):
    path = tmp_path / "braid3.json"
    jsonio.write_json(path, braid3.to_json_dict())
    return str(path)


def test_check_command(capsys, fig1_path):
    code, rep = report(capsys, "check", fig1_path)
    assert code == 0
    assert rep["assertions"]["axioms"] is True
    assert rep["inputs"][fig1_path]["sha256"]


def test_check_command_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    jsonio.write_json(bad, {"ground": ["a"], "covectors": ["+", "-"]})
    code, rep = report(capsys, "check", str(bad))
    assert code == 1
    assert rep["assertions"]["axioms"] is False


def test_braid_and_fixture_commands(capsys):
    code, rep = report(capsys, "braid", "--n", "3")
    assert code == 0 and rep["results"]["covector_count"] == 13
    code, rep = report(capsys, "fixture", "--name", "figure1")
    assert code == 0 and rep["results"]["covector_count"] == 13


def test_enumerate_command(capsys, tmp_path):
    arr = {
        "dimension": 1,
        "forms": {"h": {"coeffs": ["1"], "const": "0"}},
        "region": [],
    }
    path = tmp_path / "arr.json"
    jsonio.write_json(path, arr)
    code, rep = report(capsys, "enumerate", str(path))
    assert code == 0
    assert sorted(rep["results"]["com"]["covectors"]) == ["+", "-", "0"]


def test_circuits_command(capsys, fig1_path):
    code, rep = report(capsys, "circuits", fig1_path)
    assert code == 0
    got = {(c["vector"], c["symmetric"]) for c in rep["results"]["circuits"]}
    assert got == {("000-", False), ("+--0", True), ("-++0", True)}


def test_nbc_command_with_order(capsys, fig1_path):
    code, rep = report(capsys, "nbc", fig1_path, "--order", "4,3,2,1")
    assert code == 0
    assert rep["results"]["count"] == 6
    assert rep["assertions"]["nbc_count_equals_topes"] is True


def test_flats_command(capsys, fig1_path):
    code, rep = report(capsys, "flats", fig1_path)
    assert code == 0
    assert ["1", "2", "3"] in rep["results"]["flats"]
    assert rep["results"]["coloops"] == []


def test_basic_command(capsys, fig1_path):
    code, rep = report(capsys, "basic", fig1_path, "--flat", "1,2,3")
    assert code == 0
    assert rep["results"]["codim"] == 2
    assert sorted(map(tuple, rep["results"]["basic_sets"])) == [
        ("1", "2"),
        ("1", "3"),
        ("2", "3"),
    ]
    assert sorted(map(tuple, rep["results"]["minimal_nonbasic_sets"])) == [
        ("1", "2", "3"),
        ("4",),
    ]


def test_basic_command_computes_basic_sets_once(capsys, fig1_path, monkeypatch):
    """The codim field is read off the basic sets the report already lists."""
    from covg import cli, matroidal

    calls, basic_sets = [], matroidal.basic_sets

    def counting(M, F):
        calls.append(F)
        return basic_sets(M, F)

    monkeypatch.setattr(cli, "basic_sets", counting)
    monkeypatch.setattr(matroidal, "basic_sets", counting)
    code, rep = report(capsys, "basic", fig1_path, "--flat", "1,2,3")
    assert code == 0 and rep["results"]["codim"] == 2
    assert len(calls) == 1


def test_hilbert_command_both_methods(capsys, braid3_path):
    code, rep = report(capsys, "hilbert", braid3_path, "--which", "big", "--method", "rank")
    assert code == 0 and rep["results"]["coeffs"] == [1, 6, 6]
    code, rep = report(capsys, "hilbert", braid3_path, "--which", "big", "--method", "nbc")
    assert code == 0 and rep["results"]["coeffs"] == [1, 6, 6]
    code, rep = report(capsys, "hilbert", braid3_path, "--which", "small", "--method", "rank")
    assert rep["results"]["coeffs"] == [1, 3, 2]


def test_hilbert_field_flag_and_env(capsys, braid3_path, monkeypatch):
    code, rep = report(
        capsys, "--field", "fp:1000003", "hilbert", braid3_path, "--which", "big"
    )
    assert rep["results"]["field"] == "fp:1000003"
    assert rep["results"]["coeffs"] == [1, 6, 6]
    # --field is the one switch; no environment variable selects a field
    monkeypatch.setenv("COVG_FIELD", "fp:999983")
    code, rep = report(capsys, "hilbert", braid3_path, "--which", "big")
    assert rep["results"]["field"] == "rational"
    code, rep = report(capsys, "--field", "rational", "hilbert", braid3_path, "--which", "big")
    assert rep["results"]["field"] == "rational"


def test_covg_field_variable_is_ignored(capsys, tmp_path, fig1_path, figure1, monkeypatch):
    from covg import automorphism_group_bruteforce

    gpath = tmp_path / "group.json"
    jsonio.write_json(gpath, automorphism_group_bruteforce(figure1).to_json_dict())
    commands = [
        ("verify", fig1_path, "--what", "big-theorem"),
        ("character", fig1_path, "--group", str(gpath), "--verify-decomposition"),
    ]
    plain = [invoke(capsys, *argv) for argv in commands]
    monkeypatch.setenv("COVG_FIELD", "fp:1000003")
    assert [invoke(capsys, *argv) for argv in commands] == plain
    assert [code for code, _ in plain] == [0, 0]


@pytest.mark.parametrize(
    "coeffs, const",
    [([0.1, 1], "0"), (["1"], 0.5), ([True], "0"), (["1"], False)],
)
def test_enumerate_refuses_inexact_json_numbers(capsys, tmp_path, coeffs, const):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(
        {"dimension": 1, "forms": {"h": {"coeffs": coeffs, "const": const}}, "region": []}
    ))
    code, rep = report(capsys, "enumerate", str(path))
    assert code == 2
    assert rep["error"]["type"] == "TypeError"
    assert "results" not in rep


@pytest.mark.parametrize("dimension", [1.0, True, "1/2"])
def test_enumerate_refuses_a_non_integer_dimension(capsys, tmp_path, dimension):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(
        {"dimension": dimension, "forms": {"h": {"coeffs": [1], "const": 0}}, "region": []}
    ))
    code, rep = report(capsys, "enumerate", str(path))
    assert code == 2
    assert "results" not in rep


def test_enumerate_reads_exact_json_numbers(capsys, tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "forms": {"h": {"coeffs": [1, "-1/3"], "const": 0}, "g": {"coeffs": ["2", 0], "const": "1/2"}},
        "region": [],
    }))
    code, rep = report(capsys, "enumerate", str(path))
    assert code == 0
    assert rep["results"]["covector_count"] == 9


@pytest.mark.parametrize("bad_sign", [1.5, "3/2", 1.0, True, -1.0])
def test_character_refuses_inexact_group_signs(capsys, tmp_path, braid3_path, braid3, bad_sign):
    from covg import GroupSpec, braid_automorphism_generators

    data = GroupSpec.from_generators(braid3, braid_automorphism_generators(3)).to_json_dict()
    data["generators"][0]["signs"][0] = bad_sign
    gpath = tmp_path / "group.json"
    gpath.write_text(json.dumps(data))
    code, rep = report(capsys, "character", braid3_path, "--group", str(gpath))
    assert code == 2
    assert "results" not in rep


_FORM = {"coeffs": ["1", "0"], "const": "0"}


@pytest.mark.parametrize(
    "command, data",
    [
        ("flats", {"ground": "ab", "covectors": ["++", "--", "00"]}),
        ("flats", {"ground": ["a"], "covectors": "+-0"}),
        ("enumerate", {"dimension": 2, "forms": {"h": {"coeffs": "12", "const": "0"}}, "region": []}),
        ("enumerate", {"dimension": 2, "forms": {"h": _FORM}, "region": ""}),
        ("enumerate", {"dimension": 2, "forms": [_FORM], "region": []}),
        ("character", {"generators": [{"perm": "1234", "signs": [1, 1, 1, 1]}]}),
        ("character", {"generators": [{"perm": ["1", "2", "3", "4"], "signs": "1111"}]}),
        ("character", {"generators": ""}),
        ("flats", {"ground": ["a", "b"], "covectors": [["+", "+"], "--", "00"]}),
        ("flats", {"ground": ["a"], "covectors": [{"+": 0}, "-", "0"]}),
        ("flats", {"ground": [None, 1.5], "covectors": ["++", "--", "00"]}),
        ("character", {"generators": [{"perm": [1, 2, 3, 4], "signs": [1, 1, 1, 1]}]}),
    ],
)
def test_a_non_list_where_a_list_belongs_is_refused(capsys, tmp_path, fig1_path, command, data):
    """A JSON string is iterable, so read where a list belongs it would be
    taken one character at a time: "ab" as the labels a and b.  Where a string
    belongs, a list or object would be iterated too (["+", "+"] read as "++",
    {"+": 0} as "+"), and str() would read the labels null and 1.5 as "None"
    and "1.5" and the perm entry 1 as the label "1"."""
    path = tmp_path / "input.json"
    jsonio.write_json(path, data)
    argv = (command, str(path)) if command != "character" else (command, fig1_path, "--group", str(path))
    code, rep = report(capsys, *argv)
    assert code == 2
    assert rep["error"]["type"] == "TypeError"
    assert "results" not in rep


def test_a_repeated_json_key_is_refused(capsys, tmp_path):
    """json keeps the last of two values under one key; the form first named
    h would be dropped and the command would answer for one form."""
    path = tmp_path / "arr.json"
    path.write_text(
        '{"dimension": 2, "forms": {"h": {"coeffs": [1, 0], "const": 0}, '
        '"h": {"coeffs": [0, 1], "const": 0}}, "region": []}'
    )
    code, rep = report(capsys, "enumerate", str(path))
    assert code == 2
    assert rep["error"] == {"type": "ValueError", "message": "JSON object repeats the key 'h'"}
    assert "results" not in rep


def test_hilbert_refuses_prime_past_int64_bound(capsys, braid3_path):
    # this prime once answered [1, 7, 5] with exit 0; the rational answer is [1, 6, 6]
    code, rep = report(capsys, "--field", "fp:4294967311", "hilbert", braid3_path, "--which", "big")
    assert code == 2
    assert rep["error"]["type"] == "ExactLAError"
    assert "2^63" in rep["error"]["message"]
    assert "results" not in rep


@pytest.mark.parametrize(
    "argv",
    [
        ("hilbert", "missing.json", "--which", "big"),
        ("verify", "missing.json", "--what", "big-theorem"),
        ("character", "missing.json", "--group", "missing-group.json"),
        ("loci", "--family", "kostant", "--n", "3"),
    ],
)
def test_bad_field_is_refused_before_any_input_is_read(capsys, tmp_path, monkeypatch, argv):
    # the field is parsed first, so the missing input files are never opened
    monkeypatch.chdir(tmp_path)
    code, rep = report(capsys, "--field", "fp:100", *argv)
    assert code == 2
    assert rep["error"] == {"type": "ValueError", "message": "100 is not prime"}


def test_verify_commands(capsys, fig1_path):
    for what in ("tope-count", "small-generators", "two-values", "big-theorem"):
        code, rep = report(capsys, "verify", fig1_path, "--what", what)
        assert code == 0, what
        assert all(rep["assertions"].values()), what


def test_loci_command(capsys):
    code, rep = report(capsys, "loci", "--family", "kostant", "--n", "3", "--hilbert")
    assert code == 0
    assert rep["results"]["hilbert"] == [1, 2, 2, 1]
    code, rep = report(capsys, "loci", "--family", "permmatrix", "--n", "2")
    assert rep["results"]["points"] == 2
    assert "locus" in rep["results"]


def test_character_command(capsys, tmp_path, braid3_path, braid3):
    from covg import GroupSpec, braid_automorphism_generators

    G = GroupSpec.from_generators(braid3, braid_automorphism_generators(3))
    gpath = tmp_path / "s3.json"
    jsonio.write_json(gpath, G.to_json_dict())
    code, rep = report(
        capsys, "character", braid3_path, "--group", str(gpath), "--verify-decomposition"
    )
    assert code == 0
    assert rep["results"]["group_order"] == 6
    assert rep["assertions"]["decomposition"] is True
    ident_row = next(r for r in rep["results"]["character"] if r["perm"] == ["12", "13", "23"])
    assert ident_row["values"] == ["1", "6", "6"]


@pytest.mark.parametrize("decompose", [False, True])
def test_character_command_computes_the_covector_character_once(
    capsys, tmp_path, braid3_path, braid3, monkeypatch, decompose
):
    """With --verify-decomposition the table is read from the decomposition's
    covector side instead of being computed a second time."""
    import covg.cli
    import covg.equivariant
    from covg import GroupSpec, braid_automorphism_generators, covector_locus

    G = GroupSpec.from_generators(braid3, braid_automorphism_generators(3))
    gpath = tmp_path / "s3.json"
    jsonio.write_json(gpath, G.to_json_dict())
    calls = []
    real = covg.equivariant.graded_character
    covectors = covector_locus(braid3)

    def counting(locus, *args, **kwargs):
        if locus == covectors:
            calls.append(1)
        return real(locus, *args, **kwargs)

    monkeypatch.setattr(covg.equivariant, "graded_character", counting)
    monkeypatch.setattr(covg.cli, "graded_character", counting)
    argv = ["character", braid3_path, "--group", str(gpath)]
    code, rep = report(capsys, *argv, *(["--verify-decomposition"] if decompose else []))
    assert code == 0 and all(rep["assertions"].values())
    assert len(calls) == 1


def test_character_command_counts_fixed_covectors_once_per_class(
    capsys, tmp_path, braid3_path, braid3, monkeypatch
):
    """The fixed-point count is a class function: one locus action per class
    representative, and every element's row still has its own count."""
    import covg.cli
    from covg import GroupSpec, braid_automorphism_generators, covector_locus
    from covg.equivariant import locus_action

    G = GroupSpec.from_generators(braid3, braid_automorphism_generators(3))
    gpath = tmp_path / "s3.json"
    jsonio.write_json(gpath, G.to_json_dict())
    calls = []

    def counting(locus, w):
        calls.append(w)
        return locus_action(locus, w)

    monkeypatch.setattr(covg.cli, "locus_action", counting)
    code, rep = report(capsys, "character", braid3_path, "--group", str(gpath))
    assert code == 0
    assert len(calls) == len(G.classes) == 3
    locus = covector_locus(braid3)
    for w, row in zip(G.elements, rep["results"]["character"]):
        assert row["fixed_covectors"] == sum(k == img for k, img in enumerate(locus_action(locus, w)))


def test_reports_are_byte_identical(capsys, fig1_path):
    _, out1 = invoke(capsys, "hilbert", fig1_path, "--which", "big")
    _, out2 = invoke(capsys, "hilbert", fig1_path, "--which", "big")
    assert out1 == out2


def test_reports_identical_across_processes(fig1_path, braid3_path, braid3, tmp_path):
    import os
    import subprocess
    import sys

    from covg import GroupSpec, braid_automorphism_generators

    gpath = tmp_path / "s3.json"
    jsonio.write_json(gpath, GroupSpec.from_generators(braid3, braid_automorphism_generators(3)).to_json_dict())
    commands = [
        ["verify", fig1_path, "--what", "big-theorem"],
        ["character", braid3_path, "--group", str(gpath), "--verify-decomposition"],
    ]
    for argv in commands:
        outs = []
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-m", "covg.cli", *argv], capture_output=True, env=env)
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


def test_timing_only_on_request(capsys, fig1_path):
    _, rep = report(capsys, "flats", fig1_path)
    assert "timing_seconds" not in rep
    _, rep = report(capsys, "--timing", "flats", fig1_path)
    assert "timing_seconds" in rep


def test_table_format(capsys, fig1_path):
    code, out = invoke(capsys, "--format", "table", "flats", fig1_path)
    assert code == 0
    assert "flats" in out and "{" not in out.splitlines()[0]


def test_streaming_threshold(capsys, monkeypatch):
    import covg.cli

    monkeypatch.setattr(covg.cli, "STREAM_THRESHOLD", 5)
    code, out = invoke(capsys, "braid", "--n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    header = json.loads(lines[0])
    assert header["results"]["com"]["covectors"] == "streamed:13"
    assert len(lines) == 14
    assert lines[1].count("0") + lines[1].count("+") + lines[1].count("-") == 3


def test_error_report(capsys, tmp_path):
    bad = tmp_path / "missing.json"
    code, out = invoke(capsys, "check", str(bad))
    assert code == 2
    rep = json.loads(out)
    assert rep["error"]["type"] == "FileNotFoundError"


def test_removed_seed_and_threads_flags_are_rejected(capsys, fig1_path):
    for flag in ("--seed", "--threads", "--stream-threshold"):
        with pytest.raises(SystemExit) as exc:
            run([flag, "2", "flats", fig1_path])
        assert exc.value.code == 2


@pytest.mark.parametrize("entry", ["basic", "nbc", "group"])
def test_unknown_ground_label_is_named(capsys, tmp_path, braid3_path, braid3, entry):
    """--flat, --order and a group file's permutations all read ground labels;
    an unknown one is refused with its name and the ground set, exit 2."""
    if entry == "basic":
        argv = ("basic", braid3_path, "--flat", "12,zz")
    elif entry == "nbc":
        argv = ("nbc", braid3_path, "--order", "23,zz,12")
    else:
        gpath = tmp_path / "group.json"
        jsonio.write_json(gpath, {"generators": [{"perm": ["13", "zz", "23"], "signs": [1, 1, 1]}]})
        argv = ("character", braid3_path, "--group", str(gpath))
    code, rep = report(capsys, *argv)
    assert code == 2
    assert rep["error"]["type"] == "COMError"
    assert rep["error"]["message"] == "unknown ground label 'zz'; the ground set is ['12', '13', '23']"


_MODULES_AFTER_RUN = """
import contextlib, io, sys
from covg.cli import run
names = sys.argv[1].split(",")
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[2:])
sys.stderr.write(f"{code} {any(name in sys.modules for name in names)}")
"""


def _loads_any(names, *argv):
    """Whether `covg *argv`, run to exit 0 in a fresh interpreter, has loaded
    any of the named modules."""
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_RUN, ",".join(names), *argv],
        capture_output=True, text=True, timeout=120,
    )
    code, loaded = proc.stderr.split()
    assert code == "0", proc.stderr
    return loaded == "True"


def test_rational_commands_do_not_import_numpy(tmp_path, fig1_path):
    """Work over Q never loads numpy, COM files and their axiom check
    included, and neither does the prime field on a locus below
    `_NUMPY_POINTS`; the prime field on a larger locus (permmatrix 6, 720
    points) does, so the test would fail if numpy were never loaded at all."""
    arr = tmp_path / "arr.json"
    jsonio.write_json(arr, {"dimension": 1, "forms": {"h": {"coeffs": ["1"], "const": "0"}}, "region": []})
    assert not _loads_any(["numpy"], "loci", "--family", "kostant", "--n", "3", "--hilbert")
    assert not _loads_any(["numpy"], "enumerate", str(arr))
    assert 720 >= exactla._NUMPY_POINTS
    assert _loads_any(["numpy"], "--field", "fp:1000003", "loci", "--family", "permmatrix", "--n", "6", "--hilbert")
    assert not _loads_any(["numpy"], "check", fig1_path)
    assert not _loads_any(["numpy"], "circuits", fig1_path)
    assert not _loads_any(["numpy"], "hilbert", fig1_path, "--which", "big")
    assert not _loads_any(["numpy"], "--field", "fp:1000003", "hilbert", fig1_path, "--which", "big")
    assert not _loads_any(["numpy"], "--field", "fp:1000003", "verify", fig1_path, "--what", "big-theorem")


def test_prime_field_loads_numpy_only_from_the_point_crossover(tmp_path, braid4):
    """The prime-field benchmark jobs on braid4 (75 covectors) and
    permmatrix 5 (120 points) run without numpy; permmatrix 6 (720 points)
    loads it."""
    from covg import GroupSpec, braid_automorphism_generators

    com, group = tmp_path / "braid4.json", tmp_path / "s4.json"
    jsonio.write_json(com, braid4.to_json_dict())
    jsonio.write_json(group, GroupSpec.from_generators(braid4, braid_automorphism_generators(4)).to_json_dict())
    fp = ("--field", "fp:1000003")
    assert 120 < exactla._NUMPY_POINTS <= 720
    assert not _loads_any(["numpy"], *fp, "hilbert", str(com), "--which", "big")
    assert not _loads_any(["numpy"], *fp, "loci", "--family", "permmatrix", "--n", "5", "--hilbert")
    assert not _loads_any(["numpy"], *fp, "verify", str(com), "--what", "big-theorem")
    assert not _loads_any(["numpy"], *fp, "character", str(com), "--group", str(group))
    assert _loads_any(["numpy"], *fp, "loci", "--family", "permmatrix", "--n", "6", "--hilbert")


@pytest.mark.skipif(
    jsonio.sha256.__module__ == "_hashlib", reason="this interpreter has no built-in SHA-256"
)
def test_no_command_loads_openssl(tmp_path, fig1_path, braid3_path, braid3):
    """Input digests use CPython's built-in SHA-256, so no command pays for
    OpenSSL's libcrypto.  The prime-field runs also load numpy, which does
    not load it either."""
    from covg import GroupSpec, braid_automorphism_generators

    gpath = tmp_path / "s3.json"
    jsonio.write_json(gpath, GroupSpec.from_generators(braid3, braid_automorphism_generators(3)).to_json_dict())
    openssl = ["_hashlib", "_ssl"]
    assert not _loads_any(openssl, "check", fig1_path)
    assert not _loads_any(openssl, "hilbert", fig1_path, "--which", "big")
    assert not _loads_any(openssl, "--field", "fp:1000003", "verify", fig1_path, "--what", "big-theorem")
    assert not _loads_any(openssl, "character", braid3_path, "--group", str(gpath))
    assert not _loads_any(openssl, "--field", "fp:1000003", "loci", "--family", "permmatrix", "--n", "3", "--hilbert")


def test_sha256_file_matches_hashlib(tmp_path):
    """The report digest equals the standard library's: on every packaged data
    file, an empty file, and one that crosses both 64 KiB read boundaries."""
    import hashlib

    data = sorted((Path(jsonio.__file__).parent / "data").iterdir())
    assert data
    empty, blob = tmp_path / "empty", tmp_path / "blob"
    empty.write_bytes(b"")
    blob.write_bytes(bytes(i % 251 for i in range(2 * 65536 + 1)))
    for path in [*data, empty, blob]:
        assert jsonio.sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest(), path
