"""Every internal builder's output passes the JSON reader of its type.

The constructors trust their arguments and the readers check them, so each
object a builder makes must read back, through its own JSON form, as an
equal object: the guarantee the constructor checks used to give.
"""

import pytest

from covg import (
    COM,
    Arrangement,
    GroupSpec,
    PointLocus,
    automorphism_group_bruteforce,
    braid_arrangement,
    braid_automorphism_generators,
    braid_com,
    contract,
    covector_locus,
    kostant_locus,
    permmatrix_locus,
    permutohedral_locus,
    restrict,
    tope_locus,
)
from covg import jsonio
from covg.com import flats_of
from covg.harmonics import HarmonicsError


def _through_json(data):
    return jsonio.loads(jsonio.dumps(data))


def _read_back(M):
    return COM.from_json_dict(_through_json(M.to_json_dict()))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_braid_com_passes_its_reader(n):
    M = braid_com(n)
    assert _read_back(M) == M


def test_fixtures_pass_their_reader(figure1, figure1_rect):
    for M in (figure1, figure1_rect):
        assert _read_back(M) == M


@pytest.mark.parametrize("name", ["braid4", "figure1"])
def test_minors_pass_their_reader(request, name):
    M = request.getfixturevalue(name)
    for F in flats_of(M):
        for minor in (contract(M, F), restrict(M, F)):
            assert _read_back(minor) == minor


def _groups(figure1):
    for n in (1, 2, 3, 4):
        yield braid_com(n), GroupSpec.from_generators(braid_com(n), braid_automorphism_generators(n))
    yield figure1, automorphism_group_bruteforce(figure1)


def test_groups_pass_their_reader(figure1):
    for M, G in _groups(figure1):
        again = GroupSpec.from_json_dict(M, _through_json(G.to_json_dict()))
        assert again.generators == G.generators
        assert again.elements == G.elements


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_braid_arrangement_passes_its_reader(n):
    arr = braid_arrangement(n)
    assert Arrangement.from_json_dict(_through_json(arr.to_json_dict())) == arr


def _loci(corpus):
    for M in corpus.values():
        yield tope_locus(M)
        yield covector_locus(M)
    for n in (1, 2, 3, 4):
        yield kostant_locus(n)
        yield permutohedral_locus(n)
        yield permmatrix_locus(n)


def test_loci_pass_their_reader(corpus):
    for locus in _loci(corpus):
        again = PointLocus.from_json_dict(_through_json(locus.to_json_dict()))
        assert (again.variables, again.labels, again.points) == (locus.variables, locus.labels, locus.points)


@pytest.mark.parametrize(
    "data",
    [
        {"variables": "uv", "points": [{"label": "a", "coords": [1, 2]}]},
        {"variables": ["u"], "points": {"label": "a", "coords": [1]}},
    ],
)
def test_point_locus_refuses_a_non_list_field(data):
    with pytest.raises(TypeError, match="must be a JSON list"):
        PointLocus.from_json_dict(data)


def test_point_locus_refuses_a_point_of_the_wrong_length():
    data = {"variables": ["u", "v"], "points": [{"label": "a", "coords": [1]}]}
    with pytest.raises(HarmonicsError, match="point length does not match variable count"):
        PointLocus.from_json_dict(data)


@pytest.mark.parametrize(
    "variables, labels, key",
    [(["u", 1], ["a", "b"], "variables"), (["u", "v"], ["a", 7], "label")],
)
def test_point_locus_refuses_a_name_that_is_not_a_string(variables, labels, key):
    points = [{"label": l, "coords": [k, 0]} for k, l in enumerate(labels)]
    with pytest.raises(TypeError, match=f"^'{key}' must hold JSON strings, got int"):
        PointLocus.from_json_dict({"variables": variables, "points": points})


@pytest.mark.parametrize(
    "variables, labels, what",
    [(["u", "u"], ["a", "b"], "variables"), (["u", "v"], ["a", "a"], "point labels")],
)
def test_point_locus_refuses_a_repeated_name(variables, labels, what):
    # distinct points, so only the repeated name is at fault
    points = [{"label": l, "coords": [k, 0]} for k, l in enumerate(labels)]
    with pytest.raises(HarmonicsError, match=f"^locus {what} must be distinct$"):
        PointLocus.from_json_dict({"variables": variables, "points": points})


def test_json_reader_refuses_a_repeated_key(tmp_path):
    text = '{"a": 1, "b": {"c": 2, "c": 3}}'
    with pytest.raises(ValueError, match="repeats the key 'c'"):
        jsonio.loads(text)
    path = tmp_path / "dup.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="repeats the key 'c'"):
        jsonio.read_json(path)
    assert jsonio.loads('{"a": 1, "b": {"a": 2}}') == {"a": 1, "b": {"a": 2}}
