"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They cover the self-time arithmetic, the oracle tables, the seeded inputs,
and that two seeds give the same checked answers on the braid4 jobs.
"""

from __future__ import annotations

import ast
import json
import math
import os
import subprocess
import sys

import pytest

import inputs
import oracle
import tracing
from workloads import WORKLOADS

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # d [8, 12] is a child of b that runs past its parent and is clipped.
    spans = [
        [0, "root", 0.0, 10.0, None, None],
        [1, "a", 1.0, 4.0, 0, None],
        [2, "c", 2.0, 3.0, 1, None],
        [3, "b", 5.0, 9.0, 0, None],
        [4, "d", 8.0, 12.0, 3, True],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0]
    totals, startup = tracing.summarize({"spawned": -1.0, "spans": spans})
    assert totals["d"] == {"calls": 1, "s": 4.0, "true": 1}
    assert startup == 0.0  # no cli.handler span


def test_self_time_overlapping_children_counted_once():
    spans = [
        [0, "p", 0.0, 10.0, None, None],
        [1, "x", 1.0, 5.0, 0, None],
        [2, "y", 3.0, 6.0, 0, None],
    ]
    assert tracing.self_times(spans)[0] == 5.0


def test_layer_metrics_sum_named_and_other_spans():
    totals = {
        "exactla.insert": {"calls": 4, "s": 1.0, "true": 3},
        "exactla.other": {"calls": 2, "s": 0.5, "true": 0},
        "realize.lp": {"calls": 2, "s": 0.25, "true": 1},
    }
    m = tracing.layer_metrics(totals, 0.3)
    assert m["exactla.insert.calls"] == 4
    assert m["exactla.self_s"] == 1.5
    assert m["realize.lp.true"] == 1
    assert m["cli.startup_s"] == 0.3
    assert "exactla.other.calls" not in m


def _permstats():
    return oracle.load_permstats(CHECKOUT)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _mahonian(n):
    out = [1]
    for k in range(1, n + 1):
        out = _poly_mul(out, [1] * k)
    return out


def _eulerian(n):
    row = [1]
    for m in range(2, n + 1):
        row = [(k + 1) * (row[k] if k < len(row) else 0) + (m - k) * (row[k - 1] if k else 0)
               for k in range(m)]
    return row


def _lis_defect(n):
    """By RSK: permutations with LIS k number sum of f_lambda^2 over lambda_1 = k."""
    def partitions(m, top):
        if m == 0:
            yield ()
        for part in range(min(m, top), 0, -1):
            for rest in partitions(m - part, part):
                yield (part,) + rest

    def f(shape):
        hooks = 1
        for i, row in enumerate(shape):
            for j in range(row):
                below = sum(1 for r in shape[i + 1:] if r > j)
                hooks *= row - j + below
        return math.factorial(n) // hooks

    out = [0] * n
    for shape in partitions(n, n):
        out[n - shape[0]] += f(shape) ** 2
    while out and out[-1] == 0:
        out.pop()
    return out


def _cycle_defect(n):
    out = [1]
    for i in range(1, n):
        out = _poly_mul(out, [1, i])
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_oracle_tables_against_permstats(n):
    ps = _permstats()
    assert ps.mahonian(n) == _mahonian(n)
    assert ps.eulerian(n) == _eulerian(n)
    assert ps.lis_defect(n) == _lis_defect(n)
    assert ps.cycle_defect(n) == _cycle_defect(n)


def test_permmatrix6_oracle_against_rsk():
    assert _permstats().lis_defect(6) == _lis_defect(6)


def test_braid_tables_match_acceptance_tests_and_fubini():
    path = os.path.join(CHECKOUT, "tests", "test_acceptance.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    table = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "BRAID_BIG_TABLE"
    )
    for n, series in oracle.BRAID_BIG.items():
        assert table[n] == series
        assert sum(series) == oracle.FUBINI[n] == len(inputs.braid_covectors(n))
    assert oracle.graph_cycle_count(4) == 7


def _closure(gens, n):
    identity = (tuple(range(n)), (1,) * n)
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for perm, signs in frontier:
            for gp, gs in gens:
                # g after w
                u = (tuple(gp[perm[i]] for i in range(n)),
                     tuple(signs[i] * gs[perm[i]] for i in range(n)))
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def test_seeded_inputs_are_symmetry_images(tmp_path):
    paths, expect = inputs.write_inputs(str(tmp_path), 7, os.path.join(CHECKOUT, "src", "covg", "data"))
    with open(paths["braid4"], encoding="utf-8") as fh:
        com = json.load(fh)
    with open(paths["group4"], encoding="utf-8") as fh:
        group = json.load(fh)
    ground = com["ground"]
    covectors = set(com["covectors"])
    assert len(covectors) == 75 and sorted(ground) == sorted(f"{i}{j}" for i, j in inputs.braid_pairs(4))
    gens = [(tuple(ground.index(l) for l in g["perm"]), tuple(g["signs"])) for g in group["generators"]]
    flip = {"+": "-", "-": "+", "0": "0"}
    for perm, signs in gens:
        for c in covectors:
            image = [None] * len(c)
            for i, ch in enumerate(c):
                image[perm[i]] = ch if signs[i] == 1 else flip[ch]
            assert "".join(image) in covectors
    assert len(_closure(gens, len(ground))) == 48
    assert len(expect["arrangement4"]) == 75


BRAID4_JOBS = ("braid4-big", "braid4-small", "fp-braid4-big", "nbc-hilbert-braid4",
               "topecount-braid4", "circuits-braid4", "nbc-braid4", "basic-braid4", "fp-character-braid4")


def _answers(tmp_path, seed):
    directory = tmp_path / f"seed{seed}"
    directory.mkdir()
    paths, expect = inputs.write_inputs(str(directory), seed, os.path.join(CHECKOUT, "src", "covg", "data"))
    check = oracle.Oracle(CHECKOUT, expect)
    env = dict(os.environ, PYTHONPATH=os.path.join(CHECKOUT, "src"))
    jobs = {j.name: j for w in WORKLOADS.values() for j in w.jobs}
    answers = {}
    for name in BRAID4_JOBS:
        job = jobs[name]
        proc = subprocess.run([sys.executable, "-m", "covg.cli", *job.command(paths)],
                              capture_output=True, text=True, env=env, timeout=120, check=False)
        report = json.loads(proc.stdout)
        assert proc.returncode == 0, (name, proc.stderr)
        assert job.verdict(check, report) is None, name
        results = report["results"]
        answers[name] = (
            results.get("coeffs"),
            results.get("count"),
            results.get("codim"),
            results.get("group_order"),
            report["assertions"],
        )
    return answers


def test_two_seeds_give_identical_checked_answers(tmp_path):
    assert _answers(tmp_path, 1) == _answers(tmp_path, 2)
