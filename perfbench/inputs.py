"""Seeded input files for the benchmark jobs.

Every file is a symmetry image of a fixed object: a signed permutation of the
ground set (relabeling plus reorientation) for COMs and their groups, and a
permutation, sign flip and positive scaling of the forms for the arrangement.
None of these maps changes an answer the oracle checks, so one seed differs
from another only in the bytes the program reads.

The braid objects are built here from ordered set partitions, independently of
the program; the two fixtures are read from the program's shipped data.
"""

from __future__ import annotations

import json
import os
import random
from itertools import product

FIXTURE_FILES = {"figure1": "figure1.json", "figure1-rectangle": "figure1_rectangle.json"}


def braid_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def braid_covectors(n):
    """Sign vectors of the braid arrangement: one per ordered set partition of 1..n.

    Pair ij (i < j) is '+' when the block holding i comes earlier.
    """
    out = []
    for k in range(1, n + 1):
        for assign in product(range(k), repeat=n):
            if set(assign) != set(range(k)):
                continue
            out.append(
                "".join(
                    "+" if assign[i - 1] < assign[j - 1] else "-" if assign[i - 1] > assign[j - 1] else "0"
                    for i, j in braid_pairs(n)
                )
            )
    return out


def braid_generators(n):
    """Adjacent transpositions of 1..n on the pair ground set, plus global negation.

    Returns (perm, signs) index tuples; a pair whose image is out of order flips.
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
            perm.append(index[(min(a, b), max(a, b))])
            signs.append(1 if a < b else -1)
        gens.append((tuple(perm), tuple(signs)))
    gens.append((tuple(range(len(pairs))), (-1,) * len(pairs)))
    return gens


class SignedPermutation:
    """Ground index i moves to perm[i] with its sign multiplied by signs[i]."""

    def __init__(self, perm, signs):
        self.perm = tuple(perm)
        self.signs = tuple(signs)

    @classmethod
    def random(cls, rng, n):
        perm = list(range(n))
        rng.shuffle(perm)
        return cls(perm, [rng.choice((1, -1)) for _ in range(n)])

    def labels(self, labels):
        out = [None] * len(labels)
        for i, label in enumerate(labels):
            out[self.perm[i]] = label
        return out

    def covector(self, text):
        flip = {"+": "-", "-": "+", "0": "0"}
        out = [None] * len(text)
        for i, ch in enumerate(text):
            out[self.perm[i]] = ch if self.signs[i] == 1 else flip[ch]
        return "".join(out)

    def conjugate(self, perm, signs):
        """The generator s g s^-1 acting on the new coordinates."""
        n = len(perm)
        new_perm, new_signs = [None] * n, [None] * n
        for i in range(n):
            a = self.perm[i]
            new_perm[a] = self.perm[perm[i]]
            new_signs[a] = self.signs[i] * signs[i] * self.signs[perm[i]]
        return new_perm, new_signs


def com_image(ground, covectors, s, rng):
    shuffled = [s.covector(c) for c in covectors]
    rng.shuffle(shuffled)
    return {"ground": s.labels(ground), "covectors": shuffled}


def group_image(ground, gens, s):
    """Group file for the image COM: generators conjugated by s, as labels."""
    new_ground = s.labels(ground)
    out = []
    for perm, signs in gens:
        p, sg = s.conjugate(perm, signs)
        out.append({"perm": [new_ground[k] for k in p], "signs": sg})
    return {"generators": out}


def arrangement_image(n, rng):
    """Braid arrangement with forms shuffled, sign-flipped and scaled by 1..5.

    Returns the JSON dict and the expected covector strings in the new form order.
    """
    pairs = braid_pairs(n)
    order = list(range(len(pairs)))
    rng.shuffle(order)
    flips = [rng.choice((1, -1)) for _ in pairs]
    forms = {}
    for k in order:
        i, j = pairs[k]
        scale = flips[k] * rng.randint(1, 5)
        coeffs = [0] * n
        coeffs[i - 1], coeffs[j - 1] = scale, -scale
        forms[f"{i}{j}"] = {"coeffs": [str(c) for c in coeffs], "const": "0"}
    arr = {"dimension": n, "forms": forms, "region": []}
    s = SignedPermutation([order.index(k) for k in range(len(pairs))], flips)
    expected = sorted(s.covector(c) for c in braid_covectors(n))
    return arr, expected


def write_inputs(directory, seed, fixture_dir):
    """Write every input file for one seed; returns {name: path} plus expectations."""
    rng = random.Random(seed)
    paths, expect = {}, {}

    def put(name, obj):
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1)
            fh.write("\n")
        paths[name] = path

    for n in (4, 5):
        ground = [f"{i}{j}" for i, j in braid_pairs(n)]
        s = SignedPermutation.random(rng, len(ground))
        put(f"braid{n}", com_image(ground, braid_covectors(n), s, rng))
        if n == 4:
            put("group4", group_image(ground, braid_generators(n), s))
    for name, filename in FIXTURE_FILES.items():
        with open(os.path.join(fixture_dir, filename), encoding="utf-8") as fh:
            data = json.load(fh)
        s = SignedPermutation.random(rng, len(data["ground"]))
        put(name, com_image(data["ground"], data["covectors"], s, rng))
    arr, expect["arrangement4"] = arrangement_image(4, rng)
    put("arrangement4", arr)
    return paths, expect
