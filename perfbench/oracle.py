"""Expected answers for every benchmark job, and the checks that compare them.

Permutation-locus series come from the program's own statistic enumerators
(`covg/permstats.py`, loaded by path so the timed package is never imported
here); they walk S_n directly and share no code with the evaluation-span
engine.  The braid covector series are the literal table of the acceptance
tests; tope series are the cycle-defect distribution; covector counts are the
Fubini numbers.
"""

from __future__ import annotations

import importlib.util
import math
import os

# Hilbert series of the braid covector locus (tests/test_acceptance.py, BRAID_BIG_TABLE).
BRAID_BIG = {4: [1, 12, 36, 26], 5: [1, 20, 120, 250, 150]}

# Ordered set partitions of 1..n: the covector count of the braid COM.
FUBINI = {4: 75, 5: 541}


def load_permstats(checkout):
    path = os.path.join(checkout, "src", "covg", "permstats.py")
    spec = importlib.util.spec_from_file_location("permstats_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def graph_cycle_count(n):
    """Cycles of the complete graph K_n; each gives a +/- pair of braid circuits."""
    return sum(math.comb(n, k) * math.factorial(k - 1) // 2 for k in range(3, n + 1))


class Oracle:
    """Checks one CLI report against the expected answer of its job.

    Each check returns an error string, or None when the answer is right.
    """

    def __init__(self, checkout, expect):
        self.permstats = load_permstats(checkout)
        self.expect = expect
        self._series = {}

    def series(self, family, n):
        key = (family, n)
        if key not in self._series:
            self._series[key] = getattr(self.permstats, family)(n)
        return self._series[key]

    @staticmethod
    def assertions(report):
        assertions = report.get("assertions") or {}
        if not assertions:
            return "report has no assertions"
        bad = sorted(k for k, v in assertions.items() if v is not True)
        return f"assertions failed: {bad}" if bad else None

    def loci(self, report, family, n):
        got = report["results"].get("hilbert")
        want = self.series(family, n)
        return None if got == want else f"hilbert {got} != {family}({n}) {want}"

    def hilbert(self, report, which, n):
        got = report["results"]["coeffs"]
        want = BRAID_BIG[n] if which == "big" else self.series("cycle_defect", n)
        return None if got == want else f"{which} series {got} != {want}"

    def big_theorem(self, report, n=None):
        err = self.assertions(report)
        if err or n is None:
            return err
        got = report["results"]["hilbert"]["rank_method"]
        return None if got == BRAID_BIG[n] else f"rank series {got} != {BRAID_BIG[n]}"

    def nbc(self, report, n):
        err = self.assertions(report)
        count = report["results"]["count"]
        if err is None and count != math.factorial(n):
            err = f"{count} nbc sets != {n}!"
        return err

    def circuits(self, report, n):
        results = report["results"]
        want = 2 * graph_cycle_count(n)
        if results["count"] != want:
            return f"{results['count']} circuits != {want}"
        if not all(c["symmetric"] for c in results["circuits"]):
            return "an oriented-matroid circuit is reported non-symmetric"
        return None

    def basic(self, report, flat):
        """A rank-2 flat of three pairs: any two of them are a basic set."""
        results = report["results"]
        got = {frozenset(b) for b in results["basic_sets"]}
        flat = flat.split(",")
        want = {frozenset(flat) - {x} for x in flat}
        if results["codim"] != 2 or got != want:
            return f"basic sets {sorted(map(sorted, got))} codim {results['codim']}"
        return None

    def enumerate(self, report, n):
        results = report["results"]
        got = sorted(results["com"]["covectors"])
        if results["covector_count"] != FUBINI[n] or got != self.expect[f"arrangement{n}"]:
            return f"{results['covector_count']} covectors, not the expected {FUBINI[n]}"
        return None
