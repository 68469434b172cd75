#!/usr/bin/env python3
"""Reproduce the braid-family Hilbert tables.

For each n the covector-locus series is computed twice (evaluation-span rank
and NBC counting) and the tope-locus series is compared against the two
cycle-statistic closed forms.  For n up to 5 the covector presentation is
checked end to end, as `covg verify --what big-theorem` does.  Everything is
exact; 'fp' switches the rank engine to a large prime field for speed at
n=5.  Where the NBC count refuses (its circuit search is capped), the rank
series is printed unchecked, and the presentation check is printed as
refused.  Each line ends with its time and the process's peak resident
memory so far.
"""

import argparse
import resource
import time

from covg import (
    braid_com,
    covector_locus,
    hilbert_from_nbc,
    hilbert_series,
    verify_covector_presentation,
)
from covg.exactla import QQ, PrimeField
from covg.harmonics import braid_tope_series_report
from covg.matroidal import MatroidalError


def _cost(started):
    """Seconds since started and the process's peak resident memory so far."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return f"({time.monotonic() - started:.1f}s, peak {peak:.0f} MB)"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--field", choices=("rational", "fp"), default="rational")
    args = parser.parse_args()
    field = QQ if args.field == "rational" else PrimeField(1000003)

    print("covector-locus Hilbert series (rank method vs NBC method)")
    for n in range(1, args.max_n + 1):
        started = time.monotonic()
        M = braid_com(n)
        rank = hilbert_series(covector_locus(M), field).coeffs
        try:
            nbc = hilbert_from_nbc(M)["covector"].coeffs
        except MatroidalError as refusal:
            nbc, mark = f"refused ({refusal})", "unchecked"
        else:
            mark = "ok" if rank == nbc else "MISMATCH"
            nbc = list(nbc)
        print(f"  n={n}  rank={list(rank)}  nbc={nbc}  [{mark}] {_cost(started)}")

    print("covector presentation (verify --what big-theorem)")
    for n in range(1, min(args.max_n, 5) + 1):
        started = time.monotonic()
        try:
            ok = verify_covector_presentation(braid_com(n), field)["ok"]
        except MatroidalError as refusal:
            verdict = f"refused ({refusal})"
        else:
            verdict = "ok" if ok else "MISMATCH"
        print(f"  n={n}  [{verdict}] {_cost(started)}")

    print("tope-locus Hilbert series vs cycle statistics")
    for n in range(2, args.max_n + 1):
        started = time.monotonic()
        rep = braid_tope_series_report(n)
        print(
            f"  n={n}  computed={rep['computed']}  "
            f"sum_w q^(n-cyc)={'match' if rep['matches_cycle_defect'] else 'MISMATCH'}  "
            f"q(q+1)...(q+n-1)={'match' if rep['matches_rising_factorial'] else 'no match'} "
            f"{_cost(started)}"
        )


if __name__ == "__main__":
    main()
