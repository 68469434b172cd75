"""Desk-scale resource limits, adjustable per call site."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    max_forms: int = 14  # hyperplanes accepted by the sign-vector enumerator
    max_circuit_ground: int = 14  # ground-set size for 3^n circuit search
    max_group_order: int = 100_000
    max_locus_n: int = 7  # permutation loci stop at n! = 5040 points
    max_braid_n: int = 9  # single-digit pair labels


DEFAULT_LIMITS = Limits()
