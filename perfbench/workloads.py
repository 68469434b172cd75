"""The four job mixes.  Each job is one `covg` command; `{name}` in an argument
is replaced by the path of the seeded input file of that name.

Global flags (`--field`, `--timing`) must precede the subcommand.  The
kostant and permutohedral loci refuse prime fields, so `spans-fp` uses the
permutation-matrix locus only.
"""

from __future__ import annotations

from dataclasses import dataclass

FP = ("--field", "fp:1000003")


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    check: str  # Oracle method name
    args: tuple = ()

    def command(self, paths):
        return [a.format(**paths) for a in self.argv]

    def verdict(self, oracle, report):
        return getattr(oracle, self.check)(report, *self.args)


@dataclass(frozen=True)
class Workload:
    why: str
    jobs: tuple


WORKLOADS = {
    "spans-q": Workload(
        "evaluation-span Hilbert series over Q: harmonics candidate generation and "
        "exactla Fraction elimination carry the load",
        (
            Job("kostant5", ("loci", "--family", "kostant", "--n", "5", "--hilbert"), "loci", ("mahonian", 5)),
            Job("permutohedral5", ("loci", "--family", "permutohedral", "--n", "5", "--hilbert"), "loci", ("eulerian", 5)),
            Job("permmatrix5", ("loci", "--family", "permmatrix", "--n", "5", "--hilbert"), "loci", ("lis_defect", 5)),
            Job("braid4-big", ("hilbert", "{braid4}", "--which", "big"), "hilbert", ("big", 4)),
            Job("braid4-small", ("hilbert", "{braid4}", "--which", "small"), "hilbert", ("small", 4)),
        ),
    ),
    "spans-fp": Workload(
        "the same span engine on the prime-field path, through numpy int64 and "
        "float64 matmuls, so a gain on Q that costs F_p shows",
        (
            Job("fp-permmatrix6", (*FP, "loci", "--family", "permmatrix", "--n", "6", "--hilbert"), "loci", ("lis_defect", 6)),
            Job("fp-braid4-big", (*FP, "hilbert", "{braid4}", "--which", "big"), "hilbert", ("big", 4)),
            Job("fp-permmatrix5", (*FP, "loci", "--family", "permmatrix", "--n", "5", "--hilbert"), "loci", ("lis_defect", 5)),
            Job("fp2-braid4-big", ("--field", "fp:4294967311", "hilbert", "{braid4}", "--which", "big"), "hilbert", ("big", 4)),
        ),
    ),
    "membership": Workload(
        "queries against a built filtration: polynomial evaluation, contains and "
        "trace reads, and the equivariant layer",
        (
            Job("fp-bigthm-braid4", (*FP, "verify", "{braid4}", "--what", "big-theorem"), "big_theorem", (4,)),
            Job("bigthm-braid4", ("verify", "{braid4}", "--what", "big-theorem"), "big_theorem", (4,)),
            Job("bigthm-figure1", ("verify", "{figure1}", "--what", "big-theorem"), "big_theorem"),
            Job("bigthm-rectangle", ("verify", "{figure1-rectangle}", "--what", "big-theorem"), "big_theorem"),
            Job("smallgens-braid4", ("verify", "{braid4}", "--what", "small-generators"), "assertions"),
            Job("character-braid4", ("character", "{braid4}", "--group", "{group4}", "--verify-decomposition"), "assertions"),
            Job("fp-character-braid4", (*FP, "character", "{braid4}", "--group", "{group4}"), "assertions"),
        ),
    ),
    "structure": Workload(
        "combinatorics only: com axiom checks and contractions, realize LPs and "
        "matroidal searches; no row space is built",
        (
            Job("check-braid5", ("check", "{braid5}"), "assertions"),
            Job("enumerate-braid4", ("enumerate", "{arrangement4}"), "enumerate", (4,)),
            Job("twovalues-braid4", ("verify", "{braid4}", "--what", "two-values"), "assertions"),
            Job("topecount-braid4", ("verify", "{braid4}", "--what", "tope-count"), "assertions"),
            Job("nbc-hilbert-braid4", ("hilbert", "{braid4}", "--which", "big", "--method", "nbc"), "hilbert", ("big", 4)),
            Job("circuits-braid4", ("circuits", "{braid4}"), "circuits", (4,)),
            Job("nbc-braid4", ("nbc", "{braid4}"), "nbc", (4,)),
            # the flat of the block {1, 2, 3}: relabeling keeps labels, so it stays a flat
            Job("basic-braid4", ("basic", "{braid4}", "--flat", "12,13,23"), "basic", ("12,13,23",)),
        ),
    ),
}

# Jobs that give a wrong answer with exit 0 on the current program.  They run
# and count as failed like any other; only a failure outside this set makes a
# run incorrect.  FpRowSpace accumulates products in int64, which is exact only
# while ambient * (p - 1)^2 < 2^63; p = 4294967311 breaks that on braid4.
KNOWN_WRONG = {"fp2-braid4-big"}
