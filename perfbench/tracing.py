"""Traced runs: a bootstrap that wraps covg's public functions in spans, and
the arithmetic that turns spans into per-layer metrics.

Run as a script, this file is the job process of a traced run:

    PYTHONPATH=src python3 perfbench/tracing.py JOB SPAWNED OUT -- <covg argv>

It imports covg, replaces each function in TARGETS, in the module that defines
it and in every covg module that imported it by name, with a wrapper that
records (id, name, start, end, parent, outcome).  Spans stay in memory and are
written to OUT as JSON when the command returns.  SPAWNED is the parent's
time.monotonic() just before the process was started.

Which end-to-end metric each layer metric should move (on which workloads):
  cli.startup_s           setup_s, all workloads
  cli.io_s                wall_s, slightly; most on structure
  com.*                   wall_s on structure and membership; ~0 on spans-*
  realize.*               wall_s on structure only
  matroidal.*             wall_s on structure, a little on membership
  harmonics.advance_degree  wall_s on spans-q and spans-fp
  harmonics.evaluate, gr_membership, generators  wall_s on membership
  exactla.insert, copy    wall_s on spans-*; copy also peak_rss_mb on spans-fp
  exactla.contains, trace, poly  wall_s on membership
  equivariant.*           wall_s on membership only
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# span name -> [(module, attribute)]; "Class.method" wraps the method on the class.
TARGETS = {
    "cli.handler": [("covg.cli", f"cmd_{c}") for c in (
        "check", "enumerate", "braid", "fixture", "circuits", "nbc", "flats",
        "basic", "hilbert", "verify", "loci", "character")],
    "cli.io": [("covg.jsonio", f) for f in ("read_json", "write_json", "dumps", "sha256_file")],
    "com.check_axioms": [("covg.com", "check_axioms")],
    "com.contract": [("covg.com", "contract")],
    "com.flats_of": [("covg.com", "flats_of")],
    "com.flat_poset": [("covg.com", "flat_poset")],
    "com.other": [("covg.com", f) for f in (
        "restrict", "topes", "coloops", "verify_automorphism", "COM.from_json_dict", "COM.to_json_dict")],
    "realize.lp": [("covg.realize", "lp_strict_feasible")],
    "realize.other": [("covg.realize", f) for f in (
        "enumerate_covectors", "braid_com", "fixture", "Arrangement.from_json_dict")],
    "matroidal.circuits": [("covg.matroidal", "circuits")],
    "matroidal.closure": [("covg.matroidal", "closure")],
    "matroidal.nbc_sets": [("covg.matroidal", "nbc_sets")],
    "matroidal.basic_sets": [("covg.matroidal", "basic_sets")],
    "matroidal.other": [("covg.matroidal", f) for f in (
        "codim", "minimal_nonbasic_sets", "nonbasic", "default_basic_set",
        "check_two_values", "check_tope_contraction_count")],
    "harmonics.locus": [("covg.harmonics", f) for f in (
        "tope_locus", "covector_locus", "kostant_locus", "permutohedral_locus", "permmatrix_locus")],
    "harmonics.advance_degree": [("covg.harmonics", "EvaluationFiltration.advance_degree")],
    "harmonics.evaluate": [("covg.harmonics", "EvaluationFiltration.evaluate")],
    "harmonics.gr_membership": [("covg.harmonics", "gr_membership")],
    "harmonics.generators": [("covg.harmonics", f) for f in (
        "tope_ideal_generators", "covector_ideal_generators", "z_ideal_generators",
        "symmetric_circuit_generator")],
    "harmonics.other": [("covg.harmonics", f) for f in (
        "EvaluationFiltration.__init__", "hilbert_series", "hilbert_from_nbc", "nbc_basis",
        "verify_basis", "verify_covector_presentation")],
    "exactla.insert": [("covg.exactla", f"{c}.insert") for c in ("RationalRowSpace", "FpRowSpace")],
    "exactla.contains": [("covg.exactla", f"{c}.contains") for c in ("RationalRowSpace", "FpRowSpace")],
    "exactla.copy": [("covg.exactla", f"{c}.copy") for c in ("RationalRowSpace", "FpRowSpace")],
    "exactla.trace": [("covg.exactla", f"{c}.trace_under_permutation") for c in ("RationalRowSpace", "FpRowSpace")],
    "exactla.poly": [("covg.exactla", f"Polynomial.{m}") for m in (
        "__add__", "__sub__", "__mul__", "scale", "evaluate")] + [("covg.exactla", "elementary_symmetric")],
    "exactla.other": [("covg.exactla", f"{c}.expansion_coefficients") for c in ("RationalRowSpace", "FpRowSpace")],
    "equivariant.group": [("covg.equivariant", f"GroupSpec.{m}") for m in ("from_generators", "from_json_dict")],
    "equivariant.character": [("covg.equivariant", "graded_character")],
    "equivariant.induced": [("covg.equivariant", "induced_character")],
    "equivariant.locus_action": [("covg.equivariant", "locus_action")],
    "equivariant.other": [("covg.equivariant", f) for f in (
        "verify_graded_module_structure", "GroupSpec.flat_orbits", "GroupSpec.stabilizer_elements")],
}

# Spans whose return value is kept as a useful/attempted flag.
OUTCOMES = {
    "exactla.insert": bool,
    "realize.lp": lambda result: result.feasible,
}


class Recorder:
    """Spans of one process, in call order: [id, name, start, end, parent, outcome]."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.monotonic
        outcome = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            span = [len(spans), name, clock(), None, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if outcome is not None:
                span[5] = bool(outcome(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "covg" or n.startswith("covg.")]
        for name, targets in TARGETS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)


def self_times(spans):
    """Self time of each span: its duration minus the union of its children's intervals."""
    children = {}
    for sid, _name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, _name, start, end, _parent, _ in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def summarize(trace):
    """Per-span-name totals of one traced job: calls, self seconds, true outcomes."""
    spans = trace["spans"]
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        t = totals.setdefault(span[1], {"calls": 0, "s": 0.0, "true": 0})
        t["calls"] += 1
        t["s"] += own
        t["true"] += span[5] is True
    handler = [s for s in spans if s[1] == "cli.handler"]
    startup = handler[0][2] - trace["spawned"] if handler else 0.0
    return totals, startup


def layer_metrics(totals, startup):
    """Named per-layer metrics from the span totals of one job."""
    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def secs(name):
        return totals.get(name, {}).get("s", 0.0)

    out = {"cli.startup_s": startup, "cli.io_s": secs("cli.io")}
    for name in TARGETS:
        layer, fn = name.split(".")
        if fn != "other":
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = secs(name)
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + secs(name)
    for name in OUTCOMES:
        out[f"{name}.true"] = totals.get(name, {}).get("true", 0)
    return out


def ratio(num, den):
    return num / den if den else 0.0


def main(argv):
    job, spawned, out_path, _, *cli_argv = argv
    spawned = float(spawned)
    import covg.cli

    recorder = Recorder()
    recorder.install()
    try:
        code = covg.cli.run(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"job": job, "spawned": spawned, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
