"""Exact-arithmetic toolkit for conditional oriented matroids: realization
from rational arrangements, circuit/NBC combinatorics, graded rings of
sign-vector loci via evaluation spans, and equivariant structure."""

from .com import (
    COM,
    AxiomError,
    COMError,
    GroundSet,
    SignedPermutation,
    SignedVector,
    act,
    check_axioms,
    coloops,
    compose,
    contract,
    flat_poset,
    restrict,
    separator,
    topes,
    verify_automorphism,
)
from .exactla import QQ, Polynomial, PrimeField, elementary_symmetric
from .harmonics import (
    EmptyLocusError,
    EvaluationFiltration,
    HilbertSeries,
    PointLocus,
    covector_ideal_generators,
    covector_locus,
    gr_membership,
    hilbert_from_nbc,
    hilbert_series,
    kostant_locus,
    nbc_basis,
    permmatrix_locus,
    permutohedral_locus,
    tope_ideal_generators,
    tope_locus,
    verify_basis,
    verify_covector_presentation,
    verify_tope_presentation,
    z_ideal_generators,
)
from .matroidal import (
    Circuit,
    basic_sets,
    check_tope_contraction_count,
    check_two_values,
    circuits,
    closure,
    codim,
    minimal_nonbasic_sets,
    mixing_subsets,
    nbc_sets,
    nonbasic,
)
from .realize import (
    AffineForm,
    Arrangement,
    braid_arrangement,
    braid_automorphism_generators,
    braid_com,
    enumerate_covectors,
    fixture,
    lp_strict_feasible,
)
from .equivariant import (
    GroupSpec,
    automorphism_group_bruteforce,
    graded_character,
    induced_character,
    locus_action,
    verify_graded_module_structure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
