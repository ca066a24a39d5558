"""Weighted integrated/differentiated sequence-space toolkit.

Lazy exact-rational sequences and triangular operators; the two weighted
domain spaces built from running integrals and derivatives of
bounded-variation type; their duals via explicit kernel matrices; and a
table-driven matrix-class checker with truncation-certified verdicts.
"""

from .core import (DEFAULT_SIZES, ConditionVerdict, LazySequence, Scalar,
                   SpaceTag, StatKind, TruncationSchedule, Verdict,
                   alternating, as_fraction, combine_conjunctive, geometric,
                   harmonic, judge_trace, ones, powers, scalar_to_json,
                   space_evidence, zeros)
from .errors import (InvalidWeightError, ScheduleError, SingularTriangleError,
                     SpecParseError, SumkitError, UnsupportedClassError,
                     UnsupportedRowError, UnsupportedSpaceError)
from .operators import (TriangleKind, TriangleOperator, WeightPair,
                        apply_triangle, cesaro_matrix,
                        classical_matrix, difference_matrix,
                        differentiated_inverse, differentiated_triangle,
                        euler_matrix, identity_matrix, integrated_inverse,
                        integrated_triangle, invert_triangle, matrix_product,
                        riesz_matrix, taylor_matrix)
from .spaces import (DomainSpace, SpaceName, ak_tail_norm, basis_column,
                     basis_tabulated_discrepancies, domain_norm, domain_space,
                     embed_from_l1)
from .duals import (CORRECTION_NOTES, DualMatrixKind, alpha_dual_check,
                    beta_dual_check, dual_kernel_matrix, gamma_dual_check,
                    pairing_identity_check, pairing_identity_sides)
from .classes import (ClassReport, CompositeTarget, ConditionId, Recipe,
                      TransformTag, characterize, check_condition,
                      reduce_source_d_bv, reduce_source_int_bv,
                      reduce_target_d_bv, reduce_target_int_bv,
                      reduction_roundtrip_sides, table_recipe,
                      verify_reduction_roundtrip)
from .minilang import (MatrixSpec, compile_arithmetic, parse_matrix_spec,
                       parse_schedule_spec, parse_sequence_spec,
                       parse_weight_spec)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SIZES", "ConditionVerdict", "LazySequence", "Scalar", "SpaceTag",
    "StatKind", "TruncationSchedule", "Verdict", "alternating", "as_fraction",
    "combine_conjunctive", "geometric", "harmonic", "judge_trace", "ones",
    "powers", "scalar_to_json", "space_evidence", "zeros",
    "InvalidWeightError", "ScheduleError", "SingularTriangleError",
    "SpecParseError", "SumkitError", "UnsupportedClassError",
    "UnsupportedRowError", "UnsupportedSpaceError",
    "TriangleKind", "TriangleOperator", "WeightPair", "apply_triangle",
    "cesaro_matrix", "classical_matrix", "difference_matrix",
    "differentiated_inverse", "differentiated_triangle", "euler_matrix",
    "identity_matrix", "integrated_inverse", "integrated_triangle",
    "invert_triangle", "matrix_product", "riesz_matrix", "taylor_matrix",
    "DomainSpace", "SpaceName", "ak_tail_norm", "basis_column",
    "basis_tabulated_discrepancies", "domain_norm", "domain_space",
    "embed_from_l1",
    "CORRECTION_NOTES", "DualMatrixKind", "alpha_dual_check",
    "beta_dual_check", "dual_kernel_matrix", "gamma_dual_check",
    "pairing_identity_check", "pairing_identity_sides",
    "ClassReport", "CompositeTarget", "ConditionId", "Recipe", "TransformTag",
    "characterize", "check_condition", "reduce_source_d_bv",
    "reduce_source_int_bv", "reduce_target_d_bv", "reduce_target_int_bv",
    "reduction_roundtrip_sides", "table_recipe", "verify_reduction_roundtrip",
    "MatrixSpec", "compile_arithmetic", "parse_matrix_spec",
    "parse_schedule_spec", "parse_sequence_spec", "parse_weight_spec",
]
