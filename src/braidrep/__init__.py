"""Exact symbolic linear algebra for complex representations of the braid group B3."""

from .fields import (CC, DEFAULT_EPS, ExactField, FloatField, Omega, Poly,
                     PoleError, QQ, QW, QZ, RatFunc, TagMismatchError, field_of,
                     format_scalar, join, poly_gcd, to_complex)
from .matrices import (Matrix, SingularMatrixError, block_diag, char_poly,
                       conjugate, hstack, vstack)
from .families import (ParameterError, RepMeta, Representation, burau3,
                       burau3_diag, burau_change_of_basis, direct_sum, dual,
                       mu, mu_pascal, raw, specialize, standard_s3, tensor,
                       tensor_onedim, theorem1_i, theorem1_ii, xi)
from .analysis import (DEFAULT_SEED, DecompositionError, DecompositionReport,
                       InvariantLine, IrreducibilityReport, IsomorphismReport,
                       VerificationReport, common_invariant_lines, intertwiners,
                       is_irreducible, is_isomorphic, split_once,
                       spectrum_of_triangular, verify_braid_relations)
from .grammar import (ParseError, format_spec, matrix_from_json, matrix_to_json,
                      matrix_to_latex, parse_family_spec, parse_point,
                      parse_scalar, representation_from_json,
                      representation_to_json, representation_to_latex,
                      scalar_from_json, scalar_to_json, scalar_to_latex)

__version__ = "0.1.0"
