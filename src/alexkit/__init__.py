"""alexkit: Alexander-type knot/link/tangle invariants by three
independent routes (Fox calculus, span-valued tangle evaluation, Burau
matrices) over exact Laurent-polynomial arithmetic.
"""

from .alexander import (AlexanderData, AlexanderMatrix, RingPresentation,
                        VirtualClassPoly, alexander_data, alexander_matrix,
                        component_weights, fibre_dimension, knot_delta,
                        multivariable_alexander, ring_presentation,
                        virtual_class)
from .burau import (BurauMatrix, burau_reduced, burau_unreduced,
                    closure_alexander, span_trace_fix)
from .codes import (BraidWord, CatalogEntry, Crossing, CrossingList,
                    braid_closure, catalog_lookup, catalog_names,
                    parse_braid, parse_crossing_list, parse_pd)
from .errors import (AlexkitError, AmbiguousOrientation, BoundaryMismatch,
                     DimensionMismatch, EmptyMatrix, NotAUnit, NotFound,
                     ParseError, UnknownGenerator, UseMultivariableRoute,
                     UseUnivariateRoute, ValidationError, ZeroPolynomial)
from .fields import (ComplexPoint, GenericTField, Mat, RationalPoint,
                     ScalarField, kernel_basis, mat_identity, mat_mul,
                     mat_rank)
from .fox import (AbelianWeights, FreeWord, abelianize,
                  fox_derivative_abelianized, reduce_word)
from .laurent import (LaurentPoly, MultiLaurentPoly, canonical_poly,
                      distinct_root_count, gcd_laurent, gcd_multivariate,
                      normalize_unit)
from .snf import poly_det, smith_normal_form
from .tangles import (Compose, Gen, Span, Tensor, braid_closure_expr,
                      braid_expr, closed_tangle_delta, compose_spans,
                      evaluate_tangle, generator_span, identity_span,
                      parse_tangle, spans_equivalent, tangle_linear_system,
                      tangle_system, tensor_spans)

__version__ = "0.1.0"
