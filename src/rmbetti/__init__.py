"""Exact toolkit for generalized Reed-Muller codes and the graded Betti
numbers of their Stanley-Reisner rings.

Construction and analysis are exact over GF(q) throughout: code parameters
by two closed-form dimension formulas cross-checked against evaluation-matrix
ranks, minimum-weight codeword families, generalized Hamming weights by
support search with a subspace-enumeration oracle, Betti tables by two
independent backends, purity/linearity verdicts with closed-form predictions
for pure types, and self-contained machine-checkable certificates of
non-purity.
"""

from .codes import (LinearCode, ghw, ghw_by_subspaces, ghw_profile,
                    is_i_minimal, is_mds, min_weight_bruteforce,
                    minimum_distance, shortened_basis, shortened_dim,
                    shrink_to_one_minimal, support, weight)
from .errors import (CertificateError, CrossCheckError, DegenerateTypeError,
                     DimensionMismatchError, NotPrimePowerError,
                     ParameterError, PreconditionError,
                     RankDeficientFormsError, TooLargeError,
                     WitnessParameterError)
from .gf import GF, field
from .rm import (ExponentPoly, PointOrder, RMCode, build_code, dim_assmus_key,
                 dim_inclusion_exclusion, full_space_binomial_identity,
                 interpolate, interpolation_basis, linear_product,
                 min_distance_formula, min_weight_poly, monomial_basis,
                 point_order, substitute_linear_forms, sum_zero_code_equal,
                 ts_split)
from .srres import (BettiTable, PurityVerdict, betti_fastpath, betti_hochster,
                    circuits, ghw_from_betti, herzog_kuhl_predicted,
                    purity_verdict, reduced_homology_dims)
from .verify import (DEFAULT_GUARDS, Guards, MdsCheck, SweepReport, SweepRow,
                     certificate_witness, check_certificate, mds_check,
                     mds_predicate, non_purity_certificate, purity_by_betti,
                     purity_predicate, sweep)

__version__ = "0.1.0"
