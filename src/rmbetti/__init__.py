"""Exact toolkit for generalized Reed-Muller codes and the graded Betti
numbers of their Stanley-Reisner rings.

Construction and analysis are exact over GF(q) throughout: code parameters
by two closed-form dimension formulas cross-checked against evaluation-matrix
ranks, explicit codewords as products of linear factors, minimum distance by
meet-in-the-middle enumeration, generalized Hamming weights by support
search, Betti tables by two independent backends, purity/linearity verdicts,
and self-contained machine-checkable certificates of non-purity.  The
reference routes the test suite checks these against (subspace enumeration,
interpolation, symbolic constructions) live in tests/oracles.py.
"""

from .codes import (LinearCode, ghw, ghw_profile, is_mds, min_weight_bruteforce,
                    minimum_distance, shortened_basis, shortened_dim,
                    shrink_to_one_minimal, support, weight)
from .errors import CertificateError, CrossCheckError, ParameterError, TooLargeError
from .gf import GF, field
from .rm import (ExponentPoly, RMCode, build_code, dim_assmus_key,
                 dim_inclusion_exclusion, linear_product, min_distance_formula,
                 monomial_basis, point_order, ts_split)
from .srres import (BettiTable, PurityVerdict, betti_fastpath, betti_hochster,
                    circuits, ghw_from_betti, herzog_kuhl_predicted,
                    purity_verdict, reduced_homology_dims)
from .verify import (DEFAULT_GUARDS, Guards, certificate_witness,
                     check_certificate, mds_check, mds_predicate,
                     non_purity_certificate, purity_by_betti, purity_predicate,
                     sweep, theorem_row)

__version__ = "0.1.0"
