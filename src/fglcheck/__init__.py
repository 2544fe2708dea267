"""Exact-arithmetic verification of formal groups, twisted bialgebras and
power-operation congruences at finite p-adic precision."""

from .exact_arith import (FrobeniusLift, HenselFailure, NotDivisible,
                          RationalField, RingMismatch, WittCoefRing, WittElem,
                          ring_from_descriptor)
from .formal_groups import (FglHom, FormalGroupLaw, Height, MalformedPSeries,
                            NotCharP, PrecisionExhausted, bcp_module,
                            fgl_additive, fgl_honda, fgl_multiplicative,
                            formal_inverse, frobenius_isogeny, height,
                            lubin_tate_deformation, n_series, reduce_to_residue,
                            specialize_deformation)
from .graded2 import (AmbiguousFlattening, GradedMap, GradedObj, NotInvertible,
                      NotZGraded, ShapeMismatch, SignedPerm, associator,
                      from_z_graded, interchange, omega_obj, omega_sqrt,
                      tensor_map, to_z_graded, twisted_tensor, unit_obj,
                      verify_coherence)
from .report import CheckResult, CongruenceReport, SizeLimit
from .series import (ContextMismatch, DegreeOverflow, IdentityFailed,
                     NonUnitLinearCoefficient, NonzeroConstantTerm, NotConverged,
                     PolyTruncRing, ResidueZero, TruncSeries,
                     WeierstrassFactorization, reversion, substitute,
                     weierstrass_prepare)
from .theta_congruence import (CharacteristicMismatch, CongruenceFails,
                               FiniteFreeShape, FrobeniusClassSpec, IllDefinedPsi,
                               L1Data, MonicQuotientShape, PolyShape,
                               PsiRingPresentation, ThetaData, derive_theta,
                               frobenius_congruence_comodule,
                               gamma_congruence_check, theta_consistency,
                               theta_of, verify_weight_p_squares,
                               wilkerson_check)
from .twisted_bialgebra import (CategorySchemeData, GammaAlgebra, GammaModule,
                                IncompleteAction, IncompleteData,
                                TwistedBialgebra, dualize, free_algebra,
                                height1_gamma, induced_algebra_map,
                                points_category, tensor_modules, trivial_algebra,
                                trivial_module, verify_bialgebra)
from .weights import (EpiFamily, InvariantViolation, NotLocal,
                      RegularityCertificate, WeightedMonadData, binomial_gcd,
                      epi_family_check, inherit_structure,
                      regularity_certificate)

__version__ = "0.1.0"
