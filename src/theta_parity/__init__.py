"""Verification and search engine for mod-2 theta-function identities
f_a = f_b * f_c, with machine-checkable certificates."""

from .classify import (Certificate, ClassificationReport, SPORADIC_TRIPLES,
                       Triple, brute_search, candidate_filter, egyptian_a,
                       enumerate_candidates, family_criterion,
                       run_classification, theorem_prediction, verify_triple)
from .gf2series import Gf2Series
from .numth import (ResidueClass, is_prime, is_square, jacobi,
                    primes_in_class, squarefree_part, vp)
from .partition import (BM_CONJECTURED_PAIRS, BM_REFUTED_PAIRS,
                        bm_first_failure, partition_parity)
from .quadform import (SolutionPair, WeberCertificate, WeberPrime,
                       find_weber_prime, lemma32_residue, lemma34_check,
                       lemma34_solutions, repcount, weber_reject)
from .theta import (eta_power_series, eta_support, euler_jacobi_check,
                    theta_exponents, theta_series)

__all__ = [
    "BM_CONJECTURED_PAIRS", "BM_REFUTED_PAIRS", "Certificate",
    "ClassificationReport", "Gf2Series", "ResidueClass",
    "SPORADIC_TRIPLES", "SolutionPair", "Triple", "WeberCertificate",
    "WeberPrime", "bm_first_failure", "brute_search", "candidate_filter",
    "egyptian_a", "enumerate_candidates", "eta_power_series",
    "eta_support", "euler_jacobi_check", "family_criterion",
    "find_weber_prime", "is_prime", "is_square", "jacobi", "lemma32_residue",
    "lemma34_check", "lemma34_solutions", "partition_parity",
    "primes_in_class", "repcount", "run_classification", "squarefree_part",
    "theorem_prediction", "theta_exponents", "theta_series", "verify_triple",
    "vp", "weber_reject",
]
