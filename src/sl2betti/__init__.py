"""Exact computation of minimal free resolutions and graded Betti diagrams
for algebras of SL2-invariants of binary forms."""

from .poly import GradedRing, MonomialOrder, Polynomial, WEIGHTED, LEX, elimination_order
from .groebner import Ideal, GroebnerBasis, RationalSeries, buchberger, normal_form, minimal_generators, hilbert_series_quotient
from .invariants import ProblemSpec, CoefficientRing, GeneratorSet, apply_operator, invariant_basis, cayley_sylvester_dim, minimal_invariant_generators
from .presentation import AlgebraMap, kernel, present, substitute
from .resolution import FreeModule, Resolution, BettiTable, resolve, minimize, betti, koszul_betti, verify_complex
from .report import PalindromyVerdict, check_palindromy, poincare_from_betti, render_betti, expected_hd

__version__ = "0.1.0"

__all__ = [
    "GradedRing", "MonomialOrder", "Polynomial", "WEIGHTED", "LEX", "elimination_order",
    "Ideal", "GroebnerBasis", "RationalSeries", "buchberger", "normal_form",
    "minimal_generators", "hilbert_series_quotient",
    "ProblemSpec", "CoefficientRing", "GeneratorSet", "apply_operator",
    "invariant_basis", "cayley_sylvester_dim", "minimal_invariant_generators",
    "AlgebraMap", "kernel", "present", "substitute",
    "FreeModule", "Resolution", "BettiTable", "resolve", "minimize", "betti",
    "koszul_betti", "verify_complex",
    "PalindromyVerdict", "check_palindromy", "poincare_from_betti", "render_betti",
    "expected_hd",
]
