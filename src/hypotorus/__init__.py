"""hypotorus: a spectral laboratory for periodic evolution equations.

The package studies operators of the form

    L = D_t + c(t) P(x, D_x)

on the product of a circle (time) and Euclidean space, where P is globally
elliptic with a discrete eigenbasis.  Expanding in that basis turns L into a
family of first-order ODEs on the circle, one per eigenvalue; everything here
— solvers, small-divisor bookkeeping, hypoellipticity verdicts, and explicit
counterexample witnesses — operates on that family.  The package stays on
this spectral side: it has no transform to or from real space x and no
seminorm on an x-grid.

Layout
------
``torusfn``      periodic grid functions with spectral calculus
``spectrum``     eigenvalue sequences and the 1D Hermite eigenbasis
``modes``        the mode-by-mode solver and the operator itself
``diophantine``  nearest-integer distances, rational and Liouville analysis
``classify``     the hypoellipticity decision procedure
``witness``      explicit counterexample constructions
``diagnostics``  decay fitting and spectral-side seminorm growth tables
``formulas``     exact trigonometric-polynomial parsing for config files
``jsonio``       the JSON encoding of every artifact
``csvio``        the CSV format of every table artifact
``errors``       the error classes and the exit code each carries
``cli``          the ``hypotorus`` command-line entry point
"""

import types

from .classify import (BRANCH_DIOPHANTINE, BRANCH_NONREAL, BRANCH_RESONANCE, BRANCH_SIGN,
                       BRANCH_SIGN_CHANGE, Verdict, WitnessPlan, classify, classify_constant)
from .diagnostics import DecayFit, PMTable, fit_decay, lemma25_check, pm_seminorms
from .diophantine import (DistanceSequence, LiouvilleCertificate, RationalVerdict,
                          classify_rational, construct_liouville, dist_to_int,
                          dist_to_int_exact, distance_sequence, divisor_sandwich, liouville_fit)
from .errors import ConfigError, HypotorusError
from .formulas import FormulaError, TrigPolynomial, parse_formula
from .modes import (DivisorReport, ModeField, apply_mode, apply_operator, solve_field,
                    solve_mode)
from .spectrum import EigenSequence, HermiteBasis, build_eigensequence
from .torusfn import MeanDecomposition, TorusFunction, grid
from .witness import (GevreyBump, NoCertificate, WitnessBundle, L0_reduction_witness,
                      constant_witness, plateau_witness, sign_change_witness)

__version__ = "0.1.0"

# every name imported above
__all__ = ["__version__"] + sorted(
    name for name, obj in globals().items()
    if not (name.startswith("_") or isinstance(obj, types.ModuleType)))
