"""Structural equation modeling for latent diffusions observed at high frequency.

The package covers the full loop of the selection benchmark: simulate a
factor-diffusion truth, compute the realized quadratic covariation, fit
candidate models by quasi-maximum likelihood, and compare them with the
quasi-Bayesian information criteria.
"""

from .diffsim import (OuBlock, PathBundle, Truth, load_truth, simulate_custom,
                      simulate_true_model)
from .errors import (AllStartsFailedError, HfsemError, NotPositiveDefiniteError,
                     RankDeficientError, SingularStructureError, SpecError)
from .harness import (ExperimentConfig, GapProbeResult, SelectionTable,
                      gap_growth_probe, render_table, run_experiment,
                      truth_sigma, write_outputs)
from .infocrit import (CriteriaRow, GammaZero, criteria_row, gamma_zero,
                       posterior_probs, select)
from .models import THETA1_TRUE, THETA2_TRUE, load_builtin, resolve_spec
from .qlik import QuadVar, quad_var
from .qmle import (FitReport, check_identifiability, fit_multistart,
                   limit_optimum)
from .semspec import SemSpec, moment_start, nested_embedding

__version__ = "0.1.0"
