"""gf2lab: exact spectra and proof-step verification for maps on GF(2^n).

The package computes difference distribution tables, Walsh/Fourier spectra,
nonlinearity, and classification flags for functions on binary fields, and
mechanically replays, step by step, the derivations that pin the
differential uniformity (4) and Walsh extremum (2^(2k+1)) of the power map
x^(2^(2k)+2^k+1) on GF(2^(4k)).
"""

import os

# gf2lab makes no BLAS call, yet numpy's OpenBLAS starts a worker thread at
# import that spins until exit, about 60 ms of CPU per process.  Set before
# the first import of numpy below; a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .field import (FieldSpec, FieldConstructionError, field_make,
                    default_poly, f_add, f_mul, f_pow, f_inv, frobenius,
                    trace_abs, trace_rel, solve_linearized)
from .spectra import (FunctionTable, DifferenceRow, WalshSpectrum,
                      SpectrumSummary, build_lut, lut_from_values,
                      differential_uniformity, ddt_rows, difference_row,
                      walsh_spectrum, walsh_row, power_delta, power_walsh_spectrum,
                      nonlinearity, classify)
from .catalog import (FamilySpec, CatalogEntry, PermutationCheck,
                      family_exponent, permutation_check, inverse_map,
                      catalog_table)
from .theorems import (VerificationError, ReductionTrace, MMWitness,
                       CheckReport, QuarticRoots, diff_solution_count,
                       reduction_trace, reduction_sweep, dobbertin_exponent,
                       mm_basis, all_gammas, mm_decomposition_check,
                       pi_fiber, pi_image, quartic_roots, quartic_check_all,
                       mm_walsh_crosscheck, mm_crosscheck_all, m4_sum_check,
                       run_all_checks)
from .lutio import LutParseError, read_lut, write_lut
from .report import AnalysisReport, report_to_json, TOOL_VERSION

__version__ = TOOL_VERSION
