"""gf2lab: exact spectra and proof-step verification for maps on GF(2^n).

The package computes difference distribution tables, Walsh/Fourier spectra,
nonlinearity, and classification flags for functions on binary fields, and
mechanically replays, step by step, the derivations that pin the
differential uniformity (4) and Walsh extremum (2^(2k+1)) of the power map
x^(2^(2k)+2^k+1) on GF(2^(4k)).  Its public names are each module's
``__all__``.
"""

import os

# gf2lab makes no BLAS call, yet numpy's OpenBLAS starts a worker thread at
# import that spins until exit, about 60 ms of CPU per process.  Set before
# the first import of numpy below; a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .field import *
from .spectra import *
from .catalog import *
from .theorems import *
from .lutio import *
from .report import *

__version__ = TOOL_VERSION
