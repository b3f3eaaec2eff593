"""Desk-scale mixture-of-diverse-size-experts laboratory."""

import os
import sys

__version__ = "0.1.0"

# a run's bits depend on the BLAS thread count, so it defaults to one thread, not to
# whatever the machine offers; set before numpy loads its BLAS, and an explicit setting wins.
# A process that loaded numpy first keeps the count its BLAS read then, and the manifest says so.
NUMPY_LOADED_FIRST = "numpy" in sys.modules
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

from .tensor import Tensor  # noqa: E402,F401
from .model import ModelConfig  # noqa: E402,F401
from .optim import OptimizerConfig  # noqa: E402,F401
from .moe import PairedExpertSpec, build_paired_spec, homogeneous_spec  # noqa: E402,F401
