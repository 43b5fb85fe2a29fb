"""Selective state-space OCR at desk scale.

A numpy-backed library implementing a Mamba encoder-decoder for text-line
recognition with CTC, autoregressive, and non-autoregressive heads, plus
the measurement harness that contrasts its constant-size inference state
with the growing key-value cache of a causal-attention decoder.

SSMOCR_THREADS (default 1) fills the BLAS/OpenMP thread variables not
already set, before any submodule imports numpy: BLAS sizes its pool then.
"""

import os as _os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    _os.environ.setdefault(_var, _os.environ.get("SSMOCR_THREADS", "1"))

from .config import RunConfig, load_config
from .metrics import cer, edit_distance, wer
from .model import OcrModel, build_model
from .rover import rover_combine
from .ssm import BiMambaConnector, MambaBlock, RecurrentState, selective_scan
from .synth import AugmentSpec, GlyphSet, SynthConfig, augment, make_dataset, render_line
from .tensor import Tensor
from .vocab import Vocabulary

__version__ = "0.1.0"

__all__ = [
    "AugmentSpec", "BiMambaConnector", "GlyphSet", "MambaBlock", "OcrModel",
    "RecurrentState", "RunConfig", "SynthConfig", "Tensor", "Vocabulary",
    "augment", "build_model", "cer", "edit_distance", "load_config",
    "make_dataset", "render_line", "rover_combine", "selective_scan", "wer",
]
