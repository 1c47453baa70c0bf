"""Latent hypernet over small convnets for wearable-sensor activity data.

Pipeline: segment multichannel recordings into temporal windows, train a
small 2D convnet, project every max-pooling layer's feature maps into a
low-dimensional latent space with supervised partial least squares,
concatenate those latent features, and classify with a fresh fully
connected + softmax head; the network's weights are never modified.

LHN_THREADS, when set, caps the BLAS thread pool on any import of the
package: it is the default of OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS, and one of those already set wins. Submodules are imported
on demand (``from latenthypernet import lhn``), so the cap is in place
before numpy loads unless the caller imported numpy first.
"""

import os

from .errors import LhnError

if os.environ.get("LHN_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["LHN_THREADS"])

__version__ = "0.1.0"

__all__ = ["LhnError", "__version__"]
