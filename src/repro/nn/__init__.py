"""Neural-network substrate (numpy, from scratch).

Implements everything the paper's two Keras models need: 1-D and 2-D
convolutions (im2col/GEMM, one kernel per op), max pooling, batch normalisation,
dropout, dense layers, ReLU/softmax, categorical cross-entropy,
SGD-momentum and Adam optimisers, and a
:class:`~repro.nn.model.Sequential` container with a Keras-style ``fit``
that records per-epoch training/validation loss and accuracy (the
history behind the paper's Fig. 7 curves). :mod:`repro.nn.policy`
selects the compute dtype (float64 default / float32) for the whole
package. :mod:`repro.nn.quant` adds the
inference-only int8 path (post-training per-channel weight
quantisation, BatchNorm-folded fused forward) and
:mod:`repro.nn.distill` trains narrower students against teacher soft
logits for the distilled-int8 serving variant.
"""

from repro.nn.policy import (
    PrecisionPolicy,
    get_policy,
    set_policy,
    policy_scope,
    compute_dtype,
)
from repro.nn.initializers import he_normal, glorot_uniform
from repro.nn.activations import relu, softmax
from repro.nn.losses import CategoricalCrossEntropy
from repro.nn.layers import (
    Layer,
    Dense,
    Conv1D,
    Conv2D,
    MaxPool1D,
    MaxPool2D,
    Flatten,
    Dropout,
    BatchNorm,
    ReLU,
)
from repro.nn.optim import SGD, Adam
from repro.nn.model import Sequential, History
from repro.nn.callbacks import Callback, EarlyStopping, StepDecay
from repro.nn.quant import (
    quantize_weights,
    dequantize_weights,
    fuse_inference,
    quantize_model,
    quantize_adapter,
    QuantizedSequential,
    QuantizedCNNClassifier,
)
from repro.nn.distill import distill_feature_cnn, fit_soft_targets

__all__ = [
    "PrecisionPolicy",
    "get_policy",
    "set_policy",
    "policy_scope",
    "compute_dtype",
    "he_normal",
    "glorot_uniform",
    "relu",
    "softmax",
    "CategoricalCrossEntropy",
    "Layer",
    "Dense",
    "Conv1D",
    "Conv2D",
    "MaxPool1D",
    "MaxPool2D",
    "Flatten",
    "Dropout",
    "BatchNorm",
    "ReLU",
    "SGD",
    "Adam",
    "Sequential",
    "History",
    "Callback",
    "EarlyStopping",
    "StepDecay",
    "quantize_weights",
    "dequantize_weights",
    "fuse_inference",
    "quantize_model",
    "quantize_adapter",
    "QuantizedSequential",
    "QuantizedCNNClassifier",
    "distill_feature_cnn",
    "fit_soft_targets",
]
