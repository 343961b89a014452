"""Batched data plane: the utterance-batch container and its policy.

The collection pipeline's batched stages (see
:meth:`repro.speech.synthesizer.Synthesizer.render_batch`,
:meth:`repro.phone.channel.VibrationChannel.transmit_batch`,
:meth:`repro.attack.regions.RegionDetector.detect_batch`,
:func:`repro.attack.features.extract_features_batch`,
:func:`repro.dsp.spectrogram.spectrogram_image_batch`) all operate on
stacked utterances under the contract defined here: zero-padded
:class:`UtteranceBatch` containers whose valid prefixes are bitwise
authoritative, and a process-wide :class:`BatchPolicy` whose ``float64``
default keeps every batched stage byte-identical to the one-utterance
scalar reference.
"""

from repro.batch.container import UtteranceBatch
from repro.batch.policy import (
    BATCH_DTYPES,
    BatchPolicy,
    batch_dtype,
    batch_policy_scope,
    get_batch_policy,
    set_batch_policy,
)

__all__ = [
    "UtteranceBatch",
    "BATCH_DTYPES",
    "BatchPolicy",
    "batch_dtype",
    "batch_policy_scope",
    "get_batch_policy",
    "set_batch_policy",
]
