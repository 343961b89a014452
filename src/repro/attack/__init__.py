"""EmoLeak attack core.

The paper's contribution: from a zero-permission accelerometer trace
recorded while speech plays through a phone speaker, recover the
speaker's emotional state.

Pipeline stages (paper Section III-B):

1. :mod:`repro.attack.regions` — speech-region detection on the
   accelerometer stream (energy-spike thresholding; an 8 Hz high-pass is
   applied on the detection path only in the handheld setting).
2. :mod:`repro.attack.features` — the 24 time/frequency-domain features
   of Table II, extracted from each *unfiltered* region.
3. :mod:`repro.attack.specimages` — 32x32 log-spectrogram images of each
   region for the CNN image classifier.
4. :mod:`repro.attack.labeling` — label assignment from recorded
   playback times (Section IV-B1).
5. :mod:`repro.attack.models` — the paper's two CNN architectures.
6. :mod:`repro.attack.pipeline` — :class:`EmoLeakAttack`, the end-to-end
   orchestration, plus dataset-collection helpers.
7. :mod:`repro.attack.scenarios` — canonical evaluation scenarios
   (dataset x device x speaker mode x placement).
"""

from repro.attack.regions import RegionDetector, Region, detection_rate
from repro.attack.features import FEATURE_NAMES, TIME_FEATURES, FREQ_FEATURES, extract_features
from repro.attack.specimages import region_spectrogram_image
from repro.attack.labeling import label_regions
from repro.attack.models import build_spectrogram_cnn, build_feature_cnn
from repro.attack.engine import (
    CollectionCache,
    CollectionResult,
    collect_datasets,
    default_cache,
)
from repro.attack.pipeline import (
    EmoLeakAttack,
    FeatureDataset,
    SpectrogramDataset,
    collect_feature_dataset,
    collect_spectrogram_dataset,
)
from repro.attack.scenarios import Scenario, SCENARIOS, get_scenario
from repro.attack.spearphone import SpearphoneBaseline, collect_speaker_dataset
from repro.attack.augmentation import RegionAugmenter, augment_region, augmented_feature_dataset
from repro.attack.realtime import StreamingDetector, StreamingAttack, StreamedRegion
from repro.attack.defense import (
    Defense,
    RateLimitDefense,
    SensorDampingDefense,
    LowPassObfuscationDefense,
    NoiseInjectionDefense,
    QuantizationDefense,
    ComposedDefense,
    evaluate_defense,
)
from repro.attack.privacy_gate import (
    DefenseAxes,
    DefenseConfig,
    GateScorer,
    LeakageCell,
    LeakageReport,
    leakage_score,
)

__all__ = [
    "RegionDetector",
    "Region",
    "detection_rate",
    "FEATURE_NAMES",
    "TIME_FEATURES",
    "FREQ_FEATURES",
    "extract_features",
    "region_spectrogram_image",
    "label_regions",
    "build_spectrogram_cnn",
    "build_feature_cnn",
    "EmoLeakAttack",
    "FeatureDataset",
    "SpectrogramDataset",
    "CollectionCache",
    "CollectionResult",
    "collect_datasets",
    "collect_feature_dataset",
    "collect_spectrogram_dataset",
    "default_cache",
    "Scenario",
    "SCENARIOS",
    "get_scenario",
    "SpearphoneBaseline",
    "collect_speaker_dataset",
    "RegionAugmenter",
    "augment_region",
    "augmented_feature_dataset",
    "Defense",
    "RateLimitDefense",
    "SensorDampingDefense",
    "LowPassObfuscationDefense",
    "NoiseInjectionDefense",
    "QuantizationDefense",
    "ComposedDefense",
    "evaluate_defense",
    "DefenseAxes",
    "DefenseConfig",
    "GateScorer",
    "LeakageCell",
    "LeakageReport",
    "leakage_score",
    "StreamingDetector",
    "StreamingAttack",
    "StreamedRegion",
]
