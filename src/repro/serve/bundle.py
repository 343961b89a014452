"""Versioned, integrity-checked model bundles.

A *bundle* is the deployable artifact of the train-offline /
deploy-online threat model (EmoLeak §IV): everything the online side of
the attack needs to answer prediction requests, packaged as a directory
or a single ``.zip``:

- ``manifest.json`` — bundle format version, name@version, provenance
  (corpus/scenario/seed), the served label map, the Table II feature
  schema, the :mod:`repro.nn.policy` the CNN was trained under, and a
  SHA-256 hash of every other member;
- ``classifier.json`` — optional feature classifier, any
  :mod:`repro.ml.persistence` kind (the CNN's degrade target);
- ``scaler.json`` — optional :class:`~repro.ml.preprocessing.StandardScaler`
  applied to feature-vector inputs before the *feature classifier*
  (the CNN adapters embed their own scaler);
- ``cnn.json`` + ``cnn_weights.npz`` — optional CNN adapter
  (:class:`~repro.eval.experiment.FeatureCNNClassifier` or
  :class:`~repro.eval.experiment.SpectrogramCNNClassifier`), weights
  written by :meth:`repro.nn.model.Sequential.save_weights` as a nested
  :mod:`repro.artifact` archive.

The container is :mod:`repro.artifact`: every save is atomic, so one
that dies midway leaves the previous bundle loadable, and ``load_bundle``
verifies *every* member hash before parsing a single byte of model data
— a tampered or truncated bundle is rejected with
:class:`BundleIntegrityError` and never instantiates a model. Unknown
format versions and classifier kinds are rejected just as loudly
(:class:`BundleFormatError`).

Bundles come in *variants* (``float32`` — the default float pipeline,
``int8`` — the same CNN post-training-quantised via
:mod:`repro.nn.quant`, ``distilled-int8`` — a distilled student CNN,
quantised). Non-float variants carry their quantisation metadata
(per-layer scale summaries) and a ``parent`` provenance pointer — the
ref and manifest SHA-256 of the bundle they were derived from — in the
manifest. :func:`quantize_bundle` derives an int8 variant from a loaded
float bundle; :func:`save_delta_bundle` writes a *delta* archive that
ships only the members that changed against a parent bundle (the
manifest still lists the full member set with hashes, so
:func:`verify_bundle` proves integrity of the merged bundle — parent
bytes included — against the child manifest before anything is parsed).
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.artifact import (
    ArtifactError,
    ArtifactIntegrityError,
    encode_manifest,
    member_table,
    open_artifact,
    sha256,
    verify_members,
    write_artifact,
)
from repro.attack.features import FEATURE_NAMES
from repro.ml.persistence import (
    classifier_from_dict,
    classifier_to_dict,
    scaler_from_dict,
    scaler_to_dict,
)
from repro.ml.preprocessing import StandardScaler
from repro.nn.policy import get_policy, policy_scope

__all__ = [
    "BUNDLE_FORMAT_VERSION",
    "BUNDLE_VARIANTS",
    "BundleError",
    "BundleFormatError",
    "BundleIntegrityError",
    "BundleManifest",
    "ModelBundle",
    "save_bundle",
    "load_bundle",
    "verify_bundle",
    "manifest_sha256",
    "quantize_bundle",
    "read_manifest",
    "save_delta_bundle",
    "delta_members",
    "GATE_KIND",
    "save_gate_bundle",
    "load_gate_bundle",
]

#: Current on-disk bundle layout version. Readers refuse anything else.
BUNDLE_FORMAT_VERSION = 1

#: Known bundle variants. ``float32`` is the historical default and is
#: left implicit in manifests written before (and after) this field
#: existed, so float bundles stay byte-identical.
BUNDLE_VARIANTS = ("float32", "int8", "distilled-int8")

#: Longest delta-bundle parent chain a reader will follow.
DELTA_CHAIN_LIMIT = 8

CLASSIFIER_MEMBER = "classifier.json"
SCALER_MEMBER = "scaler.json"
CNN_CONFIG_MEMBER = "cnn.json"
CNN_WEIGHTS_MEMBER = "cnn_weights.npz"
GATE_MEMBER = "gate.json"

#: provenance["kind"] marking a privacy-gate bundle (a serialized
#: LeakageReport instead of a predictor).
GATE_KIND = "privacy-gate"

_PathLike = Union[str, Path]


#: Bundle packaging/loading failures are the artifact container's errors.
BundleError = ArtifactError
#: A member is missing, undeclared, truncated, or fails its SHA-256 check.
BundleIntegrityError = ArtifactIntegrityError


class BundleFormatError(BundleError):
    """The bundle's declared format (version, member set, kind) is unknown."""


@dataclass
class BundleManifest:
    """The bundle's self-description (the ``manifest.json`` member)."""

    name: str
    version: str
    labels: List[str]
    format_version: int = BUNDLE_FORMAT_VERSION
    feature_schema: List[str] = field(default_factory=lambda: list(FEATURE_NAMES))
    provenance: Dict[str, object] = field(default_factory=dict)
    nn_policy: Dict[str, str] = field(default_factory=dict)
    created_unix: float = 0.0
    members: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Bundle variant; "float32" (the implicit default) is not emitted,
    #: so pre-variant manifests round-trip byte-identically.
    variant: str = "float32"
    #: Quantisation metadata (scheme, qmax, per-layer scale summary).
    quantization: Dict[str, object] = field(default_factory=dict)
    #: Provenance pointer to the bundle this one was derived from:
    #: ``{"ref": ..., "manifest_sha256": ...}``.
    parent: Dict[str, object] = field(default_factory=dict)
    #: Present only on delta archives: the parent whose member bytes
    #: complete this bundle, pinned by its manifest hash.
    delta_base: Dict[str, object] = field(default_factory=dict)

    @property
    def ref(self) -> str:
        """The bundle's registry address, ``name@version``."""
        return f"{self.name}@{self.version}"

    def lineage(self) -> List[Dict[str, object]]:
        """The provenance chain recorded in this manifest, nearest first."""
        out: List[Dict[str, object]] = []
        if self.parent:
            out.append(dict(self.parent))
        if self.delta_base and self.delta_base != self.parent:
            out.append(dict(self.delta_base))
        return out

    def stamp(self, members: Dict[str, Dict[str, object]]) -> dict:
        """Record the members table as written; returns :meth:`to_dict`."""
        self.members = members
        return self.to_dict()

    def to_dict(self) -> dict:
        payload = {
            "format_version": self.format_version,
            "name": self.name,
            "version": self.version,
            "labels": list(self.labels),
            "feature_schema": list(self.feature_schema),
            "provenance": dict(self.provenance),
            "nn_policy": dict(self.nn_policy),
            "created_unix": self.created_unix,
            "members": {k: dict(v) for k, v in self.members.items()},
        }
        # Variant fields are emitted only when non-default so float32
        # manifests (and their golden fixtures) stay byte-identical.
        if self.variant != "float32":
            payload["variant"] = self.variant
        if self.quantization:
            payload["quantization"] = dict(self.quantization)
        if self.parent:
            payload["parent"] = dict(self.parent)
        if self.delta_base:
            payload["delta_base"] = dict(self.delta_base)
        return payload

    @classmethod
    def from_dict(cls, payload: dict, source: str) -> "BundleManifest":
        try:
            format_version = int(payload["format_version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise BundleFormatError(
                f"{source}: manifest has no readable format_version"
            ) from exc
        if format_version != BUNDLE_FORMAT_VERSION:
            raise BundleFormatError(
                f"{source}: unsupported bundle format version "
                f"{format_version} (this reader supports "
                f"{BUNDLE_FORMAT_VERSION})"
            )
        try:
            return cls(
                name=str(payload["name"]),
                version=str(payload["version"]),
                labels=list(payload["labels"]),
                format_version=format_version,
                feature_schema=list(payload.get("feature_schema", FEATURE_NAMES)),
                provenance=dict(payload.get("provenance", {})),
                nn_policy=dict(payload.get("nn_policy", {})),
                created_unix=float(payload.get("created_unix", 0.0)),
                members={
                    str(k): dict(v)
                    for k, v in dict(payload.get("members", {})).items()
                },
                variant=str(payload.get("variant", "float32")),
                quantization=dict(payload.get("quantization", {})),
                parent=dict(payload.get("parent", {})),
                delta_base=dict(payload.get("delta_base", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BundleFormatError(f"{source}: malformed manifest: {exc}") from exc


# -- CNN adapter (de)serialisation ------------------------------------------

#: kind tag -> (adapter class path resolved lazily, builder name)
_CNN_KINDS = (
    "feature_cnn",
    "spectrogram_cnn",
    "quantized_feature_cnn",
    "quantized_spectrogram_cnn",
)


def _cnn_adapter_classes():
    from repro.eval.experiment import FeatureCNNClassifier, SpectrogramCNNClassifier

    return {
        "feature_cnn": FeatureCNNClassifier,
        "spectrogram_cnn": SpectrogramCNNClassifier,
    }


def _cnn_kind_of(adapter) -> str:
    from repro.nn.quant import QuantizedCNNClassifier

    if isinstance(adapter, QuantizedCNNClassifier):
        return f"quantized_{adapter.base_kind}"
    classes = _cnn_adapter_classes()
    for kind, cls in classes.items():
        if isinstance(adapter, cls):
            return kind
    raise TypeError(
        f"cannot package {type(adapter).__name__} as a bundle CNN; "
        f"supported: {sorted(c.__name__ for c in classes.values())} "
        "and QuantizedCNNClassifier"
    )


def _quantized_cnn_to_members(adapter) -> Tuple[dict, bytes]:
    from repro.nn.quant import quantized_model_to_members

    model_config, weights = quantized_model_to_members(adapter.qmodel)
    config = {
        "kind": f"quantized_{adapter.base_kind}",
        "classes": np.asarray(adapter.classes_).tolist(),
        "model": model_config,
    }
    if adapter.base_kind == "feature_cnn":
        config["scaler"] = scaler_to_dict(adapter._scaler)
    return config, weights


def _quantized_cnn_from_members(config: dict, weights: bytes, source: str):
    from repro.nn.quant import (
        QuantizedCNNClassifier,
        quantized_model_from_members,
    )

    base_kind = str(config["kind"]).removeprefix("quantized_")
    try:
        qmodel = quantized_model_from_members(
            dict(config["model"]), weights, source=source
        )
    except (KeyError, ValueError) as exc:
        raise BundleFormatError(
            f"{source}: bad quantised CNN members: {exc}"
        ) from exc
    scaler = (
        scaler_from_dict(config["scaler"]) if base_kind == "feature_cnn" else None
    )
    return QuantizedCNNClassifier(
        qmodel,
        classes=np.asarray(config["classes"]),
        base_kind=base_kind,
        scaler=scaler,
    )


def _cnn_to_members(adapter) -> Tuple[dict, bytes]:
    """Serialise a fitted CNN adapter to (config dict, weights-npz bytes)."""
    kind = _cnn_kind_of(adapter)
    if kind.startswith("quantized_"):
        return _quantized_cnn_to_members(adapter)
    adapter._check_fitted()
    model = adapter._model
    config = {
        "kind": kind,
        "classes": np.asarray(adapter.classes_).tolist(),
        "width_scale": adapter.width_scale,
        "seed": adapter.seed,
        "input_shape": list(model.input_shape_),
        "policy": {"compute_dtype": str(get_policy().compute_dtype)},
    }
    if kind == "feature_cnn":
        config["scaler"] = scaler_to_dict(adapter._scaler)
    buffer = io.BytesIO()
    model.save_weights(buffer)
    return config, buffer.getvalue()


def _cnn_from_members(config: dict, weights: bytes, source: str):
    """Rebuild a CNN adapter from its bundle members."""
    kind = config.get("kind")
    if kind in ("quantized_feature_cnn", "quantized_spectrogram_cnn"):
        return _quantized_cnn_from_members(config, weights, source)
    classes = _cnn_adapter_classes()
    if kind not in classes:
        raise BundleFormatError(
            f"{source}: unknown CNN kind {kind!r}; supported: {_CNN_KINDS}"
        )
    from repro.attack.models import build_feature_cnn, build_spectrogram_cnn

    adapter = classes[kind](
        width_scale=float(config["width_scale"]), seed=int(config["seed"])
    )
    adapter.classes_ = np.asarray(config["classes"])
    input_shape = tuple(int(d) for d in config["input_shape"])
    policy = dict(config.get("policy", {}))
    builder = build_feature_cnn if kind == "feature_cnn" else build_spectrogram_cnn
    with policy_scope(compute_dtype=policy.get("compute_dtype")):
        model = builder(
            adapter.classes_.size,
            width_scale=adapter.width_scale,
            seed=adapter.seed,
        )
        model.build(input_shape)
    buffer = io.BytesIO(weights)
    buffer.name = f"{source}:{CNN_WEIGHTS_MEMBER}"
    model.load_weights(buffer)
    adapter._model = model
    if kind == "feature_cnn":
        adapter._scaler = scaler_from_dict(config["scaler"])
    return adapter


@dataclass
class ModelBundle:
    """A loaded (or about-to-be-saved) inference pipeline.

    ``cnn`` is the primary predictor when present; ``classifier`` is the
    degrade target (or the primary when no CNN is packed). ``scaler``,
    when present, is applied to feature-vector inputs before the feature
    classifier only — the CNN adapters carry their own scaler.
    """

    manifest: BundleManifest
    classifier: Optional[object] = None
    cnn: Optional[object] = None
    scaler: Optional[StandardScaler] = None

    @classmethod
    def create(
        cls,
        name: str,
        version: str,
        classifier=None,
        cnn=None,
        scaler: Optional[StandardScaler] = None,
        provenance: Optional[dict] = None,
        feature_schema=FEATURE_NAMES,
    ) -> "ModelBundle":
        """Assemble a bundle from fitted parts, validating consistency."""
        if classifier is None and cnn is None:
            raise BundleError("a bundle needs a classifier, a CNN, or both")
        labels: Optional[np.ndarray] = None
        for part in (cnn, classifier):
            if part is None:
                continue
            part_classes = getattr(part, "classes_", None)
            if part_classes is None:
                raise BundleError(
                    f"{type(part).__name__} is not fitted (no classes_)"
                )
            if labels is None:
                labels = np.asarray(part_classes)
            elif not np.array_equal(labels, np.asarray(part_classes)):
                raise BundleError(
                    "CNN and fallback classifier disagree on the label map: "
                    f"{np.asarray(part_classes).tolist()} vs {labels.tolist()}"
                )
        manifest = BundleManifest(
            name=str(name),
            version=str(version),
            labels=np.asarray(labels).tolist(),
            feature_schema=list(feature_schema),
            provenance=dict(provenance or {}),
            nn_policy={"compute_dtype": str(get_policy().compute_dtype)},
            created_unix=time.time(),
        )
        return cls(manifest=manifest, classifier=classifier, cnn=cnn, scaler=scaler)

    # -- prediction ---------------------------------------------------------
    @property
    def labels(self) -> np.ndarray:
        return np.asarray(self.manifest.labels)

    @property
    def n_features(self) -> int:
        return len(self.manifest.feature_schema)

    def predictors(self) -> List[Tuple[str, object]]:
        """(role, predictor) pairs in degrade order: primary first."""
        out: List[Tuple[str, object]] = []
        if self.cnn is not None:
            out.append(("cnn", self.cnn))
        if self.classifier is not None:
            out.append(("classifier", self.classifier))
        return out

    def _classifier_input(self, X: np.ndarray) -> np.ndarray:
        return self.scaler.transform(X) if self.scaler is not None else X

    def predict_proba_with(self, role: str, X: np.ndarray) -> np.ndarray:
        """Probabilities from one named predictor (``cnn``/``classifier``)."""
        X = np.asarray(X, dtype=float)
        if role == "cnn":
            if self.cnn is None:
                raise BundleError(f"bundle {self.manifest.ref} packs no CNN")
            return self.cnn.predict_proba(X)
        if role == "classifier":
            if self.classifier is None:
                raise BundleError(
                    f"bundle {self.manifest.ref} packs no feature classifier"
                )
            return self.classifier.predict_proba(self._classifier_input(X))
        raise ValueError(f"unknown predictor role {role!r}")

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Primary predictor's probabilities, degrading to the fallback.

        The server does its own per-request degrade accounting; this is
        the convenience path for offline use.
        """
        roles = self.predictors()
        if not roles:
            raise BundleError("bundle packs no predictor")
        last_exc: Optional[Exception] = None
        for role, _ in roles:
            try:
                return self.predict_proba_with(role, X)
            except Exception as exc:  # noqa: BLE001 - degrade on any model fault
                last_exc = exc
        raise last_exc

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.labels[np.argmax(proba, axis=1)]


# -- member I/O --------------------------------------------------------------


def _parse_member(members: Dict[str, bytes], name: str, source: str, parse=lambda x: x):
    """``parse`` of a verified JSON member, None if absent; failures name it."""
    if name not in members:
        return None
    try:
        return parse(json.loads(members[name]))
    except (ValueError, KeyError, TypeError) as exc:  # JSON and decode errors are ValueErrors
        raise BundleFormatError(f"{source}: bad {name}: {exc}") from exc


def _bundle_members(bundle: ModelBundle) -> Dict[str, bytes]:
    """Serialise every non-manifest member to bytes; refuse an empty bundle."""
    members: Dict[str, bytes] = {}
    if bundle.classifier is not None:
        members[CLASSIFIER_MEMBER] = json.dumps(
            classifier_to_dict(bundle.classifier)
        ).encode()
    if bundle.scaler is not None:
        members[SCALER_MEMBER] = json.dumps(
            scaler_to_dict(bundle.scaler)
        ).encode()
    if bundle.cnn is not None:
        config, weights = _cnn_to_members(bundle.cnn)
        members[CNN_CONFIG_MEMBER] = json.dumps(config).encode()
        members[CNN_WEIGHTS_MEMBER] = weights
    if not members:
        raise BundleError("refusing to save an empty bundle (no predictors)")
    return members


def manifest_sha256(manifest: BundleManifest) -> str:
    """SHA-256 of the manifest's canonical bytes (the provenance pin).

    Equals the hash of the ``manifest.json`` written by
    :func:`save_bundle` for the same (stamped) manifest, so a parent
    pointer recorded at derivation time can be checked against the
    parent artifact on disk at load time.
    """
    return sha256(encode_manifest(manifest.to_dict()))


def save_bundle(bundle: ModelBundle, path: _PathLike) -> BundleManifest:
    """Write a bundle to ``path`` (a directory, or a ``.zip`` archive).

    The manifest is (re)stamped with the SHA-256 of every member as
    written, so a later :func:`load_bundle` can prove integrity. The
    save is atomic (:func:`repro.artifact.write_artifact`). Returns the
    stamped manifest.
    """
    members = _bundle_members(bundle)
    # A full save is self-contained: never carry a delta pin over from a
    # bundle that was loaded through a delta chain.
    bundle.manifest.delta_base = {}
    write_artifact(path, members, bundle.manifest.stamp)
    return bundle.manifest


def save_delta_bundle(
    bundle: ModelBundle, path: _PathLike, parent: BundleManifest
) -> BundleManifest:
    """Write a *delta* archive shipping only members changed vs ``parent``.

    The child manifest still declares the **full** member set with
    hashes; the archive body contains just the members whose bytes
    differ from (or do not exist in) the parent, plus a ``delta_base``
    pointer pinning the parent by ref and manifest SHA-256. A reader
    needs the parent artifact (via ``parent_resolver``) to materialise
    the bundle, and every byte — parent-sourced or shipped — is verified
    against the child manifest before parsing.
    """
    if not parent.members:
        raise BundleError(
            f"parent manifest {parent.ref} has no stamped member hashes; "
            "save or load the parent bundle first"
        )
    members = _bundle_members(bundle)
    bundle.manifest.members = member_table(members)
    bundle.manifest.delta_base = {
        "ref": parent.ref,
        "manifest_sha256": manifest_sha256(parent),
    }
    changed = {name: members[name] for name in delta_members(bundle.manifest, parent)}
    write_artifact(path, changed, lambda _shipped: bundle.manifest.to_dict())
    return bundle.manifest


def delta_members(manifest: BundleManifest, parent: BundleManifest) -> List[str]:
    """Members of ``manifest`` whose hash differs from (or is absent in) ``parent``.

    These are the members a delta archive against ``parent`` ships.
    """
    return sorted(
        name
        for name, meta in manifest.members.items()
        if str(parent.members.get(name, {}).get("sha256")) != meta["sha256"]
    )


def quantize_bundle(
    bundle: ModelBundle,
    version: str,
    variant: str = "int8",
    name: Optional[str] = None,
) -> ModelBundle:
    """Derive an ``int8``/``distilled-int8`` variant from a float bundle.

    The CNN is fused (BatchNorm folded) and weight-quantised via
    :mod:`repro.nn.quant`; the fallback classifier and scaler are
    carried over unchanged. The new manifest records the variant, the
    per-layer quantisation summary, and a ``parent`` provenance pointer
    to ``bundle`` (pinned by manifest hash when the source manifest has
    stamped members).
    """
    from repro.nn.quant import QMAX, quantize_adapter

    if variant not in ("int8", "distilled-int8"):
        raise BundleError(
            f"unknown quantised variant {variant!r}; "
            f"expected one of {BUNDLE_VARIANTS[1:]}"
        )
    if bundle.cnn is None:
        raise BundleError(
            f"bundle {bundle.manifest.ref} packs no CNN to quantise"
        )
    quantized = quantize_adapter(bundle.cnn)
    derived = ModelBundle.create(
        name=name if name is not None else bundle.manifest.name,
        version=version,
        classifier=bundle.classifier,
        cnn=quantized,
        scaler=bundle.scaler,
        provenance=dict(bundle.manifest.provenance),
        feature_schema=list(bundle.manifest.feature_schema),
    )
    derived.manifest.variant = variant
    derived.manifest.quantization = {
        "scheme": "symmetric-per-output-channel",
        "qmax": QMAX,
        "weight_dtype": "int8",
        "scale_dtype": "float32",
        "layers": quantized.quantization_summary(),
    }
    parent_pointer: Dict[str, object] = {"ref": bundle.manifest.ref}
    if bundle.manifest.members:
        parent_pointer["manifest_sha256"] = manifest_sha256(bundle.manifest)
    derived.manifest.parent = parent_pointer
    return derived


def save_gate_bundle(
    report,
    path: _PathLike,
    name: str = "privacy-gate",
    version: str = "1",
    provenance: Optional[dict] = None,
) -> BundleManifest:
    """Pack a :class:`~repro.attack.privacy_gate.LeakageReport` into a
    versioned, integrity-checked gate bundle (directory or ``.zip``).

    Gate bundles reuse the model-bundle container — same manifest, same
    member hashing, same :func:`verify_bundle` — but pack a single
    ``gate.json`` member (the serialized leakage grid) instead of a
    predictor, and are marked ``provenance["kind"] == "privacy-gate"``.
    ``labels`` carries the grid's task list.
    """
    payload = report.to_payload() if hasattr(report, "to_payload") else dict(report)
    data = json.dumps(payload, indent=2, sort_keys=True).encode()
    merged_provenance = {
        "kind": GATE_KIND,
        "schema": payload.get("schema"),
        "scenarios": dict(payload.get("scenarios", {})),
        "seed": payload.get("seed"),
        "subsample": payload.get("subsample"),
    }
    merged_provenance.update(provenance or {})
    manifest = BundleManifest(
        name=str(name),
        version=str(version),
        labels=[str(t) for t in payload.get("tasks", [])],
        feature_schema=[],
        provenance=merged_provenance,
        created_unix=time.time(),
    )
    write_artifact(path, {GATE_MEMBER: data}, manifest.stamp)
    return manifest


def load_gate_bundle(path: _PathLike):
    """Load a gate bundle; returns ``(manifest, LeakageReport)``.

    Every member hash is verified (:func:`verify_bundle`) before the
    gate payload is parsed — a tampered gate bundle is rejected with
    :class:`BundleIntegrityError` without interpreting a byte of it.
    Model bundles are rejected with :class:`BundleFormatError` (use
    :func:`load_bundle`), as is a gate payload with an unknown schema.
    """
    from repro.attack.privacy_gate import LeakageReport

    manifest, members = verify_bundle(path)
    source = str(path)
    kind = manifest.provenance.get("kind")
    if kind != GATE_KIND:
        raise BundleFormatError(
            f"{source}: not a privacy-gate bundle "
            f"(provenance kind {kind!r}); use load_bundle for model bundles"
        )
    report = _parse_member(members, GATE_MEMBER, source, LeakageReport.from_payload)
    if report is None:
        raise BundleFormatError(f"{source}: gate bundle packs no {GATE_MEMBER}")
    return manifest, report


def read_manifest(path: _PathLike) -> BundleManifest:
    """The manifest of a bundle artifact, WITHOUT integrity verification.

    For introspection only (e.g. learning a delta parent's ref before
    resolution); never parse model members based on this alone.
    """
    payload, _, _ = open_artifact(path)
    return BundleManifest.from_dict(payload, source=str(path))


def _verify(
    path: Path,
    parent_resolver: Optional[Callable[[str], _PathLike]],
    depth: int,
) -> Tuple[BundleManifest, Dict[str, bytes], bytes]:
    """Core verification; returns the raw manifest bytes as well."""
    payload, manifest_bytes, members = open_artifact(path)
    manifest = BundleManifest.from_dict(payload, source=str(path))
    if manifest.delta_base:
        if depth >= DELTA_CHAIN_LIMIT:
            raise BundleFormatError(
                f"{path}: delta-bundle parent chain exceeds "
                f"{DELTA_CHAIN_LIMIT} links"
            )
        ref = str(manifest.delta_base.get("ref", ""))
        expected_parent_sha = str(manifest.delta_base.get("manifest_sha256", ""))
        if not ref or not expected_parent_sha:
            raise BundleFormatError(
                f"{path}: delta_base must carry both 'ref' and "
                "'manifest_sha256'"
            )
        if parent_resolver is None:
            raise BundleIntegrityError(
                f"{path}: delta bundle needs parent {ref} but no "
                "parent_resolver was given (register the parent first, or "
                "pass parent_resolver=)"
            )
        try:
            parent_path = Path(parent_resolver(ref))
        except Exception as exc:
            raise BundleIntegrityError(
                f"{path}: cannot resolve delta parent {ref}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        _, parent_members, parent_manifest_bytes = _verify(
            parent_path, parent_resolver, depth + 1
        )
        parent_sha = sha256(parent_manifest_bytes)
        if parent_sha != expected_parent_sha:
            raise BundleIntegrityError(
                f"{path}: delta parent {ref} manifest hash mismatch "
                f"(sha256 {parent_sha[:12]}… != pinned "
                f"{expected_parent_sha[:12]}…); the parent artifact is not "
                "the one this delta was built against"
            )
        # Complete the member set from the (verified) parent — only the
        # members the child manifest declares, so a delta can also drop
        # members. The hash check below still runs against the CHILD
        # manifest: parent bytes get no trust carried over.
        for name in manifest.members:
            if name not in members and name in parent_members:
                members[name] = parent_members[name]
    verify_members(path, manifest.members, members)
    return manifest, members, manifest_bytes


def verify_bundle(
    path: _PathLike,
    parent_resolver: Optional[Callable[[str], _PathLike]] = None,
) -> Tuple[BundleManifest, Dict[str, bytes]]:
    """Read a bundle and prove member integrity; parse no model data.

    Returns ``(manifest, member_bytes)`` once *every* hash checks out.
    Raises :class:`BundleFormatError` for unknown format versions and
    :class:`BundleIntegrityError` for missing, extra, truncated or
    tampered members — before any model byte is interpreted.

    For *delta* bundles, ``parent_resolver(ref)`` must return the
    artifact path of the parent bundle; the parent (itself possibly a
    delta) is verified recursively, its manifest hash is checked against
    the child's ``delta_base`` pin, and the merged member set is then
    verified member-by-member against the child manifest — parent bytes
    get no trust carried over.
    """
    manifest, members, _ = _verify(Path(path), parent_resolver, depth=0)
    return manifest, members


def load_bundle(
    path: _PathLike,
    parent_resolver: Optional[Callable[[str], _PathLike]] = None,
) -> ModelBundle:
    """Load and integrity-check a bundle written by :func:`save_bundle`.

    Hashes are verified for every member before any model is
    instantiated; unknown classifier kinds or CNN kinds are rejected
    with an error naming the bundle. ``parent_resolver`` is required to
    materialise delta bundles (see :func:`verify_bundle`).
    """
    manifest, members = verify_bundle(path, parent_resolver=parent_resolver)
    source = str(path)
    classifier = _parse_member(members, CLASSIFIER_MEMBER, source, classifier_from_dict)
    scaler = _parse_member(members, SCALER_MEMBER, source, scaler_from_dict)
    cnn = None
    if CNN_CONFIG_MEMBER in members or CNN_WEIGHTS_MEMBER in members:
        if not (CNN_CONFIG_MEMBER in members and CNN_WEIGHTS_MEMBER in members):
            raise BundleFormatError(
                f"{source}: CNN members must come as a pair "
                f"({CNN_CONFIG_MEMBER} + {CNN_WEIGHTS_MEMBER})"
            )
        config = _parse_member(members, CNN_CONFIG_MEMBER, source)
        cnn = _cnn_from_members(config, members[CNN_WEIGHTS_MEMBER], source)
    if classifier is None and cnn is None:
        raise BundleFormatError(f"{source}: bundle packs no predictor")
    return ModelBundle(manifest=manifest, classifier=classifier, cnn=cnn,
                       scaler=scaler)
