"""CLI subcommands for the serving layer.

::

    python -m repro.cli bundle pack --scenario tess-loud-oneplus7t \
        --classifier logistic --cnn --out models/tess.zip --subsample 10
    python -m repro.cli bundle inspect models/tess.zip
    python -m repro.cli bundle quantize models/tess.zip \
        --out models/tess-int8.zip --version 1-int8
    python -m repro.cli bundle delta models/tess-int8.zip \
        --parent models/tess.zip --out models/tess-int8.delta.zip
    python -m repro.cli serve --bundle models/tess.zip --burst 64
    python -m repro.cli serve --bundle models/tess.zip \
        --bundle models/tess-int8.zip --canary tess@1-int8:0.25 --burst 64
    python -m repro.cli serve --bundle models/tess.zip \
        --stream-scenario tess-loud-oneplus7t
    python -m repro.cli serve --bundle models/tess.zip \
        --listen 127.0.0.1:7860 --tenant phones:200:50:2
    python -m repro.cli client --connect 127.0.0.1:7860 --tenant phones
    python -m repro.cli gate pack --out models/gate.zip --subsample 8
    python -m repro.cli gate score --bundle models/gate.zip \
        --rate-cap 125 --lowpass 1000 --noise 0 --lsb 0

``bundle pack`` trains the chosen pipeline on a scenario through the
collection engine and writes a versioned, hash-stamped artifact
(``--distill-width`` additionally distills the CNN into a narrower
student and packs that instead); ``bundle inspect`` verifies and prints
a manifest — variant kind, quantisation metadata and provenance lineage
included (``--parent`` supplies parent artifacts for delta bundles);
``bundle quantize`` derives an int8 variant from a packed bundle;
``bundle delta`` re-writes a bundle as a delta archive against a
parent; ``serve`` loads a bundle into a registry and either answers a
synthetic feature burst or streams a freshly recorded session
end-to-end through the
:class:`~repro.serve.stream.StreamServingClient`. With ``--listen`` it
instead exposes the server over TCP behind the multi-tenant
:class:`~repro.serve.frontend.ServingFrontend`; ``client`` talks to
such a front-end with the blocking
:class:`~repro.serve.frontend.FrontendClient`.

``gate pack`` runs the defense×attack grid
(:func:`repro.eval.defense_grid.run_defense_grid`) and packs the
resulting leakage report into a hash-stamped gate bundle; ``gate
score`` answers "how much does this sensor config leak?" — against a
live front-end with ``--connect``, or by loading ``--bundle`` into an
ephemeral loopback server so the answer goes through the same serving
stack either way.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]

#: Classifier kinds `bundle pack` accepts: the persistable subset of the
#: paper's table rows (LMT and the one-vs-rest wrapper have no JSON form).
PACKABLE_CLASSIFIERS = ("logistic", "random_forest", "random_subspace")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Model-bundle packaging and batched inference serving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pack = sub.add_parser("pack", help="train a pipeline and write a bundle")
    pack.add_argument("--scenario", required=True,
                      help="canonical scenario to train on")
    pack.add_argument("--classifier", default="logistic",
                      choices=PACKABLE_CLASSIFIERS,
                      help="feature classifier to pack (default: logistic)")
    pack.add_argument("--cnn", action="store_true",
                      help="also train + pack the feature CNN as the primary")
    pack.add_argument("--out", required=True,
                      help="bundle path (directory, or a .zip archive)")
    pack.add_argument("--name", default=None,
                      help="bundle name (default: the scenario name)")
    pack.add_argument("--version", default="1",
                      help="bundle version string (default: 1)")
    pack.add_argument("--subsample", type=int, default=20, metavar="N",
                      help="utterances per emotion class (default: 20)")
    pack.add_argument("--seed", type=int, default=0)
    pack.add_argument("--fast", action="store_true",
                      help="shrink the CNN for a quick pack")
    pack.add_argument("--n-jobs", type=int, default=1, metavar="N",
                      help="collection engine workers")
    pack.add_argument("--distill-width", type=float, default=None,
                      metavar="W",
                      help="with --cnn: distill the trained CNN into a "
                           "width-W student and pack the student instead")

    inspect = sub.add_parser("inspect",
                             help="verify a bundle and print its manifest")
    inspect.add_argument("path", help="bundle directory or .zip")
    inspect.add_argument("--parent", action="append", default=None,
                         metavar="PATH",
                         help="parent bundle artifact for delta "
                              "verification (repeatable)")

    quantize = sub.add_parser(
        "quantize", help="derive an int8 variant from a packed bundle")
    quantize.add_argument("path", help="source bundle directory or .zip")
    quantize.add_argument("--out", required=True,
                          help="output path for the quantised bundle")
    quantize.add_argument("--version", default=None,
                          help="version for the variant (default: "
                               "<source-version>-int8)")
    quantize.add_argument("--variant", default="int8",
                          choices=("int8", "distilled-int8"),
                          help="variant label to record (default: int8)")
    quantize.add_argument("--delta", action="store_true",
                          help="write a delta archive against the source "
                               "bundle instead of a full artifact")

    delta = sub.add_parser(
        "delta", help="re-write a bundle as a delta archive vs a parent")
    delta.add_argument("path", help="full bundle to convert")
    delta.add_argument("--parent", required=True,
                       help="parent bundle artifact the delta ships against")
    delta.add_argument("--out", required=True, help="delta archive path")

    serve = sub.add_parser("serve", help="serve a bundle (demo loop)")
    serve.add_argument("--bundle", required=True, action="append",
                       help="bundle to load (repeatable)")
    serve.add_argument("--burst", type=int, default=None, metavar="N",
                       help="answer N synthetic feature requests and exit")
    serve.add_argument("--stream-scenario", default=None, metavar="NAME",
                       help="record a session for NAME and serve its stream")
    serve.add_argument("--subsample", type=int, default=3, metavar="N",
                       help="utterances per class in the streamed session")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="expose the server over TCP (multi-tenant "
                            "front-end) instead of running a local demo")
    serve.add_argument("--tenant", action="append", default=None,
                       metavar="NAME:RATE[:BURST[:WEIGHT]]",
                       help="tenant admission contract (repeatable); "
                            "e.g. phones:200:50:2")
    serve.add_argument("--dispatch-rate", type=float, default=None,
                       metavar="RPS", help="pace dispatch into the batcher")
    serve.add_argument("--duration", type=float, default=None, metavar="S",
                       help="with --listen: stop after S seconds "
                            "(default: run until interrupted)")
    serve.add_argument("--canary", default=None,
                       metavar="NAME@VERSION:FRACTION",
                       help="route FRACTION of the default model's bare-name "
                            "traffic to a candidate version")
    serve.add_argument("--gate", default=None, metavar="PATH",
                       help="also load a privacy-gate bundle; the "
                            "front-end then answers `gate` ops")
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--linger-ms", type=float, default=2.0)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--metrics", action="store_true",
                       help="print serving metrics at exit")

    client = sub.add_parser("client",
                            help="send requests to a --listen front-end")
    client.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="front-end address")
    client.add_argument("--tenant", default="cli",
                        help="tenant to identify as (default: cli)")
    client.add_argument("--n", type=int, default=8, metavar="N",
                        help="number of synthetic requests (default: 8)")
    client.add_argument("--n-features", type=int, default=None, metavar="D",
                        help="feature vector width (default: the paper's "
                             "24-dim Table II schema)")
    client.add_argument("--lane", choices=("realtime", "backfill"),
                        default="realtime")
    client.add_argument("--binary", action="store_true",
                        help="ship features as binary tensor frames")
    client.add_argument("--model", default=None,
                        help="model ref to request (default: server default)")
    client.add_argument("--ping", action="store_true",
                        help="just check liveness and exit")
    client.add_argument("--seed", type=int, default=7)

    gate = sub.add_parser("gate", help="privacy-gate leakage scoring")
    gate_sub = gate.add_subparsers(dest="gate_command", required=True)

    gate_pack = gate_sub.add_parser(
        "pack", help="run the defense grid and pack a gate bundle")
    gate_pack.add_argument("--out", required=True,
                           help="gate bundle path (directory or .zip)")
    gate_pack.add_argument("--scenario", action="append", default=None,
                           metavar="NAME",
                           help="scenario per attacked task head "
                                "(repeatable; default: the emotion head "
                                "on tess-loud-oneplus7t)")
    gate_pack.add_argument("--rate-cap", type=float, action="append",
                           default=None, metavar="HZ",
                           help="sampling-rate cap axis value (repeatable; "
                                "default: 1000 200)")
    gate_pack.add_argument("--lowpass", type=float, action="append",
                           default=None, metavar="HZ",
                           help="low-pass cutoff axis value (repeatable; "
                                "default: 1000 20)")
    gate_pack.add_argument("--noise", type=float, action="append",
                           default=None, metavar="RMS",
                           help="injected-noise RMS axis value (repeatable; "
                                "default: 0)")
    gate_pack.add_argument("--lsb", type=float, action="append",
                           default=None, metavar="LSB",
                           help="quantisation step axis value (repeatable; "
                                "default: 0)")
    gate_pack.add_argument("--classifier", action="append", default=None,
                           choices=("logistic", "random_forest"),
                           help="attacker classifiers (repeatable; "
                                "default: both)")
    gate_pack.add_argument("--mode", action="append", default=None,
                           choices=("static", "adaptive"),
                           help="attacker modes (repeatable; default: both)")
    gate_pack.add_argument("--name", default="privacy-gate")
    gate_pack.add_argument("--version", default="1")
    gate_pack.add_argument("--subsample", type=int, default=12, metavar="N",
                           help="utterances per class (default: 12)")
    gate_pack.add_argument("--seed", type=int, default=0)
    gate_pack.add_argument("--noise-seed", type=int, default=0)
    gate_pack.add_argument("--n-jobs", type=int, default=1, metavar="N")

    gate_score = gate_sub.add_parser(
        "score", help="score a sensor config against a packed gate")
    source = gate_score.add_mutually_exclusive_group(required=True)
    source.add_argument("--bundle", default=None,
                        help="gate bundle to serve over an ephemeral "
                             "loopback front-end")
    source.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="live front-end already serving a gate")
    gate_score.add_argument("--rate-cap", type=float, required=True,
                            metavar="HZ", help="sampling-rate cap to score")
    gate_score.add_argument("--lowpass", type=float, required=True,
                            metavar="HZ", help="low-pass cutoff to score")
    gate_score.add_argument("--noise", type=float, default=0.0,
                            metavar="RMS", help="injected-noise RMS")
    gate_score.add_argument("--lsb", type=float, default=0.0,
                            metavar="LSB", help="quantisation step")
    gate_score.add_argument("--task", default=None,
                            help="attacked task head (default: the grid's "
                                 "first swept task)")
    gate_score.add_argument("--mode", default="adaptive",
                            choices=("static", "adaptive"))
    gate_score.add_argument("--tenant", default="cli")
    return parser


def _cmd_pack(args) -> int:
    from repro.eval.experiment import (
        collect_scenario_datasets,
        make_classifier,
    )
    from repro.ml.preprocessing import clean_features
    from repro.serve.bundle import ModelBundle, save_bundle

    bundle_data = collect_scenario_datasets(
        args.scenario, subsample=args.subsample, seed=args.seed,
        n_jobs=args.n_jobs,
    )
    X, y, _ = clean_features(bundle_data.features.X, bundle_data.features.y)
    print(f"collected : {X.shape[0]} feature vectors from {args.scenario}")
    classifier = make_classifier(args.classifier, seed=args.seed, fast=True)
    classifier.fit(X, y)
    print(f"trained   : {args.classifier} "
          f"(train accuracy {classifier.score(X, y):.2%})")
    cnn = None
    if args.cnn:
        cnn = make_classifier("cnn", seed=args.seed, fast=True)
        if args.fast:
            cnn.epochs = min(cnn.epochs, 10)
        cnn.fit(X, y)
        print(f"trained   : feature CNN "
              f"(train accuracy {cnn.score(X, y):.2%})")
        if args.distill_width is not None:
            from repro.nn.distill import distill_feature_cnn

            student = distill_feature_cnn(
                cnn, X, y, width_scale=args.distill_width
            )
            print(f"distilled : width {args.distill_width:g} student "
                  f"(train accuracy {student.score(X, y):.2%})")
            cnn = student
    elif args.distill_width is not None:
        raise SystemExit("--distill-width requires --cnn")
    bundle = ModelBundle.create(
        name=args.name or args.scenario,
        version=args.version,
        classifier=classifier,
        cnn=cnn,
        provenance={
            "scenario": args.scenario,
            "subsample": args.subsample,
            "seed": args.seed,
            "classifier": args.classifier,
            "cnn": bool(args.cnn),
            "n_rows": int(X.shape[0]),
            **(
                {"distill_width": float(args.distill_width)}
                if args.distill_width is not None
                else {}
            ),
        },
    )
    manifest = save_bundle(bundle, args.out)
    print(f"packed    : {manifest.ref} -> {args.out}")
    _print_members(manifest)
    return 0


def _print_members(manifest, suffix: str = "") -> None:
    """One line per member: name, byte count and sha256 prefix."""
    for member, meta in sorted(manifest.members.items()):
        print(f"  {member:<18} {meta['bytes']:>9} B  sha256 "
              f"{str(meta['sha256'])[:16]}…{suffix}")


def _parent_resolver_from_paths(paths):
    """ref -> path resolver over explicitly supplied parent artifacts."""
    from repro.serve.bundle import read_manifest

    table = {read_manifest(path).ref: path for path in paths or ()}

    def resolve(ref: str):
        if ref not in table:
            raise KeyError(
                f"parent {ref} not among --parent artifacts "
                f"({sorted(table) or 'none given'})"
            )
        return table[ref]

    return resolve


def _print_lineage(manifest) -> None:
    """One line per provenance link, nearest ancestor first."""
    links = manifest.lineage()
    if not links:
        return
    print("lineage   :")
    for link in links:
        role = (
            "delta base"
            if manifest.delta_base and link == dict(manifest.delta_base)
            else "parent"
        )
        pin = str(link.get("manifest_sha256", ""))
        pin_text = f"  manifest sha256 {pin[:16]}…" if pin else ""
        print(f"  {role:<10} {link.get('ref')}{pin_text}")


def _cmd_inspect(args) -> int:
    from repro.serve.bundle import verify_bundle

    resolver = (
        _parent_resolver_from_paths(args.parent) if args.parent else None
    )
    manifest, members = verify_bundle(args.path, parent_resolver=resolver)
    print(f"bundle    : {manifest.ref} (format v{manifest.format_version})")
    print(f"variant   : {manifest.variant}"
          + (" (delta archive)" if manifest.delta_base else ""))
    print(f"labels    : {', '.join(str(x) for x in manifest.labels)}")
    print(f"features  : {len(manifest.feature_schema)} "
          f"({', '.join(manifest.feature_schema[:4])}, …)")
    if manifest.nn_policy:
        print(f"nn policy : {manifest.nn_policy}")
    if manifest.provenance:
        print(f"provenance: {manifest.provenance}")
    if manifest.quantization:
        quant = manifest.quantization
        print(f"quantised : {quant.get('scheme')} "
              f"(weights {quant.get('weight_dtype')}, "
              f"scales {quant.get('scale_dtype')}, qmax {quant.get('qmax')})")
        for layer in quant.get("layers", []):
            print(f"  layer {layer.get('layer'):>2} "
                  f"{str(layer.get('type')):<18} "
                  f"{str(layer.get('weight_shape')):<18} "
                  f"{layer.get('channels'):>4} ch  scales "
                  f"[{layer.get('scale_min'):.3g}, "
                  f"{layer.get('scale_max'):.3g}] "
                  f"mean {layer.get('scale_mean'):.3g}")
    _print_lineage(manifest)
    print("members   :")
    _print_members(manifest, "  [verified]")
    return 0


def _cmd_quantize(args) -> int:
    from repro.serve.bundle import (
        BundleError,
        delta_members,
        load_bundle,
        quantize_bundle,
        save_bundle,
        save_delta_bundle,
    )

    source = load_bundle(args.path)
    version = args.version or f"{source.manifest.version}-{args.variant}"
    try:
        derived = quantize_bundle(source, version=version, variant=args.variant)
    except BundleError as exc:
        print(f"CANNOT QUANTISE: {exc}", file=sys.stderr)
        return 1
    if args.delta:
        manifest = save_delta_bundle(derived, args.out, source.manifest)
        shipped = delta_members(manifest, source.manifest)
        print(f"quantised : {manifest.ref} [{manifest.variant}] -> {args.out} "
              f"(delta vs {source.manifest.ref}: ships "
              f"{len(shipped)}/{len(manifest.members)} members)")
    else:
        manifest = save_bundle(derived, args.out)
        print(f"quantised : {manifest.ref} [{manifest.variant}] -> {args.out}")
    for layer in manifest.quantization.get("layers", []):
        print(f"  layer {layer.get('layer'):>2} "
              f"{str(layer.get('type')):<18} {layer.get('channels'):>4} ch")
    return 0


def _cmd_delta(args) -> int:
    from repro.serve.bundle import (
        BundleError,
        delta_members,
        load_bundle,
        save_delta_bundle,
        verify_bundle,
    )

    parent_manifest, _ = verify_bundle(args.parent)
    bundle = load_bundle(args.path)
    try:
        manifest = save_delta_bundle(bundle, args.out, parent_manifest)
    except BundleError as exc:
        print(f"CANNOT DELTA: {exc}", file=sys.stderr)
        return 1
    shipped = len(delta_members(manifest, parent_manifest))
    print(f"delta     : {manifest.ref} -> {args.out} "
          f"(vs {parent_manifest.ref}: ships {shipped}/"
          f"{len(manifest.members)} members)")
    return 0


def _print_serve_metrics() -> None:
    from repro.obs import metrics

    print("\n--- serving metrics ---")
    print(metrics().render_table())


def _parse_canary(spec: str) -> tuple:
    """Parse ``NAME@VERSION:FRACTION`` into its parts."""
    ref, sep, fraction_text = spec.rpartition(":")
    if not sep or "@" not in ref:
        raise SystemExit(f"expected NAME@VERSION:FRACTION, got {spec!r}")
    name, _, version = ref.partition("@")
    try:
        fraction = float(fraction_text)
    except ValueError:
        raise SystemExit(
            f"canary fraction must be a number, got {fraction_text!r}"
        ) from None
    return name, version, fraction


def _parse_hostport(spec: str) -> tuple:
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


def _parse_tenants(specs):
    from repro.serve.admission import TenantConfig

    tenants = []
    for spec in specs or ():
        parts = spec.split(":")
        if not 2 <= len(parts) <= 4:
            raise SystemExit(
                f"expected NAME:RATE[:BURST[:WEIGHT]], got {spec!r}"
            )
        name, rate = parts[0], float(parts[1])
        burst = float(parts[2]) if len(parts) > 2 else max(1.0, rate)
        weight = float(parts[3]) if len(parts) > 3 else 1.0
        tenants.append(
            TenantConfig(name, rate=rate, burst=burst, weight=weight)
        )
    return tenants


def _serve_listen(args, server) -> None:
    import time as _time

    from repro.serve.frontend import ServingFrontend

    host, port = _parse_hostport(args.listen)
    frontend = ServingFrontend(
        server,
        host=host,
        port=port,
        tenants=_parse_tenants(args.tenant),
        dispatch_rate=args.dispatch_rate,
    )
    with frontend:
        print(f"listening : {frontend.host}:{frontend.port} "
              f"(ctrl-C drains and exits)")
        try:
            if args.duration is not None:
                _time.sleep(args.duration)
            else:
                while True:
                    _time.sleep(3600)
        except KeyboardInterrupt:
            print("\ndraining  : answering admitted requests…")
    print(f"frontend  : {frontend.accepted} accepted, "
          f"{frontend.answered} answered, {frontend.shed} shed")


def _cmd_serve(args) -> int:
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import InferenceServer, serve_burst

    registry = ModelRegistry()
    default_ref: Optional[str] = None
    for path in args.bundle:
        name, version = registry.register(path)
        print(f"registered: {name}@{version} from {path}")
        # The FIRST bundle serves bare-name traffic; later ones are
        # rollout candidates (register() flips the default to the
        # newest registration, so pin it back below).
        if default_ref is None:
            default_ref = f"{name}@{version}"
    gate = None
    if args.gate:
        from repro.attack.privacy_gate import GateScorer
        from repro.serve.bundle import load_gate_bundle

        gate_manifest, gate_report = load_gate_bundle(args.gate)
        gate = GateScorer(gate_report)
        print(f"gate      : {gate_manifest.ref} "
              f"(tasks: {', '.join(gate_report.tasks)})")
    server = InferenceServer(
        registry,
        model=default_ref,
        max_batch=args.max_batch,
        max_linger_s=args.linger_ms / 1e3,
        gate=gate,
    )
    if default_ref is not None:
        name, _, version = default_ref.partition("@")
        registry.set_default(name, version)
        # Bare-name submissions are what canary routing splits.
        server.default_model = name
    with server:
        if args.canary:
            name, version, fraction = _parse_canary(args.canary)
            server.set_canary(name, version, fraction)
            print(f"canary    : {fraction:.0%} of {name} -> {name}@{version}")
        if args.listen:
            _serve_listen(args, server)
        elif args.stream_scenario:
            _serve_stream(args, server)
        else:
            n = args.burst or 32
            rng = np.random.default_rng(args.seed)
            bundle = registry.get(default_ref)
            rows = rng.normal(size=(n, bundle.n_features))
            results = serve_burst(server, rows)
            ok = sum(1 for r in results if r.ok)
            print(f"burst     : {ok}/{n} ok, "
                  f"mean latency "
                  f"{1e3 * float(np.mean([r.latency_s for r in results])):.1f} ms")
        print(f"server    : {server.requests_answered} answered in "
              f"{server.batches_run} batches")
    if args.metrics:
        _print_serve_metrics()
    return 0


def _serve_stream(args, server) -> None:
    from repro.attack.realtime import StreamingDetector
    from repro.attack.scenarios import get_scenario
    from repro.datasets import build_corpus
    from repro.phone.recording import record_session
    from repro.serve.stream import StreamServingClient

    scenario = get_scenario(args.stream_scenario)
    corpus = build_corpus(scenario.dataset).subsample(
        per_class=args.subsample, seed=args.seed
    )
    channel = scenario.channel(seed=args.seed)
    session = record_session(corpus, channel, specs=corpus.specs, seed=args.seed)
    client = StreamServingClient(
        server,
        StreamingDetector(fs=session.fs, threshold_factor=3.0),
    )
    for start in range(0, session.trace.size, 4096):
        client.process(session.trace[start : start + 4096])
    client.finish()
    results = client.results()
    correct = labelled = 0
    for region, _, result in results:
        truth = session.label_at(0.5 * (region.start_s + region.end_s))
        if truth is None or not result.ok:
            continue
        labelled += 1
        correct += int(result.label == truth)
    print(f"stream    : {len(results)} regions served; "
          f"{correct}/{labelled} labelled regions correct")


def _cmd_client(args) -> int:
    from repro.serve.frontend import FrontendClient

    host, port = _parse_hostport(args.connect)
    with FrontendClient(host, port, tenant=args.tenant) as client:
        pong = client.ping()
        if pong.get("op") != "pong":
            print(f"unexpected ping reply: {pong}", file=sys.stderr)
            return 1
        if args.ping:
            print(f"pong      : {host}:{port} is live")
            return 0
        if args.n_features is None:
            from repro.attack.features import FEATURE_NAMES

            width = len(FEATURE_NAMES)
        else:
            width = args.n_features
        rng = np.random.default_rng(args.seed)
        ok = shed = err = 0
        latencies: List[float] = []
        for _ in range(args.n):
            reply = client.predict(
                rng.normal(size=width),
                lane=args.lane,
                model=args.model,
                binary=args.binary,
            )
            status = reply.get("status")
            if status == "ok":
                ok += 1
                latencies.append(float(reply.get("latency_s", 0.0)))
            elif status == "shed":
                shed += 1
                print(f"shed      : reason={reply.get('reason')} "
                      f"retry_after_s={reply.get('retry_after_s')}")
            else:
                err += 1
                print(f"error     : {reply.get('error')}", file=sys.stderr)
        mean_ms = 1e3 * float(np.mean(latencies)) if latencies else 0.0
        print(f"client    : {ok} ok, {shed} shed, {err} error "
              f"(tenant={args.tenant}, lane={args.lane}, "
              f"mean server latency {mean_ms:.1f} ms)")
        return 0 if err == 0 else 1


def _cmd_gate_pack(args) -> int:
    from repro.attack.privacy_gate import DefenseAxes
    from repro.eval.defense_grid import run_defense_grid
    from repro.serve.bundle import save_gate_bundle

    axes = DefenseAxes(
        rate_caps_hz=tuple(args.rate_cap) if args.rate_cap else (1000.0, 200.0),
        lowpass_hz=tuple(args.lowpass) if args.lowpass else (1000.0, 20.0),
        noise_rms=tuple(args.noise) if args.noise else (0.0,),
        quant_lsb=tuple(args.lsb) if args.lsb else (0.0,),
    )
    scenarios = tuple(args.scenario) if args.scenario else None
    report = run_defense_grid(
        scenarios=scenarios,
        axes=axes,
        modes=tuple(args.mode) if args.mode else ("static", "adaptive"),
        classifiers=(
            tuple(args.classifier)
            if args.classifier
            else ("logistic", "random_forest")
        ),
        subsample=args.subsample,
        seed=args.seed,
        noise_seed=args.noise_seed,
        n_jobs=args.n_jobs,
    )
    n_cells = len(report.cells)
    n_degraded = len(report.degraded_cells())
    frontier = report.safe_frontier()
    print(f"grid      : {n_cells} cells over {len(list(axes.configs()))} "
          f"configs x {len(report.tasks)} tasks "
          f"({n_degraded} degraded)")
    print(f"frontier  : {[c.name for c in frontier] or 'EMPTY'}")
    manifest = save_gate_bundle(
        report, args.out, name=args.name, version=args.version
    )
    print(f"packed    : {manifest.ref} -> {args.out}")
    _print_members(manifest)
    return 0


def _print_gate_reply(reply) -> int:
    status = reply.get("status")
    if status == "refused":
        print(f"REFUSED   : {reply.get('error')}")
        return 2
    if status != "ok":
        print(f"error     : {reply.get('error')}", file=sys.stderr)
        return 1
    config = reply.get("config", {})
    print(f"config    : cap {config.get('rate_cap_hz'):g} Hz, "
          f"lpf {config.get('lowpass_hz'):g} Hz, "
          f"noise {config.get('noise_rms'):g}, "
          f"lsb {config.get('quant_lsb'):g}")
    print(f"attacker  : {reply.get('task')} head, {reply.get('mode')} mode")
    print(f"accuracy  : {reply.get('accuracy'):.3f} "
          f"(chance {reply.get('chance'):.3f}, "
          f"margin {reply.get('margin'):+.3f})")
    kind = "swept cell" if reply.get("exact") else (
        f"interpolated over {reply.get('n_corners')} corners")
    print(f"leakage   : {reply.get('leakage'):.3f}  [{kind}]")
    return 0


def _cmd_gate_score(args) -> int:
    from repro.serve.frontend import FrontendClient

    def ask(client: FrontendClient) -> int:
        reply = client.gate_score(
            rate_cap_hz=args.rate_cap,
            lowpass_hz=args.lowpass,
            noise_rms=args.noise,
            quant_lsb=args.lsb,
            task=args.task,
            mode=args.mode,
        )
        return _print_gate_reply(reply)

    if args.connect:
        host, port = _parse_hostport(args.connect)
        with FrontendClient(host, port, tenant=args.tenant) as client:
            return ask(client)

    # Local bundle: verify + load it, then answer through the same
    # serving stack a live deployment uses (ephemeral loopback).
    from repro.attack.privacy_gate import GateScorer
    from repro.serve.bundle import load_gate_bundle
    from repro.serve.frontend import ServingFrontend
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import InferenceServer

    manifest, report = load_gate_bundle(args.bundle)
    print(f"gate      : {manifest.ref} "
          f"(tasks: {', '.join(report.tasks)})")
    server = InferenceServer(ModelRegistry(), gate=GateScorer(report))
    with server:
        frontend = ServingFrontend(server, host="127.0.0.1", port=0)
        with frontend:
            with FrontendClient(
                frontend.host, frontend.port, tenant=args.tenant
            ) as client:
                return ask(client)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Accept `repro bundle pack …`, `repro serve …`, `repro client …`
    # and `repro gate …` spellings: the dispatcher in repro.cli
    # forwards the whole tail.
    if argv and argv[0] == "bundle":
        argv = argv[1:]
    elif argv and argv[0] in ("serve", "client", "gate"):
        argv = [argv[0]] + argv[1:]
    args = build_parser().parse_args(argv)
    from repro.serve.bundle import BundleError

    try:
        if args.command == "pack":
            return _cmd_pack(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "quantize":
            return _cmd_quantize(args)
        if args.command == "delta":
            return _cmd_delta(args)
        if args.command == "client":
            return _cmd_client(args)
        if args.command == "gate":
            if args.gate_command == "pack":
                return _cmd_gate_pack(args)
            return _cmd_gate_score(args)
        return _cmd_serve(args)
    except BundleError as exc:  # an artifact failed verification or parsing
        print(f"REJECTED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
