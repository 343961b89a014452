"""``serve-features`` and ``serve-windows``: the attack service under TCP load.

Set-up collects a small TESS corpus, trains a feature CNN on its Table
II features, packs it as bundle ``feat@1`` (float32) and derives
``feat@2`` with ``quantize_bundle`` (int8). Both are registered in a
``ModelRegistry`` behind an ``InferenceServer`` and a ``ServingFrontend``
on a loopback port. The load generator (``loadgen.py``) is a separate
process with one asyncio loop and at most ``nproc`` connections.

- ``serve-features``: each request is one feature vector (JSON frame);
  half are pinned to ``feat@1`` and half to ``feat@2``.
- ``serve-windows``: each request is one raw accelerometer region window
  (binary tensor frame) for ``feat@1``; the server extracts its features
  in the batcher before the model.

After one untimed second, a run keeps OUTSTANDING requests in flight
(closed loop) in chunks with a speed probe between them (see
``harness``); throughput and the latency percentiles, each request timed
from when it was sent, come from this loop in reference seconds. The
open loop, Poisson arrivals at the workload's fixed OPEN_RATE with each
request timed from when it was due, runs only in the traced run: over
runs of one commit its latency moved far more than the closed loop's.
Output check:
every answered label equals ``ModelBundle.predict`` of the same row on
the same bundle, computed in set-up. Sheds, errors, timeouts and wrong
labels all count as misses.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

from harness import (
    Outcome,
    ProbedClock,
    SpeedProbe,
    median,
    peak_rss_mb,
    percentile,
    timed_setups,
)
from spans import Recorder, layer_table

WORDS_PER_EMOTION = 10  # 140 utterances
#: The served rows and the model are fixed; ``--seed`` picks the request
#: order and the arrival times. Rows from other collections differ in
#: window length and so in extraction cost.
CORPUS_SEED = 1
WINDOW_EVERY = 3  # windows come from every 3rd utterance
FEATURE_CNN = {"epochs": 10, "width_scale": 0.5}
OUTSTANDING = 128
#: Fixed open-loop arrival rates of the traced run (requests per reference
#: second, see ``harness``), about a third of the closed-loop throughput
#: measured when the benchmark was defined. Never recalibrated.
OPEN_RATE = {"serve-features": 700.0, "serve-windows": 300.0}
WARM_S = 1.0  # untimed closed load between set-up and measurement
CHUNK_S = 1.0  # closed-phase chunk, wall seconds; a speed probe runs between chunks
OPEN_CHUNK_S = 2.0  # open-phase chunk, reference seconds
#: p99 is taken over each block of this many consecutive requests (ten
#: samples beyond it per block) and reported as the median over blocks,
#: so one stalled second of a shared machine does not set it alone.
P99_BLOCK = 1000
WARM_REQUESTS = 256
HERE = os.path.dirname(os.path.abspath(__file__))


class LoadGenerator:
    """The ``loadgen.py`` process, driven over its stdin/stdout."""

    def __init__(self, src, cpu):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "loadgen.py"), src],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self._reply()

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("load generator exited")
        return json.loads(line)

    def send(self, **cmd):
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._reply()


    def stop(self):
        if self.proc.poll() is None:
            try:
                self.send(cmd="exit")
            except (RuntimeError, BrokenPipeError, ValueError):
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class PairedProbe(SpeedProbe):
    """Probes the server's CPU and the generator's CPU at the same moment.

    Both sides set the serve figures, and the speed of the two CPUs of a
    shared machine can differ, so a probe reads the mean of the two.
    """

    def __init__(self, gen):
        super().__init__()
        self.gen = gen

    def measure(self):
        self.gen.proc.stdin.write(json.dumps({"cmd": "probe"}) + "\n")
        self.gen.proc.stdin.flush()
        local = self.run()
        probe_s = 0.5 * (local + self.gen._reply()["probe_s"])
        self.samples.append(probe_s)
        return probe_s


def _train():
    """Collect the corpus and fit the feature CNN the bundles pack."""
    from repro.attack.engine import collect_datasets
    from repro.datasets import build_tess
    from repro.eval.experiment import FeatureCNNClassifier
    from repro.ml.preprocessing import clean_features
    from repro.phone import VibrationChannel

    corpus = build_tess(words_per_emotion=WORDS_PER_EMOTION, seed=1)
    channel = VibrationChannel("oneplus7t", mode="loudspeaker", placement="table_top")
    collected = collect_datasets(corpus, channel, seed=CORPUS_SEED, executor="serial")
    X, y, _ = clean_features(collected.features.X, collected.features.y)
    cnn = FeatureCNNClassifier(seed=CORPUS_SEED, **FEATURE_CNN).fit(X, y)
    return corpus, channel, X, cnn


class Service:
    """One workload's server stack plus its load generator process."""

    def __init__(self, seed, workload, workdir, inject_fault=False, gen_cpu=None):
        self.seed, self.workload, self.workdir = seed, workload, workdir
        self.inject_fault = inject_fault
        self.gen = LoadGenerator(os.path.join(os.path.dirname(HERE), "src"), gen_cpu)
        self.conns = max(1, min(2, os.cpu_count() or 1))
        self.state = None
        self._setups = 0
        self._phases = 0

    def setup_steps(self):
        """Set-up as timed steps: train, pack, then serve and connect."""
        return [self._fit, self._pack, self._serve]

    def _fit(self):
        self.teardown()
        self._setups += 1
        self._trained = _train()

    def _pack(self):
        """Pack and register the bundles; write the requests and their answers."""
        from repro.attack.engine import iter_region_samples
        from repro.attack.features import extract_features
        from repro.serve import ModelBundle, ModelRegistry, quantize_bundle, save_bundle

        corpus, channel, X, cnn = self._trained
        bundle_dir = os.path.join(self.workdir, f"bundles-{self._setups}")
        float_bundle = ModelBundle.create("feat", "1", cnn=cnn)
        save_bundle(float_bundle, os.path.join(bundle_dir, "feat-1"))
        save_bundle(
            quantize_bundle(float_bundle, "2", variant="int8"),
            os.path.join(bundle_dir, "feat-2"),
        )
        registry = ModelRegistry()
        registry.register(os.path.join(bundle_dir, "feat-1"))
        registry.register(os.path.join(bundle_dir, "feat-2"))
        labels = registry.get("feat@1").labels
        fs = float(channel.accel_fs)
        if self.workload == "serve-windows":
            rows = [
                region.slice(signal)
                for _, region, signal in iter_region_samples(
                    corpus, channel, specs=corpus.specs[::WINDOW_EVERY], seed=CORPUS_SEED
                )
            ]
            features = np.vstack([np.nan_to_num(extract_features(w, fs), nan=0.0) for w in rows])
            models = ["feat@1"] * len(rows)
            expected = registry.get("feat@1").predict(features)
        else:
            rows = list(X) + list(X)
            models = ["feat@1"] * len(X) + ["feat@2"] * len(X)
            expected = np.concatenate([
                registry.get("feat@1").predict(X), registry.get("feat@2").predict(X)
            ])
        self.expected = np.searchsorted(labels, expected)
        if self.inject_fault:
            self.expected[0] = (self.expected[0] + 1) % labels.size
        self._registry = registry
        self._requests = path = os.path.join(bundle_dir, "requests.npz")
        np.savez(
            path,
            kind="window" if self.workload == "serve-windows" else "features",
            fs=fs, models=np.array(models), labels=labels,
            payload=np.concatenate(rows),
            offsets=np.cumsum([0] + [len(r) for r in rows]),
        )

    def _serve(self):
        """Start the server and frontend; connect and warm the generator."""
        from repro.serve import InferenceServer, ServingFrontend, TenantConfig

        server = InferenceServer(
            self._registry, model="feat@1", max_batch=32, max_linger_s=0.002,
            max_queue=1024, default_timeout_s=10.0,
        ).start()
        self.state = server, None
        frontend = ServingFrontend(
            server,
            default_tenant=TenantConfig("default", burst=1e6, max_backlog=4096),
        ).start()
        self.state = server, frontend
        self.gen.send(cmd="connect", port=frontend.port, requests=self._requests,
                      conns=self.conns, warm=WARM_REQUESTS)
        return self

    def teardown(self):
        if self.state is None:
            return
        server, frontend = self.state
        self.state = None
        if self.gen.proc.poll() is None:
            self.gen.send(cmd="close")
        if frontend is not None:
            frontend.stop()
        server.stop()

    @property
    def frontend(self):
        return self.state[1]

    def phase(self, kind, seconds, **params):
        """Run one closed or open phase; returns its per-request arrays."""
        self._phases += 1
        out = os.path.join(self.workdir, f"phase-{self._phases}.npz")
        self.gen.send(cmd=kind, seconds=seconds, seed=self.seed * 64 + self._phases,
                      out=out, **params)
        with np.load(out) as data:
            return {key: data[key] for key in data.files}

    def close(self):
        try:
            self.teardown()
        finally:
            self.gen.stop()


def run(seed, seconds, trace, workdir, workload, inject_fault=False, gen_cpu=None):
    service = Service(seed, workload, workdir, inject_fault, gen_cpu)
    clock = ProbedClock(PairedProbe(service.gen))
    try:
        _, setup_s, setup_wall_s = timed_setups(service.setup_steps, clock)
        expected = service.expected
        # The first seconds of load after set-up ran slower than the rest
        # (up to three times on serve-windows), so one is run and left out.
        service.phase("closed", WARM_S, outstanding=OUTSTANDING)
        if not trace:
            closed = _closed(service, clock, seconds)
            outcome = _outcome(setup_s, closed, expected)
            outcome.samples["wall.setup_s"] = [round(w, 4) for w in setup_wall_s]
            outcome.samples["probe_s"] = [round(p, 5) for p in clock.probe.samples]
            return outcome
        plain = _closed(service, clock, seconds / 4)
        recorder = Recorder()
        _install(recorder)
        shed0, accepted0 = service.frontend.shed, service.frontend.accepted
        try:
            closed = _closed(service, clock, seconds / 4)
            opened = _open(service, clock, seconds / 2)
        finally:
            recorder.unwrap_all()
        outcome = _outcome(setup_s, closed, expected, others=plain + opened)
        _layers(outcome, recorder, plain, closed, opened, expected,
                service.frontend.shed - shed0, service.frontend.accepted - accepted0)
        return outcome
    finally:
        service.close()


def _closed(service, clock, seconds):
    """The closed phase in CHUNK_S chunks, each one clock section."""
    chunks = []
    for _ in range(max(1, round(seconds / CHUNK_S))):
        with clock.section():
            chunk = service.phase("closed", CHUNK_S, outstanding=OUTSTANDING)
        chunk["factor"] = clock.last_factor
        chunks.append(chunk)
    return chunks


def _open(service, clock, seconds):
    """The open phase in chunks of OPEN_CHUNK_S reference seconds.

    Arrivals are fixed in reference time; each chunk runs them at the
    speed the probe before it measured, so the load on the server is the
    same share of its capacity however fast the machine is right now.
    """
    chunks = []
    for _ in range(max(1, round(seconds / OPEN_CHUNK_S))):
        speed = clock.speed()
        with clock.section():
            chunk = service.phase(
                "open", OPEN_CHUNK_S, rate=OPEN_RATE[service.workload], speed=speed
            )
        chunk["factor"] = clock.last_factor
        chunks.append(chunk)
    return chunks


def _good(phase, expected):
    return (phase["status"] == 0) & (phase["label"] == expected[phase["idx"]])


def _wrong(phase, expected):
    """Answered requests whose label differs from the in-process prediction."""
    return int(np.sum((phase["status"] == 0) & (phase["label"] != expected[phase["idx"]])))


def _per_second(chunks, expected):
    """Correct answers per reference second in each chunk."""
    return [_rate([chunk], expected) for chunk in chunks]


def _rate(chunks, expected):
    """Correct answers per reference second over the chunks."""
    good = sum(int(np.sum(_good(chunk, expected))) for chunk in chunks)
    return good / sum(float(chunk["elapsed"]) * chunk["factor"] for chunk in chunks)


def _latencies_ms(chunks, expected, start, scaled):
    """Per-request latency in milliseconds, in order of ``start``; misses are inf.

    ``start`` is ``"sent"`` (closed loop) or ``"due"`` (open loop, which
    counts the wait a stall imposes on later arrivals). ``scaled`` gives
    reference milliseconds, else wall milliseconds.
    """
    out = []
    for chunk in chunks:
        order = np.argsort(chunk[start])
        done, begun = chunk["done"][order], chunk[start][order]
        good = _good(chunk, expected)[order]
        factor = chunk["factor"] if scaled else 1.0
        out.append(1e3 * factor * np.where(good, done - begun, np.inf))
    return np.concatenate(out)


def _percentiles(latency):
    """Median, and the median over blocks of P99_BLOCK requests of their p99."""
    blocks = [
        latency[i:i + P99_BLOCK] for i in range(0, latency.size - P99_BLOCK + 1, P99_BLOCK)
    ] or [latency]
    return median(latency.tolist()), median([percentile(b.tolist(), 99) for b in blocks])


def _outcome(setup_s, closed, expected, others=()):
    """End-to-end metrics of the closed-phase chunks; ``others`` only add attempts."""
    chunks = list(closed) + list(others)
    closed_per_s = _per_second(closed, expected)
    latency = _latencies_ms(closed, expected, "sent", scaled=True)
    p50, p99 = _percentiles(latency)
    attempted = sum(chunk["idx"].size for chunk in chunks)
    good = sum(int(np.sum(_good(chunk, expected))) for chunk in chunks)
    return Outcome(
        metrics={
            "setup_s": setup_s,
            "throughput_per_s": _rate(closed, expected),
            "latency_p50_ms": p50,
            "latency_p99_ms": p99,
            "ok_frac": good / attempted,
            "peak_rss_mb": peak_rss_mb(),
        },
        attempted=attempted,
        failed=attempted - good,
        wrong=sum(_wrong(chunk, expected) for chunk in chunks),
        samples={
            "latency.samples": int(latency.size),
            "closed_per_s": [round(x, 1) for x in closed_per_s],
            "closed_wall_per_s": [
                round(float(np.sum(_good(c, expected))) / float(c["elapsed"]), 1)
                for c in closed
            ],
        },
    )


def _layers(outcome, recorder, plain, closed, opened, expected, shed, accepted):
    table, _, _ = layer_table(recorder.spans)
    n_requests = sum(chunk["idx"].size for chunk in closed + opened)
    traced_wall = sum(float(chunk["elapsed"]) for chunk in closed + opened)

    def busy(name):
        return 1e3 * table.get(name, {"busy_s": 0.0})["busy_s"] / n_requests

    def calls(name):
        return table.get(name, {"calls": 0})["calls"] / n_requests

    layers = {}
    for name in (
        "serve.protocol.encode", "serve.protocol.decode", "serve.extract_features",
        "serve.bundle.predict.float32", "serve.bundle.predict.int8",
        "nn.QuantizedConv1D.forward", "nn.QuantizedDense.forward",
    ):
        layers[f"{name}.busy_ms"] = busy(name)
        layers[f"{name}.calls"] = calls(name)
    turnaround = [end - start for _, name, start, end, *_ in recorder.spans
                  if name == "serve.server.turnaround"]
    rows = [attrs["rows"] for _, name, *_, attrs in recorder.spans
            if name.startswith("serve.bundle.predict.")]
    top = ("serve.protocol.encode", "serve.protocol.decode", "serve.extract_features",
           "serve.bundle.predict.float32", "serve.bundle.predict.int8")
    lag = np.concatenate([chunk["sent"] - chunk["due"] for chunk in opened]).tolist()
    open_p50, open_p99 = _percentiles(_latencies_ms(opened, expected, "due", scaled=False))
    layers.update({
        "serve.open.latency_p50_ms": open_p50,
        "serve.open.latency_p99_ms": open_p99,
        "serve.server.turnaround_p50_ms": 1e3 * median(turnaround),
        "serve.server.turnaround_p99_ms": 1e3 * percentile(turnaround, 99),
        "serve.server.batch_rows": sum(rows) / len(rows),
        "serve.frontend.shed_frac": shed / max(1, shed + accepted),
        "serve.open.samples": sum(chunk["idx"].size for chunk in opened),
        "gen.lag_ms": 1e3 * percentile(lag, 99),
        "trace.overhead_frac": 1.0 - _rate(closed, expected) / _rate(plain, expected),
        "trace.leaf_coverage_frac": sum(
            table[name]["busy_s"] for name in top if name in table
        ) / traced_wall,
        "trace.ops": n_requests,
    })
    outcome.layers.update(layers)
    outcome.recorder = recorder


def _install(recorder):
    import repro.serve.frontend as frontend
    import repro.serve.server as server
    from repro.nn.quant import QuantizedConv1D, QuantizedDense
    from repro.serve.bundle import ModelBundle
    from repro.serve.protocol import FrameDecoder

    recorder.wrap(frontend, "encode_message", "serve.protocol.encode")
    recorder.wrap(FrameDecoder, "feed", "serve.protocol.decode")
    recorder.wrap(server, "extract_features", "serve.extract_features")
    recorder.wrap(
        ModelBundle, "predict_proba_with",
        lambda bundle, *_a, **_k: f"serve.bundle.predict.{bundle.manifest.variant}",
        attrs_of=lambda args, _kw: {"rows": int(np.shape(args[2])[0])},
    )
    recorder.wrap(QuantizedConv1D, "forward", "nn.QuantizedConv1D.forward")
    recorder.wrap(QuantizedDense, "forward", "nn.QuantizedDense.forward")

    def turnaround(submit):
        def wrapper(self, *args, **kwargs):
            start = time.perf_counter()
            future = submit(self, *args, **kwargs)
            future.add_done_callback(lambda _result: recorder.record(
                "serve.server.turnaround", start, time.perf_counter(), op=future.request_id
            ))
            return future
        return wrapper

    for name in ("submit_features", "submit_window"):
        cls = server.InferenceServer
        recorder.patch(cls, name, turnaround(getattr(cls, name)))
