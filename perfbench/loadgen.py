"""Load generator for the serve workloads, run as its own process.

It keeps its own interpreter (and so its own GIL) apart from the
server's event-loop and batcher threads, runs one asyncio loop, and
opens at most ``nproc`` connections. Commands arrive as JSON lines on
stdin and each is answered with one JSON line on stdout:

- ``{"cmd": "connect", "port": P, "requests": NPZ, "conns": C, "warm": N}``
  opens C connections and sends N requests closed-loop to warm the path;
- ``{"cmd": "closed", "seconds": S, "outstanding": K, "seed": n, "out": NPZ}``
  keeps K requests outstanding for S seconds;
- ``{"cmd": "open", "seconds": S, "rate": R, "speed": f, "seed": n, "out": NPZ}``
  sends Poisson arrivals at R requests/s for S seconds, both at the
  reference speed: the seed fixes the arrivals in reference time and
  wall time is reference time divided by ``f``;
- ``{"cmd": "probe"}`` runs the speed probe of ``harness`` on this
  process's CPU and answers ``{"probe_s": seconds}``;
- ``{"cmd": "close"}`` closes the connections, ``{"cmd": "exit"}`` ends.

Each phase writes one row per request to ``out``: the request index,
due/sent/done times, a status code and the answered label's code.
"""

from __future__ import annotations

import asyncio
import json
import sys

import numpy as np

from harness import SpeedProbe

STATUS_CODES = {"ok": 0, "shed": 1, "error": 2, "timeout": 3}
LOST = 4  # no answer: transport failure or client-side wait timeout
REQUEST_TIMEOUT_S = 10.0
WAIT_LIMIT_S = 30.0


class Generator:
    def __init__(self):
        from repro.serve.frontend import AsyncFrontendClient

        self._client_cls = AsyncFrontendClient
        self.clients = []

    def load(self, path):
        with np.load(path) as data:
            self.kind = str(data["kind"])
            self.fs = float(data["fs"])
            self.models = [str(m) for m in data["models"]]
            self.labels = {str(label): k for k, label in enumerate(data["labels"])}
            flat, offsets = data["payload"], data["offsets"]
        self.rows = [flat[offsets[k]:offsets[k + 1]] for k in range(offsets.size - 1)]

    def submit(self, n, i):
        client = self.clients[n % len(self.clients)]
        if self.kind == "window":
            return client.submit(
                window=self.rows[i], fs=self.fs, model=self.models[i],
                timeout_s=REQUEST_TIMEOUT_S, binary=True,
            )
        return client.submit(
            self.rows[i], model=self.models[i], timeout_s=REQUEST_TIMEOUT_S
        )

    def _outcome(self, future):
        if future.cancelled() or future.exception() is not None:
            return LOST, -1
        response = future.result()
        status = STATUS_CODES.get(response.get("status"), LOST)
        return status, self.labels.get(response.get("label"), -1)

    async def connect(self, port, conns, warm):
        self.clients = [
            await self._client_cls("127.0.0.1", port, f"gen{c}").connect()
            for c in range(conns)
        ]
        futures = [self.submit(n, n % len(self.rows)) for n in range(warm)]
        await asyncio.wait_for(asyncio.gather(*futures), WAIT_LIMIT_S)

    async def close(self):
        for client in self.clients:
            await client.close()
        self.clients = []

    async def closed(self, seconds, outstanding, seed):
        """K workers each send their next request when the previous one returns."""
        loop = asyncio.get_running_loop()
        order = np.random.default_rng(seed).permutation(len(self.rows))
        records = []
        counter = iter(range(1 << 62))
        start = loop.time()
        stop = start + seconds

        async def worker():
            while loop.time() < stop:
                n = next(counter)
                i = int(order[n % order.size])
                sent = loop.time()
                future = self.submit(n, i)
                try:
                    await asyncio.wait_for(asyncio.shield(future), WAIT_LIMIT_S)
                except (asyncio.TimeoutError, ConnectionError):
                    pass
                status, label = self._outcome(future) if future.done() else (LOST, -1)
                records.append((i, sent, sent, loop.time(), status, label))

        await asyncio.gather(*(worker() for _ in range(outstanding)))
        return records, loop.time() - start

    async def open(self, seconds, rate, speed, seed):
        """Poisson arrivals at ``rate``; each request is timed from its due time."""
        loop = asyncio.get_running_loop()
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < seconds]
        order = rng.integers(0, len(self.rows), size=offsets.size)
        offsets = offsets / speed
        done_at = {}
        pending = []
        start = loop.time() + 0.01
        for n, offset in enumerate(offsets):
            due = start + float(offset)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = loop.time()
            future = self.submit(n, int(order[n]))
            future.add_done_callback(lambda _f, n=n: done_at.__setitem__(n, loop.time()))
            pending.append((int(order[n]), due, sent, future))
        if pending:
            await asyncio.wait([p[3] for p in pending], timeout=WAIT_LIMIT_S)
        records = []
        for n, (i, due, sent, future) in enumerate(pending):
            status, label = self._outcome(future) if future.done() else (LOST, -1)
            records.append((i, due, sent, done_at.get(n, float("inf")), status, label))
        return records, loop.time() - start


def _write(path, records, elapsed):
    arr = np.array([r[:4] for r in records], dtype=float).reshape(-1, 4)
    codes = np.array([r[4:] for r in records], dtype=np.int64).reshape(-1, 2)
    np.savez(
        path, idx=arr[:, 0].astype(np.int64), due=arr[:, 1], sent=arr[:, 2],
        done=arr[:, 3], status=codes[:, 0], label=codes[:, 1], elapsed=elapsed,
    )


async def main():
    gen = Generator()
    probe = SpeedProbe()
    reader = asyncio.StreamReader()
    loop = asyncio.get_running_loop()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    print(json.dumps({"ready": True}), flush=True)
    while True:
        line = await reader.readline()
        if not line:
            break
        cmd = json.loads(line)
        reply = {"ok": True}
        if cmd["cmd"] == "connect":
            gen.load(cmd["requests"])
            await gen.connect(cmd["port"], cmd["conns"], cmd["warm"])
        elif cmd["cmd"] in ("closed", "open"):
            if cmd["cmd"] == "closed":
                records, elapsed = await gen.closed(
                    cmd["seconds"], cmd["outstanding"], cmd["seed"]
                )
            else:
                records, elapsed = await gen.open(
                    cmd["seconds"], cmd["rate"], cmd["speed"], cmd["seed"]
                )
            _write(cmd["out"], records, elapsed)
            reply["n"] = len(records)
        elif cmd["cmd"] == "probe":
            reply["probe_s"] = probe.run()
        elif cmd["cmd"] == "close":
            await gen.close()
        elif cmd["cmd"] == "exit":
            await gen.close()
            print(json.dumps(reply), flush=True)
            break
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    asyncio.run(main())
