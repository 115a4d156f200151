"""The measured loop of one workload, in a fresh interpreter of its own so
that caches and peak RSS belong to that workload alone.

Reads a JSON spec on stdin::

    {"root": <checkout>, "ops": [...], "seconds": <float>, "trace": <bool>}

Each op is ``{"kind": ..., "argv": [...]}``, run as ``cli.main(argv)`` with
stdout captured, or ``{"kind": "transport", "w", "J", "I"}``, run as
``bp.nontoroidal_transport``.  Ops run one at a time in a closed loop.  A
pass runs every op once, from empty package caches; passes repeat
until ``seconds`` have gone by.  Each sweep also starts from cold caches,
as its own CLI process would; queries share the caches within a pass, as
one long-lived client's calls do.  With ``trace`` the first half of the time
runs untraced passes and the second half traced ones.  Between ops, at most
every ``REF_EVERY`` seconds, the worker runs :func:`reference`, so that
every op's latency can be read against the host's speed at that moment.

Writes one JSON line per op of the first pass (its reply, or for a sweep
the summary line), then one line with every pass's timings, exit codes and
output digests, the cache counters, peak RSS and, when traced, the trace.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time


class DigestSink(io.RawIOBase):
    """Binary stdout stand-in: hashes and counts what is written, keeping
    the whole text only when asked (query replies are small, sweep streams
    are not) and otherwise the last line.

    A long op writes a chunk every few milliseconds, so the sink also
    calls ``probe`` when it is due and adds the probe's time to ``paused``,
    which the op's latency excludes: the host's speed is then sampled
    during a sweep, not only between sweeps."""

    def __init__(self, keep: bool, probe):
        self.hash = hashlib.sha256()
        self.nbytes = 0
        self.keep = keep
        self.chunks: list[bytes] = []
        self.tail = b""
        self.probe = probe
        self.paused = 0.0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        start = time.perf_counter()
        if self.probe(start):
            self.paused += time.perf_counter() - start
        data = bytes(data)
        self.hash.update(data)
        self.nbytes += len(data)
        if self.keep:
            self.chunks.append(data)
        else:
            self.tail = (self.tail + data)[-4096:]
        return len(data)

    def text(self) -> str:
        """The whole output, or its last line when only the tail was kept."""
        if self.keep:
            return b"".join(self.chunks).decode("utf-8")
        return self.tail.decode("utf-8", "replace").rstrip("\n").rsplit("\n", 1)[-1]


#: Seconds between reference probes; each probe costs about 25 ms.
REF_EVERY = 0.5
REF_LOOPS = 60_000
REF_BURST = 5


def reference() -> float:
    """Median time of a few runs of a fixed integer loop that allocates
    nothing and never touches the package: a probe of how fast the host
    runs Python right now."""
    times = []
    for _ in range(REF_BURST):
        start = time.perf_counter()
        acc = 0
        for i in range(REF_LOOPS):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def canonical(obj) -> str:
    """The bytes of ``cli.canonical_json``, written here so that a transport
    reply's serialization is not charged to the ``cli`` layer."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import levischubert
    from levischubert import bp, cli, levi, weyl

    caches = {"quotient_reps": weyl._quotient_reps,
              "parabolic_elements": weyl._parabolic_elements,
              "poincare": weyl._poincare, "max_levi": levi._max_levi}
    ops = spec["ops"]
    out = sys.stdout
    tracer = None
    refs: list[list[float]] = []   # [when, seconds] of each reference probe

    def probe(now: float) -> bool:
        """Sample the host's speed if the last sample is REF_EVERY old."""
        if refs and now - refs[-1][0] < REF_EVERY:
            return False
        refs.append([now, reference()])
        return True

    def run_op(op) -> tuple[object, DigestSink]:
        # a probe inside a traced op would be charged to the traced frames
        sink = DigestSink(keep=op["kind"] != "sweep",
                          probe=probe if tracer is None else lambda now: False)
        stream = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", newline="\n")
        with contextlib.redirect_stdout(stream):
            try:
                if op["kind"] == "transport":
                    report = bp.nontoroidal_transport(tuple(op["w"]), op["J"], op["I"])
                    print(canonical(report.to_json()))
                    rc = 0
                else:
                    rc = cli.main(op["argv"])
            except Exception as exc:  # recorded as a failed op, never fatal
                rc = f"{type(exc).__name__}: {exc}"
            stream.flush()
        return rc, sink

    def drain_caches(stats: dict) -> None:
        """Add each cache's hits, misses and size to ``stats``; empty it."""
        for name, cache in caches.items():
            hits, misses, _, size = cache.cache_info()
            acc = stats.setdefault(name, [0, 0, 0])
            acc[0] += hits
            acc[1] += misses
            acc[2] = max(acc[2], size)
            cache.cache_clear()

    def run_pass(first: bool) -> dict:
        stats: dict = {}
        starts, lat, rcs, shas = [], [], [], []
        nbytes = 0
        for index, op in enumerate(ops):
            if op["kind"] == "sweep":
                drain_caches(stats)  # a sweep is its own CLI process in real use
            probe(time.perf_counter())
            if tracer:
                tracer.begin("op." + op["kind"])
            t0 = time.perf_counter()
            rc, sink = run_op(op)
            lat.append(time.perf_counter() - t0 - sink.paused)
            starts.append(t0)
            if tracer:
                tracer.end(index)
            rcs.append(rc)
            shas.append(sink.hash.hexdigest())
            nbytes += sink.nbytes
            if first:
                out.write(canonical({"op": index, "text": sink.text()}) + "\n")
        probe(time.perf_counter())
        drain_caches(stats)
        return {"wall": sum(lat), "traced": tracer is not None, "start": starts,
                "lat": lat, "rc": rcs, "sha": shas, "bytes": nbytes, "caches": stats}

    seconds = float(spec["seconds"])
    start = time.perf_counter()
    passes = [run_pass(first=True)]

    def repeat(until: float) -> None:
        """More passes while the next one, as long as the last, still ends
        by ``until``; so a run measures about ``seconds``, never much more."""
        while time.perf_counter() - start + passes[-1]["wall"] <= until:
            passes.append(run_pass(first=False))

    if spec["trace"]:
        repeat(seconds / 2)
        from tracing import Tracer
        tracer = Tracer(levischubert)
        tracer.install()
        passes.append(run_pass(first=False))
    repeat(seconds)
    if tracer:
        tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write(canonical({"passes": passes, "refs": refs, "peak_rss_kb": peak_kb,
                         "trace": tracer.report() if tracer else None}) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
