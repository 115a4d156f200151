"""Benchmark of levischubert through its real entry points.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from anywhere inside a checkout of the repository: the program is
imported from ``src/`` and the input oracles from ``tests/oracles.py``.
One workload runs per invocation, its measured loop in a fresh worker
interpreter (``bench/worker.py``).  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  Exit
status is 0 when every output passed its check, 1 when one did not, 2 when
the checkout is incomplete or the arguments are wrong.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import MODULES
from worker import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Rank (or m) bound per sweep check, full size and smoke size.
SWEEP_WORKLOADS = {
    "sweep-grassmann": {"head-oracle": (8, 4), "divisor-stability": (8, 4),
                        "smooth-unique-head": (8, 4),
                        "singular-no-stable-divisor": (8, 4),
                        "smooth-palindromic": (8, 4)},
    "sweep-bp": {"bp-equivalence": (5, 4), "projection-dichotomy": (5, 4)},
    "sweep-stream": {"classify-codim": (1000, 20)},
}
QUERY_COUNT = (1200, 20)  # queries per pass: full, smoke
WORKLOADS = ("sweep-grassmann", "sweep-bp", "query-mix", "sweep-stream")
SETUP_SPAWNS = 15
#: Nominal time of ``worker.reference``: about its median on the machine the
#: baseline was recorded on (2 vCPUs, Python 3.11.7).  Every reported time
#: is a measured time times REF_S over the reference's median time within
#: REF_WINDOW_S of the measurement, i.e. seconds at that nominal host speed.
REF_S = 0.005
REF_WINDOW_S = 1.0
SETUP_CODE = "import levischubert.cli as cli; cli.build_parser()"
WORKER_TIMEOUT_S = 150

SWEEP_CHECKS = ("head-oracle", "divisor-stability", "smooth-unique-head",
                "singular-no-stable-divisor", "bp-equivalence",
                "projection-dichotomy", "smooth-palindromic", "classify-codim")
CACHES = ("poincare", "quotient_reps", "parabolic_elements", "max_levi")
WEYL_FNS = ("bruhat_leq", "right_descents", "length", "min_coset_rep",
            "lower_covers", "poincare_polynomial", "quotient_reps",
            "parabolic_elements")
KINDS = ("analyze", "heads", "toroidal", "bp", "transport")

END_TO_END = (("wall_s", "s"), ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _per_layer() -> tuple[tuple[str, str], ...]:
    out = []
    for fn in WEYL_FNS:
        out += [(f"weyl.{fn}.calls", "count"), (f"weyl.{fn}.self_s", "s")]
    for cache in CACHES:
        out += [(f"cache.{cache}.hit_ratio", "ratio"), (f"cache.{cache}.entries", "count")]
    out += [("levi.heads_below.self_s", "s"), ("levi.heads_below.calls", "count"),
            ("levi.boundary.calls", "count"), ("levi.max_levi.calls", "count"),
            ("levi.is_degree1_head.self_s", "s")]
    out += [(f"bp.{fn}.self_s", "s") for fn in (
        "is_bp_maximality", "is_bp_support", "poincare_factorizes",
        "project_divisor", "nontoroidal_transport")]
    out += [(f"toroidal.{fn}.self_s", "s") for fn in (
        "toroidal_necessary", "unique_head_check", "no_stable_divisor_check")]
    out += [(f"grassmann.{fn}.self_s", "s") for fn in ("all_grassmann", "run_divisors")]
    out += [(f"classify.{fn}.self_s", "s") for fn in ("iter_cases", "codim_at_least_two")]
    out += [("cli.canonical_json.self_s", "s"), ("cli.output_bytes", "B"),
            ("cli.build_parser.self_s", "s")]
    out += [(f"sweeps.{check}.wall_s", "s") for check in SWEEP_CHECKS]
    for mod in MODULES:
        out += [(f"{mod}.calls", "count"), (f"{mod}.busy_s", "s"), (f"{mod}.self_s", "s")]
    for kind in KINDS:
        out += [(f"query.{kind}.p50_ms", "ms"), (f"query.{kind}.p99_ms", "ms")]
    out += [("trace.overhead_ratio", "ratio"), ("tail.levi.heads_below.share", "ratio"),
            ("host.reference_ms", "ms")]
    return tuple(out)


PER_LAYER = _per_layer()


class Usage(Exception):
    """The checkout cannot run the benchmark."""


def check_checkout() -> None:
    for rel in ("src/levischubert/cli.py", "tests/oracles.py"):
        if not (ROOT / rel).is_file():
            raise Usage(f"{rel} not found under {ROOT}: run from a full checkout")


def build_ops(workload: str, seed: int, smoke: bool):
    """The operations of one pass and, for query-mix, the oracle check of
    the reply to op ``i``: ``check(i, text) -> problems``."""
    if workload in SWEEP_WORKLOADS:
        # Fixed order, whatever the seed: a sweep's speed depends on the
        # allocator state the previous sweep left behind.
        return [{"kind": "sweep", "check": check,
                 "argv": ["sweep", "--check", check, "--max-n", str(bounds[smoke])]}
                for check, bounds in SWEEP_WORKLOADS[workload].items()], None
    import queries  # needs tests/oracles.py, so only after check_checkout()
    oracle = queries.Oracle()
    qs = queries.generate(seed, QUERY_COUNT[smoke], smoke=smoke, oracle=oracle)

    def check(i: int, text: str) -> list[str]:
        try:
            return queries.check(qs[i], text, oracle)
        except (KeyError, TypeError, IndexError) as exc:
            return [f"malformed reply ({type(exc).__name__}: {exc})"]
    return [queries.to_op(q) for q in qs], check


def measure_setup() -> float:
    """Median time of a fresh interpreter importing the package and building
    the CLI parser, over SETUP_SPAWNS spawns after one unmeasured one, each
    scaled by the reference probes taken just before and after it."""
    env = {"PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-c", SETUP_CODE]
    before = reference()
    times = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        after = reference()
        if i:
            times.append(elapsed * 2 * REF_S / (before + after))
        before = after
    return statistics.median(times)


def run_worker(ops, seconds: float, trace: bool):
    spec = {"root": str(ROOT), "ops": ops, "seconds": seconds, "trace": trace}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], cwd=ROOT,
                          input=json.dumps(spec), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, env={**os.environ, "PYTHONHASHSEED": "0"})
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    texts = {}
    for line in lines[:-1]:
        rec = json.loads(line)
        texts[rec["op"]] = rec["text"]
    return texts, json.loads(lines[-1])


def load_pins() -> dict:
    return json.loads((BENCH / "pins.json").read_text())


def gate(ops, check, texts, result, seed, smoke, pins):
    """Count failed operations over every pass; returns (attempted, failed,
    problems).  A sweep op must exit 0, report no violation, and reproduce
    the pinned instance count and stdout digest; a query must exit 0, pass
    the oracle checks, and repeat the same reply in every pass."""
    problems = []
    expected = []
    bad_first = set()
    for i, op in enumerate(ops):
        first_sha = result["passes"][0]["sha"][i]
        if op["kind"] == "sweep":
            bound = op["argv"][-1]
            pin = pins["sweeps"].get(f"{op['check']}@{bound}")
            try:
                summary = json.loads(texts[i])
            except (KeyError, ValueError):
                summary = {}
            seen = {"instances": summary.get("instances"), "sha256": first_sha}
            if summary.get("violations") != 0 or seen != pin:
                bad_first.add(i)
                problems.append(f"{op['check']}@{bound}: summary {summary}, "
                                f"sha256 {first_sha}; pinned {pin}")
            expected.append(pin["sha256"] if pin else None)
        else:
            found = check(i, texts.get(i, ""))
            if found:
                bad_first.add(i)
                problems.append(f"query {i} {ops[i]}: {'; '.join(found)}")
            expected.append(first_sha)
    attempted = failed = 0
    for k, p in enumerate(result["passes"]):
        for i in range(len(ops)):
            attempted += 1
            ok = p["rc"][i] == 0 and p["sha"][i] == expected[i]
            if not ok or (k == 0 and i in bad_first):
                failed += 1
                if not ok:
                    problems.append(f"pass {k} op {i}: exit {p['rc'][i]!r}, "
                                    f"sha256 {p['sha'][i]}")
    if check is not None:
        pin = pins["query-mix"]
        if seed == pin["seed"]:
            digest = hashlib.sha256("".join(texts.get(i, "") for i in range(len(ops)))
                                    .encode("utf-8")).hexdigest()
            want = pin["smoke" if smoke else "full"]
            if digest != want:
                failed = min(attempted, failed + 1)
                problems.append(f"query-mix seed {seed}: reply stream sha256 "
                                f"{digest}; pinned {want}")
    return attempted, failed, problems


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class HostSpeed:
    """The worker's reference probes, to scale a measured interval to
    seconds at the nominal host speed REF_S."""

    def __init__(self, refs):
        self.times = [t for t, _ in refs]
        self.secs = [d for _, d in refs]

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + REF_WINDOW_S)
        return REF_S / statistics.median(self.secs[lo:hi] or self.secs)


def scaled(result) -> list[list[float]]:
    """Every pass's op latencies at nominal host speed."""
    speed = HostSpeed(result["refs"])
    return [[lat * speed.factor(t, t + lat) for t, lat in zip(p["start"], p["lat"])]
            for p in result["passes"]]


def op_latencies(lats, indices) -> list[float]:
    """Each op's median scaled latency over the passes."""
    return [statistics.median(pass_lat[i] for pass_lat in lats) for i in indices]


def end_to_end(result, setup_s) -> dict:
    lats = scaled(result)
    lat = op_latencies(lats, range(len(lats[0])))
    return {
        "wall_s": statistics.median(sum(pass_lat) for pass_lat in lats),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p99_ms": 1000 * percentile(lat, 99),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(ops, result) -> dict:
    """Per-layer metrics of the traced passes, per pass; latencies and
    sweep times come from the untraced passes of the same run."""
    passes = result["passes"]
    lats = scaled(result)
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    untraced = [lats[i] for i, p in enumerate(passes) if not p["traced"]]
    first, last = passes[traced[0]], passes[traced[-1]]
    speed = HostSpeed(result["refs"]).factor(first["start"][0],
                                             last["start"][-1] + last["lat"][-1])
    per_pass = speed / len(traced)
    fns: dict[str, list] = {}
    mods = {m: [0, 0.0, 0.0] for m in MODULES}   # calls, busy, self
    for key, parent, calls, total, self_s in result["trace"]["table"]:
        acc = fns.setdefault(key, [0, 0.0])
        acc[0] += calls
        acc[1] += self_s
        mod = key.split(".", 1)[0]
        if mod in mods:
            mods[mod][0] += calls
            mods[mod][2] += self_s
            if parent is None or parent.split(".", 1)[0] != mod:
                mods[mod][1] += total
    m: dict[str, float] = {}
    for key, (calls, self_s) in fns.items():
        m[f"{key}.calls"] = calls / len(traced)
        m[f"{key}.self_s"] = self_s * per_pass
    for mod, (calls, busy, self_s) in mods.items():
        m[f"{mod}.calls"] = calls / len(traced)
        m[f"{mod}.busy_s"] = busy * per_pass
        m[f"{mod}.self_s"] = self_s * per_pass
    for cache in CACHES:
        hits = sum(passes[i]["caches"][cache][0] for i in traced)
        misses = sum(passes[i]["caches"][cache][1] for i in traced)
        m[f"cache.{cache}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m[f"cache.{cache}.entries"] = max(passes[i]["caches"][cache][2] for i in traced)
    m["cli.output_bytes"] = statistics.mean(passes[i]["bytes"] for i in traced)
    for kind in KINDS + SWEEP_CHECKS:
        idx = [i for i, op in enumerate(ops) if op.get("check", op["kind"]) == kind]
        if not idx:
            continue
        lat = op_latencies(untraced, idx)
        if kind in KINDS:
            m[f"query.{kind}.p50_ms"] = 1000 * statistics.median(lat)
            m[f"query.{kind}.p99_ms"] = 1000 * percentile(lat, 99)
        else:
            m[f"sweeps.{kind}.wall_s"] = lat[0]
    m["trace.overhead_ratio"] = (statistics.median(sum(lats[i]) for i in traced)
                                 / statistics.median(sum(x) for x in untraced))
    spans = result["trace"]["spans"]
    cut = percentile([s["end"] - s["start"] for s in spans], 99)
    tail = [s for s in spans if s["end"] - s["start"] >= cut]
    m["tail.levi.heads_below.share"] = (
        sum(s["time_s"].get("levi.heads_below", 0.0) for s in tail)
        / sum(s["end"] - s["start"] for s in tail))
    m["host.reference_ms"] = 1000 * statistics.median(d for _, d in result["refs"])
    return {name: m.get(name, 0.0) for name, _ in PER_LAYER}


def run_one(args) -> int:
    check_checkout()
    ops, check = build_ops(args.workload, args.seed, args.smoke)
    setup_s = None if args.trace else measure_setup()
    try:
        texts, result = run_worker(ops, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(ops), "failed": len(ops),
                          "metrics": {}}))
        return 1
    attempted, failed, problems = gate(ops, check, texts, result,
                                       args.seed, args.smoke, load_pins())
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(ops, result), dict(PER_LAYER)
    else:
        values, units = end_to_end(result, setup_s), dict(END_TO_END)
    passes = result["passes"]
    print(f"# {args.workload} seed={args.seed}: {len(passes)} passes of {len(ops)} "
          f"operations, {attempted - failed}/{attempted} correct")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own process; the last line merges their
    results with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (n <= 4, 20 queries, m <= 20) for tests")
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
