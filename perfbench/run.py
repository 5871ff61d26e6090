"""ssekit end-to-end benchmark: seeded CLI query workloads, timed in-process.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 24 --trace 0

Run from the repository root; ssekit is imported from ``src/``.  One client
runs a closed loop in one thread: each query calls ``ssekit.cli.main(argv)``
with stdout captured, and the next starts when it returns.  The workload's
fixed query list is run whole, pass after pass: at least three passes, and
more while another still fits in ``--seconds``.  The first pass warms the
interpreter up and is checked but not timed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
passes and then one more with every layer traced, and prints the per-layer
metrics.  Either way every query's output is checked by an independent
oracle, and a query whose stdout bytes differ between passes counts as
failed.  The last line of stdout is the JSON result.  ``--workload all``
runs each workload in its own process, one after another.  See
``perfbench/README.md`` for the metrics and the reasoning behind them.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
MIN_PASSES = 3  # the first warms up and is not timed
SETUP_PER_PASS = 3

sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402

SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import ssekit.cli\n"
    "print(time.perf_counter() - t)\n"
)


class Gauge:
    """The shared host's speed over time, read from a fixed slice of work
    run between queries.

    On a shared machine the same code runs up to 1.9 times slower for
    seconds to minutes at a time, so raw times of two runs differ by more
    than any change worth measuring.  Each raw time is scaled by
    ``REF_SLICE_S`` over the median slice time within ``WINDOW_S`` of it,
    which reads it as if the host ran the slice in exactly ``REF_SLICE_S``.
    The slice decodes, indexes and re-encodes a fixed 4000-edge graph
    document, then runs an interpreted loop of lookups and integer
    arithmetic over the index: the CLI's own mix of JSON, dicts, small
    objects and bytecode, which the host slows down alike.  It calls no
    ssekit code, so nothing the program does changes it, and the garbage
    collector is off while it runs, so the program's heap does not either.
    """

    REF_SLICE_S = 0.016
    EVERY_S = 0.3
    WINDOW_S = 3.0

    def __init__(self) -> None:
        rng = random.Random(0)
        self._doc = json.dumps({
            "vertices": [f"v{i}" for i in range(2000)],
            "edges": [{"id": f"e{i}", "src": f"v{rng.randrange(2000)}", "rng": f"v{rng.randrange(2000)}"}
                      for i in range(4000)],
        })
        self.times: list[float] = []
        self.slices: list[float] = []
        self.slice()

    def slice(self) -> None:
        gc.disable()
        t0 = perf_counter()
        obj = json.loads(self._doc)
        index = {e["id"]: (e["src"], e["rng"]) for e in obj["edges"]}
        json.dumps(obj)
        acc = 0
        for i in range(12000):
            acc = (acc + len(index[f"e{i % 4000}"][0]) * (i & 7)) & 0xFFFFFF
        t1 = perf_counter()
        gc.enable()
        del obj, index
        self.times.append((t0 + t1) / 2)
        self.slices.append(t1 - t0)

    def tick(self) -> None:
        if perf_counter() - self.times[-1] >= self.EVERY_S:
            self.slice()

    def scale(self, t0: float, t1: float) -> float:
        """The factor that turns a raw time spent in [t0, t1] into a
        reference time."""
        lo = bisect.bisect_left(self.times, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + self.WINDOW_S)
        near = self.slices[lo:hi] or self.slices[max(lo - 1, 0):lo + 1]
        return self.REF_SLICE_S / statistics.median(near)


class Setup:
    """Times a fresh interpreter importing ssekit.cli.  Samples are taken
    before and between the timed passes, each scaled by the gauge; the
    metric is their median."""

    def __init__(self, gauge: Gauge) -> None:
        self.gauge = gauge
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._probe()  # warms the bytecode cache; not a sample

    def _probe(self) -> float:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, SRC],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        return float(proc.stdout)

    def sample(self, n: int) -> None:
        for _ in range(n):
            self.gauge.slice()
            t0 = perf_counter()
            x = self._probe()
            t1 = perf_counter()
            self.gauge.slice()
            self.raw.append(x)
            self.scaled.append(x * self.gauge.scale(t0, t1))


def call(cli, argv: list[str]) -> tuple[int | None, str, str, float, float]:
    """One query: exit code (None if it raised), stdout, stderr, start, end."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a crash is a failed query, not a failed run
            code = None
            err.write(f"raised {type(exc).__name__}: {exc}\n")
        t1 = perf_counter()
    return code, out.getvalue(), err.getvalue(), t0, t1


def run_pass(cli, queries, gauge: Gauge, tracer: Tracer | None = None):
    """Run every query once; returns the results and the pass' wall time.

    Objects alive at the start of the pass, among them the benchmark's own
    inputs and oracles, are moved out of the garbage collector's reach.  A
    CLI call in its own process starts with no such heap, and collections
    walking it would charge the program for the benchmark's memory.
    """
    gc.collect()
    gc.freeze()
    results = []
    t0 = perf_counter()
    for i, q in enumerate(queries):
        gauge.tick()
        if tracer is not None:
            tracer.query = i
        results.append(call(cli, q.argv))
    gauge.tick()
    return results, perf_counter() - t0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def judge(q, code: int | None, out: str, err: str) -> str | None:
    """The 0/1/2 exit-code contract, the expected code, then the oracle."""
    if code is None:
        return err.strip() or "raised"
    if code not in (0, 1, 2):
        return f"exit code {code} outside the 0/1/2 contract"
    if code == 2 and not err.startswith("error:"):
        return "exit 2 without an error: line on stderr"
    if code not in q.expect:
        return f"exit {code}, expected {q.expect}: {(out or err).strip()[:200]}"
    return q.check(code, out)


class Outcomes:
    """Judges every execution against its query's oracle and the stdout
    bytes of the query's first execution, and keeps the timings."""

    def __init__(self, queries):
        self.queries = queries
        self.reference: list[str | None] = [None] * len(queries)
        self.problems: list[str | None] = [None] * len(queries)
        self.attempted = 0
        self.failed = 0
        self.spans: list[list[tuple[float, float]]] = [[] for _ in queries]

    def add(self, results) -> None:
        for i, (q, (code, out, err, t0, t1)) in enumerate(zip(self.queries, results)):
            self.attempted += 1
            self.spans[i].append((t0, t1))
            sha = digest(out)
            if self.reference[i] is None:
                self.reference[i] = sha
                self.problems[i] = judge(q, code, out, err)
            if self.problems[i] is not None or sha != self.reference[i]:
                self.failed += 1
                if sha != self.reference[i] and self.problems[i] is None:
                    self.problems[i] = "stdout differs between passes"

    def latencies(self, passes: slice, gauge: Gauge | None = None) -> list[float]:
        """Each query's median seconds over the given passes, scaled by the
        gauge when one is given."""
        return [
            statistics.median((t1 - t0) * (gauge.scale(t0, t1) if gauge else 1.0) for t0, t1 in spans[passes])
            for spans in self.spans
        ]

    def workload_digest(self) -> str:
        return digest("\n".join(self.reference))


def quantile(values: list[float], p: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(p * 100) - 1]


def layer_metrics(tracer: Tracer, trace_ratio: float) -> dict[str, tuple[float, str]]:
    calls, self_s = tracer.totals()
    c = tracer.counts

    def ratio(num: str, den: str) -> float:
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in sorted({n for n, _, _ in SPANS}):
        if name == "splits.enumerate_split_specs":
            m[name + ".specs"] = (c.get(name + ".items", 0), "count")
        elif name != "sse.sse_chain_search":
            m[name + ".calls"] = (calls.get(name, 0), "count")
        m[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    m["splits.specs_cut_frac"] = (ratio("splits.specs_cut", "splits.enumerate_split_specs.items"), "ratio")
    m["invariants.child_profile_reject_frac"] = (
        ratio("invariants.child_profile_rejects", "invariants.child_profiles"), "ratio")
    m["sse.chain_new_state_frac"] = (ratio("sse.chain.distinct_keys", "sse.chain.key_calls"), "ratio")
    m["weights.lift_edge_function.equations"] = (c.get("weights.lift.equations", 0), "count")
    m["trace.qps_ratio"] = (trace_ratio, "ratio")
    return m


def run_all(args) -> int:
    """Each workload in a fresh process, one after another; their output is
    passed through, and a last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(workloads.WORKLOADS):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ssekit", "cli.py")):
        print(f"error: no ssekit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    gauge = Gauge()
    setup = None if args.trace else Setup(gauge)
    if setup is not None:
        setup.sample(SETUP_PER_PASS)
    sys.path.insert(0, SRC)
    import ssekit.cli as cli

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    files = workloads.Files(os.path.join(work, "inputs"))

    def prepare(q_argv):
        code, out, _, _, _ = call(cli, q_argv)
        return code, out

    queries = workloads.WORKLOADS[args.workload](random.Random(args.seed), files, prepare)
    outcomes = Outcomes(queries)

    pass_s: list[float] = []
    while len(pass_s) < MIN_PASSES or sum(pass_s) + pass_s[-1] <= args.seconds:
        results, dt = run_pass(cli, queries, gauge)
        outcomes.add(results)
        pass_s.append(dt)
        if setup is not None:
            setup.sample(SETUP_PER_PASS)
    timed = slice(1, len(pass_s))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = outcomes.latencies(timed, gauge)
    raw = outcomes.latencies(timed)
    n = len(queries)

    print(f"workload {args.workload} seed {args.seed}: {n} queries per pass, {len(pass_s)} passes of "
          f"{', '.join(f'{t:.2f}' for t in pass_s)} s, closed loop, 1 client")
    print(f"host gauge: slice median {statistics.median(gauge.slices) * 1000:.3f} ms "
          f"(reference {Gauge.REF_SLICE_S * 1000:g} ms, {len(gauge.slices)} slices)")
    print(f"raw (unscaled): queries_per_s {n / sum(raw):.6g}, latency_p50_ms {statistics.median(raw) * 1000:.6g}, "
          f"latency_p90_ms {quantile(raw, 0.90) * 1000:.6g}"
          + (f", setup_s {statistics.median(setup.raw):.6g}" if setup else ""))
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            results, _ = run_pass(cli, queries, gauge, tracer)
        finally:
            tracer.uninstall()
        outcomes.add(results)
        traced = outcomes.latencies(slice(len(pass_s), None), gauge)
        for name in tracer.missing:
            print(f"trace: {name} not found; its metrics read 0", file=sys.stderr)
        tracer.write(os.path.join(work, "spans.tsv"))
        metrics = layer_metrics(tracer, sum(lat) / sum(traced))
    else:
        metrics = {
            "queries_per_s": (n / sum(lat), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
            "latency_p90_ms": (quantile(lat, 0.90) * 1000, "ms"),
            "setup_s": (statistics.median(setup.scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    report = [
        {"label": q.label, "argv": q.argv[:1], "sha256": sha, "problem": problem,
         "raw_s": [round(t1 - t0, 6) for t0, t1 in spans], "scaled_s": round(x, 6)}
        for q, sha, problem, spans, x in zip(queries, outcomes.reference, outcomes.problems, outcomes.spans, lat)
    ]
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "digest": outcomes.workload_digest(),
                   "queries": report}, fh, indent=1)

    for name, (value, unit) in metrics.items():
        extra = f" (n={n} queries, median of {len(pass_s) - 1} passes)" if name.startswith("latency") else ""
        print(f"{name} {value:.6g} {unit}{extra}")
    print(f"failed_frac {outcomes.failed / outcomes.attempted:.6g} ({outcomes.failed}/{outcomes.attempted})")
    print(f"stdout_digest {outcomes.workload_digest()}")
    for q, problem in zip(queries, outcomes.problems):
        if problem is not None:
            print(f"FAILED {q.label} {' '.join(q.argv[:1])}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
