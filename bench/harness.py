"""Runs one workload of the samplets benchmark and prints its metrics.

Untraced (``--trace 0``): a job workload runs for ``--seconds`` (and at
least ROUNDS rounds) in steps, each a slice of set-ups, one timed job, the
gates on the job's outputs and a slice of requests from one closed-loop
client to them; the steps cycle over several seeded point sets.  A stream
workload sets up five times, then sends requests for ``--seconds``.  Every
time metric is taken over samples from the whole run, so that a slow spell
of the host moves it less.  The last stdout line is the result JSON with
every end-to-end metric named in BENCHMARK.json.

Traced (``--trace 1``): the same run with a span around every library call,
plus a pass at N/2 (for growth ratios) and the extra h2 calls some layer
metrics need.  The last line then carries every per-layer metric named in
BENCHMARK.json, and the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5    # set-ups before a stream workload's requests
SETUP_SLICE = 0.05   # seconds of set-ups before each job of a job workload
REQUEST_SLICE = 0.25 # seconds of requests after each job of a job workload
ROUNDS = 2           # job rounds over the point sets, at least
HALF_ROUNDS = 1      # the N/2 pass only needs per-call medians
MIN_REQUESTS = 100   # so each p90 has at least ten samples beyond it
HALF_REQUESTS = 30
GROUP = 10           # on a stream workload, one job is this many requests
GROWTH = ("cluster_tree.build_s", "basis.construct_s", "transform.forward_ms",
          "transform.inverse_ms", "h2.assemble_s", "h2.visited_pairs", "h2.nnz_kept",
          "sparse.order_s", "sparse.cholesky_s", "sparse.solve_ms",
          "io.write_matrix_market_s")


def import_library():
    """Import samplets from this checkout's sources, never from elsewhere."""
    if not (SRC / "samplets" / "__init__.py").is_file():
        raise SystemExit(f"error: no samplets sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import samplets

    if Path(samplets.__file__).resolve().parent != SRC / "samplets":
        raise SystemExit(f"error: samplets was imported from {samplets.__file__}")
    return samplets


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return info.get("openblas configuration") or f"{info['name']} {info['version']}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Aborted(Exception):
    """Set-up or the job failed, so nothing after it can be measured."""


class Ops:
    """Operations attempted and the failures among them."""

    def __init__(self, errors: tuple):
        self.errors = errors
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(f"{name}: {failure}")

    def run(self, name: str, fn, *args) -> None:
        """Call fn, counting a library exception as its failure."""
        try:
            failure = fn(*args)
        except self.errors as exc:
            failure = f"{type(exc).__name__}: {exc}"
        self.record(name, failure)

    def must(self, name: str, fn, *args):
        """Call fn; a library exception fails the operation and ends the run."""
        try:
            value = fn(*args)
        except self.errors as exc:
            self.record(name, f"{type(exc).__name__}: {exc}")
            raise Aborted from exc
        self.record(name, None)
        return value


@dataclass
class Stream:
    latencies: list[float] = field(default_factory=list)
    done_at: list[float] = field(default_factory=list)
    runs: list[str] = field(default_factory=list)
    wall: float = 0.0


def run_stream(w, tracer, ops: Ops, label: str, seconds: float,
               min_requests: int, out: Stream) -> None:
    """One closed-loop client: the next request goes out when the reply to the
    last one has been checked.  Sends requests to ``w`` for ``seconds`` and
    until ``out`` holds ``min_requests`` of them.  Request 0 is an untimed
    warm-up."""

    def one(i: int, run: str) -> float:
        payload = w.make_request(i)
        tracer.run = run
        start = time.perf_counter()
        failure = result = None
        try:
            with tracer.span("harness.request"):
                result = w.serve(payload, tracer)
        except ops.errors as exc:
            failure = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        ops.record("request", failure or w.check(payload, result))
        return latency

    one(0, f"{label}/warmup")
    start = time.perf_counter()
    while len(out.latencies) < min_requests or time.perf_counter() - start < seconds:
        i = len(out.latencies) + 1
        out.runs.append(f"{label}/request-{i}")
        out.latencies.append(one(i, out.runs[-1]))
        out.done_at.append(out.wall + time.perf_counter() - start)
    out.wall += time.perf_counter() - start


@dataclass
class Pass:
    """What one pass over one point set measured."""

    workload: object = None
    setup_s: list[float] = field(default_factory=list)
    job_s: list[float] = field(default_factory=list)
    job_runs: list[str] = field(default_factory=list)  # spans of the timed jobs
    peak_rss_mb: float = 0.0
    stream: Stream | None = None
    counts: dict = field(default_factory=dict)


def run_pass(cls, seed: int, n: int, tracer, ops: Ops, label: str, seconds: float,
             min_rounds: int, min_requests: int, full: bool) -> Pass:
    """Set-ups, jobs, gates (full pass only) and requests on N points.

    A shared host can switch between a fast and a slow state every few
    seconds (README.md, Steadiness), so each time metric takes its samples
    from across the whole run.  A job workload runs in rounds over its point sets; each step
    is a set-up slice, one timed job on the basis the slice built last, the
    gates on the job's outputs and a slice of requests to them.  A stream
    workload sets up first and then sends requests for ``seconds``; every
    GROUP consecutive requests count as one job."""
    from workloads import setup

    out = Pass()
    out.stream = stream = Stream()
    clouds = [cls.points(seed, n, k) for k in range(cls.point_sets)]

    def set_up(k: int, repeats: int, slice_s: float):
        begin = time.perf_counter()
        while repeats > 0 or time.perf_counter() - begin < slice_s:
            repeats -= 1
            gc.collect()
            tracer.run = f"{label}/setup-{len(out.setup_s)}"
            start = time.perf_counter()
            basis = ops.must("setup", setup, tracer, clouds[k])
            out.setup_s.append(time.perf_counter() - start)
        return basis

    def check_and_serve(w, seconds: float, min_requests: int) -> None:
        try:
            gc.collect()
            tracer.run = f"{label}/prepare"
            w.prepare(tracer)
            if full:
                tracer.run = f"{label}/verify"
                for name, gate in w.gates(tracer):
                    gc.collect()
                    ops.run(name, gate)
        finally:
            w.close()
        gc.collect()
        run_stream(w, tracer, ops, label, seconds, min_requests, stream)

    if cls.job_is_stream:
        w = cls(set_up(0, SETUP_REPEATS, 0.0), seed, OUT)
        check_and_serve(w, seconds, min_requests)
        ends = [0.0] + stream.done_at[GROUP - 1::GROUP]
        out.job_s = [b - a for a, b in zip(ends, ends[1:])]
        out.job_runs = stream.runs[:GROUP * len(out.job_s)]
    else:
        w = None
        start = time.perf_counter()
        while (len(out.job_s) < min_rounds * len(clouds)
               or time.perf_counter() - start < seconds):
            k = len(out.job_s) % len(clouds)
            w = None  # release the last job's outputs before the next set-up
            w = cls(set_up(k, 1, SETUP_SLICE), seed, OUT)
            gc.collect()
            tracer.run = f"{label}/job-{len(out.job_s)}"
            out.job_runs.append(tracer.run)
            begin = time.perf_counter()
            with tracer.span("harness.job"):
                ops.must("job", w.job, tracer)
            out.job_s.append(time.perf_counter() - begin)
            check_and_serve(w, REQUEST_SLICE, 0)
        if len(stream.latencies) < min_requests:
            run_stream(w, tracer, ops, label, 0.0, min_requests, stream)
    out.peak_rss_mb = peak_rss_mb()
    out.workload = w
    out.counts = {"cluster_tree.clusters": len(w.basis.tree.clusters), **w.counts()}
    return out


def extra_h2_calls(cls, basis, tracer, ops: Ops) -> int:
    """The calls behind h2.scheme_build_s, h2.cluster_basis_s and h2.nnz_computed."""
    from samplets import InterpolationScheme, compute_multiscale_cluster_basis
    from workloads import P, assemble

    gc.collect()
    tracer.run = "full/extra"
    with tracer.span("h2.scheme_build"):
        scheme = InterpolationScheme.build(basis.tree, P)
    with tracer.span("h2.cluster_basis"):
        compute_multiscale_cluster_basis(basis, scheme)
    return ops.must("assemble eps=0",
                    lambda: assemble(tracer, basis, cls.kernel, epsilon=0.0).matrix.nnz_lower)


def percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


def end_to_end(p: Pass) -> dict:
    """Metric name -> (value, sample count)."""
    count = len(p.stream.latencies)
    return {
        "setup_s": (statistics.median(p.setup_s), len(p.setup_s)),
        "job_p90_s": (float(np.percentile(p.job_s, 90)), len(p.job_s)),
        "peak_rss_mb": (p.peak_rss_mb, 1),
        "request_p90_ms": (percentile_ms(p.stream.latencies, 90), count),
        **p.workload.accuracy(),
    }


def request_details(p: Pass) -> list:
    """Rows printed beside the result but kept out of it: on a shared host
    these swing with the host's load (see README.md, Steadiness)."""
    s = p.stream
    count = len(s.latencies)
    return [("job_s", statistics.median(p.job_s), "s", "lower", len(p.job_s)),
            ("request_p50_ms", percentile_ms(s.latencies, 50), "ms", "lower", count),
            ("requests_per_s", count / s.wall, "1/s", "higher", count)]


def layer_values(tracer, p: Pass, label: str) -> dict:
    def p50(name: str, phase: str, scale: float = 1.0) -> tuple[float, int]:
        d = tracer.durations(name, f"{label}/{phase}")
        return (scale * statistics.median(d) if d else 0.0), len(d)

    values = {
        "cluster_tree.build_s": p50("cluster_tree.build", "setup"),
        "basis.construct_s": p50("basis.construct", "setup"),
        "h2.assemble_s": p50("h2.assemble", "job"),
        "sparse.order_s": p50("sparse.order", "job"),
        "sparse.cholesky_s": p50("sparse.cholesky", "job"),
        "sparse.sample_grf_s": p50("sparse.sample_grf", "job"),
        "io.write_matrix_market_s": p50("io.write_matrix_market", "job"),
        "io.read_matrix_market_s": p50("io.read_matrix_market", "verify"),
        "sparse.solve_ms": p50("sparse.solve", "request", 1e3),
    }
    for call in ("forward", "inverse", "threshold", "detect"):
        values[f"transform.{call}_ms"] = p50(f"transform.{call}", "request", 1e3)
    return {**values, **{name: (value, 1) for name, value in p.counts.items()}}


def per_layer(tracer, full: Pass, half: Pass, nnz_computed: int, names: list[str]) -> dict:
    """Metric name -> (value, sample count).  A call that is not on this
    workload's path reads 0, and so does the growth ratio of such a metric."""
    values = layer_values(tracer, full, "full")
    for call in ("scheme_build", "cluster_basis"):
        d = tracer.durations(f"h2.{call}", "full/extra")
        values[f"h2.{call}_s"] = (sum(d), len(d))
    kept = values.get("h2.nnz_kept", (0, 0))[0]
    values["h2.nnz_computed"] = (nnz_computed, 1)
    values["h2.kept_fraction"] = (kept / nnz_computed if nnz_computed else 0.0, 1)
    halves = layer_values(tracer, half, "half")
    for name in GROWTH:
        base = halves.get(name, (0, 0))[0]
        values[f"{name}_growth"] = (values.get(name, (0, 0))[0] / base if base else 0.0, 2)
    return {name: values.get(name, (0, 0)) for name in names}


def span_seconds(repeats: int = 10000) -> float:
    """What one span costs, timed on empty spans."""
    from spans import Tracer

    probe = Tracer()
    probe.enabled = True
    start = time.perf_counter()
    for _ in range(repeats):
        with probe.span("harness.probe"):
            pass
    return (time.perf_counter() - start) / repeats


def job_accounting(tracer, p: Pass) -> list[str]:
    """Per-layer self time inside the traced jobs, the harness's remainder,
    and the tracing overhead: the jobs' span count times the cost of a span.
    (Differencing a traced and an untraced job_s measures host noise: the
    difference came out 2 to 5 s below zero.)  All sums run over every timed
    job of the pass."""
    from spans import HARNESS, self_times

    runs = set(p.job_runs)
    spans = [s for s in tracer.spans if s.run in runs]
    layers = self_times(spans)
    layers.pop(HARNESS, None)
    total = sum(p.job_s)
    harness = total - sum(layers.values())
    parts = ", ".join(f"{k} {v:.4f} s" for k, v in sorted(layers.items()))
    overhead = len(spans) * span_seconds()
    return [f"job self time: {parts}, harness {harness:.4f} s; "
            f"sum {sum(layers.values()) + harness:.4f} s = total traced job_s "
            f"{total:.4f} s over {len(p.job_s)} jobs",
            f"tracing overhead: {len(spans)} spans x {1e6 * overhead / len(spans):.2f} us"
            f" = {overhead:.3g} s ({100 * overhead / total:.2g} % of traced job_s)"]


def parse_args(argv, names):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale-down", dest="scale_down", type=int, default=1,
                        help="divide N by this factor (self-tests use tiny N)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or args.scale_down < 1:
        parser.error("--seed and --seconds must be >= 0, --scale-down >= 1")
    return args


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_library()
    from samplets import InvalidInput, NonPositivePivot, ResourceLimit
    from spans import Tracer
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    cls = WORKLOADS[args.workload]
    n = cls.full_n // args.scale_down
    env = environment()
    OUT.mkdir(exist_ok=True)
    ops = Ops((InvalidInput, NonPositivePivot, ResourceLimit))
    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"workload {cls.name}  N {n}  d {cls.dim}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    values: dict = {}
    details: list = []
    notes: list[str] = []
    try:
        full = run_pass(cls, args.seed, n, tracer, ops, "full", args.seconds,
                        ROUNDS, MIN_REQUESTS, full=True)
        if args.trace:
            basis = full.workload.basis
            full.workload = None  # release the job's outputs before the extra calls
            nnz_computed = 0 if cls.kernel is None else extra_h2_calls(cls, basis, tracer, ops)
            del basis
            half = run_pass(cls, args.seed, n // 2, tracer, ops, "half", 0.0,
                            HALF_ROUNDS, HALF_REQUESTS, full=False)
            values = per_layer(tracer, full, half, nnz_computed,
                               [m["name"] for m in wanted])
            notes = job_accounting(tracer, full)
        else:
            values = end_to_end(full)
            details = request_details(full) + full.workload.details()
    except Aborted:
        pass

    if args.trace:
        tracer.write(OUT / f"trace-{cls.name}-seed{args.seed}.jsonl",
                     {"workload": cls.name, "seed": args.seed, "n": n, "env": env})
    return report(cls, wanted, values, details, notes, ops)


def report(cls, wanted, values, details, notes, ops) -> int:
    one, many = cls.request_nouns
    alias = {"request_p50_ms": f"{one}_p50_ms", "request_p90_ms": f"{one}_p90_ms",
             "requests_per_s": f"{many}_per_s"}
    print(f"{'metric':<34} {'value':>14}  {'unit':<12} {'better':<7} samples")
    metrics = {}
    rows = []
    for m in wanted:
        if m["name"] in values:
            value, samples = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            rows.append((m["name"], value, m["unit"], m["better"], samples))
    rows += details
    for name, value, unit, better, samples in rows:
        name += f" ({alias[name]})" if name in alias else ""
        print(f"{name:<34} {value:>14.6g}  {unit:<12} {better:<7} {samples}")
    for line in notes:
        print(line)
    for failure in ops.failures:
        print(f"FAILED {failure}")
    complete = len(metrics) == len(wanted)
    if not complete:
        print("missing metrics: " + ", ".join(m["name"] for m in wanted
                                              if m["name"] not in metrics))
    correct = complete and not ops.failures
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": len(ops.failures), "metrics": metrics}))
    return 0 if correct else 1
