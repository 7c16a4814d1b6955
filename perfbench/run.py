"""Benchmark runner: one closed-loop workload per fresh interpreter.

    python3 perfbench/run.py --workload point-eval --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # all four, one interpreter each

One client, one thread: each op starts when the previous one has returned
and been checked.  Ops run until their summed time reaches --seconds; the
checks, the mpmath references and the set-up probes sit outside that time.
With --trace 0 the last line reports the end-to-end metrics; with --trace 1
it reports the per-layer metrics of a traced pass over the same ops an
untraced pass ran first.  Lines before it, prefixed '#', are the run record.
The library is imported from src/ of the checkout that holds this file.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
NAMES = ("order-suite", "curves", "point-eval", "sample-csv")
SETUP_PROBES = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def import_library():
    """Import unitgompertz from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "unitgompertz", "__init__.py")):
        sys.exit(f"run.py: no library sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import unitgompertz

    if os.path.dirname(os.path.dirname(os.path.abspath(unitgompertz.__file__))) != SRC:
        sys.exit(f"run.py: unitgompertz was imported from {unitgompertz.__file__}, not {SRC}")
    return unitgompertz


def commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_speed(seconds: float = 0.2) -> float:
    """Rate of a fixed pure-Python loop, for the record: it shows whether a
    run landed in a slow phase of a shared machine."""
    rates = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        total = 0.0
        for i in range(10_000):
            total += i * 0.5
        rates.append(1.0 / (time.perf_counter() - t0))
    return statistics.median(rates)


def inputs_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.kind, op.args, op.ref_args)).encode())
    return h.hexdigest()[:16]


class Tally:
    """Outcomes of checked ops: failures, known defects, digits by module."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0  # failures outside the known-defect ledger
        self.known = {}
        self.digits = {}
        self.bytes_written = 0
        self.first_failures = []

    def add(self, outcome) -> None:
        self.attempted += 1
        self.bytes_written += outcome.bytes_written
        for module, d in outcome.digits.items():
            self.digits[module] = min(d, self.digits.get(module, d))
        if outcome.ok:
            return
        if outcome.known_defect:
            self.known[outcome.known_defect] = self.known.get(outcome.known_defect, 0) + 1
            return
        self.failed += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(outcome.detail)

    @property
    def failed_frac(self) -> float:
        return (self.failed + sum(self.known.values())) / max(self.attempted, 1)

    @property
    def digits_min(self) -> float:
        import reference

        return min(self.digits.values(), default=reference.DIGITS_CAP)


class Timings:
    """Op latencies of one run in memory that does not grow with the op
    count (a faster library makes more ops, and must not raise peak_rss_mb):
    the count, the summed time, a log-spaced histogram for the median and
    the TAIL_BEYOND + 1 largest samples.  With `keep`, every latency is also
    kept in order (the traced run compares the same ops with and without
    spans).
    """

    BINS_PER_OCTAVE = 256  # bin width 0.27%; the median is interpolated within its bin

    def __init__(self, keep: bool = False):
        self.hist = array("q", [0]) * (64 * self.BINS_PER_OCTAVE)
        self.count = 0
        self.busy = 0
        self.largest = []  # min-heap
        self.kept = array("q") if keep else None

    def add(self, ns: int) -> None:
        self.hist[int(math.log2(ns) * self.BINS_PER_OCTAVE) if ns > 1 else 0] += 1
        self.count += 1
        self.busy += ns
        if len(self.largest) <= TAIL_BEYOND:
            heapq.heappush(self.largest, ns)
        elif ns > self.largest[0]:
            heapq.heapreplace(self.largest, ns)
        if self.kept is not None:
            self.kept.append(ns)

    def _median_ns(self) -> float:
        half = self.count / 2.0
        seen = 0
        for i, c in enumerate(self.hist):
            if c and seen + c >= half:
                lo, hi = (2.0 ** ((i + k) / self.BINS_PER_OCTAVE) for k in (0, 1))
                return lo + (half - seen) / c * (hi - lo)
            seen += c
        return 0.0

    def summary(self, pool_size: int) -> dict:
        """Throughput, median and tail latency over the whole run.

        The tail is the highest percentile with TAIL_BEYOND samples beyond
        it: the (TAIL_BEYOND + 1)-th largest sample.
        """
        n = self.count
        beyond = min(TAIL_BEYOND, n - 1)
        return {
            "ops_per_s": n / self.busy * 1e9,
            "p50_ms": self._median_ns() * 1e-6,
            "tail_ms": sorted(self.largest, reverse=True)[beyond] * 1e-6,
            "tail_percentile": 100.0 * (n - beyond) / n,
            "samples": n,
            "passes": n / pool_size,
        }


def run_ops(workload, ops, budget_ns, tally, timings, limit=None, op_runner=None, stop=None):
    """Closed loop over the pool until the summed op time reaches budget_ns.

    With `limit`, that many ops run instead, or fewer if `stop()` turns
    true first.  Latencies go to `timings`, outcomes to `tally`.
    """
    call, check = workload.call, workload.check
    clock = time.perf_counter_ns
    i = 0
    while (timings.busy < budget_ns) if limit is None else (timings.count < limit):
        if stop is not None and stop():
            break
        op = ops[i % len(ops)]
        i += 1
        if op_runner is None:
            t0 = clock()
            try:
                out, exc = call(op), None
            except Exception as e:  # an op that raises is a failed op, not a crash
                out, exc = None, e
            ns = clock() - t0
        else:
            out, exc, ns = op_runner(call, op)
        timings.add(ns)
        tally.add(check(op, out, exc))


def setup_seconds(name: str, seed: int) -> list[float]:
    """Import plus warm-up time, each in a fresh interpreter."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, name, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def record(line: str, payload) -> None:
    print(f"# {line} {json.dumps(payload, sort_keys=True)}")


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import numpy
    import mpmath

    lib = import_library()
    import reference
    import trace
    import workloads

    # Counted by the tracer; otherwise each distinct message would be printed.
    warnings.filterwarnings("ignore", category=lib.CancellationWarning)
    trace.assert_pristine()
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[name](OUT_DIR)
    ops = workload.pool(seed)
    record("run", {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "inputs_sha256": inputs_digest(ops), "pool_size": len(ops),
        "commit": commit(), "library": lib.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "nproc": os.cpu_count(),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "loop": "closed, 1 client, 1 thread",
    })
    t = time.perf_counter()
    workload.prepare(ops)
    record("prepare", {"references_s": round(time.perf_counter() - t, 3)})
    warm = Tally()
    for op in workload.warmup_ops(ops):
        run_ops(workload, [op], 0, warm, Timings(), limit=1)
    gc.collect()
    speed_before = machine_speed()

    tally = Tally()
    budget = int(seconds * 1e9)
    if not traced:
        timings = Timings()
        run_ops(workload, ops, budget, tally, timings)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summary = timings.summary(len(ops))
        setups = setup_seconds(name, seed)
        metrics = {
            "ops_per_s": (summary["ops_per_s"], "1/s"),
            "latency_p50_ms": (summary["p50_ms"], "ms"),
            "latency_tail_ms": (summary["tail_ms"], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        record("latency", summary)
        record("setup_probes_s", setups)
    else:
        plain = Timings(keep=True)
        run_ops(workload, ops, budget // 2, tally, plain)
        spanned = Timings()
        tracer = trace.Tracer()
        tracer.install()
        try:
            run_ops(workload, ops, 0, tally, spanned, limit=plain.count,
                    op_runner=tracer.op, stop=tracer.full)
        finally:
            tracer.uninstall()
        trace.assert_pristine()
        metrics = tracer.layer_metrics(spanned.count)
        metrics["trace.overhead_frac"] = (
            trace.overhead_frac(spanned.busy, sum(plain.kept[:spanned.count])), "frac")
        metrics["cli.bytes_written"] = (tally.bytes_written / tally.attempted, "B/op")
        for module in trace.MODULES:
            if module not in ("oracle", "orders", "cli"):
                metrics[f"{module}.digits_min"] = (
                    tally.digits.get(module, reference.DIGITS_CAP), "digits")
        metrics["failed_frac"] = (tally.failed_frac, "frac")
        metrics["digits_min"] = (tally.digits_min, "digits")
        path = os.path.join(OUT_DIR, f"spans-{name}.npz")
        tracer.save(path)
        record("spans", {"path": os.path.relpath(path, ROOT), "count": len(tracer.start),
                         "ops": spanned.count})

    record("machine_loops_per_s", {"before": speed_before, "after": machine_speed()})
    record("accuracy", {
        "failed_frac": tally.failed_frac, "digits_min": tally.digits_min,
        "known_defects": tally.known, "unexplained_failures": tally.failed,
        "first_unexplained": tally.first_failures,
    })
    for key, (value, unit) in sorted(metrics.items()):
        print(f"# metric {key} = {value:.6g} {unit}")
    for leftover in ("curve.csv", "sample.csv"):
        path = os.path.join(OUT_DIR, leftover)
        if os.path.exists(path):
            os.remove(path)
    return {
        "correct": tally.failed == 0 and warm.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {}
    for name in NAMES:  # a fresh interpreter per workload
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
