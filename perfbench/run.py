"""Benchmark for the rmbetti CLI.

    python3 perfbench/run.py --workload purity-sweep --seed 1 --seconds 40 --trace 0

Each op is one in-process ``rmbetti.cli.main(argv)`` call with
``--output json --no-timing --jobs 1``, started with an empty
``rm.build_code`` cache because every CLI invocation builds its code cold.
An op passes only when its exit code and the sha256 of its JSON equal the
values in ``golden.json``.  One client runs the ops in a closed loop, in
passes over the workload's op list; the seed shuffles the op order within
each pass (the library itself has no randomness).

Workloads, chosen so that each planned optimisation has one workload where
its layer does most of the work and one where it does almost none:

* ``purity-sweep``: ``verify-theorem --r-all --method both`` for four
  (q, m); the face DFS (``linalg.independent_column_sets``) dominates, plus
  the homology cross-check's many tiny RREFs.  No large-matrix RREF.
* ``certificates``: ``certificate`` for 13 s = 1 instances with n = 64..512;
  large-matrix ``linalg.rref`` dominates.  No face enumeration at all.
* ``weights``: ``ghw`` (the face DFS filling a rank table), ``distance``
  (codeword enumeration, which sets the memory peak) and ``verify-mds`` at
  n = 25 (thousands of RREFs of at most 25 columns), so a gain in one use of
  a layer that costs another shows.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``pass_norm_s`` (CPU seconds of one typical pass, the sum over the ops of
each op's median CPU time in the run, divided by the run's speed factor),
``setup_s`` (median, over fresh interpreters, of the CPU seconds of
``import rmbetti`` plus building the workload's GF(q) and point-order
tables) and ``peak_rss_mb`` (``ru_maxrss`` of this process after its first
pass).

Times are CPU times (user + system, of this process and of any child it
waits for) because the ops run single-threaded and never block, so CPU time
is the op's wall time less the time the processor was taken away.  On a
shared virtual machine that taken-away time (hypervisor steal and other
tenants) moves wall times by tens of percent between runs of the same code;
Linux with paravirtual steal accounting leaves steal out of CPU time.  The
processor's own speed drifts too, by up to ~15% over minutes, so a fixed
reference kernel that shares no code with rmbetti is timed after every op,
and the speed factor is its median CPU time over the run divided by its
nominal time.  The kernel tracks that drift only in part (it is small and
cache-resident), so the division narrows the worst run-to-run spreads more
than the typical ones.  The run record keeps the raw numbers: wall and CPU
time of every op and pass, ``pass_cpu_s`` before the division, and the
factor.

With ``--trace 1`` it reports the per-layer metrics of ``tracer.py`` from
traced passes alternated with untraced ones.  The line before it is the run
record: versions, machine, per-op times and trace checks.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# single-threaded numpy, fixed before numpy is first imported
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
CLI_FLAGS = ["--output", "json", "--no-timing", "--jobs", "1"]
SETUP_SAMPLES = 7
LIBC = ctypes.CDLL("libc.so.6")


WORKLOADS = {
    "purity-sweep": [
        f"verify-theorem --q {q} --m {m} --r-all --method both".split()
        for q, m in ((2, 3), (2, 4), (3, 2), (4, 2))],
    "certificates": [
        f"certificate --q {q} --m {m} --r {r}".split()
        for q, m, r in ((4, 3, 4), (4, 3, 7), (5, 3, 5), (5, 3, 9), (3, 5, 3),
                        (3, 5, 5), (7, 3, 7), (7, 3, 13), (4, 4, 4), (4, 4, 7),
                        (4, 4, 10), (8, 3, 8), (8, 3, 15))],
    "weights": (
        [f"ghw --q 2 --m 4 --r {r}".split() for r in range(5)]
        + [f"ghw --q 4 --m 2 --r {r}".split() for r in range(7)]
        + [f"distance --q {q} --m {m} --r {r}".split()
           for q, m, r in ((4, 3, 2), (8, 2, 2), (9, 2, 2), (4, 2, 3))]
        + [f"verify-mds --q 5 --m 2 --r {r}".split() for r in (0, 1, 2, 4, 5, 6, 7, 8)]),
}

# Runs in a fresh interpreter: the set-up every CLI invocation pays before
# its first op.  Prints the CPU seconds taken.
SETUP_PROBE = """\
import json, sys, time
t0 = time.process_time()
import rmbetti
from rmbetti import gf, rm
for q, m in json.loads(sys.argv[1]):
    gf.field(q)
    rm.point_order(q, m)
print(time.process_time() - t0)
"""


def op_key(argv) -> str:
    return " ".join(argv)


def field_params(ops) -> list[tuple[int, int]]:
    """The (q, m) pairs whose field and point tables the ops need."""
    pairs = set()
    for argv in ops:
        pairs.add((int(argv[argv.index("--q") + 1]), int(argv[argv.index("--m") + 1])))
    return sorted(pairs)


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


# The reference kernel: fixed work of the same kind as the face enumeration
# (a Python-level depth-first walk over small numpy arrays with GF(7) table
# lookups) that shares no code with rmbetti.  Timed after every op, it tells
# how fast the processor ran during the run; on a shared host that speed
# drifts by tens of percent over minutes.
REF_MUL = (np.arange(7)[:, None] * np.arange(7)[None, :] % 7).astype(np.uint8)
REF_SUB = ((np.arange(7)[:, None] - np.arange(7)[None, :]) % 7).astype(np.uint8)
REF_MAT = np.random.default_rng(5).integers(0, 7, size=(5, 11), dtype=np.uint8)
# median CPU seconds of one reference_kernel() call on the machine of
# baseline.json, so that normalised times read as seconds on that machine
REF_NOMINAL_CPU_S = 0.024


def reference_kernel() -> int:
    """Count the independent column sets of REF_MAT over GF(7)."""
    found = [0]
    ncols = REF_MAT.shape[1]

    def walk(start: int, cols: np.ndarray) -> None:
        for j in start + np.nonzero(cols[:, start:].any(axis=0))[0]:
            found[0] += 1
            if j + 1 == ncols:
                continue
            v = cols[:, j]
            pivot = int(np.nonzero(v)[0][0])
            factors = REF_MUL[int(v[pivot]), cols[pivot]]
            walk(int(j) + 1, REF_SUB[cols, REF_MUL[v[:, None], factors[None, :]]])

    walk(0, REF_MAT)
    return found[0]


def time_reference() -> float:
    """CPU seconds of one reference_kernel() call, with the garbage
    collector off so that garbage left by the ops is not charged to it."""
    gc.disable()
    try:
        started = time.process_time()
        reference_kernel()
        return time.process_time() - started
    finally:
        gc.enable()


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_op(argv):
    """One cold CLI call; returns (exit code, sha256 of stdout, wall seconds,
    CPU seconds).

    Like a fresh CLI process, the op starts with an empty code cache and a
    collected heap whose free pages went back to the system, so neither its
    time nor the peak RSS depends on which op ran before it.
    """
    from rmbetti import cli, rm
    rm.build_code.cache_clear()
    if rm.build_code.cache_info().currsize != 0:
        raise RuntimeError("rm.build_code cache not empty at op start")
    gc.collect()
    LIBC.malloc_trim(0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cpu_started = cpu_seconds()
        started = time.perf_counter()
        code = cli.main(argv + CLI_FLAGS)
        seconds = time.perf_counter() - started
        cpu = cpu_seconds() - cpu_started
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), seconds, cpu


def run_pass(ops, golden, tracer=None, first_op_id=0):
    """Run every op once, in the given order.

    Returns (pass wall seconds, [(op id, key, wall s, CPU s, reference CPU
    s, ok)]), where the reference kernel is timed right after the op and the
    pass time is the sum of the op times.  An op that raises, exits with the
    wrong code or prints other bytes than recorded fails.
    """
    results = []
    for i, argv in enumerate(ops):
        key = op_key(argv)
        op_id = first_op_id + i
        if tracer is not None:
            tracer.start_op(op_id)
        try:
            code, digest, seconds, cpu = run_op(argv)
        except Exception:  # an op that crashes is a failed op, not a crashed run
            traceback.print_exc()
            results.append((op_id, key, None, None, time_reference(), False))
            continue
        want = golden.get(key)
        ok = want is not None and code == want["exit"] and digest == want["sha256"]
        if not ok:
            print(f"op failed: {key}: exit {code}, sha256 {digest}", file=sys.stderr)
        results.append((op_id, key, seconds, cpu, time_reference(), ok))
    return sum(r[2] for r in results if r[2] is not None), results


def typical_pass_cpu(passes) -> float:
    """Sum over the ops of each op's median CPU seconds across the passes."""
    per_op: dict[str, list[float]] = {}
    for _, results in passes:
        for _, key, _, cpu, _, ok in results:
            if ok:
                per_op.setdefault(key, []).append(cpu)
    return sum(statistics.median(v) for v in per_op.values())


def speed_factor(passes) -> float:
    """Median reference-kernel CPU time over the passes, relative to its
    nominal time: above 1 when the processor ran slower than nominal."""
    refs = [r[4] for _, results in passes for r in results]
    return statistics.median(refs) / REF_NOMINAL_CPU_S


def measure_setup(pairs) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, json.dumps(pairs)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def tail(values):
    """The highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    at_or_below = n - 10
    return {"percentile": 100.0 * at_or_below / n,
            "value": sorted(values)[at_or_below - 1], "samples": n}


def check_trace(tracer, results, overhead_frac) -> list[str]:
    """Per op: one top-level span that covers the op's wall time to within
    the measured overhead, and self times that sum to that span."""
    problems = []
    for op_id, key, wall, *_ in results:
        spans = tracer.op_spans([op_id])
        top = [i for i in spans if tracer.spans[i][3] is None]
        if len(top) != 1 or wall is None:
            problems.append(f"{key}: {len(top)} top-level spans")
            continue
        s = tracer.spans[top[0]]
        span_s = s[2] - s[1]
        gap = wall - span_s
        if not 0.0 <= gap <= 1e-3 + max(overhead_frac, 0.0) * wall:
            problems.append(f"{key}: span {span_s:.6f} s vs wall {wall:.6f} s")
        self_sum = sum(tracer.self_time(i) for i in spans)
        if abs(self_sum - span_s) > 1e-6:
            problems.append(f"{key}: self times sum to {self_sum:.6f} s, span {span_s:.6f} s")
    return problems


def source_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rmbetti").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _trace_summary(tracer, pass_times, traced, record):
    """Per-layer metrics (medians over traced passes) and trace problems;
    adds the trace details to the run record and writes the spans."""
    from tracer import layer_metrics
    traced_times = [t for t, _ in traced]
    overhead = statistics.median(traced_times) / statistics.median(pass_times) - 1
    per_pass = [layer_metrics(tracer, [r[0] for r in res]) for _, res in traced]
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["gf.field_build_s"] = (
        tracer.inclusive(tracer.op_spans(["setup"]), ["gf.GF.__init__"]), "s")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    problems = [p for _, res in traced for p in check_trace(tracer, res, overhead)]

    by_name = tracer.self_by_name(tracer.op_spans([r[0] for r in traced[-1][1]]))
    layer_self: dict[str, float] = {}
    for name, s in by_name.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{record['workload']}-seed{record['seed']}.json"
    tracer.write(trace_file)
    record.update({
        "traced_passes_s": traced_times,
        "trace_file": str(trace_file.relative_to(ROOT)),
        "trace_problems": problems,
        "layer_self_s": layer_self,
        "top_self_s": sorted(by_name.items(), key=lambda kv: -kv[1])[:8],
    })
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rmbetti" / "__init__.py").is_file():
        print(f"error: rmbetti sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from rmbetti import gf, rm

    ops = WORKLOADS[args.workload]
    pairs = field_params(ops)
    golden = load_golden()
    rng = random.Random(args.seed)
    setup_samples = measure_setup(pairs)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.start_op("setup")
        gf.field.cache_clear()
        rm.point_order.cache_clear()
    for q, m in pairs:
        gf.field(q)
        rm.point_order(q, m)
    if tracer is not None:
        tracer.uninstall()

    passes = []      # untraced: (seconds, results)
    traced = []      # traced: (seconds, results)
    started = time.perf_counter()
    next_id = 0
    while True:
        order = list(ops)
        rng.shuffle(order)
        passes.append(run_pass(order, golden, first_op_id=next_id))
        next_id += len(order)
        if len(passes) == 1:
            # later passes add allocator fragmentation that varies with
            # their number and order, so the peak is read after one pass
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            rng.shuffle(order)
            tracer.install()
            try:
                traced.append(run_pass(order, golden, tracer, first_op_id=next_id))
            finally:
                tracer.uninstall()
            next_id += len(order)
            rounds = [a[0] + b[0] for a, b in zip(passes, traced)]
        else:
            rounds = [p[0] for p in passes]
        # start another round only if one of median length still fits
        if time.perf_counter() - started + statistics.median(rounds) > args.seconds:
            break

    all_results = [r for _, res in passes + traced for r in res]
    failures = [r[1] for r in all_results if not r[-1]]
    pass_times = [p[0] for p in passes]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": source_commit(), "src_sha256": source_digest(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "setup_samples_s": setup_samples,
        "passes": [{"pass_s": t, "pass_cpu_s": sum(r[3] or 0.0 for r in res),
                    "ops": [[key, s, cpu, ref] for _, key, s, cpu, ref, _ in res]}
                   for t, res in passes],
        "pass_cpu_s": typical_pass_cpu(passes),
        "speed_factor": speed_factor(passes),
        "pass_s_median": statistics.median(pass_times),
        "pass_s_tail": tail(pass_times),
        "pass_cpu_s_tail": tail([sum(r[3] or 0.0 for r in res) for _, res in passes]),
        "failures": failures,
    }
    if tracer is None:
        metrics = {
            "pass_norm_s": (typical_pass_cpu(passes) / speed_factor(passes), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        problems = []
    else:
        metrics, problems = _trace_summary(tracer, pass_times, traced, record)
    correct = not failures and not problems

    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": correct, "attempted": len(all_results), "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
