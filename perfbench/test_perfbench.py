"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SMALL_OP = "verify-theorem --q 2 --m 3 --r-all --method both".split()
CHEAP_OP = "ghw --q 4 --m 2 --r 6".split()


def test_golden_covers_every_op():
    golden = run.load_golden()
    for ops in run.WORKLOADS.values():
        for argv in ops:
            assert golden[run.op_key(argv)]["exit"] == 0


def test_tampered_digest_counts_as_failure():
    golden = run.load_golden()
    key = run.op_key(CHEAP_OP)
    _, results = run.run_pass([CHEAP_OP], golden)
    assert [ok for *_, ok in results] == [True]

    tampered = dict(golden)
    tampered[key] = dict(golden[key], sha256="0" * 64)
    _, results = run.run_pass([CHEAP_OP], tampered)
    assert [ok for *_, ok in results] == [False]

    wrong_exit = dict(golden)
    wrong_exit[key] = dict(golden[key], exit=4)
    _, results = run.run_pass([CHEAP_OP], wrong_exit)
    assert [ok for *_, ok in results] == [False]


def test_build_code_cache_is_cold_per_op():
    from rmbetti import rm
    run.run_op(CHEAP_OP)
    assert rm.build_code.cache_info().currsize == 1
    run.run_op(CHEAP_OP)
    assert rm.build_code.cache_info().currsize == 1


def test_trace_spans_add_up_and_uninstall_restores():
    from rmbetti import bits, cli, rm, srres
    originals = (cli.main, rm.build_code, srres.subset_sum_accumulate,
                 bits.subset_sum_accumulate)
    golden = run.load_golden()
    tracer = Tracer()
    tracer.install()
    assert srres.subset_sum_accumulate is bits.subset_sum_accumulate
    assert srres.subset_sum_accumulate is not originals[2]
    try:
        seconds, results = run.run_pass([SMALL_OP, CHEAP_OP], golden, tracer)
    finally:
        tracer.uninstall()
    assert (cli.main, rm.build_code, srres.subset_sum_accumulate,
            bits.subset_sum_accumulate) == originals
    assert all(ok for *_, ok in results)
    assert run.check_trace(tracer, results, 0.0) == []

    metrics = layer_metrics(tracer, [r[0] for r in results])
    assert metrics["linalg.faces"][0] > 0
    assert metrics["srres.restrictions"][0] == 4 * 2 ** 8   # every r cross-checked at n = 8
    assert metrics["bits.transform_cells"][0] > 0
    assert metrics["rm.build_code_calls"][0] > 0
    assert metrics["gf.lookup_calls"][0] > 0
    assert 0 < metrics["linalg.faces_s"][0] < seconds


def test_trace_file_is_json(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        run.run_pass([CHEAP_OP], run.load_golden(), tracer)
    finally:
        tracer.uninstall()
    path = tmp_path / "trace.json"
    tracer.write(path)
    data = json.loads(path.read_text())
    assert len(data["spans"]) == len(tracer.spans) > 0
    assert "cli.main" in data["names"]


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    t = run.tail([float(i) for i in range(20)])
    assert t == {"percentile": 50.0, "value": 9.0, "samples": 20}


def test_benchmark_json_names_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    reported = list(layer_metrics(Tracer(), [])) + ["gf.field_build_s",
                                                     "trace.overhead_frac"]
    assert names == reported
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_exclusions_stay_out_of_the_workloads():
    excluded = json.loads((BENCH / "exclusions.json").read_text())["exclusions"]
    keys = {run.op_key(argv) for ops in run.WORKLOADS.values() for argv in ops}
    assert excluded and all(e["argv"] not in keys for e in excluded)


def test_typical_pass_takes_each_ops_median_cpu():
    ref = run.REF_NOMINAL_CPU_S
    passes = [(1.0, [(0, "a", 0.5, 0.4, ref, True), (1, "b", 0.3, 0.2, ref, True)]),
              (1.0, [(2, "b", 0.4, 0.3, 2 * ref, True), (3, "a", 0.7, 0.6, 2 * ref, True)]),
              (1.0, [(4, "a", 0.6, 0.5, 2 * ref, True), (5, "b", 0.2, 0.1, 2 * ref, False)])]
    assert abs(run.typical_pass_cpu(passes) - (0.5 + 0.25)) < 1e-12
    assert abs(run.speed_factor(passes) - 2.0) < 1e-12


def test_reference_kernel_is_fixed_work():
    assert run.reference_kernel() == run.reference_kernel() > 1000
    assert 0 < run.time_reference() < 1.0


def test_op_cpu_time_is_measured():
    code, _, wall, cpu = run.run_op(CHEAP_OP)
    assert code == 0 and 0 < cpu <= wall * 1.5 + 0.01
