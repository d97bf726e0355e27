"""Command-line surface: outputs, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmbetti import cli, codes, rm, srres, verify

CLI = [sys.executable, "-m", "rmbetti"]


def run(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def test_dim_text_and_agreement():
    proc = run("dim", "--q", "2", "--m", "4", "--r", "2")
    assert proc.returncode == 0
    assert "11" in proc.stdout and "all sources agree: True" in proc.stdout


def test_dim_full_space():
    proc = run("dim", "--q", "3", "--m", "2", "--r", "4", "--output", "json",
               "--no-timing")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["code"]["k"] == 9
    assert report["details"]["generator_rank"] == 9


def test_bad_parameters_exit_2():
    assert run("dim", "--q", "6", "--m", "2", "--r", "1").returncode == 2
    assert run("dim", "--q", "3", "--m", "2", "--r", "9").returncode == 2
    assert run("ghw", "--q", "0", "--m", "1", "--r", "0").returncode == 2
    assert run("certificate", "--q", "3", "--m", "3", "--r", "4").returncode == 2


def test_distance_reports_both_routes():
    proc = run("distance", "--q", "3", "--m", "2", "--r", "2", "--output",
               "json", "--no-timing")
    report = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert report["details"] == {"formula": 3, "bruteforce": 3,
                                 "method": "formula+bruteforce"}


def test_ghw_profile_output():
    proc = run("ghw", "--q", "2", "--m", "3", "--r", "1", "--output", "json",
               "--no-timing")
    report = json.loads(proc.stdout)
    assert report["ghw"] == [4, 6, 7, 8]


def test_betti_csv_contract():
    proc = run("betti", "--q", "2", "--m", "1", "--r", "1", "--output", "csv")
    assert proc.returncode == 0
    assert proc.stdout == "i,j,beta\n0,0,1\n1,1,2\n2,2,1\n"


def test_betti_both_backends_and_json():
    proc = run("betti", "--q", "2", "--m", "2", "--r", "1", "--backend", "both",
               "--output", "json", "--no-timing")
    report = json.loads(proc.stdout)
    assert report["betti"] == [{"i": 0, "j": 0, "beta": 1},
                               {"i": 1, "j": 2, "beta": 6},
                               {"i": 2, "j": 3, "beta": 8},
                               {"i": 3, "j": 4, "beta": 3}]
    assert report["purity"]["pure"] and report["purity"]["linear"]


def test_betti_backend_mismatch_names_the_row(monkeypatch, capsys):
    wrong = srres.BettiTable(n=4, k=3, entries={(0, 0): 1})
    monkeypatch.setattr(srres, "betti_hochster", lambda code, ell, symmetries=(): wrong)
    argv = ["betti", "--q", "2", "--m", "2", "--r", "1", "--backend", "both",
            "--char", "3"]
    assert cli.main(argv) == 5
    assert ("Betti backends disagree for (q=2, m=2, r=1, char=3)"
            in capsys.readouterr().err)


ROUTES = [
    ("purity --q 4 --m 2 --r 3", 0, 1, 0),        # n = 16: the fast path alone
    # the prime is refused before the 2^20-point grid, which is refused too
    ("betti --q 2 --m 20 --r 1 --char 4", 2, 0, 0),
    ("betti --q 2 --m 20 --r 1", 3, 0, 0),
    ("betti --q 4 --m 2 --r 3 --backend homology", 3, 0, 1),   # n = 16 > 12
    # the homology refusal comes before the fast path builds its table
    ("betti --q 2 --m 4 --r 2 --backend both", 3, 0, 1),
    ("betti --q 2 --m 3 --r 1 --backend both --char 2147483647", 0, 1, 1),
]


@pytest.mark.parametrize("argv,exit_code,fast_paths,homology_sweeps", ROUTES,
                         ids=[f"{argv}-{code}-{sweeps}" for argv, code, _, sweeps in ROUTES])
def test_betti_route_exit_codes(monkeypatch, capsys, argv, exit_code, fast_paths,
                                homology_sweeps):
    calls = []
    for name in ("betti_fastpath", "betti_hochster"):
        backend = getattr(srres, name)
        monkeypatch.setattr(srres, name, lambda *args, name=name, backend=backend:
                            calls.append(name) or backend(*args))
    assert cli.main(argv.split()) == exit_code, capsys.readouterr().err
    assert calls.count("betti_fastpath") == fast_paths
    assert calls.count("betti_hochster") == homology_sweeps


def test_purity_match_exit_zero():
    proc = run("purity", "--q", "3", "--m", "2", "--r", "2", "--output", "json",
               "--no-timing")
    report = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert report["purity"]["pure"] is False
    assert report["prediction"]["pure_predicted"] is False
    assert report["match"] is True


def test_certificate_json_and_exit():
    proc = run("certificate", "--q", "4", "--m", "2", "--r", "4", "--output",
               "json", "--no-timing")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    cert = report["certificate"]
    assert cert["weight"] == 4 and cert["d1"] == 3
    assert all(cert["checks"].values())
    assert report["match"] is True


def test_verify_theorem_text_and_exit():
    proc = run("verify-theorem", "--q", "3", "--m", "2", "--r-all")
    assert proc.returncode == 0
    assert "all rows match: True" in proc.stdout


def test_verify_theorem_csv():
    proc = run("verify-theorem", "--q", "3", "--m", "2", "--r-all",
               "--output", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "q,m,r,n,k,d,predicted,computed,certificate_ok,match"
    assert len(lines) == 6


def test_verify_mds_sweep():
    proc = run("verify-mds", "--q", "3", "--m", "2", "--r-all", "--output",
               "json", "--no-timing")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["match"] is True
    decided = [row["mds_computed"] for row in report["rows"]]
    assert decided == [True, False, False, True, True]


def test_too_large_exit_3_with_machine_readable_reason():
    proc = run("betti", "--q", "3", "--m", "3", "--r", "2")
    assert proc.returncode == 3
    payload = json.loads(proc.stderr.strip().splitlines()[-1])
    assert payload["error"] == "too_large"


def run_bounded(argv):
    """One CLI run in a child capped at 10 s and 2 GiB of address space, so a
    size a guard should refuse fails the test instead of exhausting memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    return subprocess.run(CLI + argv.split(), capture_output=True, text=True,
                          timeout=10, preexec_fn=cap,
                          env={**os.environ, "OMP_NUM_THREADS": "1",
                               "OPENBLAS_NUM_THREADS": "1"})


def assert_refused_too_large(proc):
    assert proc.returncode == 3, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "too_large"


@pytest.mark.parametrize("backend", ["homology", "both"])
def test_homology_backend_bounded_by_cross_check_n(backend):
    # n = 16 passes max_n_betti (16) but not srres.MAX_HOMOLOGY_N (12)
    proc = run_bounded(f"betti --q 2 --m 4 --r 2 --backend {backend}")
    assert_refused_too_large(proc)
    assert "n <= 12" in proc.stderr


@pytest.mark.parametrize("argv,limit", [
    ("dim --q 40009 --m 1 --r 0", "1048576 cells"),   # field tables, ~3 GiB
    ("dim --q 2 --m 28 --r 1", "65536 points"),       # point grid, ~56 GiB
    ("distance --q 2 --m 16 --r 1", "1073741824 bytes"),  # parity-check matrix, 4 GiB
    # G and its elimination budget of 8 bytes a cell, 1.4 GiB
    ("dim --q 2 --m 16 --r 4", "1073741824 bytes"),
    # the grid is refused before m(q-1)+1 rows or an m-variable witness
    ("verify-theorem --q 2 --m 30000000 --r-all", "65536 points"),
    ("certificate --q 3 --m 3000000 --r 3", "65536 points"),
    ("certificate --q 5 --m 3000000 --r 5", "65536 points"),
])
def test_sizes_refused_before_allocating(argv, limit):
    proc = run_bounded(argv)
    assert_refused_too_large(proc)
    assert limit in proc.stderr


@pytest.mark.parametrize("m,k", [(15, 16), (16, 17)])
def test_dim_ranks_the_generator_matrix_of_long_codes(m, k):
    # dim never builds the 65519 x 65536 parity-check matrix of m = 16
    proc = run_bounded(f"dim --q 2 --m {m} --r 1 --output json --no-timing")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == {"n": 2 ** m, "k": k, "d": 2 ** (m - 1)}
    assert set(report["details"].values()) == {k}
    assert report["match"] is True


def test_out_of_memory_exits_3_with_one_line():
    # the half-span of 16^11 words of 256 bytes (4 PiB) fails to allocate
    # when --max-enum lets the enumeration through
    proc = run_bounded("distance --q 16 --m 2 --r 5 --max-enum 1" + "0" * 40)
    assert_refused_too_large(proc)
    assert "out of memory" in proc.stderr


def test_homology_char_bounded_before_the_primality_test(monkeypatch, capsys):
    tested = []
    monkeypatch.setattr(srres, "is_prime", lambda n: tested.append(n) or True)
    argv = "betti --q 2 --m 2 --r 1 --backend homology --char 1000000000000000003"
    assert cli.main(argv.split()) == 2
    assert tested == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("char", ["4", "0", "2147483648"])
def test_char_is_checked_on_every_backend(monkeypatch, capsys, char):
    tested = []
    is_prime = srres.is_prime
    monkeypatch.setattr(srres, "is_prime", lambda n: tested.append(n) or is_prime(n))
    assert cli.main(["betti", "--q", "2", "--m", "2", "--r", "1", "--char", char]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    # the bound is checked first, so 2^31 never reaches the primality test
    assert tested == ([] if char == "2147483648" else [int(char)])


def test_fast_backend_answers_alike_for_every_admitted_char(capsys):
    outputs = []
    for char in ("2", "3"):
        assert cli.main(["betti", "--q", "2", "--m", "2", "--r", "1", "--backend",
                         "fast", "--char", char, "--output", "json",
                         "--no-timing"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_largest_admitted_char_answers_like_char_2(capsys):
    outputs = []
    for char in ("2", "2147483647"):
        assert cli.main(["betti", "--q", "2", "--m", "2", "--r", "1", "--backend",
                         "homology", "--char", char, "--output", "json",
                         "--no-timing"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["betti"][-1] == {"i": 3, "j": 4, "beta": 3}


@pytest.mark.parametrize("argv", ["verify-theorem --q 3 --m 2 --r-all --jobs 0",
                                  "dim --q 2 --m 2 --r 1 --jobs -4"])
def test_jobs_below_one_exits_2(argv, capsys):
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --jobs must be >= 1, got {argv.split()[-1]}"]


@pytest.mark.parametrize("argv,exit_code", [
    ("verify-mds --q 9 --m 2 --r 8 --max-enum 100", 3),
    ("verify-theorem --q 3 --m 2 --r-all --max-n-betti 0 --method betti", 3),
    ("verify-theorem --q 2 --m 3 --r-all --method certificate", 2),
])
def test_sweep_with_no_decided_row_is_not_a_mismatch(argv, exit_code, capsys):
    # guard-skipped rows exit 3, rows no requested route applies to exit 2
    assert cli.main(argv.split() + ["--output", "json", "--no-timing"]) == exit_code
    captured = capsys.readouterr()
    assert json.loads(captured.out)["match"] is False
    err = captured.err.splitlines()
    assert len(err) == 1
    if exit_code == 3:
        assert json.loads(err[0])["error"] == "too_large"
    else:
        assert err[0].startswith("error: ")


def test_explicit_zero_guards_are_kept_and_negative_refused():
    proc = run("distance", "--q", "2", "--m", "3", "--r", "1", "--max-enum",
               "0", "--output", "json", "--no-timing")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["guards"]["max_enum"] == 0
    assert report["guards"]["max_subspaces"] == codes.MAX_SUBSPACES
    assert report["details"] == {"formula": 4, "bruteforce": None,
                                 "method": "formula"}
    proc = run("distance", "--q", "2", "--m", "3", "--r", "1",
               "--max-subspaces", "0")
    assert proc.returncode == 2  # the flag is gone
    for flag in ("--max-enum", "--max-n-betti"):
        proc = run("distance", "--q", "2", "--m", "3", "--r", "1", flag, "-5")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1


def test_out_file_writing(tmp_path):
    target = tmp_path / "report.json"
    proc = run("purity", "--q", "2", "--m", "2", "--r", "1", "--output", "json",
               "--no-timing", "--out", str(target))
    assert proc.returncode == 0 and proc.stdout == ""
    report = json.loads(target.read_text())
    assert report["match"] is True


def test_certificate_file_rechecks_and_malformed_keys_give_reasons(tmp_path):
    target = tmp_path / "cert.json"
    assert cli.main(["certificate", "--q", "4", "--m", "2", "--r", "4", "--output",
                     "json", "--out", str(target)]) == 0
    with open(target, encoding="utf-8") as fh:
        report = json.load(fh)
    guards = verify.Guards(report["guards"]["max_n_betti"], report["guards"]["max_enum"])
    cert = report["certificate"]
    assert verify.check_certificate(cert, guards).ok

    # a malformed file gives reasons, not exceptions
    field = cert["field"]
    without_modulus = {name: v for name, v in field.items() if name != "modulus"}
    for bad in (list(field.values()), without_modulus):
        assert verify.check_certificate({**cert, "field": bad}, guards).reasons \
            == ("params",), bad
    without_coeff = [{"exponents": term["exponents"]} for term in cert["witness_poly"]]
    assert verify.check_certificate({**cert, "witness_poly": without_coeff},
                                    guards).reasons == ("witness_terms",)


def test_unwritable_out_exits_2(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = run("dim", "--q", "2", "--m", "2", "--r", "1", "--out", str(target))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: cannot write --out {target}: No such file or directory"]


def test_json_timing_included_by_default():
    proc = run("dim", "--q", "2", "--m", "2", "--r", "1", "--output", "json")
    report = json.loads(proc.stdout)
    assert isinstance(report["timing_ms"], int)


def test_repeated_runs_byte_identical():
    args = ("verify-theorem", "--q", "3", "--m", "2", "--r-all", "--output",
            "json", "--no-timing")
    first = run(*args)
    second = run(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_jobs_do_not_change_bytes():
    base = run("verify-theorem", "--q", "3", "--m", "2", "--r-all",
               "--output", "json", "--no-timing")
    parallel = run("verify-theorem", "--q", "3", "--m", "2", "--r-all",
                   "--output", "json", "--no-timing", "--jobs", "4")
    assert base.stdout == parallel.stdout
    assert parallel.returncode == 0
    mds = ("verify-mds", "--q", "3", "--m", "2", "--r-all", "--output", "json",
           "--no-timing")
    base = run(*mds, "--jobs", "1")
    parallel = run(*mds, "--jobs", "2")
    assert base.returncode == parallel.returncode == 0
    assert base.stdout == parallel.stdout


# (argv, exit code, sha256 of stdout) under --no-timing, recorded once from
# the CLI and never re-recorded: any byte of drift in text, JSON or CSV fails.
PINNED_OUTPUTS = [
    ("dim --q 2 --m 4 --r 2",
     0, "bd1add4e97d6433a3cbf294ddb26f25487550d67ad7a006b8365858cb0ed8bce"),
    ("dim --q 3 --m 2 --r 4 --output json",
     0, "34c59cc780ad15904da4a33baf74f76cfe0b0ed1780c62a277a7402dd13093bb"),
    ("distance --q 3 --m 2 --r 2 --output json",
     0, "930b9dab68e574efe95ec100005e093316060bcf3fed8a5f74567fcfd03b38a2"),
    ("distance --q 2 --m 3 --r 1",
     0, "e000a86bc314f3a34e4a9f7e7b99dea4797b74bac34ca95754a15aaf7d222171"),
    ("ghw --q 2 --m 3 --r 1 --output csv",
     0, "e252e789ff011a02706c1370cd24f0c132bcb78df7bfb130b66677b01ab1b252"),
    ("ghw --q 3 --m 2 --r 2 --output json",
     0, "9e630220dd8b3134358920ce717547eb19c1337ea0f778d3bfb011a311984547"),
    ("betti --q 2 --m 2 --r 1 --backend both --output json",
     0, "46817b37b73a888c0eb1e30f59142e2783eea4aa91932d2f3298c3132953dde5"),
    ("betti --q 2 --m 2 --r 1 --backend homology --char 3 --output csv",
     0, "a014313edaab08a137fed3f0ec70c4fdc3ff5c03fcb025a236fdb14bba22dabc"),
    ("betti --q 3 --m 2 --r 2",
     0, "9ae080d543ff3ea3e74062b15881ec41cc6308d03b733cda68bc288df5f6ed3f"),
    ("purity --q 3 --m 2 --r 2 --output json",
     0, "83d754693bbbe8203f737b62226eeb536637f173608e2c8b164dae8302b0dcad"),
    ("purity --q 2 --m 2 --r 1",
     0, "ffcba03ae7a35c1312bfcb341c08e15d51a87fac21060b85636d938aaedda4a8"),
    ("certificate --q 4 --m 2 --r 4 --output json",
     0, "3d3dee3ca6cf56b496b8c902905f305b7771a05ecd2e5caaaedcab3712abb4c2"),
    ("certificate --q 3 --m 3 --r 3",
     0, "2a26ab7d86a66c73d10b59617fae56d10428ec638bcb6a5cc57531bdc80cef88"),
    ("verify-theorem --q 3 --m 2 --r-all --output json",
     0, "5855357a98d5f3b2b73236cd6234e87e47562ad5898520c2f9bd179076f6cad2"),
    ("verify-theorem --q 2 --m 3 --r-all --method betti",
     0, "f177a2d79280913d21399053e7869e6ffeeb5080428df8b3d6f6be8337df860c"),
    ("verify-theorem --q 4 --m 2 --r-all --method certificate --output csv",
     0, "9661ef9a32478b3f26c174db3155d138470c5e32458a09129e1bab86ac35e768"),
    ("verify-theorem --q 4 --m 2 --r-all --max-n-betti 4 --output json",
     0, "0ef10e8e26a51ef2d2a4181f45d19e7c96931ebe6579b3a37de54f8600501379"),
    ("verify-mds --q 3 --m 2 --r-all --output json",
     0, "f2473bcccdec8cc48ce140d9d4a08c1738e4837b338c1b1207fa3c6a4a894b55"),
    ("verify-mds --q 3 --m 2 --r-all",
     0, "60e85ce502151d2e8cef2ae975210ae7a10770890487c25a19b27ea5d37d5a22"),
    ("verify-mds --q 3 --m 2 --r-all --output csv",
     0, "85ef10ae99264cd60c1aa3cd1fb3beb0ada94ff8edbdaa7480809a55f09ca381"),
    ("verify-mds --q 2 --m 3 --r 1 --output json",
     0, "f24ae32e22809034b72210ab140bb1ce3d3899949bcf02a1eb743c57fc457747"),
    ("verify-mds --q 9 --m 2 --r 8 --max-enum 100 --output json",
     3, "15dda895af895f7747f40912515982df763447ae6d87bbc4e1f22670c7e7028a"),
    ("dim --q 2 --m 2 --r 1 --output csv",
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dim --q 6 --m 2 --r 1",
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("certificate --q 3 --m 3 --r 4 --output json",
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("betti --q 3 --m 3 --r 2 --output json",
     3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv,exit_code,digest", PINNED_OUTPUTS,
                         ids=[case[0] for case in PINNED_OUTPUTS])
def test_output_bytes_pinned(argv, exit_code, digest, capsys):
    code = cli.main(argv.split() + ["--no-timing"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)



GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def test_benchmark_golden_ops_keep_their_bytes(capsys):
    """Every op of the benchmark's golden file, run in process with its
    cli_flags and a cold code cache, keeps its exit code and the sha256 of
    its stdout; the file is only read."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = {}
    for op in golden["ops"]:
        rm.build_code.cache_clear()
        code = cli.main(op.split() + golden["cli_flags"])
        got[op] = {"exit": code,
                   "sha256": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    assert len(got) == 41 and got == golden["ops"]


def test_json_emitter_matches_json_dumps(monkeypatch, capsys):
    def dumps(report):
        return json.dumps(report, indent=2, default=np.ndarray.tolist)

    hand_built = {
        "empty": [[], {}, [[]], [{}], {"a": []}, ()],
        "ints": [1, -2, 3 ** 40, 0], "rows": ((1, 2), (3, 4)), "mixed": [1, True, 0, False],
        "scalars": [None, 1.5, -0.0, 1e300, True],
        "strings": ["", "tab\t quote\" back\\ nl\n", "non-ascii \u00e9\u2211\U0001f600", "\x00"],
        "nested": {"x": {"y": [{"z": (None,)}]}},
    }
    arrays = {
        "flat": np.arange(7, dtype=np.uint8), "matrix": np.arange(12).reshape(3, 4) % 5,
        "empty": np.zeros(0, dtype=np.uint8), "no_rows": np.zeros((0, 3), dtype=np.int64),
        "no_columns": np.zeros((3, 0), dtype=np.uint8),
        "wide_uint16": np.arange(600, dtype=np.uint16).reshape(20, 30),
        "sparse_uint16": np.array([[300, 0], [65535, 256]], dtype=np.uint16),
        "int64": np.array([[0, 1], [1, 0]], dtype=np.int64),
        "negative": np.array([[0, -1], [2, 3]]), "bool": np.array([[True, False]]),
        "nested": [{"g": np.eye(2, dtype=np.uint8)}, (np.arange(3),)],
    }
    for report in (hand_built, arrays):
        assert cli._json_text(report) == dumps(report)
    # arrays anywhere, and report strings and keys that spell a placeholder
    # (a run of NULs, with or without digits after it) next to them
    spliced = (np.arange(5), [np.arange(3), np.eye(2, dtype=np.uint8)],
               [{"a": [{"b": [{"c": np.arange(4)}]}]}], np.array([5, 0, 9]),
               {"s": "\x000", "array": np.arange(2), "t": "\x00", "u": ["\x001", "\x00\x00"]},
               {"\x00": np.arange(3), "\x00\x00": [np.eye(2, dtype=np.int64)]},
               {1: np.arange(3), None: "int and null keys"})
    for report in spliced:
        assert cli._json_text(report) == dumps(report)
    for fallback in ({1: "int key"}, {"ok": [{"a": 1, None: 2}]},
                     {"arrays": arrays, 3: "int key"}):
        assert cli._json_text(fallback) == dumps(fallback)
    with pytest.raises(TypeError):
        cli._json_text({"unencodable": {1, 2}})
    with pytest.raises(TypeError):
        cli._json_text({"unencodable": {1, 2}, "array": np.arange(3)})

    reports = []
    emit = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda report: reports.append(report) or emit(report))
    for argv in ("certificate --q 4 --m 2 --r 4", "certificate --q 8 --m 2 --r 8",
                 "verify-theorem --q 3 --m 2 --r-all", "ghw --q 2 --m 3 --r 1"):
        assert cli.main(argv.split() + ["--output", "json", "--no-timing"]) == 0
        assert capsys.readouterr().out == dumps(reports[-1]) + "\n"
    assert len(reports) == 4


DOCUMENTED_EXITS = (0, 2, 3, 4, 5)
COMMANDS = ("dim", "distance", "ghw", "betti", "purity", "certificate",
            "verify-theorem", "verify-mds")
SMALL_GUARD = st.none() | st.integers(-2, 64)


def valid_or_any(valid, lo, hi):
    """A valid value or anything in lo..hi, about equally often."""
    return st.one_of(valid, st.integers(lo, hi))


@st.composite
def cli_argv(draw):
    """Any subcommand on q in 0..10 (non-prime-powers too), m in -1..3 with
    q^m <= 81 and r in -1..m(q-1)+1, with optional small or negative guards.

    Half of the certificate draws are instances of the s = 1 band, where
    certificates exist: q a prime power >= 3, m in 2..3 with q^m <= 81 and
    r = t(q-1) + 1 for t in 1..m-1.  Uniform draws would rarely land there.
    """
    command = draw(st.sampled_from(COMMANDS))
    if command == "certificate" and draw(st.booleans()):
        q = draw(st.sampled_from((3, 4, 5, 7, 8, 9)))
        m = draw(st.integers(2, 3).filter(lambda m: q ** m <= 81))
        argv = [command, f"--q={q}", f"--m={m}",
                f"--r={draw(st.integers(1, m - 1)) * (q - 1) + 1}"]
    else:
        q = draw(valid_or_any(st.sampled_from((2, 3, 4, 5, 7, 8, 9)), 0, 10))
        m = draw(valid_or_any(st.integers(1, 3), -1, 3).filter(
            lambda m: m < 1 or q ** m <= 81))
        argv = [command, f"--q={q}", f"--m={m}"]
        if command.startswith("verify-") and draw(st.booleans()):
            argv.append("--r-all")
        else:
            top = m * (q - 1)
            r = draw(valid_or_any(st.integers(0, max(0, top)), -1, max(-1, top + 1)))
            argv.append(f"--r={r}")
    for flag in ("--max-n-betti", "--max-enum"):
        value = draw(SMALL_GUARD)
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv + [f"--output={draw(st.sampled_from(('text', 'json', 'csv')))}"]


# derandomized: tier-1 runs the same 50 inputs, so its time stays bounded
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(argv=cli_argv())
def test_every_input_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in DOCUMENTED_EXITS, (argv, code, err.getvalue())
    if code == 0 and argv[-1] == "--output=json":
        stdout = out.getvalue()
        assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n", argv


def test_fuzzer_finds_nothing_and_rechecks_certificates(capsys):
    import fuzz_cli                     # here, since fuzz_cli imports this module
    assert fuzz_cli.main(["300", "0"]) == 0
    summary = capsys.readouterr().out
    rechecked = int(re.search(r"; (\d+) certificates re-checked from their JSON",
                              summary).group(1))
    assert rechecked >= 1, summary


# (argv, exit code, sha256 of stdout + NUL + stderr + NUL + exit code) with
# COLUMNS=80, recorded once from `python -m rmbetti` and never re-recorded:
# the per-command parser must print what the eight-command one printed.
# argparse lays out help differently from one Python minor version to the
# next; these are Python 3.11's bytes.
PINNED_HELP = [
    ("--help", 0, "c170cbabf5452cc4ffc13723ff18d0229efc16b267ded1eddb93b331e38cb2d0"),
    ("dim --help", 0, "66678630b515a025887c23a4091e857feb1ac66702d2834136a86b8943597650"),
    ("distance --help", 0, "2824991e941c35ff9873489e18ce3efdb32c678aa038ebf13b60515c49d234d2"),
    ("ghw --help", 0, "daea6555573b846304d2178437f60980e01fe86d74be95ee2618cf23eb5e87c7"),
    ("betti --help", 0, "f59ff03ca06340777479f1ad081fa69e477bdfcbe5559537b693e17f31701626"),
    ("purity --help", 0, "4d8635d862b466de62f3f902c1473678b53779507860a2da6efc4b38f9e14646"),
    ("certificate --help", 0, "6021597b5a3fe393aa944190c127d6bae04613597f3f88662dbdfe182a2dc206"),
    ("verify-theorem --help", 0,
     "0b5d89a8189e493b1821923ec547e0ed8821c79cf748343088c38cc7351471d0"),
    ("verify-mds --help", 0, "d9e1d70f072f4467bf6672c5409b5ee10a9b6d9a8a05560b11441a7ad70c927e"),
    ("", 2, "743de6dcbea9444de369e2f320d550574867cbe6fe7da378ac5f881a56af27a6"),
    ("frobnicate", 2, "0ba3ceb68be5b027b832a67113ca2ed5662e02362ba377483942dfae5dac9c78"),
    ("ghw --q 2", 2, "3b091a6a1001cd24ffc26fa904ac36e68aa59cd680cd90a6c70b2d2e8a845507"),
    ("betti --q 2 --m 2 --r 1 --backend nope", 2,
     "c1ecbea83f7b67371643c800c836423880b24597e4c5e0d86b527fb211907e6c"),
    ("verify-mds --q 5 --m 2", 2,
     "de17f336324c83c65fc918ebbfb257c59c721cff059b879229a4e672b92e3e4e"),
]

# Runs each argv list of argv[1] through cli.main in one child process, as
# `python -m rmbetti` would (argparse exits through SystemExit), and prints
# the exit code and digest of each.
HELP_CHILD = """
import contextlib, hashlib, io, json, sys
from rmbetti import cli
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    blob = f"{out.getvalue()}\\0{err.getvalue()}\\0{code}".encode()
    print(code, hashlib.sha256(blob).hexdigest())
"""


def test_importing_the_cli_starts_no_process_pool_machinery():
    # only verify.sweep with jobs > 1 imports the pool, so a CLI call that runs
    # serially never pays for multiprocessing
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    probe = ("import sys, rmbetti.cli; print(sorted(name for name in sys.modules if "
             "name == 'multiprocessing' or name.startswith(('multiprocessing.', "
             "'concurrent.futures.process'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_help_and_usage_errors_pinned():
    argvs = [argv.split() for argv, _, _ in PINNED_HELP]
    proc = subprocess.run([sys.executable, "-c", HELP_CHILD, json.dumps(argvs)],
                          capture_output=True, text=True,
                          env=dict(os.environ, COLUMNS="80"))
    assert proc.returncode == 0, proc.stderr
    got = [line.split() for line in proc.stdout.splitlines()]
    assert got == [[str(code), digest] for _, code, digest in PINNED_HELP]


def test_a_call_builds_only_its_subcommand_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        assert cli.main(["dim", "--q", "2", "--m", "2", "--r", "1"]) == 0
    assert [p.prog for p in built] == ["rmbetti", "rmbetti dim"] * 2
    assert not {id(p) for p in built[:2]} & {id(p) for p in built[2:]}
    built.clear()
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert len(built) == 1 + len(COMMANDS)
    assert "verify-mds" in capsys.readouterr().out


def assert_same_namespace(argv):
    assert cli._build_parser(argv[0]).parse_args(argv) == cli._build_parser().parse_args(argv)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(argv=cli_argv())
def test_per_command_parser_reads_what_the_full_parser_reads(argv):
    assert_same_namespace(argv)


@pytest.mark.parametrize("argv", [
    "betti --q 2 --m 2 --r 1 --no-t --backend=both --char 3",
    "betti --q=2 --m=2 --r=1 --back both --output json",
    "verify-theorem --q 3 --m 2 --r-all --meth betti --jobs 2",
    "verify-mds --q 3 --m 2 --r-a --no-timing",
    "verify-mds --q 3 --m 2 --r 1 --max-n 4 --max-e 9",
])
def test_per_command_parser_reads_abbreviations_alike(argv):
    assert_same_namespace(argv.split())
