"""Purity characterization checks: predicates, certificates, sweeps."""

import dataclasses
import json

import numpy as np
import pytest

import rmbetti as rb
from rmbetti import (CertificateError, ParameterError, PreconditionError,
                     TooLargeError, cli, codes, linalg, rm, srres, verify)

from oracles import certificate_json


def test_purity_predicate_examples():
    assert not rb.purity_predicate(2, 4, 2)
    assert not rb.purity_predicate(4, 2, 4)
    assert rb.purity_predicate(3, 2, 3)  # r = m(q-1) - 1
    assert rb.purity_predicate(5, 1, 3)  # m = 1
    assert rb.purity_predicate(3, 3, 1)  # r <= 1
    with pytest.raises(ParameterError):
        rb.purity_predicate(3, 2, 9)


def test_mds_predicate_examples():
    assert rb.mds_predicate(3, 1, 1)
    assert not rb.mds_predicate(2, 3, 1)
    assert rb.mds_predicate(2, 2, 1)  # r = m(q-1) - 1 here
    assert rb.mds_predicate(4, 2, 0)
    assert not rb.mds_predicate(4, 2, 1)


def test_purity_by_betti_examples():
    assert rb.purity_by_betti(2, 1, 1).verdict.pure      # [2,2,1] full space
    assert not rb.purity_by_betti(3, 2, 2).verdict.pure
    comp = rb.purity_by_betti(2, 2, 1)
    assert comp.route == "fastpath+homology" and comp.verdict.linear
    tiny = rb.Guards(max_n_betti=4)
    with pytest.raises(TooLargeError):
        rb.purity_by_betti(3, 2, 2, tiny)
    with pytest.raises(ParameterError):
        rb.purity_by_betti(2, 2, 1, backend="Fast")


@pytest.mark.parametrize("q,m,r", [(2, 3, 1), (4, 2, 3)], ids=["n=8", "n=16"])
@pytest.mark.parametrize("ell", [2, 3, 2147483647, 4])
@pytest.mark.parametrize("backend", [None, "fast", "homology", "both"])
def test_betti_route_names_the_backends_it_ran(monkeypatch, backend, ell, q, m, r):
    """purity_by_betti over backend x homology prime x length: the prime is
    refused before a code is built, homology refuses n = 16 > 12, and the
    route names exactly the backends that ran."""
    code = rb.build_code(q, r, m)
    hochster, build = srres.betti_hochster, rm.build_code
    calls, built = [], []
    monkeypatch.setattr(srres, "betti_hochster",
                        lambda *args: calls.append(args) or hochster(*args))
    monkeypatch.setattr(rm, "build_code", lambda *args: built.append(args) or build(*args))
    short = code.n <= srres.MAX_HOMOLOGY_N
    if ell == 4:
        with pytest.raises(ParameterError):
            verify.purity_by_betti(q, m, r, backend=backend, ell=ell)
        assert built == []
        return
    if backend in ("homology", "both") and not short:
        with pytest.raises(TooLargeError, match="n <= 12"):
            verify.purity_by_betti(q, m, r, backend=backend, ell=ell)
        return
    comp = verify.purity_by_betti(q, m, r, backend=backend, ell=ell)
    route = {"fast": "fastpath", "homology": "homology", "both": "fastpath+homology",
             None: "fastpath+homology" if short else "fastpath"}[backend]
    assert comp.route == route
    assert len(calls) == ("homology" in route)
    assert comp.table == srres.betti_fastpath(code)


def test_certificate_applicable():
    assert rb.certificate_witness(4, 2, 4) is not None
    assert rb.certificate_witness(3, 3, 3) is not None
    assert rb.certificate_witness(3, 3, 4) is None   # s = 0
    assert rb.certificate_witness(2, 4, 2) is None   # q too small
    assert rb.certificate_witness(4, 2, 1) is None   # r too small
    assert rb.certificate_witness(4, 2, 5) is None   # r at the pure boundary
    assert rb.certificate_witness(4, 2, 99) is None  # out of range


@pytest.mark.parametrize("q,m,r,case,wt,d1", [
    (4, 2, 4, 1, 4, 3),
    (5, 2, 5, 1, 6, 4),
    (3, 3, 3, 2, 8, 6),
    (4, 3, 7, 1, 4, 3),  # deeper split: t = 2
])
def test_certificate_contents(q, m, r, case, wt, d1):
    cert = rb.non_purity_certificate(q, m, r)
    assert cert["case"] == case
    assert cert["weight"] == cert["formula_weight"] == wt
    assert cert["d1"] == d1
    assert cert["weight"] > cert["d1"]
    assert cert["one_minimal_weight"] > cert["d1"]
    assert cert["one_minimal_shortened_dim"] == 1
    assert set(cert["one_minimal_support"]) <= set(cert["support"])
    assert all(cert["checks"].values())
    assert rb.check_certificate(cert).ok


def test_guard_defaults_are_the_codes_limits():
    # two settable guards; the JSON also reports the three fixed limits
    assert [f.name for f in dataclasses.fields(rb.Guards)] == ["max_n_betti", "max_enum"]
    assert rb.Guards().to_json_obj() == {
        "max_n_betti": 16, "cross_check_n": srres.MAX_HOMOLOGY_N,
        "max_enum": codes.MAX_ENUM, "max_subspaces": codes.MAX_SUBSPACES,
        "homology_char": 2}
    assert list(rb.Guards(3, 4).to_json_obj()) == [
        "max_n_betti", "cross_check_n", "max_enum", "max_subspaces", "homology_char"]


def test_certificate_d1_sources():
    # every applicable instance has k >= 13, so the default enumeration guard
    # always leaves d1 on the formula route and records that explicitly
    for (q, m, r) in [(4, 2, 4), (3, 3, 3)]:
        cert = rb.non_purity_certificate(q, m, r)
        assert cert["d1_source"] == "formula"
        assert cert["d1_bruteforce"] is None
        assert cert["q"] ** cert["k"] > rb.DEFAULT_GUARDS.max_enum


def test_certificate_precondition_errors():
    for (q, m, r) in [(3, 3, 4), (3, 4, 4), (2, 4, 2), (4, 2, 3), (4, 2, 5)]:
        with pytest.raises(PreconditionError):
            rb.non_purity_certificate(q, m, r)


def _first_entry(key, change):
    """The certificate, as JSON lists, with the first entry of key's array
    changed."""
    def tamper(cert):
        rows = json.loads(json.dumps(cert[key], default=np.ndarray.tolist))
        row = rows[0] if isinstance(rows[0], list) else rows
        row[0] = change(row[0])
        return {**cert, key: rows}
    return tamper


def _terms(change):
    return lambda cert: {**cert, "witness_poly": change(cert)}


# (id, tamper, reason): array entries and witness terms that are not JSON
# integers, and terms repeated or zero; int() and a dict would read each as
# the builder's own value, so each fails the check with the reason given
NON_INTEGER_TAMPERS = [
    *((f"{key}-{kind}", _first_entry(key, change), "matrix_shapes")
      for key in ("generator_matrix", "parity_check_matrix", "codeword",
                  "one_minimal_word")
      for kind, change in (("float", lambda x: x + 0.25), ("bool", bool), ("str", str))),
    ("coeff-float", _terms(lambda cert: [
        {**term, "coeff": term["coeff"] + 0.5} for term in cert["witness_poly"]]),
     "witness_terms"),
    ("coeff-str", _terms(lambda cert: [
        {**term, "coeff": str(term["coeff"])} for term in cert["witness_poly"]]),
     "witness_terms"),
    ("exponent-bool", _terms(lambda cert: [
        {**term, "exponents": [bool(e) if e in (0, 1) else e for e in term["exponents"]]}
        for term in cert["witness_poly"]]), "witness_terms"),
    ("zero-term", _terms(lambda cert: cert["witness_poly"] + [
        {"exponents": [cert["q"] - 1] * cert["m"], "coeff": 0}]), "witness_terms"),
    ("repeated-term", _terms(lambda cert: cert["witness_poly"] + cert["witness_poly"][:1]),
     "witness_terms"),
]


def test_certificate_negative_controls():
    cert = rb.non_purity_certificate(4, 2, 4)
    tampered_d1 = {**cert, "d1": cert["d1"] + 1}
    result = rb.check_certificate(tampered_d1)
    assert not result.ok and "d1_mismatch" in result.reasons

    unit = [0] * cert["n"]
    unit[0] = 1
    tampered_word = {**cert, "one_minimal_word": tuple(unit)}
    result = rb.check_certificate(tampered_word)
    assert not result.ok and "membership" in result.reasons

    tampered_weight = {**cert, "weight": cert["weight"] + 1,
                       "formula_weight": cert["weight"] + 1}
    result = rb.check_certificate(tampered_weight)
    assert not result.ok and "weight_mismatch" in result.reasons

    tampered_params = {**cert, "r": 3}
    assert not rb.check_certificate(tampered_params).ok

    # r = 1 keeps s = 1 but leaves the band 1 < r < m(q-1) - 1
    below_band = {**cert, "r": 1, "t": 0}
    assert rb.ts_split(below_band["q"], below_band["r"]) == (0, 1)
    assert rb.check_certificate(below_band).reasons == ("params",)

    # an entry outside 0..q-1 is refused, not read modulo the characteristic
    rows = [list(row) for row in cert["generator_matrix"]]
    rows[0][0] += cert["q"]
    tampered_entry = {**cert, "generator_matrix": tuple(tuple(row) for row in rows)}
    result = rb.check_certificate(tampered_entry)
    assert not result.ok and result.reasons == ("entry_range",)

    # malformed values give reasons, not exceptions
    for value in (-1, 300, 2 ** 70):
        rows = [list(row) for row in cert["generator_matrix"]]
        rows[0][0] = value
        bad = {**cert, "generator_matrix": tuple(map(tuple, rows))}
        assert rb.check_certificate(bad).reasons == ("entry_range",)
    rows = tuple(map(tuple, cert["generator_matrix"].tolist()))
    ragged = rows[:1] + (rows[1][:-1],) + rows[2:]
    bad = {**cert, "generator_matrix": ragged}
    assert rb.check_certificate(bad).reasons == ("matrix_shapes",)
    bad = {**cert, "generator_matrix": cert["generator_matrix"][0]}
    assert rb.check_certificate(bad).reasons == ("matrix_shapes",)
    result = rb.check_certificate({**cert, "support": (0, 99)})
    assert not result.ok and "support_mismatch" in result.reasons
    assert "shortened_dim_mismatch" not in result.reasons
    three_exponents = [{**term, "exponents": term["exponents"] + [0]}
                       for term in cert["witness_poly"]]
    bad = {**cert, "witness_poly": three_exponents}
    assert rb.check_certificate(bad).reasons == ("witness_terms",)
    for coef in (cert["q"], -1):            # refused by the ExponentPoly constructor
        terms = [{**cert["witness_poly"][0], "coeff": coef}] + cert["witness_poly"][1:]
        bad = {**cert, "witness_poly": terms}
        assert rb.check_certificate(bad).reasons == ("witness_terms",)

    # a float, bool or string is not read as the integer it rounds to
    for name, tamper, reason in NON_INTEGER_TAMPERS:
        assert rb.check_certificate(tamper(cert)).reasons == (reason,), name


def _without(cert, key):
    return {name: value for name, value in cert.items() if name != key}


@pytest.mark.parametrize("tamper", [
    lambda cert: _without(cert, "d1"),
    lambda cert: _without(cert, "case"),
    lambda cert: {**cert, "weight": str(cert["weight"])},
    lambda cert: {**cert, "support": ["a"]},
    lambda cert: {**cert, "q": str(cert["q"])},
    lambda cert: {**cert, "one_minimal_support": None},
    lambda cert: _without(cert, "d1_source"),
    lambda cert: _without(cert, "checks"),
    lambda cert: [cert],
    lambda cert: {**cert, "t": True},
    lambda cert: {**cert, "case": True},
    lambda cert: {**cert, "support": [True, *cert["support"][1:]]},
], ids=["no-d1", "no-case", "str-weight", "str-support", "str-q",
        "null-one-minimal-support", "no-d1-source", "no-checks", "not-a-dict",
        "bool-t", "bool-case", "bool-in-support"])
def test_malformed_certificate_scalars_give_the_fields_reason(tamper):
    result = rb.check_certificate(tamper(rb.non_purity_certificate(4, 2, 4)))
    assert result == verify.CertificateCheck(False, ("fields",))


def test_certificate_checks_must_be_the_builders_all_true():
    cert = rb.non_purity_certificate(4, 2, 4)
    assert tuple(cert["checks"]) == verify.CERTIFICATE_CHECKS
    checks = cert["checks"]
    first, *rest = verify.CERTIFICATE_CHECKS
    for bad in ({name: False for name in checks},
                {**checks, "one_minimal_dim_is_1": False},
                {**checks, first: 1},                   # truthy is not true
                {**checks, first: "true"},
                {name: True for name in rest},          # a check missing
                {**checks, "extra": True},
                list(checks), "junk", None):
        assert rb.check_certificate({**cert, "checks": bad}).reasons == ("checks",), bad
    reordered = dict(reversed(list(checks.items())))
    assert rb.check_certificate({**cert, "checks": reordered}).ok


def test_certificate_length_dimension_and_grid_are_checked():
    cert = rb.non_purity_certificate(4, 2, 4)
    for key in ("n", "k"):
        assert rb.check_certificate({**cert, key: cert[key] + 1}).reasons == \
            ("matrix_shapes",)
    with pytest.raises(TooLargeError):      # the grid is refused, not built
        rb.check_certificate({**cert, "m": 10 ** 6})


def test_certificate_d1_bruteforce_claims_are_checked_beyond_max_enum():
    cert = rb.non_purity_certificate(4, 2, 4)
    assert cert["q"] ** cert["k"] > rb.DEFAULT_GUARDS.max_enum   # not re-enumerated
    d1 = cert["d1"]
    for bad in ({"d1_bruteforce": 2 ** 80},
                {"d1_bruteforce": 2 ** 80, "d1_source": "formula+bruteforce"},
                {"d1_bruteforce": d1 + 1, "d1_source": "formula+bruteforce"},
                {"d1_bruteforce": d1},                    # source still "formula"
                {"d1_source": "nonsense"},
                {"d1_source": "formula+bruteforce"}):     # names no brute force
        assert rb.check_certificate({**cert, **bad}).reasons == ("d1_bruteforce",)
    claimed = {**cert, "d1_bruteforce": d1, "d1_source": "formula+bruteforce"}
    assert rb.check_certificate(claimed).ok


def test_certificate_q_not_a_prime_power_gives_params():
    cert = rb.non_purity_certificate(4, 2, 4)
    for q, r in ((6, 6), (10, 10)):             # inside the s = 1 band
        assert rb.check_certificate({**cert, "q": q, "r": r}).reasons == ("params",)


def test_certificate_json_roundtrip():
    cert = rb.non_purity_certificate(3, 3, 3)
    blob = json.dumps(cert, indent=2, default=np.ndarray.tolist)
    restored = json.loads(blob)
    assert certificate_json(restored) == certificate_json(cert)
    assert rb.check_certificate(restored).ok


def test_certificate_holds_the_codes_arrays_read_only():
    q, m, r = 4, 2, 4
    cert = rb.non_purity_certificate(q, m, r)
    code = rb.build_code(q, r, m)
    assert np.shares_memory(cert["generator_matrix"], code.G)
    assert np.shares_memory(cert["parity_check_matrix"], code.H)
    for name in ("codeword", "one_minimal_word", "generator_matrix",
                 "parity_check_matrix"):
        assert isinstance(cert[name], np.ndarray)
        assert not cert[name].flags.writeable, name

    # the CLI's emitter writes the arrays; the file reads back as lists
    report = json.loads(cli._json_text({"certificate": cert}))
    restored = report["certificate"]
    assert isinstance(restored["generator_matrix"], list)
    assert certificate_json(restored) == certificate_json(cert)
    assert rb.check_certificate(restored).ok
    assert certificate_json(restored) != certificate_json(
        {**cert, "codeword": (0,) * cert["n"]})

    # every negative control reads the same from the arrays and the lists
    rows = cert["generator_matrix"].tolist()
    shifted = [rows[0][:1] + [rows[0][1] + q]] + rows[1:]
    controls = [{"d1": cert["d1"] + 1},
                {"one_minimal_word": (1,) + (0,) * (cert["n"] - 1)},
                {"weight": cert["weight"] + 1, "formula_weight": cert["weight"] + 1},
                {"r": 3}, {"r": 1, "t": 0}, {"support": (0, 99)},
                {"generator_matrix": tuple(map(tuple, shifted))},
                {"generator_matrix": tuple(map(tuple, rows[:1] + [rows[1][:-1]] + rows[2:]))},
                {"generator_matrix": tuple(rows[0])}]
    for changes in controls:
        reasons = rb.check_certificate({**cert, **changes}).reasons
        assert reasons, changes
        assert rb.check_certificate({**restored, **changes}).reasons == reasons, changes
        assert certificate_json({**restored, **changes}) != certificate_json(cert), changes


def test_pure_top_band_rows_are_mds_and_linear():
    # wherever MDS is predicted (m = 1, r = 0, or the top band), the verdict
    # must be pure AND linear with consecutive weights, and the code MDS
    for (q, m) in [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]:
        for r in range(m * (q - 1) + 1):
            if not rb.mds_predicate(q, m, r):
                continue
            comp = rb.purity_by_betti(q, m, r)
            assert comp.verdict.pure and comp.verdict.linear, (q, m, r)
            weights = rb.ghw_from_betti(comp.table)
            assert all(b == a + 1 for a, b in zip(weights, weights[1:]))
            assert rb.is_mds(rb.build_code(q, r, m)), (q, m, r)


def test_order_one_shifts_match_closed_form():
    for (q, m) in [(2, 2), (2, 3), (3, 2)]:
        comp = rb.purity_by_betti(q, m, 1)
        assert comp.verdict.pure
        k = comp.table.k
        formula = tuple(q ** m - (q ** (m - i) if m - i >= 0 else 0)
                        for i in range(1, k + 1))
        assert comp.verdict.type[1:] == formula


def test_soundness_chain_certificate_implies_betti_nonpure():
    cert = rb.non_purity_certificate(4, 2, 4)
    assert rb.check_certificate(cert).ok
    comp = rb.purity_by_betti(4, 2, 4)
    assert not comp.verdict.pure


def test_mds_check_rows():
    row = rb.mds_check(3, 1, 1)
    assert row["prediction"]["mds_predicted"] and row["mds_computed"] and row["match"]
    row = rb.mds_check(2, 3, 1)
    assert not row["prediction"]["mds_predicted"]
    assert row["mds_computed"] is False and row["match"]
    row = rb.mds_check(2, 2, 1)
    assert row["match"] and row["ghw"] == [2, 3, 4] and row["shifts_consecutive"]
    row = rb.mds_check(3, 2, 1)
    assert row["match"] and row["ghw"] == [6, 8, 9] and not row["shifts_consecutive"]
    assert row["ghw_matches_formula"]
    # enumeration too large but the support search still decides
    row = rb.mds_check(4, 2, 4, rb.Guards(max_enum=100))
    assert row["mds_computed"] is False and row["match"]
    # both routes out of reach: computed side skipped, match undecided
    row = rb.mds_check(9, 2, 8, rb.Guards(max_enum=100))
    assert row["mds_computed"] is None and row["match"] is None


def _by_r(rows):
    return {row["params"]["r"]: row for row in rows}


def test_sweep_q3_m2_rows_and_match():
    rows = rb.sweep(rb.theorem_row, 3, 2)
    assert len(rows) == 5
    assert all(row["match"] == "match" for row in rows)
    by_r = _by_r(rows)
    assert [by_r[r]["purity"]["pure"] for r in range(5)] == \
        [True, True, False, True, True]
    assert all(row["betti_method"] == "fastpath+homology" for row in rows)
    assert all(row["certificate"] is None for row in rows)  # no s=1 rows


def test_sweep_q4_m2_certificate_row():
    rows = rb.sweep(rb.theorem_row, 4, 2, [2, 3, 4])
    by_r = _by_r(rows)
    assert by_r[4]["certificate"] is not None
    assert by_r[4]["certificate"]["check_passed"]
    assert by_r[2]["certificate"] is None  # s = 2
    assert by_r[3]["certificate"] is None  # s = 0
    assert all(row["match"] == "match" for row in rows)


def test_sweep_guard_skips_are_visible():
    tiny = rb.Guards(max_n_betti=4)
    by_r = _by_r(rb.sweep(rb.theorem_row, 4, 2, [0, 4], tiny))
    assert by_r[0]["betti_method"] == "skipped:guard"
    assert by_r[0]["purity"] is None
    assert by_r[0]["match"] == "skipped"
    # the certificate route still decides r = 4
    assert by_r[4]["betti_method"] == "skipped:guard"
    assert by_r[4]["certificate"]["check_passed"] and by_r[4]["match"] == "match"
    # past the nullity table's own limit (n = 25 > 20) the row is skipped
    # alike, and the sweep goes on
    row = rb.theorem_row(5, 2, 5, rb.Guards(max_n_betti=25))
    assert row["betti_method"] == "skipped:guard" and row["match"] == "match"


def test_sweep_methods_selection_and_mds(monkeypatch):
    rows = rb.sweep(rb.mds_check, 3, 2)
    for row in rows:
        assert row["prediction"]["mds_predicted"] is not None
        assert row["mds_computed"] == row["prediction"]["mds_predicted"]
    # the hierarchy is measured on the order-1 row, where it starts at d
    by_r = _by_r(rows)
    assert by_r[1]["ghw"] is not None
    assert by_r[1]["ghw"][0] == by_r[1]["code"]["d"]
    # a theorem row runs betti and certificate only; any other method is
    # refused before a code is built
    built = []
    monkeypatch.setattr(rm, "build_code", lambda *args: built.append(args))
    for methods in (("betti", "mds"), ("ghw",)):
        with pytest.raises(ParameterError):
            rb.sweep(rb.theorem_row, 3, 2, None, rb.DEFAULT_GUARDS, methods)
    assert built == []


def test_sweep_jobs_do_not_change_rows():
    seq = rb.sweep(rb.theorem_row, 3, 2)
    par = rb.sweep(rb.theorem_row, 3, 2, jobs=2)
    assert seq == par
    assert json.dumps(seq) == json.dumps(par)


@pytest.mark.parametrize("command,row", [("verify-theorem", "theorem_row"),
                                         ("verify-mds", "mds_check")])
def test_sweep_rows_are_the_reports_rows(command, row, capsys):
    argv = [command, "--q", "3", "--m", "2", "--r-all", "--output", "json", "--no-timing"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    for jobs in (1, 2):
        rows = verify.sweep(getattr(verify, row), 3, 2, jobs=jobs)
        assert json.loads(json.dumps(rows)) == report["rows"], jobs


@pytest.mark.parametrize("jobs,workers", [(2, 2), (5, 5), (100_000, 5)])
def test_sweep_starts_at_most_one_worker_per_row(monkeypatch, jobs, workers):
    # a stand-in pool records max_workers and maps in-process, so a large
    # --jobs is checked without starting a single worker
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            return map(fn, *columns)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
    rows = rb.sweep(rb.theorem_row, 3, 2, jobs=jobs)     # 5 rows
    assert started == [workers]
    assert rows == rb.sweep(rb.theorem_row, 3, 2)


def test_constructed_certificates_never_fail_silently(monkeypatch):
    # force a bogus expected weight to prove the loud-abort path is wired
    import rmbetti.verify as verify_mod
    real = verify_mod.certificate_witness

    def wrong(q, m, r):
        case, roots, _ = real(q, m, r)
        return case, roots, 1

    monkeypatch.setattr(verify_mod, "certificate_witness", wrong)
    with pytest.raises(CertificateError):
        rb.non_purity_certificate(4, 2, 4)


@pytest.mark.parametrize("q,m,r", [(4, 3, 4), (5, 2, 5), (3, 4, 3)])
def test_certificate_op_runs_three_eliminations(monkeypatch, capsys, q, m, r):
    """G's RREF in build_code, the shrink's null space of the witness
    support, and check_certificate's own shortened_dim: the builder reuses
    the dimensions the shrink measured instead of ranking them again."""
    shapes = []
    rref = linalg.rref

    def counted(gf, mat):
        shapes.append(np.shape(mat))
        return rref(gf, mat)

    monkeypatch.setattr(linalg, "rref", counted)
    rm.build_code.cache_clear()  # the CLI builds its code cold
    argv = ["certificate", f"--q={q}", f"--m={m}", f"--r={r}", "--no-timing"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(shapes) == 3, shapes
