"""Purity characterization checks: predicates, certificates, sweeps."""

import dataclasses
import json

import numpy as np
import pytest

import rmbetti as rb
from rmbetti import (CertificateError, ParameterError, PreconditionError,
                     TooLargeError)


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
    assert comp.cross_checked and comp.verdict.linear
    tiny = rb.Guards(max_n_betti=4)
    with pytest.raises(TooLargeError):
        rb.purity_by_betti(3, 2, 2, tiny)


def test_certificate_applicable():
    assert rb.certificate_applicable(4, 2, 4)
    assert rb.certificate_applicable(3, 3, 3)
    assert not rb.certificate_applicable(3, 3, 4)   # s = 0
    assert not rb.certificate_applicable(2, 4, 2)   # q too small
    assert not rb.certificate_applicable(4, 2, 1)   # r too small
    assert not rb.certificate_applicable(4, 2, 5)   # r at the pure boundary
    assert not rb.certificate_applicable(4, 2, 99)  # out of range


@pytest.mark.parametrize("q,m,r,case,wt,d1", [
    (4, 2, 4, 1, 4, 3),
    (5, 2, 5, 1, 6, 4),
    (3, 3, 3, 2, 8, 6),
    (4, 3, 7, 1, 4, 3),  # deeper split: t = 2
])
def test_certificate_contents(q, m, r, case, wt, d1):
    cert = rb.non_purity_certificate(q, m, r)
    assert cert.case == case
    assert cert.weight == cert.formula_weight == wt
    assert cert.d1 == d1
    assert cert.weight > cert.d1
    assert cert.one_minimal_weight > cert.d1
    assert cert.one_minimal_shortened_dim == 1
    assert set(cert.one_minimal_support) <= set(cert.support)
    assert all(ok for _, ok in cert.checks)
    assert rb.check_certificate(cert).ok


def test_certificate_d1_sources():
    # every applicable instance has k >= 13, so the default enumeration guard
    # always leaves d1 on the formula route and records that explicitly
    for (q, m, r) in [(4, 2, 4), (3, 3, 3)]:
        cert = rb.non_purity_certificate(q, m, r)
        assert cert.d1_source == "formula"
        assert cert.d1_bruteforce is None
        assert cert.q ** cert.k > rb.DEFAULT_GUARDS.max_enum


def test_certificate_precondition_errors():
    for (q, m, r) in [(3, 3, 4), (3, 4, 4), (2, 4, 2), (4, 2, 3), (4, 2, 5)]:
        with pytest.raises(PreconditionError):
            rb.non_purity_certificate(q, m, r)


def test_certificate_negative_controls():
    cert = rb.non_purity_certificate(4, 2, 4)
    tampered_d1 = dataclasses.replace(cert, d1=cert.d1 + 1)
    result = rb.check_certificate(tampered_d1)
    assert not result.ok and "d1_mismatch" in result.reasons

    unit = [0] * cert.n
    unit[0] = 1
    tampered_word = dataclasses.replace(cert, one_minimal_word=tuple(unit))
    result = rb.check_certificate(tampered_word)
    assert not result.ok and "membership" in result.reasons

    tampered_weight = dataclasses.replace(cert, weight=cert.weight + 1,
                                          formula_weight=cert.weight + 1)
    result = rb.check_certificate(tampered_weight)
    assert not result.ok and "weight_mismatch" in result.reasons

    tampered_params = dataclasses.replace(cert, r=3)
    assert not rb.check_certificate(tampered_params).ok

    # an entry outside 0..q-1 is refused, not read modulo the characteristic
    rows = [list(row) for row in cert.generator_matrix]
    rows[0][0] += cert.q
    tampered_entry = dataclasses.replace(
        cert, generator_matrix=tuple(tuple(row) for row in rows))
    result = rb.check_certificate(tampered_entry)
    assert not result.ok and result.reasons == ("entry_range",)


def test_certificate_json_roundtrip():
    cert = rb.non_purity_certificate(3, 3, 3)
    blob = json.dumps(cert.to_json_dict(), indent=2)
    restored = rb.NonPurityCertificate.from_json_dict(json.loads(blob))
    assert restored == cert
    assert rb.check_certificate(restored).ok


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
    assert row.mds_predicted and row.mds_computed and row.match
    row = rb.mds_check(2, 3, 1)
    assert not row.mds_predicted and row.mds_computed is False and row.match
    row = rb.mds_check(2, 2, 1)
    assert row.match and row.ghw == (2, 3, 4) and row.shifts_consecutive
    row = rb.mds_check(3, 2, 1)
    assert row.match and row.ghw == (6, 8, 9) and not row.shifts_consecutive
    assert row.ghw_matches_formula
    # enumeration too large but the support search still decides
    row = rb.mds_check(4, 2, 4, rb.Guards(max_enum=100))
    assert row.mds_computed is False and row.match
    # both routes out of reach: computed side skipped, match undecided
    row = rb.mds_check(9, 2, 8, rb.Guards(max_enum=100))
    assert row.mds_computed is None and row.match is None


def test_sweep_q3_m2_rows_and_match():
    report = rb.sweep(3, 2)
    assert len(report.rows) == 5
    assert report.all_match
    by_r = {row.r: row for row in report.rows}
    assert [by_r[r].purity.pure for r in range(5)] == \
        [True, True, False, True, True]
    assert all(row.betti_method == "fastpath+homology" for row in report.rows)
    assert all(row.certificate is None for row in report.rows)  # no s=1 rows


def test_sweep_q4_m2_certificate_row():
    report = rb.sweep(4, 2, rs=[2, 3, 4])
    by_r = {row.r: row for row in report.rows}
    assert by_r[4].certificate is not None
    assert by_r[4].certificate_ok
    assert by_r[4].certificate["check_passed"]
    assert by_r[2].certificate is None  # s = 2
    assert by_r[3].certificate is None  # s = 0
    assert report.all_match


def test_sweep_guard_skips_are_visible():
    tiny = rb.Guards(max_n_betti=4)
    report = rb.sweep(4, 2, rs=[0, 4], guards=tiny)
    by_r = {row.r: row for row in report.rows}
    assert by_r[0].betti_method == "skipped:guard"
    assert by_r[0].purity is None
    assert by_r[0].match == "skipped"
    # the certificate route still decides r = 4
    assert by_r[4].betti_method == "skipped:guard"
    assert by_r[4].certificate_ok and by_r[4].match == "match"


def test_sweep_methods_selection_and_mds():
    report = rb.sweep(3, 2, methods=("betti", "mds"))
    for row in report.rows:
        assert row.certificate is None
        assert row.purity is not None
        assert row.mds.mds_predicted is not None
        assert row.mds.mds_computed == row.mds.mds_predicted
    # the hierarchy is measured on the order-1 row, where it starts at d
    by_r = {row.r: row for row in report.rows}
    assert by_r[1].mds.ghw is not None
    assert by_r[1].mds.ghw[0] == by_r[1].d
    assert by_r[1].to_json_obj()["ghw"] == list(by_r[1].mds.ghw)
    with pytest.raises(ParameterError):
        rb.sweep(3, 2, methods=("betti", "ghw"))


def test_sweep_jobs_do_not_change_rows():
    seq = rb.sweep(3, 2)
    par = rb.sweep(3, 2, jobs=2)
    assert seq.rows == par.rows
    assert json.dumps(seq.to_json_obj()) == json.dumps(par.to_json_obj())


def test_constructed_certificates_never_fail_silently(monkeypatch):
    # force a bogus expected weight to prove the loud-abort path is wired
    import rmbetti.verify as verify_mod
    real = verify_mod._case_weight

    def wrong(q, m, r):
        case, _ = real(q, m, r)
        return case, 1

    monkeypatch.setattr(verify_mod, "_case_weight", wrong)
    with pytest.raises(CertificateError):
        rb.non_purity_certificate(4, 2, 4)
