"""End-to-end acceptance checks: every verification goal of the package,
each as one test that prints a single PASS line on success (run with -s to
see them live; captured output appears in failure reports otherwise).

Two rows of the certificate family, (3,3,4) and (3,4,4), split r = 4 over
GF(3) as t = 2, s = 0.  The certificate route covers only s = 1, so there
non_purity_certificate must refuse with ParameterError, and the ternary
s = 1 weight 8 * 3^(m-t-2) cannot hold: it is 8/3 at (3,3,4), and 8 at
(3,4,4), which is not above d1 = 9.  Those rows instead check non-purity
at position 1 with a heavier support-minimal codeword built for s = 0
(weights 4 > 3 and 12 > 9); the same witness is anchored against the
Betti tables at (3,2,2) and (4,2,3).  The s = 1 instances carrying the
weights 8 and 24 -- (3,3,3) and (3,4,3) -- are verified in the companion
test.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import rmbetti as rb
from rmbetti import linalg
from rmbetti.rm import pinned_roots

from oracles import (betti_sweep_gf2, code_from_rows, ghw_by_subspaces,
                     min_weight_poly, monomial_row, proj_dim, rank_profile,
                     shrink_restart_scalar, substitute_linear_forms)

FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9)
THEOREM_PAIRS = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2))
ENUM_GUARD = 2_000_000


def _ok(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


# -- 1: dimension agreement ----------------------------------------------------


def test_dimension_sources_agree_across_fields():
    started = time.monotonic()
    checked = 0
    for q in FIELD_SIZES:
        for m in (1, 2, 3):
            gf = rb.field(q)
            full = rb.monomial_basis(q, m * (q - 1), m)
            rows = np.stack([monomial_row(gf, m, e) for e in full])
            profile = rank_profile(gf, rows)
            boundary = 0
            for r in range(m * (q - 1) + 1):
                while boundary < len(full) and sum(full[boundary]) <= r:
                    boundary += 1
                count = boundary
                rank = int(profile[count - 1])
                ak = rb.dim_assmus_key(q, r, m)
                ie = rb.dim_inclusion_exclusion(q, r, m)
                assert rank == count == ak == ie, (q, m, r, rank, count, ak, ie)
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"dimension sweep took {elapsed:.1f}s, budget 60s"
    _ok("dimension agreement", f"{checked} (q, m, r) triples, {elapsed:.1f}s")


# -- 2: binomial identity --------------------------------------------------------


def test_full_space_binomial_identity_sweep():
    # at r = m(q-1) inclusion-exclusion is sum_i (-1)^i C(m,i) C((m-i)q, m),
    # and the code is the whole space
    started = time.monotonic()
    for q in range(2, 10):
        for m in range(1, 7):
            assert rb.dim_inclusion_exclusion(q, m * (q - 1), m) == q ** m, (q, m)
    elapsed = time.monotonic() - started
    assert elapsed < 1, f"identity sweep took {elapsed:.2f}s, budget 1s"
    _ok("binomial identity", f"q in 2..9, m in 1..6, {elapsed * 1000:.0f}ms")


# -- 3: minimum distance ---------------------------------------------------------


def test_minimum_distance_bruteforce_matches_formula():
    started = time.monotonic()
    checked = 0
    for q in FIELD_SIZES:
        for m in (1, 2, 3, 4):
            for r in range(m * (q - 1) + 1):
                if q ** rb.dim_inclusion_exclusion(q, r, m) > ENUM_GUARD:
                    continue
                code = rb.build_code(q, r, m)
                assert rb.min_weight_bruteforce(code) == code.d, (q, m, r)
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 600, f"distance sweep took {elapsed:.1f}s, budget 600s"
    _ok("minimum distance", f"{checked} enumerable instances, {elapsed:.1f}s")


# -- 4: minimum-weight constructions ---------------------------------------------


def test_minimum_weight_constructions_and_substitutions():
    rng = np.random.default_rng(20260810)
    started = time.monotonic()
    instances = substitutions = 0
    for q in FIELD_SIZES:
        for m in (1, 2, 3):
            for r in range(m * (q - 1) + 1):
                code = rb.build_code(q, r, m)
                gf = code.gf
                t, s = rb.ts_split(q, r)
                f = min_weight_poly(q, r, m)
                word = f.evaluate()
                assert rb.weight(word) == code.d, (q, m, r)
                assert not np.any(linalg.matvec(gf, code.H, word)), (q, m, r)

                pinned = rng.integers(0, q, size=t).tolist()
                excluded = rng.permutation(q)[:s].tolist()
                f2 = min_weight_poly(q, r, m, scale=int(rng.integers(1, q)),
                                     pinned=pinned, excluded=excluded)
                word2 = f2.evaluate()
                assert rb.weight(word2) == code.d
                assert not np.any(linalg.matvec(gf, code.H, word2))

                if t + 1 <= m:
                    for trial in range(20):
                        while True:
                            forms = rng.integers(0, q, size=(t + 1, m)).astype(gf.dtype)
                            if linalg.rank(gf, forms) == t + 1:
                                break
                        shifts = (rng.integers(0, q, size=t + 1).tolist()
                                  if trial % 2 else None)
                        sub = substitute_linear_forms(f, forms, shifts)
                        assert rb.weight(sub) == code.d, (q, m, r, trial)
                        assert not np.any(linalg.matvec(gf, code.H, sub))
                        substitutions += 1
                instances += 1
    elapsed = time.monotonic() - started
    _ok("minimum-weight constructions",
        f"{instances} instances, {substitutions} substitutions, {elapsed:.1f}s")


# -- 5: generalized Hamming weights ----------------------------------------------


def test_ghw_profiles_match_closed_form():
    for (q, m) in [(2, 2), (2, 3), (3, 2), (4, 2)]:
        code = rb.build_code(q, 1, m)
        profile = rb.ghw_profile(code)
        formula = tuple(q ** m - (q ** (m - i) if m - i >= 0 else 0)
                        for i in range(1, code.k + 1))
        assert profile == formula, (q, m, profile, formula)
    _ok("order-1 weight hierarchy", "profiles equal q^m - floor(q^(m-i))")


def test_ghw_subset_search_equals_subspace_enumeration():
    cases = 0
    for q in (2, 3):
        m = 1
        while q ** m <= 10:
            for r in range(m * (q - 1) + 1):
                code = rb.build_code(q, r, m)
                if code.k > 4:
                    continue
                for i in range(1, code.k + 1):
                    assert rb.ghw(code, i) == ghw_by_subspaces(code, i)
                cases += 1
            m += 1
    rng = np.random.default_rng(99)
    while cases < 60:
        q = int(rng.choice([2, 3]))
        gf = rb.field(q)
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(4, 11))
        code = code_from_rows(
            gf, rng.integers(0, q, size=(rows, cols)).astype(gf.dtype))
        if not 1 <= code.k <= 4:
            continue
        for i in range(1, code.k + 1):
            assert rb.ghw(code, i) == ghw_by_subspaces(code, i)
        cases += 1
    _ok("weight-hierarchy oracle", f"{cases} codes, both routes equal")


# -- 6: Betti correctness ---------------------------------------------------------


def test_betti_reference_table_from_independent_oracle():
    code = rb.build_code(2, 1, 2)
    oracle = betti_sweep_gf2([[int(x) for x in row] for row in code.H], code.n)
    assert oracle == {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}
    assert rb.betti_fastpath(code).entries == oracle
    _ok("reference Betti table", "rational-homology oracle confirms the table")


def test_betti_backends_agree_and_weights_consistent():
    started = time.monotonic()
    instances = 0
    for q in FIELD_SIZES:
        m = 1
        while q ** m <= 12:
            for r in range(m * (q - 1) + 1):
                code = rb.build_code(q, r, m)
                fast = rb.betti_fastpath(code)
                assert fast == rb.betti_hochster(code, 2), (q, m, r)
                assert fast == rb.betti_hochster(code, 3), (q, m, r)
                assert proj_dim(fast) == code.k, (q, m, r)
                assert rb.ghw_from_betti(fast) == rb.ghw_profile(code), (q, m, r)
                instances += 1
            m += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"Betti agreement sweep took {elapsed:.1f}s, budget 300s"
    _ok("Betti backends", f"{instances} instances at characteristics 2 and 3, "
        f"{elapsed:.1f}s")


# -- 7 & 8: purity characterization ------------------------------------------------


@pytest.fixture(scope="module")
def theorem_tables():
    tables = {}
    for (q, m) in THEOREM_PAIRS:
        for r in range(m * (q - 1) + 1):
            comp = rb.purity_by_betti(q, m, r)
            tables[(q, m, r)] = comp
    return tables


def test_purity_sweep_matches_characterization(theorem_tables):
    started = time.monotonic()
    nonpure = []
    for (q, m, r), comp in sorted(theorem_tables.items()):
        predicted = rb.purity_predicate(q, m, r)
        assert comp.verdict.pure == predicted, (q, m, r)
        if not comp.verdict.pure:
            nonpure.append((q, m, r))
    assert nonpure == [(2, 4, 2), (3, 2, 2), (4, 2, 2), (4, 2, 3), (4, 2, 4)]
    _ok("purity characterization",
        f"{len(theorem_tables)} rows; non-pure exactly at {nonpure} "
        f"(verified in {time.monotonic() - started:.1f}s after table prep)")


def test_herzog_kuhl_predictions_on_pure_instances(theorem_tables):
    pure_rows = 0
    for (q, m, r), comp in sorted(theorem_tables.items()):
        if not comp.verdict.pure:
            continue
        predicted = rb.herzog_kuhl_predicted(comp.verdict.type)
        for i, beta in enumerate(predicted, start=1):
            assert beta.denominator == 1, (q, m, r, i)
            shift = comp.verdict.type[i]
            assert comp.table.entries[(i, shift)] == beta, (q, m, r, i)
        pure_rows += 1
    _ok("closed-form Betti numbers",
        f"{pure_rows} pure instances, predictions integral and equal")


# -- 9: certificates ---------------------------------------------------------------


def _s0_witness(q: int, m: int, r: int) -> rb.ExponentPoly:
    """Degree-r word of weight 2(q-1) q^(m-t-1) for a split with s = 0.

    prod_{i<t-1} (X_i^(q-1) - 1) * prod_{j>=2} (X_{t-1} - a_j) * (X_t - a_0)
    is nonzero exactly where X_0..X_{t-2} vanish, X_{t-1} is a_0 or a_1 and
    X_t is not a_0.  For q > 2 that beats the minimum distance q^(m-t).
    """
    t, s = rb.ts_split(q, r)
    assert s == 0 and 1 <= t <= m - 1, (q, m, r)
    gf = rb.field(q)
    elems = gf.elements()
    return rb.linear_product(gf, m, pinned_roots(gf, [0] * (t - 1))
                             + [(t - 1, b) for b in elems[2:]] + [(t, elems[0])])


@pytest.mark.parametrize("q,m,r", [(4, 2, 4), (5, 2, 5), (4, 3, 4),
                                   (3, 3, 4), (3, 4, 4)])
def test_nonpurity_certificates_stated_rows(q, m, r):
    started = time.monotonic()
    t, s = rb.ts_split(q, r)
    if rb.certificate_witness(q, m, r) is not None:
        cert = rb.non_purity_certificate(q, m, r)
        if q == 3:
            assert cert["weight"] == 8 * 3 ** (m - t - 2)
        else:
            assert cert["weight"] == 2 * (q - 2) * q ** (m - t - 1)
        assert cert["one_minimal_weight"] > cert["d1"]
        assert rb.check_certificate(cert).ok
        wt, d1, how = cert["weight"], cert["d1"], "re-check passed"
    else:
        assert s == 0, (q, m, r)
        with pytest.raises(rb.ParameterError):
            rb.non_purity_certificate(q, m, r)
        f = _s0_witness(q, m, r)
        assert f.total_degree() == r
        code = rb.build_code(q, r, m)
        word = f.evaluate()
        assert code.contains(word)
        wt, d1 = rb.weight(word), rb.min_distance_formula(q, r, m)
        assert wt == 2 * (q - 1) * q ** (m - t - 1)
        assert wt > d1
        shrunk = rb.shrink_to_one_minimal(code, word)[0]
        assert rb.shortened_dim(code, rb.support(shrunk)) == 1
        assert rb.weight(shrunk) > d1
        how = "certificate refused, shrunk witness still heavier"
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"certificate took {elapsed:.1f}s, budget 10s"
    _ok(f"certificate ({q},{m},{r})",
        f"weight {wt} > d1 {d1}, s = {s}, {how}, {elapsed:.1f}s")


@pytest.mark.parametrize("q,m,r,wt,beta", [(3, 2, 2, 4, 54), (4, 2, 3, 6, 640)])
def test_s0_witness_weight_is_a_betti_shift(theorem_tables, q, m, r, wt, beta):
    code = rb.build_code(q, r, m)
    word = _s0_witness(q, m, r).evaluate()
    assert rb.weight(word) == wt
    assert rb.shortened_dim(code, rb.support(word)) == 1
    assert theorem_tables[(q, m, r)].table.entries.get((1, wt)) == beta
    _ok(f"s = 0 witness ({q},{m},{r})",
        f"weight {wt} is a position-1 shift, beta_1,{wt} = {beta}")


def test_shrink_matches_restart_oracle():
    """One forward pass over the support finds the restart loop's word."""
    words = []
    for q in (3, 4, 5, 7, 8, 9):
        for m in (2, 3, 4):
            for r in range(m * (q - 1) + 1):
                if q ** m <= 81 and rb.certificate_witness(q, m, r) is not None:
                    words.append(((q, m, r), rb.non_purity_certificate(q, m, r)["codeword"]))
    for q, m, r in [(3, 2, 2), (4, 2, 3)]:
        words.append(((q, m, r), _s0_witness(q, m, r).evaluate()))
    rng = np.random.default_rng(19)
    for q, m, r in [(2, 4, 1), (2, 4, 2), (3, 2, 2), (3, 3, 2), (3, 3, 4),
                    (4, 2, 2), (4, 2, 4), (5, 2, 3), (5, 2, 5)]:
        code = rb.build_code(q, r, m)
        for _ in range(3):
            coeffs = rng.integers(0, q, size=(1, code.k)).astype(code.gf.dtype)
            coeffs[0, 0] = 1                      # a nonzero codeword
            words.append(((q, m, r), linalg.matmul(code.gf, coeffs, code.G)[0]))
    removed = 0
    for (q, m, r), word in words:
        code = rb.build_code(q, r, m)
        word = np.asarray(word, dtype=code.gf.dtype)
        shrunk = rb.shrink_to_one_minimal(code, word)[0]
        expected = shrink_restart_scalar(code.gf, code.H, word)
        assert shrunk.dtype == expected.dtype
        assert shrunk.tobytes() == expected.tobytes(), (q, m, r, word)
        removed += rb.weight(word) - rb.weight(shrunk)
    _ok("one-pass shrink", f"{len(words)} words equal the restart oracle, "
        f"{removed} coordinates removed")


@pytest.mark.parametrize("q,m,r,wt,d1", [(3, 3, 3, 8, 6), (3, 4, 3, 24, 18),
                                         (3, 4, 5, 8, 6)])
def test_nonpurity_certificates_ternary_s1_instances(q, m, r, wt, d1):
    started = time.monotonic()
    cert = rb.non_purity_certificate(q, m, r)
    assert cert["case"] == 2
    assert cert["weight"] == cert["formula_weight"] == wt
    assert cert["d1"] == d1
    assert cert["one_minimal_weight"] > d1
    assert rb.check_certificate(cert).ok
    elapsed = time.monotonic() - started
    assert elapsed < 10
    _ok(f"certificate ({q},{m},{r})",
        f"weight {wt} > d1 {d1}, re-check passed, {elapsed:.1f}s")


def test_certificate_negative_controls():
    cert = rb.non_purity_certificate(4, 2, 4)
    tampered = rb.check_certificate({**cert, "d1": cert["d1"] + 1})
    assert not tampered.ok and "d1_mismatch" in tampered.reasons
    unit = [0] * cert["n"]
    unit[0] = 1
    broken = rb.check_certificate({**cert, "one_minimal_word": tuple(unit)})
    assert not broken.ok and "membership" in broken.reasons
    # claims of a brute-force distance that nothing enumerated
    for bad in ({"d1_bruteforce": 2 ** 80}, {"d1_source": "nonsense"}):
        assert rb.check_certificate({**cert, **bad}).reasons == ("d1_bruteforce",)
    # the builder's own checks, reported failing or not a dict
    for bad in ({name: False for name in cert["checks"]}, "junk"):
        assert rb.check_certificate({**cert, "checks": bad}).reasons == ("checks",)
    _ok("certificate negative controls",
        "tampered d1, non-codeword, unchecked d1 claims and failed checks rejected "
        "with reasons")


# -- 10: MDS characterization --------------------------------------------------------


def test_mds_characterization_and_sum_zero_code():
    checked = 0
    for (q, m) in THEOREM_PAIRS:
        for r in range(m * (q - 1) + 1):
            if q ** rb.dim_inclusion_exclusion(q, r, m) > ENUM_GUARD:
                continue
            code = rb.build_code(q, r, m)
            assert rb.is_mds(code, max_enum=ENUM_GUARD) == \
                rb.mds_predicate(q, m, r), (q, m, r)
            checked += 1
    for (q, m) in [(2, 2), (2, 3), (3, 2), (4, 2)]:
        # one order below the top, the dual is spanned by the all-ones word
        code = rb.build_code(q, m * (q - 1) - 1, m)
        assert np.array_equal(code.H, np.ones((1, code.n))), (q, m)
    _ok("MDS characterization",
        f"{checked} enumerable rows match; sum-zero equality on 4 pairs")


# -- 11: determinism -------------------------------------------------------------------


def test_cli_determinism_across_runs_and_jobs():
    base = [sys.executable, "-m", "rmbetti", "verify-theorem", "--q", "3",
            "--m", "2", "--r-all", "--output", "json", "--no-timing"]
    runs = [subprocess.run(base + extra, capture_output=True, text=True)
            for extra in ([], [], ["--jobs", "4"])]
    assert all(p.returncode == 0 for p in runs)
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    payload = json.loads(runs[0].stdout)
    assert payload["match"] is True

    betti = [sys.executable, "-m", "rmbetti", "betti", "--q", "2", "--m", "2",
             "--r", "1", "--output", "csv"]
    first = subprocess.run(betti, capture_output=True, text=True)
    second = subprocess.run(betti, capture_output=True, text=True)
    assert first.stdout == second.stdout and first.returncode == 0
    _ok("determinism", "repeated runs and jobs {1,4} byte-identical")
