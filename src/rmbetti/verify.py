"""Mechanized checks of the purity characterization and the MDS corollary.

Two independent routes decide purity for a given (q, m, r): the Betti
table, which purity_by_betti alone computes and cross-checks, and a
self-contained certificate built from a witness codeword whose shrunk
support carries a 1-dimensional shortened code heavier than the minimum
distance.  certificate_witness alone decides which (q, m, r) get a witness,
its case, its linear factors and its expected weight; building and
re-checking a certificate both read it.  A parameter sweep runs both routes
wherever their guards allow, compares against the closed-form predicates,
and never drops a row silently.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import codes, linalg, rm, srres
from .errors import (CertificateError, CrossCheckError, NotPrimePowerError,
                     ParameterError, PreconditionError, TooLargeError)
from .gf import field


# coefficient prime of the homology cross-check in purity_by_betti
HOMOLOGY_CHAR = 2


@dataclass(frozen=True)
class Guards:
    """The limits a user can set; exceeding one raises TooLargeError, never truncates."""
    max_n_betti: int = 16
    max_enum: int = codes.MAX_ENUM

    def to_json_obj(self) -> dict:
        """Both limits, beside the fixed homology cross-check length and
        prime and codes.MAX_SUBSPACES, which bounds only the subspace oracle
        of the test suite; no command reaches it, and reports print it."""
        return {"max_n_betti": self.max_n_betti,
                "cross_check_n": srres.MAX_HOMOLOGY_N,
                "max_enum": self.max_enum,
                "max_subspaces": codes.MAX_SUBSPACES,
                "homology_char": HOMOLOGY_CHAR}


DEFAULT_GUARDS = Guards()


def purity_predicate(q: int, m: int, r: int) -> bool:
    """Predicted purity: m = 1, or r <= 1, or r >= m(q-1) - 1."""
    rm.validate_params(q, r, m)
    return m == 1 or r <= 1 or r >= m * (q - 1) - 1


def mds_predicate(q: int, m: int, r: int) -> bool:
    """Predicted MDS: m = 1, or r = 0, or r >= m(q-1) - 1."""
    rm.validate_params(q, r, m)
    return m == 1 or r == 0 or r >= m * (q - 1) - 1


@dataclass(frozen=True)
class PurityComputation:
    table: srres.BettiTable
    verdict: srres.PurityVerdict
    route: str                          # "fastpath", "homology" or "fastpath+homology"


def purity_by_betti(q: int, m: int, r: int, guards: Guards = DEFAULT_GUARDS,
                    backend: str | None = None,
                    ell: int = HOMOLOGY_CHAR) -> PurityComputation:
    """The Betti table of RM_q(r, m) from the named backends, its purity
    verdict and the route taken.  backend is "fast", "homology" or "both";
    None runs both where n <= srres.MAX_HOMOLOGY_N, else the fast path.  The
    prime ell is checked before the code is built, then the Betti guard.
    The homology sweep gets the AGL(m, q) generators, which fix every RM
    code, where its length bound admits them; tables that differ raise
    CrossCheckError."""
    if backend not in (None, "fast", "homology", "both"):
        raise ParameterError(f"unknown Betti backend {backend!r}")
    srres.check_char(ell)
    code = rm.build_code(q, r, m)
    if code.n > guards.max_n_betti:
        raise TooLargeError(f"n = {code.n} exceeds the Betti guard {guards.max_n_betti}")
    short = code.n <= srres.MAX_HOMOLOGY_N
    tables = {}
    if backend != "homology":
        tables["fastpath"] = srres.betti_fastpath(code)
    if backend in ("homology", "both") or backend is None and short:
        tables["homology"] = srres.betti_hochster(
            code, ell, rm.affine_generators(q, m) if short else ())
    table, *others = tables.values()
    if any(other != table for other in others):
        raise CrossCheckError(f"Betti backends disagree for (q={q}, m={m}, r={r}, char={ell})")
    return PurityComputation(table, srres.purity_verdict(table), "+".join(tables))


# -- certificates -------------------------------------------------------------


def certificate_witness(q: int, m: int, r: int) -> tuple[int, list, int] | None:
    """(case, roots, formula_weight) of the witness for (q, m, r), or None
    outside the s = 1 band (invalid parameters included).

    The band is q >= 3, m >= 2, s = 1 and 1 < r < m(q-1) - 1, where
    r = t(q-1) + s.  The witness is rm.linear_product of the roots: the
    indicator of X_0 = ... = X_{t-2} = 0 (variables count from 0) times
    (X_{t-1} - b) for b >= 2 and (X_t - b) for b < 2 in case 1 (q > 3),
    of weight 2(q-2) q^(m-t-1); or times (X_v - 2) for v = t-1, t, t+1 in
    case 2 (q = 3), of weight 8 * 3^(m-t-2).  Both weights lie above the
    minimum distance (q-1) q^(m-t-1).  Inside the band the field and the
    point grid are checked before any root is listed, so a q that is not a
    prime power, or an oversized grid, raises as field and point_order do.
    """
    try:
        rm.validate_params(q, r, m)
    except ParameterError:
        return None
    t, s = rm.ts_split(q, r)
    if not (q >= 3 and m >= 2 and s == 1 and 1 < r < m * (q - 1) - 1):
        return None
    roots = rm.pinned_roots(rm.point_order(q, m).gf, [0] * (t - 1))
    if q == 3:
        return 2, roots + [(v, 2) for v in (t - 1, t, t + 1)], 8 * 3 ** (m - t - 2)
    return (1, roots + [(t - 1, b) for b in range(2, q)] + [(t, b) for b in range(2)],
            2 * (q - 2) * q ** (m - t - 1))


def _field_obj(gf) -> dict:
    return {"char": gf.p, "degree": gf.e, "modulus": list(gf.modulus)}


# the checks non_purity_certificate runs, in the order of its "checks" dict;
# check_certificate accepts only that dict with every value true
CERTIFICATE_CHECKS = (
    "witness_degree_is_r", "codeword_in_code", "weight_matches_formula",
    "weight_exceeds_d1", "d1_bruteforce_agrees", "shrunk_word_in_code",
    "shrunk_support_inside_witness", "one_minimal_dim_is_1",
    "one_minimal_weight_exceeds_d1")


def non_purity_certificate(q: int, m: int, r: int,
                           guards: Guards = DEFAULT_GUARDS) -> dict:
    """Build and internally verify a certificate of non-purity: the JSON
    object that re-verifies it without rebuilding the code.

    The witness codeword beats the minimum distance; its greedily shrunk
    support carries a 1-dimensional shortened code that still beats it, so
    some support-minimal subcode is heavier than its generalized Hamming
    weight.  support_shortened_dim records the shortened dimension of the
    witness's own support (1 would mean the witness span is itself
    support-minimal) without asserting a value.  The two words and the
    matrices are read-only integer arrays: G and H are the code's own
    frozen matrices, not copies.

    Raises PreconditionError when the witness construction does not apply
    and CertificateError if any of its own checks fails (which would be
    evidence against the characterization, never silenced).
    """
    rm.validate_params(q, r, m)
    t, s = rm.ts_split(q, r)
    planned = certificate_witness(q, m, r)
    if planned is None:
        raise PreconditionError(
            "certificates need q >= 3, m >= 2, s = 1 and 1 < r < m(q-1)-1; "
            f"got q={q}, m={m}, r={r}, s={s}")
    case, roots, formula_weight = planned
    code = rm.build_code(q, r, m)
    gf = code.gf
    witness = rm.linear_product(gf, m, roots)
    word = witness.evaluate(code.order)
    sigma = codes.support(word)
    wt = len(sigma)
    d1 = rm.min_distance_formula(q, r, m)
    within_enum = gf.q ** code.k <= guards.max_enum
    d1_brute = (codes.min_weight_bruteforce(code, max_enum=guards.max_enum)
                if within_enum else None)

    shrunk, sigma_dim, shrunk_dim = codes.shrink_to_one_minimal(code, word)
    shrunk_support = codes.support(shrunk)

    checks = dict(zip(CERTIFICATE_CHECKS, (
        witness.total_degree() == r,
        code.contains(word),
        wt == formula_weight,
        wt > d1,
        d1_brute is None or d1_brute == d1,
        code.contains(shrunk),
        set(shrunk_support) <= set(sigma),
        shrunk_dim == 1,
        len(shrunk_support) > d1,
    ), strict=True))
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise CertificateError(
            f"certificate checks failed for (q={q}, m={m}, r={r}): {failed}")
    word.setflags(write=False)
    shrunk.setflags(write=False)

    return {
        "q": q, "m": m, "r": r, "t": t, "s": s, "case": case,
        "n": code.n, "k": code.k,
        "field": _field_obj(gf),
        "witness_poly": [{"exponents": list(e), "coeff": c}
                         for e, c in witness.sorted_terms()],
        "codeword": word,
        "support": sigma,
        "weight": wt,
        "formula_weight": formula_weight,
        "d1": d1,
        "d1_source": "formula+bruteforce" if within_enum else "formula",
        "d1_bruteforce": d1_brute,
        "one_minimal_word": shrunk,
        "one_minimal_support": shrunk_support,
        "one_minimal_weight": len(shrunk_support),
        "support_shortened_dim": sigma_dim,
        "one_minimal_shortened_dim": shrunk_dim,
        "generator_matrix": code.G,
        "parity_check_matrix": code.H,
        "checks": checks,
    }


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reasons: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


# the keys check_certificate reads as integers and as lists of integers
_INT_KEYS = ("q", "m", "r", "t", "s", "case", "n", "k", "weight",
             "formula_weight", "d1", "one_minimal_weight",
             "support_shortened_dim", "one_minimal_shortened_dim")
_SUPPORT_KEYS = ("support", "one_minimal_support")


def _is_int(value) -> bool:                # JSON true and false are not integers
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _int_entries(value) -> bool:
    """An integer array, or lists nested to any depth of integers."""
    if isinstance(value, (list, tuple)):
        return all(map(_int_entries, value))
    return value.dtype.kind in "iu" if isinstance(value, np.ndarray) else _is_int(value)


def _has_fields(cert) -> bool:
    """cert is a dict holding every key check_certificate reads, with an
    integer wherever it reads one, so that no later check raises."""
    return (isinstance(cert, dict)
            and all(_is_int(cert.get(key)) for key in _INT_KEYS)
            and all(isinstance(cert.get(key), (list, tuple))
                    and all(map(_is_int, cert[key])) for key in _SUPPORT_KEYS)
            and (cert.get("d1_bruteforce") is None or _is_int(cert["d1_bruteforce"]))
            and all(key in cert for key in (
                "field", "witness_poly", "d1_bruteforce", "d1_source", "generator_matrix",
                "parity_check_matrix", "codeword", "one_minimal_word", "checks")))


def check_certificate(cert: dict,
                      guards: Guards = DEFAULT_GUARDS) -> CertificateCheck:
    """Re-verify a certificate from scratch, as built or as read back from
    its JSON (lists where the builder put tuples or arrays); collects every
    failing reason.  A certificate that is not a dict, lacks a key or holds
    a non-integer where an integer belongs fails with the one reason
    "fields", and a q that is not a prime power with "params"; a q^m grid
    too large to build still raises TooLargeError.  "checks" must be the
    builder's dict: exactly the CERTIFICATE_CHECKS keys, each value true."""
    if not _has_fields(cert):
        return CertificateCheck(False, ("fields",))
    reasons: list[str] = []

    def flag(reason: str, ok: bool) -> bool:
        if not ok:
            reasons.append(reason)
        return ok

    checks = cert["checks"]
    flag("checks", isinstance(checks, dict) and checks.keys() == set(CERTIFICATE_CHECKS)
         and all(value is True for value in checks.values()))

    # every later check reads the code that these parameters build
    q, m, r = cert["q"], cert["m"], cert["r"]
    try:
        planned = certificate_witness(q, m, r)
    except NotPrimePowerError:
        planned = None
    gf = field(q) if planned is not None else None
    if not flag("params", gf is not None
                and rm.ts_split(q, r) == (cert["t"], cert["s"])
                and cert["field"] == _field_obj(gf)):
        return CertificateCheck(False, tuple(reasons))

    # shape and range are checked on the raw integers, before the narrow
    # cast; an array with an entry that is not an integer is left out
    try:
        raw = [np.array(cert[name]) for name in ("generator_matrix", "parity_check_matrix",
                                                 "codeword", "one_minimal_word")
               if _int_entries(cert[name])]
    except ValueError:                  # ragged rows
        raw = []

    code = rm.build_code(q, r, m)
    n, k = code.n, code.k
    if not flag("matrix_shapes", (cert["n"], cert["k"]) == (n, k)
                and [a.shape for a in raw] == [(k, n), (n - k, n), (n,), (n,)]):
        return CertificateCheck(False, tuple(reasons))
    if not flag("entry_range", all(0 <= a.min(initial=0) and a.max(initial=0) < q
                                   for a in raw)):
        return CertificateCheck(False, tuple(reasons))
    G, H, word, shrunk = (a.astype(gf.dtype) for a in raw)

    flag("orthogonality", not np.any(linalg.matmul(gf, G, H.T)))
    flag("generator_mismatch", linalg.row_space_equal(gf, G, code.G))
    flag("parity_mismatch", linalg.row_space_equal(gf, H, code.H))

    try:        # integer terms, each exponent vector once, each coefficient nonzero
        terms = cert["witness_poly"]
        poly = {tuple(term["exponents"]): term["coeff"] for term in terms}
        witness = (rm.ExponentPoly(gf, m, poly) if len(poly) == len(terms) and all(
            _is_int(c) and c and all(map(_is_int, e)) for e, c in poly.items()) else None)
    except (KeyError, ParameterError, TypeError):
        witness = None
    if flag("witness_terms", witness is not None):
        flag("witness_degree", witness.total_degree() == r)
        flag("witness_evaluation", np.array_equal(witness.evaluate(code.order), word))

    member_word = not np.any(linalg.matvec(gf, H, word))
    member_shrunk = not np.any(linalg.matvec(gf, H, shrunk))
    flag("membership", member_word and member_shrunk)

    support, shrunk_support = tuple(cert["support"]), tuple(cert["one_minimal_support"])
    flag("support_mismatch", codes.support(word) == support
         and codes.support(shrunk) == shrunk_support)
    flag("weight_mismatch", codes.weight(word) == cert["weight"]
         and codes.weight(shrunk) == cert["one_minimal_weight"])

    case, _, formula_weight = planned
    flag("weight_formula", case == cert["case"]
         and formula_weight == cert["formula_weight"] == cert["weight"])

    d1 = rm.min_distance_formula(q, r, m)
    flag("d1_mismatch", d1 == cert["d1"])
    # a stated brute-force distance must be d1, and d1_source must name it
    claimed = cert["d1_bruteforce"]
    source = "formula" if claimed is None else "formula+bruteforce"
    ok = claimed in (None, d1) and cert["d1_source"] == source
    if gf.q ** k <= guards.max_enum:
        ok = ok and codes.min_weight_bruteforce(code, max_enum=guards.max_enum) == d1
    flag("d1_bruteforce", ok)

    flag("not_above_d1", cert["weight"] > d1)
    flag("one_minimal_not_above_d1", cert["one_minimal_weight"] > d1)

    flag("support_containment", set(shrunk_support) <= set(support))
    # a coordinate outside 0..n-1 is already a support_mismatch
    if all(0 <= c < n for c in (*support, *shrunk_support)):
        measured_shrunk = codes.shortened_dim(code, shrunk_support)
        measured_sigma = (measured_shrunk if support == shrunk_support
                          else codes.shortened_dim(code, support))
        flag("one_minimal_dim", measured_shrunk == 1
             and cert["one_minimal_shortened_dim"] == 1)
        flag("shortened_dim_mismatch", measured_sigma == cert["support_shortened_dim"])

    return CertificateCheck(not reasons, tuple(reasons))


# -- the sweeps ---------------------------------------------------------------


def mds_check(q: int, m: int, r: int, guards: Guards = DEFAULT_GUARDS) -> dict:
    """The verify-mds row of (q, m, r): computed MDS-ness against the
    closed-form predicate; match is None when the guards skip the computation.

    For r = 1 and m >= 2 the generalized Hamming weights are also measured
    against q^m - floor(q^(m-i)); whether those shifts happen to be
    consecutive is recorded, not judged.
    """
    predicted = mds_predicate(q, m, r)
    code = rm.build_code(q, r, m)
    computed: bool | None
    try:
        computed = codes.is_mds(code, max_enum=guards.max_enum)
    except TooLargeError:
        computed = None
    ghw = ghw_ok = consecutive = None
    if r == 1 and m >= 2 and code.n <= codes.MAX_TABLE_N:
        ghw = list(codes.ghw_profile(code))
        ghw_ok = ghw == [q ** m - q ** (m - i) if m - i >= 0 else q ** m
                         for i in range(1, code.k + 1)]
        consecutive = all(b == a + 1 for a, b in zip(ghw, ghw[1:]))
    return {
        "params": {"q": q, "m": m, "r": r},
        "code": {"n": code.n, "k": code.k, "d": code.d},
        "prediction": {"mds_predicted": predicted},
        "mds_computed": computed,
        "ghw": ghw,
        "ghw_matches_formula": ghw_ok,
        "shifts_consecutive": consecutive,
        "match": None if computed is None else computed == predicted,
    }


# certificate fields a theorem row reports, next to its own check_passed
CERTIFICATE_SUMMARY = ("case", "weight", "formula_weight", "d1", "d1_source",
                       "one_minimal_weight", "support_shortened_dim")


def theorem_row(q: int, m: int, r: int, guards: Guards = DEFAULT_GUARDS,
                methods=("betti", "certificate")) -> dict:
    """The verify-theorem row of (q, m, r): the routes in methods (betti,
    certificate) against the purity predicate.

    purity and certificate are None where their route did not run;
    betti_method is purity_by_betti's route, "skipped", or "skipped:guard"
    when a guard refused it.  match is "skipped" when no route decided the
    row.  ghw, betti, mds_predicted and mds_computed are always null, kept
    because perfbench/golden.json pins the bytes of these rows.  Unknown
    methods raise ParameterError before anything is built.
    """
    unknown = sorted(set(methods) - {"betti", "certificate"})
    if unknown:
        raise ParameterError(f"unknown sweep methods {unknown}; "
                             "choose from ('betti', 'certificate')")
    code = rm.build_code(q, r, m)
    pure_predicted = purity_predicate(q, m, r)
    verdicts = []

    purity, betti_method = None, "skipped"
    if "betti" in methods:
        try:
            comp = purity_by_betti(q, m, r, guards)
        except TooLargeError:
            betti_method = "skipped:guard"
        else:
            purity = asdict(comp.verdict)
            betti_method = comp.route
            verdicts.append(comp.verdict.pure == pure_predicted)

    certificate = None
    if "certificate" in methods and certificate_witness(q, m, r) is not None:
        cert = non_purity_certificate(q, m, r, guards)
        certificate = {name: cert[name] for name in CERTIFICATE_SUMMARY}
        certificate["check_passed"] = check_certificate(cert, guards).ok
        # a verified certificate asserts non-purity
        verdicts.append(certificate["check_passed"] and not pure_predicted)

    return {
        "params": {"q": q, "m": m, "r": r},
        "code": {"n": code.n, "k": code.k, "d": code.d},
        "ghw": None,
        "betti": None,
        "purity": purity,
        "certificate": certificate,
        "prediction": {"pure_predicted": pure_predicted, "mds_predicted": None},
        "betti_method": betti_method,
        "mds_computed": None,
        "match": ("skipped" if not verdicts
                  else "match" if all(verdicts) else "mismatch"),
    }


def sweep(row, q: int, m: int, rs=None, *row_args, jobs: int = 1) -> list:
    """[row(q, m, r, *row_args) for r in rs], in increasing r.

    row is theorem_row or mds_check.  rs = None sweeps all 0 <= r <= m(q-1);
    jobs > 1 distributes rows over at most one process per row, which cannot
    change the output (rows are independent and reassembled in order).  The
    point grid and every r are checked before any row is built, so an
    oversized (q, m) is refused without listing m(q-1)+1 rows.
    """
    rm.validate_params(q, 0, m)
    rm.point_order(q, m)
    r_values = range(m * (q - 1) + 1) if rs is None else \
        ([rs] if isinstance(rs, int) else sorted(rs))
    for r in r_values:
        rm.validate_params(q, r, m)
    columns = ([q] * len(r_values), [m] * len(r_values), r_values,
               *([arg] * len(r_values) for arg in row_args))
    if jobs > 1 and len(r_values) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(r_values))) as pool:
            return list(pool.map(row, *columns))
    return list(map(row, *columns))
