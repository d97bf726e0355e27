"""Mechanized checks of the purity characterization and the MDS corollary.

Two independent routes decide purity for a given (q, m, r): the computed
graded Betti table, and a self-contained certificate built from a witness
codeword whose shrunk support carries a 1-dimensional shortened code heavier
than the minimum distance.  A parameter sweep runs both routes wherever
their guards allow, compares against the closed-form predicates, and never
drops a row silently.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import codes, linalg, rm, srres
from .errors import (CertificateError, CrossCheckError, ParameterError,
                     PreconditionError, TooLargeError)
from .gf import field


@dataclass(frozen=True)
class Guards:
    """Enumeration limits; exceeding one raises TooLargeError, never truncates."""
    max_n_betti: int = 16
    cross_check_n: int = 12
    max_enum: int = 2_000_000
    max_subspaces: int = 1_000_000
    homology_char: int = 2

    def to_json_obj(self) -> dict:
        return asdict(self)


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
    q: int
    m: int
    r: int
    table: srres.BettiTable
    verdict: srres.PurityVerdict
    cross_checked: bool


def purity_by_betti(q: int, m: int, r: int,
                    guards: Guards = DEFAULT_GUARDS) -> PurityComputation:
    """Betti table via the fast backend, cross-checked against the homology
    backend when the length allows; returns the purity verdict."""
    code = rm.build_code(q, r, m)
    if code.n > guards.max_n_betti:
        raise TooLargeError(
            f"n = {code.n} exceeds the Betti guard {guards.max_n_betti}")
    table = srres.betti_fastpath(code, max_n=guards.max_n_betti)
    cross_checked = code.n <= guards.cross_check_n
    if cross_checked:
        slow = srres.betti_hochster(code, guards.homology_char,
                                    max_n=guards.cross_check_n)
        if slow != table:
            raise CrossCheckError(
                f"Betti backends disagree for (q={q}, m={m}, r={r})")
    return PurityComputation(q, m, r, table, srres.purity_verdict(table),
                             cross_checked)


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class NonPurityCertificate:
    """Everything needed to re-verify non-purity without rebuilding the code.

    The witness codeword beats the minimum distance; its greedily shrunk
    support carries a 1-dimensional shortened code that still beats it, so
    some support-minimal subcode is heavier than its generalized Hamming
    weight.  support_shortened_dim records the shortened dimension of the
    witness's own support (1 would mean the witness span is itself
    support-minimal) without asserting a value.
    """
    q: int
    m: int
    r: int
    t: int
    s: int
    case: int
    n: int
    k: int
    field_char: int
    field_degree: int
    field_modulus: tuple
    witness_terms: tuple
    codeword: tuple
    support: tuple
    weight: int
    formula_weight: int
    d1: int
    d1_source: str
    d1_bruteforce: int | None
    one_minimal_word: tuple
    one_minimal_support: tuple
    one_minimal_weight: int
    support_shortened_dim: int
    one_minimal_shortened_dim: int
    generator_matrix: tuple
    parity_check_matrix: tuple
    checks: tuple

    def to_json_dict(self) -> dict:
        """Keys in field order; the field_* fields nest under "field" and
        witness_terms is written as "witness_poly"."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "witness_terms":
                value = [{"exponents": list(e), "coeff": c} for e, c in value]
            elif f.name == "checks":
                value = dict(value)
            elif isinstance(value, tuple):  # one list() per flat tuple or row
                value = ([list(row) for row in value]
                         if value and isinstance(value[0], tuple) else list(value))
            if f.name.startswith("field_"):
                out.setdefault("field", {})[f.name[len("field_"):]] = value
            else:
                out["witness_poly" if f.name == "witness_terms" else f.name] = value
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "NonPurityCertificate":
        kwargs = {}
        for f in fields(cls):
            if f.name.startswith("field_"):
                value = obj["field"][f.name[len("field_"):]]
            else:
                value = obj["witness_poly" if f.name == "witness_terms" else f.name]
            if f.name == "witness_terms":
                value = tuple((tuple(t["exponents"]), t["coeff"]) for t in value)
            elif f.name == "checks":
                value = tuple(value.items())
            elif isinstance(value, list):
                value = (tuple(tuple(row) for row in value)
                         if value and isinstance(value[0], list) else tuple(value))
            kwargs[f.name] = value
        return cls(**kwargs)


def _case_weight(q: int, m: int, r: int) -> tuple[int, int]:
    """(case number, expected witness weight) for the s = 1 construction."""
    t, s = rm.ts_split(q, r)
    if s != 1:
        raise PreconditionError(f"split of r={r} gives s={s}; certificates need s = 1")
    if q == 3:
        return 2, 8 * 3 ** (m - t - 2)
    return 1, 2 * (q - 2) * q ** (m - t - 1)


def certificate_applicable(q: int, m: int, r: int) -> bool:
    """Whether the witness construction's preconditions hold at (q, m, r)."""
    try:
        rm.validate_params(q, r, m)
    except ParameterError:
        return False
    _, s = rm.ts_split(q, r)
    return q >= 3 and m >= 2 and s == 1 and 1 < r < m * (q - 1) - 1


def non_purity_certificate(q: int, m: int, r: int,
                           guards: Guards = DEFAULT_GUARDS) -> NonPurityCertificate:
    """Build and internally verify a certificate of non-purity.

    Raises PreconditionError when the witness construction does not apply
    and CertificateError if any of its own checks fails (which would be
    evidence against the characterization, never silenced).
    """
    rm.validate_params(q, r, m)
    if q < 3:
        raise PreconditionError(f"witness constructions need q >= 3, got q={q}")
    if m < 2 or not 1 < r < m * (q - 1) - 1:
        raise PreconditionError(
            f"need m >= 2 and 1 < r < m(q-1)-1, got m={m}, r={r}")
    t, s = rm.ts_split(q, r)
    case, formula_weight = _case_weight(q, m, r)
    if case == 2:
        witness = rm.witness_poly_ternary(m, r)
    else:
        witness = rm.witness_poly_large_field(q, m, r)

    code = rm.build_code(q, r, m)
    gf = code.gf
    word = witness.evaluate(code.order)
    sigma = codes.support(word)
    wt = len(sigma)
    d1 = rm.min_distance_formula(q, r, m)
    within_enum = gf.q ** code.k <= guards.max_enum
    d1_brute = (codes.min_weight_bruteforce(code, max_enum=guards.max_enum)
                if within_enum else None)

    shrunk = codes.shrink_to_one_minimal(code, word)
    shrunk_support = codes.support(shrunk)
    shrunk_dim = codes.shortened_dim(code, shrunk_support)
    sigma_dim = codes.shortened_dim(code, sigma)

    checks = (
        ("witness_degree_is_r", witness.total_degree() == r),
        ("codeword_in_code", code.contains(word)),
        ("weight_matches_formula", wt == formula_weight),
        ("weight_exceeds_d1", wt > d1),
        ("d1_bruteforce_agrees", d1_brute is None or d1_brute == d1),
        ("shrunk_word_in_code", code.contains(shrunk)),
        ("shrunk_support_inside_witness", set(shrunk_support) <= set(sigma)),
        ("one_minimal_dim_is_1", shrunk_dim == 1),
        ("one_minimal_weight_exceeds_d1", len(shrunk_support) > d1),
    )
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise CertificateError(
            f"certificate checks failed for (q={q}, m={m}, r={r}): {failed}")

    return NonPurityCertificate(
        q=q, m=m, r=r, t=t, s=s, case=case, n=code.n, k=code.k,
        witness_terms=tuple(witness.sorted_terms()),
        codeword=tuple(int(x) for x in word),
        support=sigma,
        weight=wt,
        formula_weight=formula_weight,
        d1=d1,
        d1_source="formula+bruteforce" if within_enum else "formula",
        d1_bruteforce=d1_brute,
        one_minimal_word=tuple(int(x) for x in shrunk),
        one_minimal_support=shrunk_support,
        one_minimal_weight=len(shrunk_support),
        support_shortened_dim=sigma_dim,
        one_minimal_shortened_dim=shrunk_dim,
        generator_matrix=tuple(tuple(int(x) for x in row) for row in code.G),
        parity_check_matrix=tuple(tuple(int(x) for x in row) for row in code.H),
        field_char=gf.p, field_degree=gf.e, field_modulus=gf.modulus,
        checks=checks,
    )


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reasons: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_certificate(cert: NonPurityCertificate,
                      guards: Guards = DEFAULT_GUARDS) -> CertificateCheck:
    """Re-verify a certificate from scratch; collects every failing reason."""
    reasons: list[str] = []

    def flag(reason: str, ok: bool) -> bool:
        if not ok:
            reasons.append(reason)
        return ok

    try:
        q, m, r = cert.q, cert.m, cert.r
        rm.validate_params(q, r, m)
        gf = field(q)
        t, s = rm.ts_split(q, r)
        flag("params", (t, s) == (cert.t, cert.s) and s == 1 and q >= 3
             and m >= 2 and 1 < r < m * (q - 1) - 1
             and (gf.p, gf.e, gf.modulus) == (cert.field_char, cert.field_degree,
                                              tuple(cert.field_modulus)))
    except ParameterError:
        return CertificateCheck(False, ("params",))

    G = np.array(cert.generator_matrix, dtype=gf.dtype)
    H = np.array(cert.parity_check_matrix, dtype=gf.dtype)
    word = np.array(cert.codeword, dtype=gf.dtype)
    shrunk = np.array(cert.one_minimal_word, dtype=gf.dtype)

    code = rm.build_code(q, r, m)
    n, k = code.n, code.k
    if not flag("matrix_shapes", G.shape == (k, n) and H.shape == (n - k, n)
                and word.shape == (n,) and shrunk.shape == (n,)):
        return CertificateCheck(False, tuple(reasons))
    if not flag("entry_range", all(int(a.max(initial=0)) < q
                                   for a in (G, H, word, shrunk))):
        return CertificateCheck(False, tuple(reasons))

    flag("orthogonality", not np.any(linalg.matmul(gf, G, H.T)))
    flag("generator_mismatch", linalg.row_space_equal(gf, G, code.G))
    flag("parity_mismatch", linalg.row_space_equal(gf, H, code.H))

    witness = rm.ExponentPoly(gf, m, dict(cert.witness_terms))
    flag("witness_degree", witness.total_degree() == r)
    flag("witness_evaluation", np.array_equal(witness.evaluate(code.order), word))

    member_word = not np.any(linalg.matvec(gf, H, word))
    member_shrunk = not np.any(linalg.matvec(gf, H, shrunk))
    flag("membership", member_word and member_shrunk)

    flag("support_mismatch", codes.support(word) == tuple(cert.support)
         and codes.support(shrunk) == tuple(cert.one_minimal_support))
    flag("weight_mismatch", codes.weight(word) == cert.weight
         and codes.weight(shrunk) == cert.one_minimal_weight)

    try:
        case, formula_weight = _case_weight(q, m, r)
        flag("weight_formula", case == cert.case
             and formula_weight == cert.formula_weight == cert.weight)
    except PreconditionError:
        flag("weight_formula", False)

    d1 = rm.min_distance_formula(q, r, m)
    flag("d1_mismatch", d1 == cert.d1)
    if gf.q ** k <= guards.max_enum:
        brute = codes.min_weight_bruteforce(code, max_enum=guards.max_enum)
        flag("d1_bruteforce", brute == d1
             and cert.d1_bruteforce in (None, brute))

    flag("not_above_d1", cert.weight > d1)
    flag("one_minimal_not_above_d1", cert.one_minimal_weight > d1)

    flag("support_containment",
         set(cert.one_minimal_support) <= set(cert.support))
    measured_shrunk = codes.shortened_dim(code, cert.one_minimal_support)
    measured_sigma = codes.shortened_dim(code, cert.support)
    flag("one_minimal_dim", measured_shrunk == 1
         and cert.one_minimal_shortened_dim == 1)
    flag("shortened_dim_mismatch", measured_sigma == cert.support_shortened_dim)

    return CertificateCheck(not reasons, tuple(reasons))


# -- MDS corollary ------------------------------------------------------------


@dataclass(frozen=True)
class MdsCheck:
    q: int
    m: int
    r: int
    n: int
    k: int
    d_formula: int
    mds_predicted: bool
    mds_computed: bool | None
    match: bool | None
    ghw: tuple | None
    ghw_formula: tuple | None
    ghw_matches_formula: bool | None
    shifts_consecutive: bool | None

    def to_json_obj(self) -> dict:
        return {
            "params": {"q": self.q, "m": self.m, "r": self.r},
            "code": {"n": self.n, "k": self.k, "d": self.d_formula},
            "prediction": {"mds_predicted": self.mds_predicted},
            "mds_computed": self.mds_computed,
            "ghw": list(self.ghw) if self.ghw else None,
            "ghw_matches_formula": self.ghw_matches_formula,
            "shifts_consecutive": self.shifts_consecutive,
            "match": self.match,
        }


def mds_check(q: int, m: int, r: int,
              guards: Guards = DEFAULT_GUARDS) -> MdsCheck:
    """Compare computed MDS-ness against the closed-form predicate.

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
    match = None if computed is None else computed == predicted
    ghw = ghw_formula = ghw_ok = consecutive = None
    if r == 1 and m >= 2 and code.n <= 20:
        ghw = codes.ghw_profile(code)
        ghw_formula = tuple(q ** m - q ** (m - i) if m - i >= 0 else q ** m
                            for i in range(1, code.k + 1))
        ghw_ok = ghw == ghw_formula
        consecutive = all(ghw[i + 1] == ghw[i] + 1 for i in range(len(ghw) - 1))
    return MdsCheck(q, m, r, code.n, code.k, code.d, predicted, computed,
                    match, ghw, ghw_formula, ghw_ok, consecutive)


# -- the sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One (q, m, r) row; purity and mds are None where their route did
    not run."""
    q: int
    m: int
    r: int
    n: int
    k: int
    d: int
    t: int
    s: int
    pure_predicted: bool
    betti_method: str
    purity: srres.PurityVerdict | None
    certificate: dict | None
    certificate_ok: bool | None
    mds: MdsCheck | None
    match: str

    def to_json_obj(self) -> dict:
        mds = self.mds
        return {
            "params": {"q": self.q, "m": self.m, "r": self.r},
            "code": {"n": self.n, "k": self.k, "d": self.d},
            "ghw": list(mds.ghw) if mds and mds.ghw else None,
            "betti": None,
            "purity": self.purity.to_json_obj() if self.purity else None,
            "certificate": self.certificate,
            "prediction": {"pure_predicted": self.pure_predicted,
                           "mds_predicted": mds.mds_predicted if mds else None},
            "betti_method": self.betti_method,
            "mds_computed": mds.mds_computed if mds else None,
            "match": self.match,
        }


SWEEP_METHODS = ("betti", "certificate", "mds")
# certificate fields a sweep row reports, next to its own check_passed
CERTIFICATE_SUMMARY = ("case", "weight", "formula_weight", "d1", "d1_source",
                       "one_minimal_weight", "support_shortened_dim")


def _sweep_row(args) -> SweepRow:
    q, m, r, guards, methods = args
    t, s = rm.ts_split(q, r)
    code = rm.build_code(q, r, m)
    pure_predicted = purity_predicate(q, m, r)

    purity = None
    betti_method = "skipped"
    if "betti" in methods:
        if code.n <= guards.max_n_betti:
            comp = purity_by_betti(q, m, r, guards)
            purity = comp.verdict
            betti_method = ("fastpath+homology" if comp.cross_checked
                            else "fastpath")
        else:
            betti_method = "skipped:guard"

    certificate = None
    certificate_ok = None
    if "certificate" in methods and certificate_applicable(q, m, r):
        cert = non_purity_certificate(q, m, r, guards)
        certificate_ok = bool(check_certificate(cert, guards))
        certificate = {name: getattr(cert, name) for name in CERTIFICATE_SUMMARY}
        certificate["check_passed"] = certificate_ok

    mds = mds_check(q, m, r, guards) if "mds" in methods else None

    verdicts = []
    if purity is not None:
        verdicts.append(purity.pure == pure_predicted)
    if certificate_ok is not None:
        # a verified certificate asserts non-purity
        verdicts.append(certificate_ok and not pure_predicted)
    if mds is not None and mds.match is not None:
        verdicts.append(mds.match)
    if not verdicts:
        match = "skipped"
    else:
        match = "match" if all(verdicts) else "mismatch"

    return SweepRow(q=q, m=m, r=r, n=code.n, k=code.k, d=code.d, t=t, s=s,
                    pure_predicted=pure_predicted, betti_method=betti_method,
                    purity=purity, certificate=certificate,
                    certificate_ok=certificate_ok, mds=mds, match=match)


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]

    @property
    def all_match(self) -> bool:
        return all(row.match == "match" for row in self.rows if row.match != "skipped") \
            and any(row.match == "match" for row in self.rows)

    def to_json_obj(self) -> dict:
        return {"rows": [row.to_json_obj() for row in self.rows],
                "match": self.all_match}


def sweep(qs, ms, rs=None, *, guards: Guards = DEFAULT_GUARDS,
          methods=("betti", "certificate"), jobs: int = 1) -> SweepReport:
    """Run every (q, m, r) row in deterministic (q, m, r) order.

    methods picks the routes from SWEEP_METHODS that each row runs.  rs =
    None sweeps all 0 <= r <= m(q-1) per (q, m); jobs > 1 distributes rows
    over processes, which cannot change the output (rows are independent
    and reassembled in order).
    """
    unknown = sorted(set(methods) - set(SWEEP_METHODS))
    if unknown:
        raise ParameterError(f"unknown sweep methods {unknown}; "
                             f"choose from {SWEEP_METHODS}")
    qs = [qs] if isinstance(qs, int) else sorted(qs)
    ms = [ms] if isinstance(ms, int) else sorted(ms)
    tasks = []
    for q in qs:
        for m in ms:
            r_values = range(m * (q - 1) + 1) if rs is None else \
                ([rs] if isinstance(rs, int) else sorted(rs))
            for r in r_values:
                rm.validate_params(q, r, m)
                tasks.append((q, m, r, guards, tuple(methods)))
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = tuple(pool.map(_sweep_row, tasks))
    else:
        rows = tuple(_sweep_row(t) for t in tasks)
    return SweepReport(rows)
