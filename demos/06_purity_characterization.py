"""The purity characterization, verified two independent ways.

Prediction: the resolution is pure exactly when m = 1, or r <= 1, or
r >= m(q-1) - 1.  Route one computes the Betti table and inspects it.
Route two (for the s = 1 band) builds a witness codeword heavier than the
minimum distance whose shrunk support carries a single line; a verified
certificate of that shape rules out purity without any table.  The MDS
analogue replaces "pure" with "r = 0 instead of r <= 1".
"""

import rmbetti as rb

# One sweep runs every route per row: Betti table, certificate and MDS check.
report = rb.sweep(4, 2, methods=("betti", "certificate", "mds"))
print("q m r |  n  k  d | pure?  predicted | cert | MDS  predicted | match")
for row in report.rows:
    cert = "-" if row.certificate is None else ("ok" if row.certificate_ok else "BAD")
    pure = row.purity.pure if row.purity else None
    print(f"{row.q} {row.m} {row.r} | {row.n:2d} {row.k:2d} {row.d:2d} |"
          f" {str(pure):5s}  {str(row.pure_predicted):9s} |"
          f" {cert:4s} | {str(row.mds.mds_computed):5s} {str(row.mds.mds_predicted):9s} |"
          f" {row.match}")
print("all rows match:", report.all_match)

# The certificate route in detail for the s = 1 instance above.
cert = rb.non_purity_certificate(4, 2, 4)
print(f"\ncertificate for (q=4, m=2, r=4): witness weight {cert['weight']} "
      f"(expected {cert['formula_weight']}), minimum distance {cert['d1']}")
print(f"shrunk word: weight {cert['one_minimal_weight']}, "
      f"shortened dimension {cert['one_minimal_shortened_dim']}")
print("witness support's own shortened dimension:", cert["support_shortened_dim"])
print("independent re-check:", rb.check_certificate(cert).ok)

# The ternary variant needs three free variables (t <= m - 2).
cert3 = rb.non_purity_certificate(3, 3, 3)
print(f"\nternary certificate (q=3, m=3, r=3): weight {cert3['weight']} > "
      f"d_1 = {cert3['d1']}; re-check {rb.check_certificate(cert3).ok}")

# MDS characterization on a small family: exactly r = 0 and the top band.
print("\nMDS sweep for q = 3, m = 2:")
for r in range(5):
    row = rb.mds_check(3, 2, r)
    print(f"  r={r}: computed {row.mds_computed}, predicted {row.mds_predicted}"
          + (f", hierarchy {row.ghw} (consecutive: {row.shifts_consecutive})"
             if row.ghw else ""))
