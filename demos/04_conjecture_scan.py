"""The r = 9 experiments: semi-adjoints, certificates, and the big scan.

Two conjectured characterizations of unbalanced splitting are exercised
here.  The first says an exceptional class on a 9-point blow-up splits
unevenly exactly when E + K + L is divisible by 2; the proved half
(divisibility forces gap >= 2) is asserted on every record, the open half
is only tallied.  The second predicts a_E as the minimum of A.E over
divisors A with -K.A = 2, h^1 = 0 and linear excess 1.

A full dmax=61 scan (1054 types, `scan-conj9 --dmax 61 --seed 1`) took
8.3-8.9 s in two runs from the command line, and `scan_conjecture9(61, s)`
6.2-6.3 s at seed 1 and 7.0-7.1 s at seed 2, on a 2-core Intel Xeon with
Python 3.11 and numpy 2.4, whose speed swings by up to 1.5x over time (the
seed-1 scan has read 5.8 to 8.4 s).  This demo caps the degree lower to stay
snappy.
"""

from curvesplit import DivClass, random_points
from curvesplit.conjscan import certify_unbalanced, scan_conjecture9, search_min_product

points = random_points(9, seed=13)

# Certificate for the flagship unbalanced exceptional curve.
cert = certify_unbalanced(DivClass(8, (3, 3, 3, 3, 3, 3, 3, 1, 1)), points, seed=4)
print("certificate:", cert.to_json())

# Conjectured minimum of A.E: for this E it is 3, attained by the net of
# cubics through the seven triple points.
res = search_min_product(DivClass(8, (3, 3, 3, 3, 3, 3, 3, 1, 1)), points, dA_max=5)
print("min A.E:", res.to_json())

# Scan everything up to degree 16.
records, summary = scan_conjecture9(16, seed=4)
print("summary:", summary)
unbalanced = [r for r in records if r.gap is not None and r.gap > 1]
print("unbalanced types found:")
for r in unbalanced:
    print("  ", r.ntype.to_json(), "gap", r.gap, "semi-adjoint", r.semiadjoint)
