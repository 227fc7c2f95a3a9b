"""Parameterize curves through random points and compute their splitting.

The engine reduces the class by quadratic Cremona maps, parameterizes the
base case (a line, a conic, or a curve swept by the lines through one
multiple point), and substitutes back through the inverse maps.  Three
independent algorithms then compute the splitting type (a, b) of the
pulled-back twisted cotangent bundle; they must always agree.
"""

from curvesplit import (
    NumType,
    min_syzygy,
    multiplicity_at,
    parameterize,
    random_points,
    splitting_moving_lines,
    splitting_saturation,
)
from curvesplit.binform import _to_text

points = random_points(9, seed=2026)

# The simplest non-Ascenzi curve with unbalanced splitting: degree 8 with
# seven triple points.  Its splitting type is (3, 5).
T = NumType(8, (3, 3, 3, 3, 3, 3, 3))
phi = parameterize(T, points, seed=1)
print("degree:", phi.degree)
print("multiplicities:", [multiplicity_at(phi, points, i) for i in range(points.r)])

ml = splitting_moving_lines(phi)
sat = splitting_saturation(phi)
syz = min_syzygy(phi)
print("moving lines:     ", ml)
print("saturation:       ", sat)
print("min syzygy degree:", syz.degree, "(= a)")

# The syzygy itself is a moving line: alpha0 phi0 + alpha1 phi1 + alpha2 phi2 = 0.
print("syzygy components:", [_to_text(f) for f in syz.alphas])

# A tour through the golden cases, with the gap gamma = b - a.
for d, m in [
    (4, (3, 1, 1, 1, 1, 1, 1, 1, 1)),
    (10, (4, 4, 4, 4, 4, 4)),
    (14, (6, 6, 6, 6, 4, 4, 4)),
    (16, (6, 6, 6, 6, 6, 6, 6)),
    (12, (5, 5, 5, 5, 3, 3, 3, 3, 3)),
]:
    T = NumType(d, m)
    phi = parameterize(T, points, seed=1)
    s = splitting_moving_lines(phi)
    print(f"type ({d}; {m}) -> split ({s.a}, {s.b}), gap {s.gap}")
