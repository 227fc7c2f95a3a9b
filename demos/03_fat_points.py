"""Fat-point interpolation: Hilbert functions, mu maps, bad resolutions.

A fat-point scheme Z = sum m_i p_i imposes derivative conditions on forms;
ranks of the condition matrices give dim (I_Z)_k, and the multiplication
maps mu_k : (I_Z)_k (x) R_1 -> (I_Z)_{k+1} control the number of generators
of the ideal in each degree.  Unbalanced rational curves through the points
force the cokernel of mu at the initial degree to jump: the scheme
postulates perfectly but resolves badly.
"""

from curvesplit import (
    DivClass,
    FatScheme,
    alpha_degree,
    check_nongeneric_resolution,
    class_cohomology,
    ideal_dim,
    mu_rank,
    random_points,
)

points = random_points(9, seed=77)

# One quadruple point plus eight simple ones: ideal empty in degree 4,
# 3-dimensional in degree 5, 10-dimensional in degree 6.
Z = FatScheme(points, (4, 1, 1, 1, 1, 1, 1, 1, 1))
print("length:", Z.length, " alpha:", alpha_degree(Z))
print("dims 4..6:", [ideal_dim(Z, k) for k in (4, 5, 6)])

# One generator is expected in degree 6; the quartic with a triple point
# through the nine points (splitting (1,3)) forces a second one.
print("mu_5:", mu_rank(Z, 5).to_json())

# Divisor-class cohomology by interpolation: h^0, h^1, and the linear
# excess le(A) = dim ker of H^0(A) (x) H^0(L) -> H^0(A + L), all three
# from one condition matrix.
A = DivClass(3, (1, 1, 1, 1, 1, 1, 1, 0, 0))
h0, h1, le = class_cohomology(A, points)
print("h0(A) =", h0, " h1(A) =", h1, " le(A) =", le)

# The same story one level up: seven quadruple points and two simple ones.
Z2 = FatScheme(points, (4, 4, 4, 4, 4, 4, 4, 1, 1))
print("dims 10..12:", [ideal_dim(Z2, k) for k in (10, 11, 12)])
print("mu_11:", mu_rank(Z2, 11).to_json())

# Every exceptional class of shape (2d'; odd multiplicities) manufactures a
# fat-point scheme with maximal Hilbert function but non-generic resolution.
for cls in [
    DivClass(4, (3, 1, 1, 1, 1, 1, 1, 1, 1)),
    DivClass(8, (3, 3, 3, 3, 3, 3, 3, 1, 1)),
]:
    rep = check_nongeneric_resolution(cls, points)
    print(
        f"from {rep.cprime}: Z = {rep.mults}, alpha = {rep.alpha}, "
        f"cokernel {rep.cokernel} (generic would be {rep.expected_cokernel})"
    )
