#!/usr/bin/env python3
"""Walkthrough: the coordinate grid and its 2-minor quadrics.

The degree-3 embedding of the plane lands in P^9.  Its image is cut out by
the 2-minors of a 3x6 matrix whose row i lists every cubic monomial
divisible by x_i, lex-decreasing.  The same grid read as z-coordinates is
the catalecticant-style matrix the rest of the demos revolve around.
"""

from veronese import (
    MultiIndex,
    VeroneseContext,
    build_matrix,
    enumerate_monomials,
    minors2,
    sorted_binomials,
    toric_quadrics,
)

ctx = VeroneseContext(n=2, d=3)
print(f"source P^{ctx.n}, degree {ctx.d}, target P^{ctx.N}, grid {ctx.n + 1} x {ctx.cols}")
print()

grid = build_matrix(ctx)
print("monomial reading (L):")
for row in grid.entries:
    print("  ", "  ".join(f"{m.monomial_name():9s}" for m in row))
print("coordinate reading (M):")
for row in grid.entries:
    print("  ", "  ".join(f"{m.coordinate_name():10s}" for m in row))
print()

# an independent construction assembles the grid column by column: column k
# is the k-th degree-(d-1) monomial times each variable in turn; the two
# routes must agree cell for cell
bases = enumerate_monomials(ctx.n, ctx.d - 1)
by_columns = tuple(
    tuple(MultiIndex(e + (j == i) for j, e in enumerate(base)) for base in bases)
    for i in range(ctx.n + 1)
)
assert by_columns == grid.entries
print("column-wise construction agrees cell for cell")
print()

quadrics = minors2(grid)
print(f"{len(quadrics)} distinct canonical 2-minors; the first few:")
for b in sorted_binomials(quadrics)[:6]:
    print("  ", b)
print()

# every 2-minor is a balanced quadric; here the converse also holds
balanced = toric_quadrics(ctx)
print(f"balanced quadrics on the same coordinates: {len(balanced)}")
print("minors form a subset:", quadrics <= balanced)
print("and for this context the two sets coincide:", quadrics == balanced)
