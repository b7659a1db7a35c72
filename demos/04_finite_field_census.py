#!/usr/bin/env python3
"""Walkthrough: exhaustive finite-field census.

Over a prime field the whole target projective space is finite, so the set
equality between the minor variety and the embedding image can be checked
point by point.  The expected cardinality of both sets is the number of
source points, (q^(n+1) - 1)/(q - 1).
"""

from veronese import (
    VeroneseContext,
    brute_force_variety,
    census,
    count_projective_points,
    enumerate_projective_points,
    format_point,
    inverse_map,
    proj_eq,
    veronese_eval,
)

for (n, d, q) in [(1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 3)]:
    ctx = VeroneseContext(n, d)
    rep, _ = census(ctx, q)
    print(
        f"n={n} d={d} q={q}: scanned {count_projective_points(ctx.N, q)} points of P^{ctx.N}, "
        f"variety {rep.variety_count}, image {rep.image_count}, "
        f"expected {rep.expected_count}, equal: {rep.equal}"
    )
print()

# the variety of ALL balanced quadrics is a priori smaller; it comes out equal
_, rep = census(VeroneseContext(1, 4), 3)
print(f"minors vs all balanced quadrics at n=1 d=4 q=3: {rep.variety_count} vs {rep.image_count}, equal: {rep.equal}")
print()

# the minor variety as a point set is the image of every source point, and
# census finds it equal to the image and to the vanishing set of all
# balanced quadrics
ctx = VeroneseContext(2, 2)
variety = brute_force_variety(ctx, 3)
image = {veronese_eval(ctx, x) for x in enumerate_projective_points(ctx.n, 3)}
assert variety == image
for rep in census(ctx, 3):
    assert rep.equal and rep.variety_count == rep.image_count == len(image), rep.kind
print(f"n=2 d=2 q=3: the {len(variety)} variety points are the image of the "
      f"{count_projective_points(ctx.n, 3)} source points")

# every census point roundtrips through the inverse
assert all(proj_eq(veronese_eval(ctx, inverse_map(ctx, Q)), Q) for Q in variety)
sample = sorted(variety, key=lambda p: tuple(c.value for c in p.coords))[:4]
print(f"all {len(variety)} points of the n=2 d=2 q=3 census roundtrip; a few of them:")
for Q in sample:
    print("  ", format_point(Q), "->", format_point(inverse_map(ctx, Q)))
