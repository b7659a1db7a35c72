#!/usr/bin/env python3
"""Walkthrough: the embedding, membership, and the explicit inverse.

Everything is exact: rational points stay rational, prime-field points stay
in their field, and membership means every minor vanishes identically, not
approximately.
"""

from fractions import Fraction
from random import Random

from veronese import (
    PrimeField,
    QQ,
    VeroneseContext,
    available_charts,
    chart_select,
    failing_minor,
    format_point,
    inverse_map,
    inverse_on_chart,
    is_on_variety,
    point,
    proj_eq,
    random_point,
    veronese_eval,
)

ctx = VeroneseContext(n=1, d=3)

x = point(QQ, [Fraction(1, 2), 3])
Q = veronese_eval(ctx, x)
print("x =", format_point(x))
print("embedded:", format_point(Q))
print("on the variety:", is_on_variety(ctx, Q))
print("preimage:", format_point(inverse_map(ctx, Q)))
assert proj_eq(inverse_map(ctx, Q), x)
print()

# seeded points with each leading-zero pattern, as `veronese verify` draws
# them: the inverse undoes the embedding at every one
rng = Random(2023)
for lead in range(ctx.n + 1):
    z = random_point(rng, QQ, ctx.n, lead_zeros=lead)
    assert proj_eq(inverse_map(ctx, veronese_eval(ctx, z)), z)
    print(f"seeded {format_point(z)} round-trips")
print()

# a point that is NOT on the variety, and the minor that witnesses it
bad = point(QQ, [1, 1, 1, 2])
minor, value = failing_minor(ctx, bad)
print(f"{format_point(bad)} fails: {minor} evaluates to {value}")
print()

# charts: the inverse is assembled from one matrix column per chart, and
# the chartwise readings agree wherever several charts contain the point
charts = available_charts(ctx, Q)
print("charts containing the image point:", charts)
for i in charts:
    print(f"  chart {i} reads", format_point(inverse_on_chart(ctx, Q, i)))
print()

# the same machinery over a prime field
F7 = PrimeField(7)
y = point(F7, [0, 5])  # first coordinate zero: chart 0 is unavailable
R = veronese_eval(ctx, y)
print("over F_7:", format_point(y), "->", format_point(R))
print("selected chart:", chart_select(ctx, R))
print("preimage:", format_point(inverse_map(ctx, R)))
