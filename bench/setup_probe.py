"""Set-up probe: a fresh interpreter imports veronese and builds the
per-context tables that a workload's operations start from.

Usage: python3 bench/setup_probe.py MODE N,D [N,D ...]

MODE is "minors" (build_matrix and minors2), "toric" (those and
toric_quadrics) or "lazy" (the first failing_minor call, which builds the
minor table behind it, as a library caller's first membership test does).
The veronese package must be importable (PYTHONPATH pointing at src/).
"""

import sys
from fractions import Fraction


def main() -> int:
    mode, *pairs = sys.argv[1:]
    import veronese as V

    for pair in pairs:
        n, d = (int(s) for s in pair.split(","))
        ctx = V.VeroneseContext(n, d)
        if mode == "lazy":
            ones = V.ProjectivePoint(V.QQ, (Fraction(1),) * (ctx.N + 1))
            if V.failing_minor(ctx, ones) is not None:
                return 1
            continue
        if not V.minors2(V.build_matrix(ctx)):
            return 1
        if mode == "toric" and not V.toric_quadrics(ctx):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
