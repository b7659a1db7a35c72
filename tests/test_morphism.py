"""The embedding, membership, chart selection and the chartwise inverse."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod
from random import Random

import pytest
from hypothesis import given, strategies as st

from veronese import (
    ContractError,
    Fp,
    NoChartError,
    PrimeField,
    ProjectivePoint,
    QQ,
    VeroneseContext,
    available_charts,
    chart_select,
    failing_minor,
    inverse_map,
    inverse_on_chart,
    is_on_variety,
    normalize,
    point,
    proj_eq,
    random_point,
    veronese_eval,
)
from veronese import matrix as matrix_module
from veronese.matrix import cached_minors
from veronese.morphism import _integer_image, _minor_table
from veronese.projective import integer_coords


class TestEval:
    def test_plane_cubic_coordinate_list(self):
        ctx = VeroneseContext(2, 3)
        x0, x1, x2 = Fraction(2), Fraction(-3), Fraction(5, 7)
        Q = veronese_eval(ctx, point(QQ, [x0, x1, x2]))
        expected = [
            x0**3, x0**2*x1, x0**2*x2, x0*x1**2, x0*x1*x2, x0*x2**2,
            x1**3, x1**2*x2, x1*x2**2, x2**3,
        ]
        scale = expected[0] / Q.coords[0]
        assert [c * scale for c in Q.coords] == expected

    def test_coordinate_point(self):
        Q = veronese_eval(VeroneseContext(1, 2), point(QQ, [1, 0]))
        assert [str(c) for c in Q.coords] == ["1", "0", "0"]

    def test_twisted_cubic(self):
        Q = veronese_eval(VeroneseContext(1, 3), point(QQ, [1, 2]))
        assert [str(c) for c in Q.coords] == ["1", "2", "4", "8"]

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            veronese_eval(VeroneseContext(2, 2), point(QQ, [1, 2]))

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 3), (3, 2)])
    def test_homogeneity(self, n, d):
        ctx = VeroneseContext(n, d)
        rng = Random(3)
        for _ in range(10):
            x = random_point(rng, QQ, n)
            scaled = point(QQ, [Fraction(-5, 3) * c for c in x.coords])
            assert proj_eq(veronese_eval(ctx, x), veronese_eval(ctx, scaled))


class TestMembership:
    def test_conic_counterexample(self):
        ctx = VeroneseContext(1, 2)
        Q = point(QQ, [0, 1, 0])
        assert not is_on_variety(ctx, Q)
        minor, value = failing_minor(ctx, Q)
        assert str(minor) == "z_{2,0} z_{0,2} - z_{1,1}^2"
        assert value == Fraction(-1)

    def test_plane_conic_counterexample(self):
        # coordinates in lex order z_{2,0,0} .. z_{0,0,2}
        ctx = VeroneseContext(2, 2)
        assert not is_on_variety(ctx, point(QQ, [1, 1, 1, 1, 1, 2]))

    def test_image_points_are_members(self):
        rng = Random(5)
        for n in range(1, 4):
            for d in range(1, 5):
                ctx = VeroneseContext(n, d)
                for k in range(500):
                    x = random_point(rng, QQ, n, lead_zeros=k % (n + 1))
                    assert is_on_variety(ctx, veronese_eval(ctx, x))

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            is_on_variety(VeroneseContext(1, 2), point(QQ, [1, 0]))

    def test_degree_one_everything_is_on_variety(self):
        ctx = VeroneseContext(2, 1)
        assert is_on_variety(ctx, point(QQ, [3, 1, 4]))


def fraction_loop(ctx, Q):
    """Every minor of the table tested in field arithmetic: the reference
    for the rank-one test of is_on_variety."""
    c = Q.coords
    for _, (ia, ib, ic, ie) in _minor_table(ctx):
        if c[ia] * c[ib] != c[ic] * c[ie]:
            return False
    return True


# denominators of either sign, small and far past a machine word
big = st.integers(-(2**80), 2**80)
rationals = st.builds(
    Fraction,
    st.integers(-99, 99) | big,
    (st.integers(1, 99) | big).filter(bool),
) | st.just(Fraction(0))
residues = st.integers(-5, 2**70)


CONTEXTS = [(0, 1), (0, 3), (1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4),
            (3, 2), (3, 3), (3, 4)]
FIELDS = st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(101)]) | st.just(QQ)


def scalars_of(field):
    return rationals if field is QQ else residues.map(field.from_int)


@st.composite
def source_points(draw, field, size):
    """A point with `size` coordinates, some leading ones zero, so that the
    first nonzero entry of its image's matrix can sit below row 0."""
    lead = draw(st.integers(0, size - 1))
    rest = draw(st.lists(scalars_of(field), min_size=size - lead, max_size=size - lead).filter(any))
    return ProjectivePoint(field, (0,) * lead + tuple(rest))


@st.composite
def membership_cases(draw):
    """A context up to (3,4), a field, and an image point, a perturbed image
    point or an arbitrary point of P^N, zero coordinates included."""
    ctx = VeroneseContext(*draw(st.sampled_from(CONTEXTS)))
    field = draw(FIELDS)
    scalars = scalars_of(field)
    kind = draw(st.sampled_from(["image", "perturbed", "arbitrary"]))
    Q = draw(source_points(field, ctx.N + 1 if kind == "arbitrary" else ctx.n + 1))
    if kind != "arbitrary":
        Q = veronese_eval(ctx, Q)
    if kind == "perturbed":
        coords = list(Q.coords)
        k = draw(st.integers(0, ctx.N))
        coords[k] = coords[k] + draw(scalars.filter(bool))
        if any(coords):
            Q = ProjectivePoint(field, tuple(coords))
    return ctx, Q


def field_eval(ctx, x):
    """The embedding in field arithmetic: the reference for veronese_eval,
    which computes on integer coordinates."""
    pows = [[x.field.one] for _ in x.coords]
    for row, c in zip(pows, x.coords):
        for _ in range(ctx.d):
            row.append(row[-1] * c)
    coords = []
    for m in ctx.monomials():
        v = x.field.one
        for j, e in enumerate(m):
            v = v * pows[j][e]
        coords.append(v)
    return normalize(ProjectivePoint(x.field, tuple(coords)))


def multiset_image(ctx, x):
    """The embedding on integer_coords as one product per index multiset:
    combinations_with_replacement over the positions of v lists the
    multisets of the degree-d monomials in enumerate_monomials' order.
    The reference for _integer_image's table of powers."""
    v, p = integer_coords(x)
    coords = list(map(prod, combinations_with_replacement(v, ctx.d)))
    return [c % p for c in coords] if p else coords, p


class TestIntegerImage:
    @given(st.integers(0, 4), st.integers(1, 5),
           st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(101), PrimeField(2**61 - 1)]),
           st.data())
    def test_matches_multiset_products(self, n, d, field, data):
        ctx = VeroneseContext(n, d)
        x = data.draw(source_points(field, n + 1))
        assert _integer_image(ctx, x) == multiset_image(ctx, x)

    @pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(2**61 - 1)])
    def test_zero_coordinates(self, field):
        ctx = VeroneseContext(3, 4)
        x = ProjectivePoint(field, (0, 5, 0, 2))
        z, p = _integer_image(ctx, x)
        assert (z, p) == multiset_image(ctx, x)
        assert sum(map(bool, z)) == 5  # the monomials in x_1 and x_3 alone
        assert all(0 <= c < p for c in z) if p else p == 0


class TestIntegerMembership:
    """is_on_variety tests rank one on integer-scaled coordinates or
    residues; failing_minor and fraction_loop test every minor in field
    arithmetic."""

    @given(membership_cases())
    def test_matches_field_arithmetic(self, case):
        ctx, Q = case
        expected = fraction_loop(ctx, Q)
        assert is_on_variety(ctx, Q) == expected
        assert (failing_minor(ctx, Q) is None) == expected

    @pytest.mark.parametrize("coords,member", [
        # the image of [0 : 1 : 2]: row 0 of the matrix is zero
        ((0, 0, 0, 1, 2, 4), True),
        ((0, 0, 0, 1, 2, 5), False),
        # the image of [0 : 0 : 3]: the pivot is the last entry of the last
        # row, with no row below it
        ((0, 0, 0, 0, 0, 9), True),
        ((0, 0, 0, 0, 1, 9), False),
        # row 0 is (z_{2,0,0}, z_{1,1,0}, z_{1,0,1}) = (0, 0, 1): the pivot
        # sits in its last column, and z_{2,0,0} z_{0,0,2} - z_{1,0,1}^2 = -1
        ((0, 0, 1, 0, 3, 9), False),
        ((0, 0, 1, 0, 0, 9), False),
        ((1, 2, 3, 4, 6, 9), True),
        ((1, 2, 3, 4, 6, 8), False),
    ])
    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)])
    def test_pivots_away_from_the_corner(self, field, coords, member):
        ctx = VeroneseContext(2, 2)
        Q = ProjectivePoint(field, coords)
        assert is_on_variety(ctx, Q) == fraction_loop(ctx, Q)
        if field is QQ:
            assert is_on_variety(ctx, Q) is member

    def test_answers_without_the_minor_table(self, monkeypatch):
        def no_table(matrix):
            raise AssertionError("is_on_variety built the minor table")

        monkeypatch.setattr(matrix_module, "minors2", no_table)
        cached_minors.cache_clear()
        _minor_table.cache_clear()
        ctx = VeroneseContext(4, 4)
        for field in (QQ, PrimeField(101)):
            Q = veronese_eval(ctx, random_point(Random(4), field, ctx.n, lead_zeros=2))
            assert is_on_variety(ctx, Q) is True
            coords = list(Q.coords)
            coords[-1] += field.one
            assert is_on_variety(ctx, ProjectivePoint(field, tuple(coords))) is False
        assert _minor_table.cache_info().currsize == 0

    def test_failing_minor_leaves_the_minor_set_unbuilt(self, monkeypatch):
        # the table comes from the quads of the index grid, not from minors2
        def no_minors(matrix):
            raise AssertionError("failing_minor built the minor set")

        monkeypatch.setattr(matrix_module, "minors2", no_minors)
        cached_minors.cache_clear()
        _minor_table.cache_clear()
        ctx = VeroneseContext(3, 3)
        Q = veronese_eval(ctx, point(QQ, [1, 2, 3, 4]))
        assert failing_minor(ctx, Q) is None
        coords = list(Q.coords)
        coords[-1] += 1
        assert failing_minor(ctx, ProjectivePoint(QQ, tuple(coords))) is not None
        assert cached_minors.cache_info().currsize == 0
        assert _minor_table.cache_info().currsize == 1

    @given(st.sampled_from(CONTEXTS), FIELDS, st.data())
    def test_embedding_matches_field_arithmetic(self, nd, field, data):
        ctx = VeroneseContext(*nd)
        x = data.draw(source_points(field, ctx.n + 1))
        image = veronese_eval(ctx, x)
        assert image == field_eval(ctx, x)
        assert all(type(c) is type(field.one) for c in image.coords)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)])
    def test_perturbed_images_are_not_members(self, field):
        ctx = VeroneseContext(3, 4)
        rng = Random(8)
        for k in range(20):
            Q = veronese_eval(ctx, random_point(rng, field, ctx.n, lead_zeros=k % 4))
            coords = list(Q.coords)
            coords[rng.randrange(len(coords))] += field.one
            bent = ProjectivePoint(field, tuple(coords))
            assert is_on_variety(ctx, bent) == fraction_loop(ctx, bent) is False

    def test_scaling_by_denominators(self):
        # [1/6 : 1/3 : 2/3] = [1 : 2 : 4] after scaling by lcm(6, 3, 3) = 6
        ctx = VeroneseContext(1, 2)
        assert is_on_variety(ctx, point(QQ, [Fraction(1, 6), Fraction(1, 3), Fraction(2, 3)]))
        assert not is_on_variety(ctx, point(QQ, [Fraction(1, 6), Fraction(1, 3), Fraction(2, 5)]))

    @pytest.mark.parametrize("field,coords", [
        (PrimeField(5), (Fp(1, 7), Fp(2, 7), Fp(4, 7))),
        (PrimeField(7), (Fp(1, 7), Fp(2, 5), Fp(4, 7))),
        (PrimeField(7), (Fp(1, 7), Fraction(2), Fp(4, 7))),
        (QQ, (Fraction(1), Fp(2, 7), Fraction(4))),
    ], ids=["foreign-modulus", "mixed-moduli", "rational-in-fp", "residue-in-rational"])
    def test_coordinates_of_another_field_are_refused(self, field, coords):
        # the point refuses them when built, before any membership test
        with pytest.raises(ContractError):
            ProjectivePoint(field, coords)

    @pytest.mark.parametrize("coords,member,value", [
        ((1, 2, 11), True, None), ((1, 2, 12), False, Fp(1, 7)),
    ], ids=["member", "non-member"])
    def test_unreduced_residues_are_coerced(self, coords, member, value):
        # 11 = 4 and 12 = 5 in F_7; the minor z_{2,0} z_{0,2} - z_{1,1}^2 reads 1*5 - 2^2
        ctx, Q = VeroneseContext(1, 2), ProjectivePoint(PrimeField(7), coords)
        assert is_on_variety(ctx, Q) is member
        fail = failing_minor(ctx, Q)
        assert (fail is None) is member
        if fail is not None:
            assert str(fail[0]) == "z_{2,0} z_{0,2} - z_{1,1}^2"
            assert fail[1] == value and isinstance(fail[1], Fp)
        else:
            assert str(inverse_map(ctx, Q)) == "[1 : 2]"


class TestChartSelect:
    def test_examples(self):
        c12 = VeroneseContext(1, 2)
        assert chart_select(c12, veronese_eval(c12, point(QQ, [1, 5]))) == 0
        assert chart_select(c12, veronese_eval(c12, point(QQ, [0, 1]))) == 1
        c23 = VeroneseContext(2, 3)
        assert chart_select(c23, veronese_eval(c23, point(QQ, [0, 1, 1]))) == 1

    def test_no_chart(self):
        with pytest.raises(NoChartError):
            chart_select(VeroneseContext(1, 2), point(QQ, [0, 1, 0]))

    def test_available_charts(self):
        c12 = VeroneseContext(1, 2)
        Q = veronese_eval(c12, point(QQ, [2, 3]))
        assert available_charts(c12, Q) == (0, 1)


class TestInverse:
    def test_examples(self):
        c13 = VeroneseContext(1, 3)
        assert str(inverse_map(c13, point(QQ, [1, 2, 4, 8]))) == "[1 : 2]"
        c23 = VeroneseContext(2, 3)
        Q = veronese_eval(c23, point(QQ, [0, 0, 1]))
        assert chart_select(c23, Q) == 2
        assert str(inverse_map(c23, Q)) == "[0 : 0 : 1]"
        c12 = VeroneseContext(1, 2)
        assert str(inverse_map(c12, point(QQ, [1, -3, 9]))) == "[1 : -3]"

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)])
    @pytest.mark.parametrize("n,d", [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2)])
    def test_roundtrip_including_leading_zeros(self, field, n, d):
        ctx = VeroneseContext(n, d)
        rng = Random(42)
        for k in range(12 * (n + 1)):
            x = random_point(rng, field, n, lead_zeros=k % (n + 1))
            Q = veronese_eval(ctx, x)
            assert proj_eq(inverse_map(ctx, Q), x)

    @pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (2, 3)])
    def test_chart_agreement(self, n, d):
        # the chartwise inverses are proportional wherever both are defined
        ctx = VeroneseContext(n, d)
        rng = Random(9)
        seen_multi = 0
        for _ in range(40):
            x = random_point(rng, QQ, n)
            Q = veronese_eval(ctx, x)
            charts = available_charts(ctx, Q)
            if len(charts) > 1:
                seen_multi += 1
                base = inverse_on_chart(ctx, Q, charts[0])
                for i in charts[1:]:
                    assert proj_eq(base, inverse_on_chart(ctx, Q, i))
        assert seen_multi > 0

    def test_unavailable_chart_rejected(self):
        ctx = VeroneseContext(1, 2)
        Q = veronese_eval(ctx, point(QQ, [0, 1]))
        with pytest.raises(NoChartError):
            inverse_on_chart(ctx, Q, 0)

    def test_degree_one_is_identity(self):
        ctx = VeroneseContext(2, 1)
        Q = point(QQ, [3, -1, 2])
        assert proj_eq(inverse_map(ctx, Q), Q)
