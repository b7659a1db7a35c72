"""Exact scalars and projective points over Q and prime fields."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from veronese import (
    ContractError,
    Fp,
    InvalidPointError,
    PrimeField,
    ProjectivePoint,
    QQ,
    VeroneseContext,
    VeroneseError,
    count_projective_points,
    enumerate_projective_points,
    field_from_name,
    format_point,
    inverse_map,
    normalize,
    parse_point,
    point,
    proj_eq,
    random_point,
)
from veronese.projective import _proportional, _random_ints, integer_coords

from reference import reference_proportional, reference_random_point


class TestFields:
    def test_prime_validation(self):
        PrimeField(2)
        PrimeField(97)
        with pytest.raises(ContractError):
            PrimeField(9)
        with pytest.raises(ContractError):
            PrimeField(1)

    @pytest.mark.parametrize("p", [318665857834031151167461, 2**64 + 13],
                             ids=["strong-pseudoprime-to-bases-2-37", "prime-above-2**64"])
    def test_moduli_from_2_64_refused(self, p):
        # 399165290221 * 798330580441 passes every Miller-Rabin base up to
        # 37, and 2**64 + 13 is prime; neither is answered
        with pytest.raises(ContractError):
            PrimeField(p)
        with pytest.raises(ContractError):
            field_from_name(f"fp:{p}")
        assert PrimeField(2**64 - 59).p == 2**64 - 59  # the largest prime below 2**64

    # PrimeField(7.0) passed as GF(7.0) until pow failed in veronese_eval;
    # PrimeField("7") raised TypeError
    @pytest.mark.parametrize("p", [7.0, "7", Fraction(7), None])
    def test_non_int_size_rejected(self, p):
        with pytest.raises(ContractError, match="^a field size must be an int"):
            PrimeField(p)

    def test_int_size_unchanged(self):
        assert PrimeField(7).p == 7 and repr(PrimeField(7)) == "GF(7)"

    def test_field_from_name(self):
        assert field_from_name("rational") is QQ
        assert field_from_name("fp:5") == PrimeField(5)
        with pytest.raises(ContractError):
            field_from_name("fp:6")
        with pytest.raises(ContractError):
            field_from_name("float")

    def test_fp_arithmetic(self):
        a, b = Fp(3, 7), Fp(5, 7)
        assert a + b == Fp(1, 7)
        assert a - b == Fp(5, 7)
        assert a * b == Fp(1, 7)

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ContractError):
            Fp(1, 5) + Fp(1, 7)

    @given(st.integers(min_value=-(2**256), max_value=2**256),
           st.integers(min_value=-(2**256), max_value=2**256),
           st.integers(min_value=1, max_value=2**64))
    def test_exactness_of_rationals(self, na, nb, den):
        a, b = Fraction(na, den), Fraction(nb, den + 1)
        assert (a + b) - b == a
        assert a * b == b * a


class TestNormalize:
    def test_rational_examples(self):
        assert normalize(point(QQ, [2, 4])).coords == (Fraction(1), Fraction(2))
        assert normalize(point(QQ, [0, 3, 6])).coords == (Fraction(0), Fraction(1), Fraction(2))

    def test_prime_field_example(self):
        F5 = PrimeField(5)
        assert normalize(point(F5, [3, 1])).coords == (Fp(1, 5), Fp(2, 5))

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidPointError):
            point(QQ, [0, 0, 0])

    @given(st.lists(st.fractions(), min_size=1, max_size=6).filter(lambda v: any(v)))
    def test_idempotent(self, values):
        p = point(QQ, [Fraction(v) for v in values])
        assert normalize(normalize(p)) == normalize(p)


class TestProjEq:
    def test_rational_examples(self):
        assert proj_eq(point(QQ, [1, 2]), point(QQ, [2, 4]))
        assert not proj_eq(point(QQ, [1, 0]), point(QQ, [0, 1]))

    def test_prime_field_example(self):
        F7 = PrimeField(7)
        assert proj_eq(point(F7, [2, 3, 4]), point(F7, [4, 6, 8]))

    def test_mismatches_rejected(self):
        with pytest.raises(ContractError):
            proj_eq(point(QQ, [1, 2]), point(QQ, [1, 2, 3]))
        with pytest.raises(ContractError):
            proj_eq(point(QQ, [1, 2]), point(PrimeField(5), [1, 2]))

    @given(st.data())
    def test_equivalence_relation(self, data):
        F = PrimeField(5)
        pts = [
            point(F, data.draw(st.lists(st.integers(0, 4), min_size=3, max_size=3)
                               .filter(lambda v: any(v))))
            for _ in range(3)
        ]
        a, b, c = pts
        assert proj_eq(a, a)
        assert proj_eq(a, b) == proj_eq(b, a)
        if proj_eq(a, b) and proj_eq(b, c):
            assert proj_eq(a, c)

    def test_scaling_invariance(self):
        p = point(QQ, [3, 0, -5])
        scaled = point(QQ, [Fraction(-7, 2) * c for c in p.coords])
        assert proj_eq(p, scaled)

    @given(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(101)]), st.data())
    def test_proportional_ints_match(self, field, data):
        # _proportional decides proj_eq on integer_coords, without normalizing
        size = data.draw(st.integers(1, 4))
        entries = st.fractions(max_denominator=9) if field is QQ else st.integers(-3, 300)
        vectors = st.lists(entries, min_size=size, max_size=size)

        def draw_point():
            return point(field, data.draw(vectors.filter(lambda v: any(map(field.coerce, v)))))

        x = draw_point()
        if data.draw(st.booleans()):
            scale = field.coerce(data.draw(entries.filter(lambda c: field.coerce(c))))
            y = point(field, [scale * c for c in x.coords])
        else:
            y = draw_point()
        (u, p), (v, _) = integer_coords(x), integer_coords(y)
        assert _proportional(u, v, p) == _proportional(v, u, p) == proj_eq(x, y)

    @pytest.mark.parametrize("p", [0, 2, 3, 101])
    @given(st.data())
    def test_proportional_matches_the_cross_multiplying_reference(self, p, data):
        # u = r g w and v = s g w share the factor g, which over Q can be
        # large; w may lead with zeros, and over Q r, s and w may be negative
        size = data.draw(st.integers(1, 5))
        entries = st.integers(0, p - 1) if p else st.integers(-30, 30)
        nonzero = st.integers(1, p - 1) if p else st.integers(-10**6, 10**6).filter(bool)
        w = data.draw(st.lists(entries, min_size=size, max_size=size).filter(any))
        r, s, g = (data.draw(nonzero) for _ in range(3))
        u, v = [r * g * c for c in w], [s * g * c for c in w]
        case = data.draw(st.sampled_from(["multiple", "zero", "bent", "free"]))
        if case == "zero":
            u = [0] * size
        elif case == "bent":
            u[data.draw(st.integers(0, size - 1))] += data.draw(nonzero)
        elif case == "free":
            u = data.draw(st.lists(entries, min_size=size, max_size=size))
        if p:
            u, v = [c % p for c in u], [c % p for c in v]
        assert _proportional(u, v, p) == reference_proportional(u, v, p)
        if case in ("multiple", "zero"):
            assert _proportional(u, v, p)


def _is_element(field, c) -> bool:
    return type(c) is Fraction if field == QQ else type(c) is Fp and c.p == field.p


COORDINATES = st.one_of(
    st.integers(-10, 10),
    st.fractions(max_denominator=10),
    st.builds(Fp, st.integers(0, 6), st.just(7)),
    st.builds(Fp, st.integers(0, 4), st.just(5)),
    st.floats(),
)


class TestCoercionAtConstruction:
    def test_residues_of_zero_are_no_point(self):
        with pytest.raises(InvalidPointError):
            ProjectivePoint(PrimeField(7), (7, 14, 21))

    @pytest.mark.parametrize("field", ["rational", None, 7, Fraction], ids=["str", "None", "int", "type"])
    def test_a_field_must_be_a_field(self, field):
        with pytest.raises(ContractError, match="not a field"):
            ProjectivePoint(field, (1, 2))

    def test_ints_become_field_elements(self):
        P = ProjectivePoint(PrimeField(7), (1, 2, 11))
        assert P.coords == (Fp(1, 7), Fp(2, 7), Fp(4, 7))
        R = normalize(ProjectivePoint(QQ, (2, 4)))
        assert R.coords == (Fraction(1), Fraction(2))
        assert all(type(c) is Fraction for c in R.coords)

    @given(st.sampled_from([QQ, PrimeField(7)]), st.lists(COORDINATES, min_size=3, max_size=3))
    def test_a_point_holds_only_elements_of_its_field(self, field, coords):
        try:
            P = ProjectivePoint(field, coords)
        except VeroneseError:
            return
        assert all(_is_element(field, c) for c in P.coords)
        assert all(_is_element(field, c) for c in normalize(P).coords)
        assert proj_eq(P, normalize(P)) is True
        try:
            preimage = inverse_map(VeroneseContext(1, 2), P)
        except VeroneseError:  # no chart contains P
            return
        assert all(_is_element(field, c) for c in preimage.coords)


class TestEnumeration:
    def test_projective_line_over_f2(self):
        pts = list(enumerate_projective_points(1, 2))
        assert [format_point(p) for p in pts] == ["[0 : 1]", "[1 : 0]", "[1 : 1]"]

    def test_single_point(self):
        pts = list(enumerate_projective_points(0, 5))
        assert [format_point(p) for p in pts] == ["[1]"]

    @pytest.mark.parametrize("m", range(0, 4))
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_count_and_uniqueness(self, m, q):
        pts = list(enumerate_projective_points(m, q))
        assert len(pts) == count_projective_points(m, q) == (q ** (m + 1) - 1) // (q - 1)
        assert len(set(pts)) == len(pts)
        for p in pts:
            lead = next(c for c in p.coords if c)
            assert lead == PrimeField(q).one

    @pytest.mark.parametrize("q", [1, 0, -3])
    def test_count_refuses_a_field_size_below_two(self, q):
        with pytest.raises(ContractError) as exc:
            count_projective_points(2, q)
        assert str(exc.value) == f"a finite field has at least 2 elements, got q={q}"

    def test_p2_f3_against_raw_dedup(self):
        # independent oracle: scale-normalize every nonzero residue vector
        from itertools import product as iproduct
        raw = set()
        for v in iproduct(range(3), repeat=3):
            if any(v):
                inv = pow(next(x for x in v if x), 1, 3)  # inverses in F_3: 1->1, 2->2
                raw.add(tuple((x * inv) % 3 for x in v))
        assert len(raw) == 13
        mine = {tuple(c.value for c in p.coords) for p in enumerate_projective_points(2, 3)}
        assert mine == raw

    def test_composite_modulus_rejected(self):
        with pytest.raises(ContractError):
            list(enumerate_projective_points(1, 6))

    def test_field_size_must_be_an_int(self):
        with pytest.raises(ContractError, match="a field size must be an int"):
            list(enumerate_projective_points(1, PrimeField(5)))


class TestTextualForm:
    def test_rational_roundtrip(self):
        p = point(QQ, [Fraction(1, 2), Fraction(-3), Fraction(0)])
        assert format_point(p) == "[1/2 : -3 : 0]"
        assert parse_point(QQ, format_point(p)) == p

    def test_prime_field_roundtrip(self):
        F5 = PrimeField(5)
        p = point(F5, [1, 4, 0])
        assert format_point(p) == "[1 : 4 : 0]"
        assert parse_point(F5, format_point(p)) == p

    def test_malformed_rejected(self):
        with pytest.raises(ContractError):
            parse_point(QQ, "1 : 2")
        with pytest.raises(ContractError):
            parse_point(QQ, "[1 :: 2]")
        with pytest.raises(ContractError):
            parse_point(QQ, "[1 : x]")


class TestRandomPoints:
    def test_leading_zero_pattern(self):
        rng = Random(7)
        for dim in range(1, 4):
            for k in range(dim + 1):
                p = random_point(rng, QQ, dim, lead_zeros=k)
                assert all(c == 0 for c in p.coords[:k])
                assert p.coords[k] != 0

    def test_reproducible(self):
        a = random_point(Random(11), PrimeField(7), 3, lead_zeros=1)
        b = random_point(Random(11), PrimeField(7), 3, lead_zeros=1)
        assert a == b

    def test_bad_pattern_rejected(self):
        with pytest.raises(ContractError):
            random_point(Random(0), QQ, 2, lead_zeros=3)

    @given(st.sampled_from([QQ, PrimeField(2), PrimeField(101)]), st.integers(0, 4),
           st.integers(0, 2**32), st.data())
    def test_int_draw_matches_point_draw(self, field, dim, seed, data):
        # the draw core makes the RNG calls of the Fraction and Fp draw it
        # replaced, in the same order, and gives its point's integer_coords
        lead_zeros = data.draw(st.integers(0, dim))
        ints_rng, point_rng, public_rng = Random(seed), Random(seed), Random(seed)
        v, p = _random_ints(ints_rng, field, dim, lead_zeros)
        x = reference_random_point(point_rng, field, dim, lead_zeros)
        assert (v, p) == integer_coords(x)
        assert ints_rng.getstate() == point_rng.getstate()
        y = random_point(public_rng, field, dim, lead_zeros)
        assert integer_coords(y) == (v, p) and proj_eq(y, x)
        assert public_rng.getstate() == point_rng.getstate()
