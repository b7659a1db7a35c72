"""Zero-propagation certificates and rewrite chains."""

import json
import time
from fractions import Fraction
from itertools import product
from math import prod
from operator import add, le, mul, sub
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from veronese import (
    Binomial2,
    ContractError,
    MultiIndex,
    PrimeField,
    PropagationStep,
    QQ,
    RewriteChain,
    VeroneseContext,
    ZeroPropagationCertificate,
    all_rewrite_chains,
    enumerate_monomials,
    parse_binomial,
    point,
    propagation_from_doc,
    propagation_to_doc,
    pure_power,
    random_point,
    rewrite_chain,
    toric_quadrics,
    verify_rewrite_chain,
    verify_zero_propagation,
    veronese_eval,
    zero_propagation_certificate,
)
from veronese import certificates as certs
from veronese.matrix import cached_minors
from veronese.matrix import _canonical_quad, _quads, _toric_quads, CodeIndex, binomial_quad, is_minor_quad
from veronese.morphism import _minor_quads, _minor_table, chart_indices, coordinate_index
from veronese.projective import integer_coords

from reference import (
    bump,
    forest_parent,
    moved,
    realizes_row_and_column,
    reference_chain_identity,
    reference_chain_quads,
    reference_edge_fault,
    reference_forest,
    reference_is_minor_quad,
    reference_rewrite_chain,
    reference_verify_rewrite_chain,
    reference_verify_zero_propagation,
    reference_zero_propagation_certificate,
)


def image_point_on_chart(rng, field, ctx, i):
    x = random_point(rng, field, ctx.n)
    if not x.coords[i]:
        coords = list(x.coords)
        coords[i] = field.one
        x = point(field, coords)
    return veronese_eval(ctx, x)


class TestZeroPropagationGeneration:
    def test_conic_single_step(self):
        cert = zero_propagation_certificate(VeroneseContext(1, 2))
        assert len(cert.steps) == 1
        step = cert.steps[0]
        assert tuple(step.target) == (1, 1)
        assert str(step.minor) == "z_{2,0} z_{0,2} - z_{1,1}^2"
        assert {tuple(p) for p in step.prerequisites} == {(2, 0), (0, 2)}

    def test_twisted_cubic_cascade(self):
        cert = zero_propagation_certificate(VeroneseContext(1, 3))
        assert [tuple(s.target) for s in cert.steps] == [(2, 1), (1, 2)]
        assert str(cert.steps[0].minor) == "z_{3,0} z_{1,2} - z_{2,1}^2"
        # (2,1) is zeroed only from the assumed-zero pure power
        assert [tuple(p) for p in cert.steps[0].prerequisites] == [(3, 0)]

    @pytest.mark.parametrize("n", range(1, 4))
    @pytest.mark.parametrize("d", range(2, 5))
    def test_coverage(self, n, d):
        ctx = VeroneseContext(n, d)
        cert = zero_propagation_certificate(ctx)
        targets = [s.target for s in cert.steps]
        covered = set(ctx.pure_powers()) | set(targets)
        assert covered == set(ctx.monomials())
        # targets are pairwise distinct
        assert len(set(targets)) == len(cert.steps)

    @pytest.mark.parametrize("n", range(4))
    def test_degree_one_is_empty_and_complete(self, n):
        # at d = 1 every coordinate is a pure power, so the loop skips all
        ctx = VeroneseContext(n, 1)
        cert = zero_propagation_certificate(ctx)
        assert cert.steps == ()
        assert verify_zero_propagation(ctx, cert)


class TestZeroPropagationVerification:
    @pytest.mark.parametrize("n", range(1, 4))
    @pytest.mark.parametrize("d", range(2, 5))
    def test_generated_certificates_verify(self, n, d):
        ctx = VeroneseContext(n, d)
        assert verify_zero_propagation(ctx, zero_propagation_certificate(ctx))

    def test_non_minor_rejected(self):
        ctx = VeroneseContext(1, 3)
        cert = zero_propagation_certificate(ctx)
        # balanced quadric on degree-4 coordinates: never a minor here
        foreign = Binomial2.canonical(
            (MultiIndex((4, 0)), MultiIndex((2, 2))), (MultiIndex((3, 1)), MultiIndex((3, 1)))
        )
        tampered = ZeroPropagationCertificate(
            ctx,
            (PropagationStep(cert.steps[0].target, foreign, cert.steps[0].prerequisites),)
            + cert.steps[1:],
        )
        res = verify_zero_propagation(ctx, tampered)
        assert not res
        assert "not a 2-minor" in res.diagnostic

    def test_reordered_steps_rejected(self):
        ctx = VeroneseContext(1, 3)
        cert = zero_propagation_certificate(ctx)
        reordered = ZeroPropagationCertificate(ctx, tuple(reversed(cert.steps)))
        res = verify_zero_propagation(ctx, reordered)
        assert not res
        assert "not yet established" in res.diagnostic or "known zero" in res.diagnostic

    def test_incomplete_coverage_rejected(self):
        ctx = VeroneseContext(1, 3)
        cert = zero_propagation_certificate(ctx)
        truncated = ZeroPropagationCertificate(ctx, cert.steps[:1])
        res = verify_zero_propagation(ctx, truncated)
        assert not res
        assert "coverage" in res.diagnostic

    def test_context_mismatch_rejected(self):
        cert = zero_propagation_certificate(VeroneseContext(1, 3))
        assert not verify_zero_propagation(VeroneseContext(1, 2), cert)


class TestRewriteChainGeneration:
    def test_twisted_cubic_chain(self):
        ctx = VeroneseContext(1, 3)
        chain = rewrite_chain(ctx, 0, MultiIndex((0, 3)))
        assert [str(b) for b in chain.steps] == [
            "z_{3,0} z_{1,2} - z_{2,1}^2",
            "z_{3,0} z_{0,3} - z_{2,1} z_{1,2}",
        ]

    def test_pure_power_target_gives_empty_chain(self):
        for n, d in [(1, 2), (2, 3), (3, 2)]:
            ctx = VeroneseContext(n, d)
            for i in range(n + 1):
                assert rewrite_chain(ctx, i, pure_power(n, d, i)).steps == ()

    def test_single_cross_minor(self):
        ctx = VeroneseContext(2, 3)
        chain = rewrite_chain(ctx, 0, MultiIndex((1, 1, 1)))
        assert len(chain.steps) == 1
        assert str(chain.steps[0]) == "z_{3,0,0} z_{1,1,1} - z_{2,1,0} z_{2,0,1}"

    def test_wrong_degree_rejected(self):
        with pytest.raises(ContractError):
            rewrite_chain(VeroneseContext(1, 3), 0, MultiIndex((1, 1)))

    def test_chain_length(self):
        # sum of off-chart exponents minus one, empty when m_i >= d-1
        ctx = VeroneseContext(2, 4)
        for m in ctx.monomials():
            for i in range(3):
                k = sum(e for j, e in enumerate(m) if j != i)
                assert len(rewrite_chain(ctx, i, m).steps) == max(0, k - 1)

    @pytest.mark.parametrize("n", range(5))
    def test_every_step_is_a_checked_minor(self, n):
        # rewrite_chain makes its steps with tuple.__new__, skipping the
        # balance check of Binomial2(pos, neg): every step must still be what
        # that checked constructor makes, and a genuine 2-minor
        for d in range(1, 6):
            ctx = VeroneseContext(n, d)
            cert = zero_propagation_certificate(ctx)
            chains = list(all_rewrite_chains(ctx))
            steps = [s.minor for s in cert.steps] + [b for c in chains for b in c.steps]
            for step in steps:
                assert type(step) is Binomial2
                assert step == Binomial2(step.pos, step.neg)
                assert is_minor_quad(CodeIndex(ctx), *binomial_quad(ctx, step)), step
            if n and d >= 3:
                assert len(steps) > len(cert.steps) > 0

    @pytest.mark.parametrize("n", range(5))
    def test_values_are_what_the_public_constructors_make(self, n):
        # the cascade steps and chains are made with tuple.__new__
        for d in range(1, 6):
            ctx = VeroneseContext(n, d)
            for step in zero_propagation_certificate(ctx).steps:
                assert type(step) is PropagationStep
                assert step == PropagationStep(step.target, step.minor, step.prerequisites)
            for chain in all_rewrite_chains(ctx):
                assert type(chain) is RewriteChain
                assert chain == RewriteChain(chain.ctx, chain.chart, chain.target, chain.steps)


class TestRewriteChainVerification:
    @pytest.mark.parametrize("field", [QQ, PrimeField(7)])
    @pytest.mark.parametrize("n", range(1, 3))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_generated_chains_verify(self, field, n, d):
        ctx = VeroneseContext(n, d)
        rng = Random(17)
        for i in range(n + 1):
            Q = image_point_on_chart(rng, field, ctx, i)
            for m in ctx.monomials():
                assert verify_rewrite_chain(ctx, rewrite_chain(ctx, i, m), Q)

    def test_all_chains_iterator(self):
        ctx = VeroneseContext(1, 3)
        chains = list(all_rewrite_chains(ctx))
        assert len(chains) == 2 * 4

    def test_chart_unavailable_reported(self):
        ctx = VeroneseContext(1, 2)
        chain = rewrite_chain(ctx, 0, MultiIndex((0, 2)))
        Q = veronese_eval(ctx, point(QQ, [0, 1]))  # chart 0 pure power is zero
        res = verify_rewrite_chain(ctx, chain, Q)
        assert not res
        assert "precondition" in res.diagnostic

    def test_tampered_chain_rejected(self):
        ctx = VeroneseContext(1, 3)
        chain = rewrite_chain(ctx, 0, MultiIndex((0, 3)))
        Q = veronese_eval(ctx, point(QQ, [1, 2]))
        # swap a step for another genuine minor that breaks the telescoping
        foreign = next(iter(rewrite_chain(ctx, 1, MultiIndex((3, 0))).steps))
        tampered = RewriteChain(ctx, 0, chain.target, (chain.steps[0], foreign))
        assert not verify_rewrite_chain(ctx, tampered, Q)

    def test_off_row_minor_rejected(self):
        # a genuine minor with no entries on row 0 / the pure-power column
        ctx = VeroneseContext(2, 2)
        chain = rewrite_chain(ctx, 0, MultiIndex((0, 1, 1)))
        Q = veronese_eval(ctx, point(QQ, [1, 2, 3]))
        foreign = Binomial2.canonical(
            (MultiIndex((0, 2, 0)), MultiIndex((0, 0, 2))),
            (MultiIndex((0, 1, 1)), MultiIndex((0, 1, 1))),
        )
        tampered = RewriteChain(ctx, 0, chain.target, chain.steps + (foreign,))
        res = verify_rewrite_chain(ctx, tampered, Q)
        assert not res
        assert "realization" in res.diagnostic

    @pytest.mark.parametrize("size", [5, 7])
    def test_point_of_another_dimension_refused(self, size):
        # the chain is sound, and the point is refused before any chart is read
        ctx = VeroneseContext(2, 2)
        chain = rewrite_chain(ctx, 0, MultiIndex((0, 1, 1)))
        res = verify_rewrite_chain(ctx, chain, point(QQ, range(1, size + 1)))
        assert not res
        assert res.diagnostic == f"point has dimension {size - 1}, expected 5"

    def test_truncated_chain_rejected(self):
        ctx = VeroneseContext(1, 4)
        chain = rewrite_chain(ctx, 0, MultiIndex((0, 4)))
        Q = veronese_eval(ctx, point(QQ, [2, 3]))
        truncated = RewriteChain(ctx, 0, chain.target, chain.steps[:-1])
        res = verify_rewrite_chain(ctx, truncated, Q)
        assert not res


class TestSerialization:
    def test_propagation_roundtrip_and_stability(self):
        ctx = VeroneseContext(2, 3)
        cert = zero_propagation_certificate(ctx)
        doc = propagation_to_doc(cert)
        assert propagation_from_doc(doc) == cert
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            propagation_to_doc(zero_propagation_certificate(ctx)), sort_keys=True
        )

    def test_malformed_document_rejected(self):
        with pytest.raises(ContractError):
            propagation_from_doc({"schema_version": 1, "kind": "zero-propagation"})


def is_matrix_minor(ctx, binomial):
    """Whether binomial is a 2-minor of ctx's matrix, as a caller holding a
    Binomial2 asks it: is_minor_quad on its binomial_quad."""
    q = binomial_quad(ctx, binomial)
    return q is not None and is_minor_quad(CodeIndex(ctx), *q)


class TestClosedFormMinorTest:
    """is_minor_quad, through binomial_quad, against membership in the
    built minor set."""

    @pytest.mark.parametrize("n", range(0, 5))
    @pytest.mark.parametrize("d", range(1, 6))
    def test_matches_minor_set_on_every_balanced_quadric(self, n, d):
        ctx = VeroneseContext(n, d)
        minors = cached_minors(ctx)
        quadrics = toric_quadrics(ctx)
        assert minors <= quadrics
        for b in quadrics:
            assert is_matrix_minor(ctx, b) == (b in minors), b

    @pytest.mark.parametrize("n,d", [(1, 3), (2, 3), (3, 2), (2, 4)])
    def test_non_canonical_forms_refused(self, n, d):
        ctx = VeroneseContext(n, d)
        minors = cached_minors(ctx)
        for b in toric_quadrics(ctx):
            (a, e), (c, f) = b.pos, b.neg
            variants = [Binomial2(b.neg, b.pos)]  # swapped sides
            if a != e:
                variants.append(Binomial2((e, a), b.neg))  # swapped pos pair
            if c != f:
                variants.append(Binomial2(b.pos, (f, c)))  # swapped neg pair
            for v in variants:
                assert v not in minors
                assert not is_matrix_minor(ctx, v), v

    def test_binomials_of_another_context_refused(self):
        contexts = [VeroneseContext(n, d) for n in range(0, 4) for d in range(1, 5)]
        for ctx in contexts:
            for other in contexts:
                if other == ctx:
                    continue
                for b in cached_minors(other):
                    assert not is_matrix_minor(ctx, b), (ctx, other, b)

    def test_mixed_degree_unit_move_refused(self):
        # a - c is a unit move and the binomial is canonical and balanced,
        # but b and e have degree 1, not 2
        ctx = VeroneseContext(1, 2)
        b = Binomial2((MultiIndex((2, 0)), MultiIndex((0, 1))),
                      (MultiIndex((1, 1)), MultiIndex((1, 0))))
        assert not is_matrix_minor(ctx, b)
        assert b not in cached_minors(ctx)

    @given(st.data())
    def test_matches_minor_set_on_random_balanced_binomials(self, data):
        n = data.draw(st.integers(0, 3), label="n")
        d = data.draw(st.integers(1, 4), label="d")
        ctx = VeroneseContext(n, d)
        width = data.draw(st.sampled_from([n + 1, n + 1, n + 1, n + 2]), label="width")

        def entry(label):
            if width == n + 1 and data.draw(st.booleans(), label=label + " of degree d"):
                return data.draw(st.sampled_from(enumerate_monomials(n, d)), label=label)
            return MultiIndex(data.draw(st.lists(st.integers(0, 3), min_size=width,
                                                 max_size=width), label=label))

        a, b = entry("a"), entry("b")
        total = tuple(map(add, a, b))
        c = MultiIndex(data.draw(st.integers(0, t), label="c") for t in total)
        e = MultiIndex(t - x for t, x in zip(total, c))
        raw = Binomial2((a, b), (c, e))
        minors = cached_minors(ctx)
        assert is_matrix_minor(ctx, raw) == (raw in minors)
        canon = Binomial2.canonical((a, b), (c, e))
        if canon is not None:
            assert is_matrix_minor(ctx, canon) == (canon in minors)


def tamperings(ctx):
    """Replacements for a step at position k: a balanced quadric that is not
    a minor, a minor of another context, and the step itself in a
    non-canonical form (sides swapped, or its pos pair reversed)."""
    minors = cached_minors(ctx)
    non_minors = sorted((b for b in toric_quadrics(ctx) if b not in minors),
                        key=tuple)
    foreign = min(cached_minors(VeroneseContext(max(ctx.n, 1), ctx.d + 1)), key=tuple)

    def replacements(k, step):
        out = [foreign, Binomial2(step.neg, step.pos)]
        if non_minors:
            out.append(non_minors[k * 7919 % len(non_minors)])
        a, b = step.pos
        if a != b:
            out.append(Binomial2((b, a), step.neg))
        return out

    return replacements


# numerators and denominators of either sign, small and far past a machine word
_INTEGERS = st.integers(-99, 99) | st.integers(-(2**80), 2**80)
CHAIN_RATIONALS = st.builds(Fraction, _INTEGERS, _INTEGERS.filter(bool))

DIFFERENTIAL_CONTEXTS = [(n, d) for n in range(1, 5) for d in range(1, 5)] + [(0, 1), (0, 3)]


class TestVerifiersMatchMinorSetReference:
    @pytest.mark.parametrize("n,d", DIFFERENTIAL_CONTEXTS)
    def test_zero_propagation(self, n, d):
        ctx = VeroneseContext(n, d)
        cert = zero_propagation_certificate(ctx)
        cases = [cert, ZeroPropagationCertificate(ctx, cert.steps[:-1]),
                 zero_propagation_certificate(VeroneseContext(n, d + 1))]
        replacements = tamperings(ctx)
        for k, step in enumerate(cert.steps):
            for minor in replacements(k, step.minor):
                swapped = PropagationStep(step.target, minor, step.prerequisites)
                cases.append(ZeroPropagationCertificate(
                    ctx, cert.steps[:k] + (swapped,) + cert.steps[k + 1:]))
        results = [verify_zero_propagation(ctx, c) for c in cases]
        assert results == [reference_verify_zero_propagation(ctx, c) for c in cases]
        assert results[0].ok
        assert sum(not r.ok for r in results) == len(results) - 1 - (len(cert.steps) == 0)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)])
    @pytest.mark.parametrize("n,d", DIFFERENTIAL_CONTEXTS)
    def test_rewrite_chains(self, n, d, field):
        ctx = VeroneseContext(n, d)
        rng = Random(n * 31 + d)
        points = [image_point_on_chart(rng, field, ctx, i) for i in range(n + 1)]
        cases = []
        replacements = tamperings(ctx)
        for chain in all_rewrite_chains(ctx):
            cases.append(chain)
            for k, step in enumerate(chain.steps):
                for minor in replacements(k, step):
                    cases.append(RewriteChain(ctx, chain.chart, chain.target,
                                              chain.steps[:k] + (minor,) + chain.steps[k + 1:]))
        for chain in cases:
            Q = points[chain.chart]
            assert verify_rewrite_chain(ctx, chain, Q) == reference_verify_rewrite_chain(ctx, chain, Q)

    @given(st.data())
    def test_chain_identity_matches_field_arithmetic(self, data):
        # images with leading zeros (some charts then unavailable), perturbed
        # images, arbitrary points and points of the wrong dimension
        ctx = VeroneseContext(*data.draw(st.sampled_from(
            [(0, 1), (0, 3), (1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])))
        field = data.draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(101)]))
        scalars = CHAIN_RATIONALS if field is QQ else st.integers(-5, 2**70).map(field.from_int)
        chain = rewrite_chain(ctx, data.draw(st.integers(0, ctx.n)), data.draw(st.sampled_from(ctx.monomials())))
        kind = data.draw(st.sampled_from(["image", "perturbed", "arbitrary", "wrong-dimension"]))
        size = {"arbitrary": ctx.N + 1, "wrong-dimension": ctx.N + 2}.get(kind, ctx.n + 1)
        lead = data.draw(st.integers(0, size - 1))
        rest = data.draw(st.lists(scalars, min_size=size - lead, max_size=size - lead).filter(any))
        Q = point(field, [0] * lead + rest)
        if kind in ("image", "perturbed"):
            Q = veronese_eval(ctx, Q)
        if kind == "perturbed":
            coords = list(Q.coords)
            coords[data.draw(st.integers(0, ctx.N))] += data.draw(scalars.filter(bool))
            if any(coords):
                Q = point(field, coords)
        expected = reference_chain_identity(ctx, chain, Q)
        assert verify_rewrite_chain(ctx, chain, Q) == expected
        assert verify_rewrite_chain(ctx, chain, Q) == reference_verify_rewrite_chain(ctx, chain, Q)
        if kind == "image" and Q.coords[coordinate_index(ctx)[pure_power(ctx.n, ctx.d, chain.chart)]]:
            assert expected.ok

    def test_tampering_is_caught(self):
        ctx = VeroneseContext(3, 4)
        chain = rewrite_chain(ctx, 0, MultiIndex((0, 1, 1, 2)))
        Q = image_point_on_chart(Random(3), QQ, ctx, 0)
        diagnostics = set()
        replacements = tamperings(ctx)
        for k, step in enumerate(chain.steps):
            for minor in replacements(k, step):
                bad = RewriteChain(ctx, 0, chain.target, chain.steps[:k] + (minor,) + chain.steps[k + 1:])
                res = verify_rewrite_chain(ctx, bad, Q)
                assert not res
                diagnostics.add(res.diagnostic.split(": ", 1)[1])
        assert any(diag.endswith("is not a 2-minor of the matrix") for diag in diagnostics)


def shifted(b, s):
    """b with e_s added to the first entry of each side: balanced, but with
    entries of degrees d + 1 and d."""
    (a, x), (c, e) = b.pos, b.neg
    return Binomial2((bump(a, s), x), (bump(c, s), e))


def widened(b):
    """b with a zero exponent appended to every entry: n + 2 variables."""
    (a, x), (c, e) = ((MultiIndex((*v, 0)) for v in pair) for pair in (b.pos, b.neg))
    return Binomial2((a, x), (c, e))


TAMPERINGS = ["genuine", "off-degree", "wrong-length", "reversed-pair", "swapped-sides",
              "truncated", "foreign-minor", "other-chain-step", "foreign-chain"]


# every (n, d) with n <= 3 and d <= 4
SMALL = [(n, d) for n in range(4) for d in range(1, 5)]


class TestIndexCoreMatchesReference:
    """The index core behind rewrite_chain, verify_rewrite_chain and the
    zero-propagation pair against the object-based reference paths above."""

    @pytest.mark.parametrize("n", range(0, 5))
    @pytest.mark.parametrize("d", range(1, 6))
    def test_generators(self, n, d):
        ctx = VeroneseContext(n, d)
        assert zero_propagation_certificate(ctx) == reference_zero_propagation_certificate(ctx)
        for i in range(n + 1):
            for m in ctx.monomials():
                assert rewrite_chain(ctx, i, m) == reference_rewrite_chain(ctx, i, m)

    @given(st.data())
    def test_tampered_chains(self, data):
        n = data.draw(st.integers(0, 4), label="n")
        d = data.draw(st.integers(1, 5), label="d")
        ctx = VeroneseContext(n, d)
        field = data.draw(st.sampled_from([QQ, PrimeField(2), PrimeField(7), PrimeField(101)]))
        i = data.draw(st.integers(0, n), label="chart")
        chain = rewrite_chain(ctx, i, data.draw(st.sampled_from(ctx.monomials()), label="target"))
        steps = chain.steps
        kind = data.draw(st.sampled_from(TAMPERINGS), label="kind")
        # a tampered step replaces step k, or is inserted at k
        k = data.draw(st.integers(0, len(steps)), label="k")
        insert = k == len(steps) or data.draw(st.booleans(), label="insert")
        base = steps[min(k, len(steps) - 1)] if steps else min(
            cached_minors(VeroneseContext(max(n, 1), max(d, 2))), key=tuple)
        if kind == "off-degree":
            minor = shifted(base, data.draw(st.integers(0, len(base.pos[0]) - 1)))
        elif kind == "wrong-length":
            minor = widened(base)
        elif kind == "reversed-pair":
            pos, neg = base.pos, base.neg
            minor = Binomial2(pos[::-1], neg) if pos[0] != pos[1] else Binomial2(pos, neg[::-1])
        elif kind == "swapped-sides":
            minor = Binomial2(base.neg, base.pos)
        elif kind == "foreign-minor":
            other = VeroneseContext(data.draw(st.integers(1, 4)), data.draw(st.integers(2, 5)))
            minor = data.draw(st.sampled_from(sorted(cached_minors(other), key=tuple)))
        elif kind == "other-chain-step":
            other = rewrite_chain(ctx, data.draw(st.integers(0, n)), data.draw(st.sampled_from(ctx.monomials())))
            minor = data.draw(st.sampled_from(other.steps)) if other.steps else base
        else:
            minor = None
        if kind == "truncated":
            steps = steps[:k]
        elif minor is not None:
            steps = steps[:k] + (minor,) + steps[k + (not insert):]
        owner = VeroneseContext(n + 1, d) if kind == "foreign-chain" else ctx
        bad = RewriteChain(owner, i, chain.target, steps)
        Q = image_point_on_chart(Random(data.draw(st.integers(0, 2**16))), field, ctx, i)
        assert verify_rewrite_chain(ctx, bad, Q) == reference_verify_rewrite_chain(ctx, bad, Q)
        if kind == "genuine":
            assert verify_rewrite_chain(ctx, bad, Q).ok

    @pytest.mark.parametrize("n,d", SMALL)
    def test_quad_test_on_every_quad(self, n, d):
        # is_minor_quad against the built minor set, and against the vector
        # test it replaced, on every quad of indices, out-of-range indices
        # included
        ctx = VeroneseContext(n, d)
        monos = ctx.monomials()
        at = CodeIndex(ctx)
        minors = cached_minors(ctx)
        span = range(-1, len(monos) + 1)
        inside = range(len(monos))
        for q in product(span, repeat=4):
            expected = all(x in inside for x in q) and _as_minor(monos, q) in minors
            assert is_minor_quad(at, *q) == reference_is_minor_quad(monos, *q) == expected, q

    @pytest.mark.parametrize("n,d", [(1, 3), (2, 4), (3, 3)])
    def test_quad_chains_on_ints(self, n, d):
        # the per-chain quads are the steps rewrite_chain returns, and their
        # structure check fails on any index out of range, any non-canonical
        # quad and any unbalanced one
        ctx = VeroneseContext(n, d)
        monos = ctx.monomials()
        at = CodeIndex(ctx)
        for i in range(n + 1):
            col = chart_indices(ctx, i)
            for k, m in enumerate(monos):
                quads = reference_chain_quads(ctx, col, i, m)
                assert [_as_minor(monos, q) for q in quads] == list(rewrite_chain(ctx, i, m).steps)
                assert certs._chain_fault(ctx, at, col, i, k, quads) is None
                for pos, (a, b, c, e) in enumerate(quads):
                    for bad in ((a, b, c, len(monos)), (-1, b, c, e), (c, e, a, b), (b, a, c, e)
                                if a != b else (a, b, e, c), (a, b, c, c if c != e else a)):
                        if bad == (a, b, c, e):
                            continue
                        tampered = quads[:pos] + [bad] + quads[pos + 1:]
                        fault = certs._chain_fault(ctx, at, col, i, k, tampered)
                        assert fault is not None and fault[0] == pos, bad


    @pytest.mark.parametrize("n,d,chart,target,steps,diagnostic", [
        # both sides of the second step occur in the running product: the
        # negative side is consumed, and the product misses its goal
        (1, 5, 0, (0, 5), ["z_{5,0} z_{3,2} - z_{4,1}^2"] * 2 + ["z_{5,0} z_{2,3} - z_{4,1} z_{3,2}"],
         "telescoping ended away from the claimed product"),
        # a squared side needs its factor twice in the running product
        (1, 3, 0, (2, 1), ["z_{3,0} z_{1,2} - z_{2,1}^2"],
         "step 0: neither side of z_{3,0} z_{1,2} - z_{2,1}^2 occurs in the running product"),
        # chart-column entries, but not z_{2,0,0}: no realization on row 0
        (2, 2, 0, (2, 0, 0), ["z_{1,1,0} z_{0,0,2} - z_{1,0,1} z_{0,1,1}"],
         "step 0: z_{1,1,0} z_{0,0,2} - z_{1,0,1} z_{0,1,1} has no realization on row 0 "
         "and the column of z_{2,0,0}"),
    ])
    def test_step_rules(self, n, d, chart, target, steps, diagnostic):
        ctx = VeroneseContext(n, d)
        chain = RewriteChain(ctx, chart, MultiIndex(target), tuple(map(parse_binomial, steps)))
        Q = image_point_on_chart(Random(5), QQ, ctx, chart)
        assert verify_rewrite_chain(ctx, chain, Q) == reference_verify_rewrite_chain(ctx, chain, Q)
        assert verify_rewrite_chain(ctx, chain, Q).diagnostic == diagnostic

    @pytest.mark.parametrize("n,d", [(1, 4), (2, 3), (2, 5), (3, 3), (3, 4), (4, 2)])
    def test_minors_through_the_pure_power_are_realized(self, n, d):
        # the index core's realization check is membership of z_{d e_i}
        ctx = VeroneseContext(n, d)
        for b in cached_minors(ctx):
            for i in range(n + 1):
                assert realizes_row_and_column(ctx, i, b) == (pure_power(n, d, i) in (*b.pos, *b.neg)), (i, b)

    def test_partner_neither_target_nor_known(self):
        # z_{2,1} z_{1,2} = z_{3,0} z_{0,3} = 0 forces z_{2,1} = 0 only if
        # z_{1,2} is zero already, which it is not at step 0
        ctx = VeroneseContext(1, 3)
        cert = zero_propagation_certificate(ctx)
        step = PropagationStep(cert.steps[0].target, parse_binomial("z_{3,0} z_{0,3} - z_{2,1} z_{1,2}"),
                               cert.steps[0].prerequisites)
        tampered = ZeroPropagationCertificate(ctx, (step,) + cert.steps[1:])
        res = verify_zero_propagation(ctx, tampered)
        assert res == reference_verify_zero_propagation(ctx, tampered)
        assert res.diagnostic == "step 0 (target z_{2,1}): partner z_{1,2} is neither the target nor known zero"

    def test_partner_known_zero_forces_nothing(self):
        # after step 0 zeroes z_{2,1}, the minor z_{3,0} z_{0,3} - z_{2,1} z_{1,2}
        # vanishes whatever z_{1,2} is: it cannot be the step for target z_{1,2}
        ctx = VeroneseContext(1, 3)
        cert = zero_propagation_certificate(ctx)
        assert [s.target for s in cert.steps] == [MultiIndex((2, 1)), MultiIndex((1, 2))]
        forged = ZeroPropagationCertificate(ctx, cert.steps[:1] + (
            PropagationStep(MultiIndex((1, 2)), parse_binomial("z_{3,0} z_{0,3} - z_{2,1} z_{1,2}"),
                            (MultiIndex((2, 1)),)),))
        res = verify_zero_propagation(ctx, forged)
        assert res == reference_verify_zero_propagation(ctx, forged)
        assert res.diagnostic == ("step 1 (target z_{1,2}): partner z_{2,1} is known zero, "
                                  "so the minor does not force the target")


def _as_minor(monos, q):
    pos, neg = (monos[q[0]], monos[q[1]]), (monos[q[2]], monos[q[3]])
    if list(map(add, *pos)) != list(map(add, *neg)):
        return None
    return Binomial2(pos, neg)


class TestVerifiersBuildNoMinorSet:
    def test_cold_cache_stays_empty(self):
        ctx = VeroneseContext(4, 5)
        cached_minors.cache_clear()
        _minor_quads.cache_clear()
        _minor_table.cache_clear()
        assert verify_zero_propagation(ctx, zero_propagation_certificate(ctx))
        rng = Random(45)
        points = [image_point_on_chart(rng, QQ, ctx, i) for i in range(ctx.n + 1)]
        for chain in all_rewrite_chains(ctx):
            assert verify_rewrite_chain(ctx, chain, points[chain.chart])
        assert cached_minors.cache_info().currsize == 0
        assert _minor_quads.cache_info().currsize == 0
        assert _minor_table.cache_info().currsize == 0

    def test_reach_six_six(self):
        # about 2.2 million 2x2 submatrices: the verifiers never visit them
        ctx = VeroneseContext(6, 6)
        cached_minors.cache_clear()
        start = time.perf_counter()
        cert = zero_propagation_certificate(ctx)
        assert len(cert.steps) == 917
        assert verify_zero_propagation(ctx, cert)
        rng = Random(66)
        for i in (0, ctx.n):
            Q = image_point_on_chart(rng, QQ, ctx, i)
            for m in ctx.monomials():
                assert verify_rewrite_chain(ctx, rewrite_chain(ctx, i, m), Q)
        assert cached_minors.cache_info().currsize == 0
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# The chains of a chart as one forest: each chain is its parent's plus one
# edge, so generation makes each edge once and verify checks it once.

BENDS = ["skipped-step", "wrong-partner", "swapped-sides"]


def bent_edge(bend):
    """certs._edge bent at every third node: the edge hangs from the
    grandparent, so its chain skips the parent's step; or the parent is
    paired with another chart-column entry, in the genuine minor
    z_P z_{parent - e_i + e_j'} - z_parent z_{col_j'}; or its sides are
    swapped."""
    edge = certs._edge

    def bent(monos, idx, col, i, k):
        parent, (a, b, c, e) = edge(monos, idx, col, i, k)
        if k % 3:
            return parent, (a, b, c, e)
        if bend == "swapped-sides":
            return parent, (c, e, a, b)
        if bend == "skipped-step":  # a root parent has no parent to skip to
            if sum(monos[parent]) - monos[parent][i] > 1:
                parent = edge(monos, idx, col, i, parent)[0]
            return parent, (a, b, c, e)
        j = min(s for s in range(len(col)) if s != i and monos[k][s])
        others = [s for s in range(len(col)) if s not in (i, j)]
        if not others:
            return parent, (a, b, c, e)
        k2 = monos.index(moved(monos[parent], i, others[0]))
        return parent, _canonical_quad(col[i], k2, parent, col[others[0]])

    return bent


class TestChainForest:
    @pytest.mark.parametrize("n,d", [(n, d) for n in range(5) for d in range(1, 6)] + [(7, 7)])
    def test_shape(self, n, d):
        ctx = VeroneseContext(n, d)
        chains = {(c.chart, c.target): c for c in all_rewrite_chains(ctx)}
        assert len(chains) == (n + 1) * ctx.num_coords
        for i in range(n + 1):
            assert len(certs._forest(ctx, CodeIndex(ctx), i, chart_indices(ctx, i))) == ctx.N - n
        assert len({(i, step) for (i, _), c in chains.items() for step in c.steps}) == (n + 1) * (ctx.N - n)
        for (i, m), chain in chains.items():
            parent = forest_parent(ctx, i, m)
            if parent is None:
                assert chain.steps == ()
            else:
                assert chain.steps[:-1] == chains[i, parent].steps
                assert len(chain.steps) == len(chains[i, parent].steps) + 1

    @pytest.mark.parametrize("n", range(5))
    def test_generators_match_per_chain_reference(self, n):
        for d in range(1, 6):
            ctx = VeroneseContext(n, d)
            monos = ctx.monomials()
            expected = [
                RewriteChain(ctx, i, m, tuple(_as_minor(monos, q)
                                              for q in reference_chain_quads(ctx, chart_indices(ctx, i), i, m)))
                for i in range(n + 1) for m in monos
            ]
            assert list(all_rewrite_chains(ctx)) == expected
            assert [rewrite_chain(ctx, c.chart, c.target) for c in expected] == expected

    @pytest.mark.parametrize("bend", BENDS)
    @pytest.mark.parametrize("n,d", [(2, 3), (2, 5), (3, 4), (4, 3)])
    def test_bent_forest_same_failures_as_per_chain(self, monkeypatch, bend, n, d):
        # _chart_failures checks each edge once and each point's identities
        # as one image; the reference runs _chain_fault over every whole
        # chain of the same bent forest, and each identity on its own, at
        # genuine points and, per chart, at one point of each field bent off
        # the variety by one coordinate
        ctx = VeroneseContext(n, d)
        monos, idx = ctx.monomials(), coordinate_index(ctx)
        at = CodeIndex(ctx)
        genuine = list(all_rewrite_chains(ctx))
        monkeypatch.setattr(certs, "_edge", bent_edge(bend))
        chains = list(all_rewrite_chains(ctx))
        assert chains != genuine
        assert chains == [rewrite_chain(ctx, c.chart, c.target) for c in chains]
        rng = Random(10 * n + d)
        failures = total = 0
        for i in range(n + 1):
            col = chart_indices(ctx, i)
            points = [integer_coords(image_point_on_chart(rng, field, ctx, i))
                      for field in (QQ, PrimeField(7), QQ, PrimeField(7))]
            for z, p in points[2:]:
                k = rng.randrange(len(z))
                z[k] = (z[k] + 1) % p if p else z[k] + 1
            expected = 0
            for chain in chains[i * len(monos):(i + 1) * len(monos)]:
                k = idx[chain.target]
                if certs._chain_fault(ctx, at, col, i, k, [binomial_quad(ctx, b) for b in chain.steps]):
                    expected += len(points)
                    continue
                for z, p in points:
                    diff = prod(z[c] ** e for c, e in zip(col, chain.target)) - z[col[i]] ** (d - 1) * z[k]
                    expected += not z[col[i]] or bool(diff % p if p else diff)
            assert certs._chart_failures(ctx, at, i, points) == expected
            failures += expected
            total += len(monos) * len(points)
        assert 0 < failures < total

    # the first draw of a context builds its forests
    @settings(deadline=None)
    @given(st.integers(0, 4), st.integers(1, 5), st.sampled_from([QQ, PrimeField(2), PrimeField(101)]),
           st.integers(0, 2**32), st.data())
    def test_chart_failures_match_verify_rewrite_chain(self, n, d, field, seed, data):
        # _chart_failures decides a node below a holding parent by its edge
        # minor, and by its own product below a failing one; verify_rewrite_chain
        # checks each identity as one product.  Points: a chart image, the
        # image with one coordinate bumped, and, where a node k has a non-root
        # parent, the image with the parent bumped, so that its identity
        # fails, and z_k and a chart-column entry z_{col_j}, k_j > 0, zeroed,
        # so that k's holds
        ctx, rng = VeroneseContext(n, d), Random(seed)
        i = data.draw(st.integers(0, n))
        monos, col = ctx.monomials(), chart_indices(ctx, i)
        at = CodeIndex(ctx)
        image = list(image_point_on_chart(rng, field, ctx, i).coords)
        bumped = image[:]
        bumped[rng.randrange(len(bumped))] += field.one
        candidates = [image, bumped]
        below = [(k, parent) for k, parent, _ in certs._forest(ctx, at, i, col) if monos[parent][i] < d - 1]
        if below:
            k, parent = rng.choice(below)
            j = rng.choice([s for s, e in enumerate(monos[k]) if e and s != i])
            zeroed = image[:]
            zeroed[parent] += field.one
            zeroed[k] = zeroed[col[j]] = field.zero
            candidates.append(zeroed)
        points = [point(field, c) for c in candidates if any(c)]
        chains = [rewrite_chain(ctx, i, m) for m in monos]
        expected = sum(not verify_rewrite_chain(ctx, chain, Q) for chain in chains for Q in points)
        assert certs._chart_failures(ctx, at, i, [integer_coords(Q) for Q in points]) == expected


MALFORMED = "chain chart, target or steps malformed for this context"


# ---------------------------------------------------------------------------
# The symbolic checks decide on packed codes: against the exponent-vector
# paths they replaced, and the balanced-digit fact that makes them exact.

def balanced_digits(x, base, width):
    """The width digits of x in base `base` with digits in [-(base // 2),
    base // 2], lowest first; base odd."""
    digits = []
    for _ in range(width):
        r = x % base
        if r > base // 2:
            r -= base
        digits.append(r)
        x = (x - r) // base
    assert x == 0
    return tuple(digits)


class TestPackedCodeDecisions:
    @pytest.mark.parametrize("n,d", SMALL)
    def test_code_differences_are_the_vector_differences(self, n, d):
        # code(A) - code(C) written in base 2d+1 with digits in [-d, d] is
        # A - C, so it is w_i - w_j iff A - C = e_i - e_j
        ctx = VeroneseContext(n, d)
        monos, at = ctx.monomials(), CodeIndex(ctx)
        assert at.codes == [sum(map(mul, m, at.w)) for m in monos]
        assert at == {c: k for k, c in enumerate(at.codes)}
        assert len(at.moves) == n * (n + 1)
        for A, ca in zip(monos, at.codes):
            for C, cc in zip(monos, at.codes):
                diff = tuple(map(sub, A, C))
                assert balanced_digits(ca - cc, 2 * d + 1, n + 1) == diff
                assert (ca - cc in at.moves) == (sorted(diff) == [-1] + [0] * (n - 1) + [1])

    @given(st.data())
    def test_unit_move_test_on_sampled_quads(self, data):
        # a balanced quad from two drawn entries and a drawn split of their
        # sum, as drawn and canonical, and a quad of free indices
        n = data.draw(st.integers(0, 6), label="n")
        d = data.draw(st.integers(1, 7), label="d")
        ctx = VeroneseContext(n, d)
        monos, idx = ctx.monomials(), coordinate_index(ctx)
        index = st.integers(0, len(monos) - 1)
        a, b = data.draw(index, label="a"), data.draw(index, label="b")
        total = list(map(add, monos[a], monos[b]))
        c = data.draw(st.sampled_from([k for k, m in enumerate(monos) if all(map(le, m, total))]), label="c")
        e = idx[tuple(map(sub, total, monos[c]))]
        free = tuple(data.draw(st.integers(-1, len(monos)), label="free") for _ in range(4))
        at = CodeIndex(ctx)
        for q in ((a, b, c, e), _canonical_quad(a, b, c, e) or (a, b, c, e), free):
            assert is_minor_quad(at, *q) == reference_is_minor_quad(monos, *q), q

    @pytest.mark.parametrize("n", range(6))
    def test_forests_match_the_vector_forests(self, n):
        for d in range(1, 7):
            ctx = VeroneseContext(n, d)
            at = CodeIndex(ctx)
            for i in range(n + 1):
                col = chart_indices(ctx, i)
                assert certs._forest(ctx, at, i, col) == reference_forest(ctx, i, col)

    @pytest.mark.parametrize("n", range(6))
    def test_cascades_match_the_vector_cascades(self, n):
        # the same steps, and the same bytes as verify --emit-propagation-cert
        for d in range(1, 7):
            ctx = VeroneseContext(n, d)
            cert, ref = zero_propagation_certificate(ctx), reference_zero_propagation_certificate(ctx)
            assert cert == ref
            assert (json.dumps(propagation_to_doc(cert), indent=2, sort_keys=True)
                    == json.dumps(propagation_to_doc(ref), indent=2, sort_keys=True))

    @pytest.mark.parametrize("n,d", [(1, 2), (1, 5), (2, 2), (2, 4), (3, 3), (3, 4)])
    def test_unit_move_edges_telescope(self, n, d):
        # one quad z_P z_k - z_parent z_{col_j} below a parent k + e_i - e_j,
        # on the forest or off it, is a sound edge, and it runs as the last
        # step of the parent's whole chain.  The same quad below k + e_s -
        # e_j, s != i, is unbalanced: no minor
        ctx = VeroneseContext(n, d)
        monos, idx, at = ctx.monomials(), coordinate_index(ctx), CodeIndex(ctx)
        edges = 0
        for i in range(n + 1):
            col = chart_indices(ctx, i)
            for k, m in enumerate(monos):
                for s, j in product(range(n + 1), repeat=2):
                    if j == s or not m[j]:
                        continue
                    parent = idx[moved(m, j, s)]
                    q = _canonical_quad(col[i], k, parent, col[j])
                    sound = certs._sound_edge(at, col, col[i], k, parent, q)
                    if s != i or q is None:  # q is None iff parent = P and k = col_j
                        assert not sound and (q is None or not is_minor_quad(at, *q))
                        continue
                    assert sound
                    chain = reference_chain_quads(ctx, col, i, monos[parent]) + [q]
                    assert certs._chain_fault(ctx, at, col, i, k, chain) is None
                    edges += 1
        assert edges >= (n + 1) * (ctx.N - n)  # the forest edges among them

    @pytest.mark.parametrize("n", range(4))
    def test_edge_rule_matches_the_telescoper(self, n):
        # _sound_edge against the one-step telescoping run it replaced, for
        # every chart, non-root k and parent, on every balanced quad with
        # z_P z_k on one side (only these pass either check), on z_P z_k -
        # z_parent z_{col_j} for every j, balanced or not, and on seeded
        # minors and toric quadrics.  Below a non-root parent the verdicts
        # agree.  A root parent's product is k's chart product, so the
        # telescoper passes z_P z_k - z_{col_a} z_{col_b} below any root,
        # z_P included, while the rule wants the parent among the entries
        # and beside a chart-column entry
        below_root = 0
        for d in range(1, 5):
            ctx = VeroneseContext(n, d)
            monos, idx, at = ctx.monomials(), coordinate_index(ctx), CodeIndex(ctx)
            rng = Random(10 * n + d)
            minors, toric = list(_quads(_minor_quads(ctx))), _toric_quads(ctx)
            passed = 0
            for i in range(n + 1):
                col = chart_indices(ctx, i)
                P = col[i]
                for k, m in enumerate(monos):
                    if m[i] >= d - 1:
                        continue
                    total = tuple(map(add, monos[P], m))
                    shaped = {_canonical_quad(P, k, x, idx[y]) for x in range(len(monos))
                              if (y := tuple(map(sub, total, monos[x]))) in idx}
                    quads = (sorted(shaped - {None}) + rng.sample(minors, min(8, len(minors)))
                             + rng.sample(toric, min(8, len(toric))))
                    for parent in range(len(monos)):
                        for q in quads + [_canonical_quad(P, k, parent, c) for c in col]:
                            sound = certs._sound_edge(at, col, P, k, parent, q)
                            telescopes = reference_edge_fault(ctx, at, col, i, k, q, parent) is None
                            if monos[parent][i] < d - 1:
                                assert sound == telescopes, (d, i, k, parent, q)
                            else:
                                assert sound == (telescopes and parent in q and parent != P), (d, i, k, parent, q)
                                below_root += telescopes and not sound
                            passed += sound
            assert passed >= (n + 1) * (ctx.N - n)  # the forest edges among them
        assert below_root or not n  # n = 0 has no edges


class TestMalformedChains:
    """A malformed chain is a failed verification, never an exception, and
    rewrite_chain refuses what names no chain with ContractError."""

    ctx = VeroneseContext(1, 3)
    Q = veronese_eval(ctx, point(QQ, [1, 2]))

    @pytest.mark.parametrize("chart,target", [
        (0, (1, 2)),                       # a plain tuple, not a MultiIndex
        ("0", MultiIndex((1, 2))),
        (0.0, MultiIndex((1, 2))),
        (True, MultiIndex((1, 2))),        # a bool is no chart, as it is no n or d
        (2, MultiIndex((1, 2))),
        (0, MultiIndex((1, 1))),
        (0, MultiIndex((1, 1, 1))),
    ])
    def test_chart_or_target(self, chart, target):
        res = verify_rewrite_chain(self.ctx, RewriteChain(self.ctx, chart, target, ()), self.Q)
        assert res == certs.VerifyResult(False, MALFORMED)
        with pytest.raises(ContractError):
            rewrite_chain(self.ctx, chart, target)

    def test_steps_not_a_tuple(self):
        chain = RewriteChain(self.ctx, 0, MultiIndex((0, 3)), None)
        assert verify_rewrite_chain(self.ctx, chain, self.Q) == certs.VerifyResult(False, MALFORMED)

    @pytest.mark.parametrize("step", [
        "z_{3,0} z_{1,2} - z_{2,1}^2",
        (1, 2, 3),
        ((MultiIndex((3, 0)), MultiIndex((1, 2))), (MultiIndex((2, 1)), MultiIndex((2, 1)))),
        None,
    ])
    def test_step_not_a_binomial(self, step):
        genuine = rewrite_chain(self.ctx, 0, MultiIndex((0, 3)))
        chain = RewriteChain(self.ctx, 0, genuine.target, (step,) + genuine.steps[1:])
        res = verify_rewrite_chain(self.ctx, chain, self.Q)
        assert res == certs.VerifyResult(False, f"step 0: {step} is not a 2-minor of the matrix")
