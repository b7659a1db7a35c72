"""Command-line surface: golden outputs, exit codes, determinism."""

import json
import re
import time
from collections import Counter
from math import comb
from random import Random

import pytest

from veronese import (
    QQ,
    Binomial2,
    BudgetError,
    MultiIndex,
    NoChartError,
    PrimeField,
    ProjectivePoint,
    RewriteChain,
    VeroneseContext,
    build_matrix,
    minor_candidates,
    minors2,
    pure_power,
    sorted_binomials,
)
from veronese import certificates as certs
from veronese import cli
from veronese import matrix as matrix_module
from veronese import morphism, projective
from veronese.cli import main
from veronese.morphism import (
    _minor_quads,
    _minor_table,
    available_charts,
    inverse_map,
    inverse_on_chart,
    is_on_variety,
    veronese_eval,
)
from veronese.projective import proj_eq, random_point

from test_certificates import (
    reference_rewrite_chain,
    reference_verify_rewrite_chain,
    reference_verify_zero_propagation,
    reference_zero_propagation_certificate,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestMatrixCommand:
    def test_plane_cubic_layout(self, capsys):
        code, out = run(capsys, "matrix", "--n", "2", "--d", "3")
        assert code == 0
        assert "L =" in out and "M =" in out
        assert "x0^3" in out and "z_{3,0,0}" in out and "z_{0,0,3}" in out

    def test_single_column_notes_no_minors(self, capsys):
        code, out = run(capsys, "matrix", "--n", "1", "--d", "1")
        assert code == 0
        assert "no 2-minors" in out

    def test_json_document(self, capsys):
        code, out = run(capsys, "matrix", "--n", "3", "--d", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert len(doc["rows"]) == 4
        assert all(len(r) == 4 for r in doc["rows"])
        # re-rendering the parsed document reproduces the emission
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out

    def test_d_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--n", "2", "--d", "0"])
        assert exc.value.code == 2


class TestFlagValues:
    @pytest.mark.parametrize("argv", [
        ["oracle", "--n", "1", "--d", "2", "--field", "fp:3", "--workers", "0"],
        ["minors", "--n", "1", "--d", "2", "--budget", "-1"],
    ])
    def test_out_of_range_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestMinorsCommand:
    @pytest.mark.parametrize("n,d,count", [(1, 2, 1), (1, 3, 3), (2, 2, 6)])
    def test_counts(self, capsys, n, d, count):
        code, out = run(capsys, "minors", "--n", str(n), "--d", str(d))
        assert code == 0
        assert f"count: {count}" in out

    def test_json_lists_canonical_strings(self, capsys):
        code, out = run(capsys, "minors", "--n", "1", "--d", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["minors"] == ["z_{2,0} z_{0,2} - z_{1,1}^2"]
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(4) for d in range(1, 5)])
    def test_lists_the_sorted_minor_set(self, capsys, n, d):
        # text and JSON bytes against sorted_binomials of minors2
        listing = [str(b) for b in sorted_binomials(minors2(build_matrix(VeroneseContext(n, d))))]
        code, out = run(capsys, "minors", "--n", str(n), "--d", str(d))
        assert (code, out) == (0, "".join(f"{line}\n" for line in [*listing, f"count: {len(listing)}"]))
        doc = {"command": "minors", "count": len(listing), "d": d, "minors": listing, "n": n,
               "schema_version": 1}
        code, out = run(capsys, "minors", "--n", str(n), "--d", str(d), "--format", "json")
        assert (code, out) == (0, json.dumps(doc, indent=2, sort_keys=True) + "\n")


class TestPointCommands:
    def test_eval(self, capsys):
        code, out = run(capsys, "eval", "--n", "1", "--d", "3", "[1 : 2]")
        assert (code, out.strip()) == (0, "[1 : 2 : 4 : 8]")

    def test_invert(self, capsys):
        code, out = run(capsys, "invert", "--n", "1", "--d", "3", "[1 : 2 : 4 : 8]")
        assert (code, out.strip()) == (0, "[1 : 2]")

    def test_member_false_names_the_minor(self, capsys):
        code, out = run(capsys, "member", "--n", "1", "--d", "2", "[0 : 1 : 0]")
        assert code == 1
        assert out.strip() == "false (minor z_{2,0} z_{0,2} - z_{1,1}^2 evaluates to -1)"

    def test_member_true(self, capsys):
        code, out = run(capsys, "member", "--n", "1", "--d", "2", "[1 : 3 : 9]")
        assert (code, out.strip()) == (0, "true")

    @pytest.mark.parametrize("command,answer", [("member", "true"), ("invert", "[1 : 1 : 1 : 1 : 1 : 1]")])
    def test_member_point_builds_no_minor_table(self, capsys, command, answer):
        # the rank-one test answers a member; only a non-member's report
        # needs the 118,125-candidate table of (5,5)
        _minor_quads.cache_clear()
        _minor_table.cache_clear()
        ones = "[" + " : ".join(["1"] * 252) + "]"
        code, out = run(capsys, command, "--n", "5", "--d", "5", ones)
        assert (code, out.strip()) == (0, answer)
        assert _minor_quads.cache_info().currsize == 0
        assert _minor_table.cache_info().currsize == 0

    def test_invert_rejects_nonmember(self, capsys):
        code, out = run(capsys, "invert", "--n", "1", "--d", "2", "[0 : 1 : 0]")
        assert code == 1
        assert "not on the variety" in out

    def test_no_chart_is_a_check_failure(self, capsys, monkeypatch):
        # NoChartError is no usage error: main's VeroneseError clause maps it to 1
        def no_chart(ctx, Q):
            raise NoChartError("no chart contains the point")

        monkeypatch.setattr(cli, "inverse_map", no_chart)
        code = main(["invert", "--n", "1", "--d", "3", "[1 : 2 : 4 : 8]"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", "error: no chart contains the point\n")

    def test_prime_field_eval(self, capsys):
        code, out = run(capsys, "eval", "--n", "1", "--d", "2", "--field", "fp:5", "[2 : 3]")
        assert code == 0
        assert out.strip() == "[1 : 4 : 1]"  # [4 : 6 : 9] scaled by 4^-1 = 4

    def test_rational_entries_parse(self, capsys):
        code, out = run(capsys, "eval", "--n", "1", "--d", "2", "[1/2 : 3]")
        assert (code, out.strip()) == (0, "[1 : 6 : 36]")

    def test_dimension_mismatch_is_usage_error(self, capsys):
        code, _ = run(capsys, "eval", "--n", "2", "--d", "2", "[1 : 2]")
        assert code == 2

    def test_malformed_point_is_usage_error(self, capsys):
        code, _ = run(capsys, "member", "--n", "1", "--d", "2", "[1 : oops : 0]")
        assert code == 2

    def test_bad_field_is_usage_error(self, capsys):
        code, _ = run(capsys, "eval", "--n", "1", "--d", "2", "--field", "fp:4", "[1 : 2]")
        assert code == 2

    # a composite that passes Miller-Rabin to every base up to 37, and 2**64 + 13
    @pytest.mark.parametrize("p,bits", [("318665857834031151167461", 79), ("18446744073709551629", 65)])
    def test_modulus_from_2_64_is_usage_error(self, capsys, p, bits):
        code = main(["member", "--n", "1", "--d", "2", "--field", f"fp:{p}", "[1 : 2 : 4]"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: modulus too large: {bits} bits; primality is decided only below 2**64\n"


class TestVerifyCommand:
    def test_passes_over_rationals(self, capsys):
        code, out = run(capsys, "verify", "--n", "2", "--d", "3")
        assert code == 0
        assert "all checks passed" in out

    def test_passes_over_prime_field(self, capsys):
        code, out = run(capsys, "verify", "--n", "1", "--d", "4", "--field", "fp:7")
        assert code == 0

    @pytest.mark.parametrize("field", ["rational", "fp:101"])
    def test_builds_no_minor_table(self, capsys, monkeypatch, field):
        def no_table(_):
            raise AssertionError("verify built the minor table")

        monkeypatch.setattr(matrix_module, "minors2", no_table)
        matrix_module.cached_minors.cache_clear()
        code, out = run(capsys, "verify", "--n", "3", "--d", "4", "--field", field)
        assert code == 0
        assert "all checks passed" in out

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)])
    def test_builds_and_normalizes_no_image_point(self, monkeypatch, field):
        # the round trip and chart agreement compare int columns with the
        # source point's ints, and the later phases read ints as well
        def forbidden(*_):
            raise AssertionError("verify built or normalized a point")

        for module in (cli, morphism):
            monkeypatch.setattr(module, "veronese_eval", forbidden)
        for module in (morphism, projective):
            monkeypatch.setattr(module, "normalize", forbidden)
            monkeypatch.setattr(module, "_canonical", forbidden)
        checks = cli._verify_checks(VeroneseContext(3, 3), field, 1)
        assert [c["ok"] for c in checks] == [True] * 4

    @pytest.mark.parametrize("field", ["rational", "fp:101"])
    def test_chain_phase_builds_no_binomial_or_multiindex(self, capsys, monkeypatch, field):
        # the rewrite-chain phase follows the zero-propagation check: count
        # the public constructions on either side of it
        counts = Counter()
        phase = ["before"]
        new_index, new_binomial = MultiIndex.__new__, Binomial2.__new__
        verify_cert = certs.verify_zero_propagation

        def counting_new(cls, exponents):
            counts[phase[-1], "MultiIndex"] += 1
            return new_index(cls, exponents)

        def counting_binomial(cls, pos, neg):
            counts[phase[-1], "Binomial2"] += 1
            return new_binomial(cls, pos, neg)

        def then_chains(ctx, cert):
            res = verify_cert(ctx, cert)
            phase.append("chains")
            return res

        monkeypatch.setattr(MultiIndex, "__new__", staticmethod(counting_new))
        monkeypatch.setattr(Binomial2, "__new__", staticmethod(counting_binomial))
        monkeypatch.setattr(certs, "verify_zero_propagation", then_chains)
        code, out = run(capsys, "verify", "--n", "3", "--d", "4", "--field", field)
        assert code == 0
        assert out.endswith("PASS rewrite-chains: 700 chain verifications, 0 failures\nall checks passed\n")
        assert phase == ["before", "chains"]
        # the certificate's 31 steps are built before the phase
        assert counts["before", "Binomial2"] >= 31
        assert counts["chains", "Binomial2"] == counts["chains", "MultiIndex"] == 0

    def test_text_is_deterministic(self, capsys):
        _, first = run(capsys, "verify", "--n", "1", "--d", "2", "--seed", "3")
        _, second = run(capsys, "verify", "--n", "1", "--d", "2", "--seed", "3")
        assert first == second

    def test_json_is_deterministic_and_roundtrips(self, capsys):
        _, first = run(capsys, "verify", "--n", "1", "--d", "3", "--format", "json", "--seed", "5")
        _, second = run(capsys, "verify", "--n", "1", "--d", "3", "--format", "json", "--seed", "5")
        assert first == second
        doc = json.loads(first)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == first
        assert doc["ok"] is True
        assert [c["name"] for c in doc["checks"]] == [
            "roundtrip-inverse-of-embedding",
            "chart-agreement",
            "zero-propagation-certificate",
            "rewrite-chains",
        ]

    def test_emitted_certificate_verifies(self, capsys, tmp_path):
        cert_file = tmp_path / "cascade.json"
        code, _ = run(capsys, "verify", "--n", "1", "--d", "3",
                      "--emit-propagation-cert", str(cert_file))
        assert code == 0
        code, _ = run(capsys, "verify", "--n", "1", "--d", "3",
                      "--propagation-cert", str(cert_file))
        assert code == 0

    def test_corrupted_certificate_fails(self, capsys, tmp_path):
        cert_file = tmp_path / "cascade.json"
        run(capsys, "verify", "--n", "1", "--d", "3", "--emit-propagation-cert", str(cert_file))
        doc = json.loads(cert_file.read_text())
        doc["steps"] = list(reversed(doc["steps"]))
        cert_file.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "--n", "1", "--d", "3",
                        "--propagation-cert", str(cert_file))
        assert code == 1
        assert "FAIL zero-propagation-certificate" in out

    TAMPERED_VERDICTS = {
        "reversed": "step 0 (target z_{0,1,3}): prerequisite z_{0,2,2} not yet established",
        "dropped-last": "coverage incomplete: 1 coordinates never zeroed, first z_{0,1,3}",
        "off-degree-entry": "step 2 (target z_{2,2,0}): z_{4,0,0} z_{0,2,0} - z_{2,1,0}^2 "
                            "is not a 2-minor of the matrix",
        "balanced-non-minor": "step 0 (target z_{3,1,0}): z_{4,0,0} z_{0,4,0} - z_{2,2,0}^2 "
                              "is not a 2-minor of the matrix",
    }

    @pytest.mark.parametrize("kind", sorted(TAMPERED_VERDICTS))
    def test_tampered_certificate_bytes(self, capsys, tmp_path, kind):
        cert_file = tmp_path / "cascade.json"
        run(capsys, "verify", "--n", "2", "--d", "4", "--emit-propagation-cert", str(cert_file))
        doc = json.loads(cert_file.read_text())
        steps = doc["steps"]
        if kind == "reversed":
            steps.reverse()
        elif kind == "dropped-last":
            steps.pop()
        elif kind == "off-degree-entry":
            steps[2]["minor"] = "z_{4,0,0} z_{0,2,0} - z_{2,1,0}^2"
        else:
            steps[0]["minor"] = "z_{4,0,0} z_{0,4,0} - z_{2,2,0}^2"
        cert_file.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "--n", "2", "--d", "4",
                        "--propagation-cert", str(cert_file))
        assert code == 1
        assert out == (
            "PASS roundtrip-inverse-of-embedding: 48 seeded points, 0 failures\n"
            "PASS chart-agreement: 32 multi-chart points, 0 disagreements\n"
            f"FAIL zero-propagation-certificate: {self.TAMPERED_VERDICTS[kind]}\n"
            "PASS rewrite-chains: 225 chain verifications, 0 failures\n"
            "verification FAILED\n"
        )

    def test_forged_partner_certificate_fails(self, capsys, tmp_path):
        # step 1 swaps in a minor whose partner of the target is already
        # known zero, so the minor forces nothing on the target
        cert_file = tmp_path / "cascade.json"
        run(capsys, "verify", "--n", "1", "--d", "3", "--emit-propagation-cert", str(cert_file))
        doc = json.loads(cert_file.read_text())
        doc["steps"][1] = {"target": "z_{1,2}", "minor": "z_{3,0} z_{0,3} - z_{2,1} z_{1,2}",
                           "prerequisites": ["z_{2,1}"]}
        cert_file.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "--n", "1", "--d", "3", "--propagation-cert", str(cert_file))
        assert code == 1
        assert out == (
            "PASS roundtrip-inverse-of-embedding: 48 seeded points, 0 failures\n"
            "PASS chart-agreement: 24 multi-chart points, 0 disagreements\n"
            "FAIL zero-propagation-certificate: step 1 (target z_{1,2}): partner z_{2,1} is known zero, "
            "so the minor does not force the target\n"
            "PASS rewrite-chains: 40 chain verifications, 0 failures\n"
            "verification FAILED\n"
        )

    def test_unreadable_certificate_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _ = run(capsys, "verify", "--n", "1", "--d", "3", "--propagation-cert", str(bad))
        assert code == 2

    def test_non_integer_dimension_in_certificate_is_usage_error(self, capsys, tmp_path):
        cert_file = tmp_path / "cascade.json"
        run(capsys, "verify", "--n", "1", "--d", "3", "--emit-propagation-cert", str(cert_file))
        doc = json.loads(cert_file.read_text())
        doc["n"] = "x"
        cert_file.write_text(json.dumps(doc))
        code = main(["verify", "--n", "1", "--d", "3", "--propagation-cert", str(cert_file)])
        assert code == 2
        assert "error: malformed certificate document" in capsys.readouterr().err

    def test_deeply_nested_certificate_is_usage_error(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code = main(["verify", "--n", "1", "--d", "2", "--propagation-cert", str(deep)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: malformed certificate document")
        assert err.count("\n") == 1


def reference_chart_point(rng, field, ctx, i):
    """The chart point of the verify command, built as a normalized image
    point: random_point with x_i set to one if it is zero."""
    x = random_point(rng, field, ctx.n, lead_zeros=0)
    if not x.coords[i]:
        coords = list(x.coords)
        coords[i] = field.one
        x = ProjectivePoint(field, tuple(coords))
    return veronese_eval(ctx, x)


def per_point_verify_checks(ctx, field, seed: int, make_chain=reference_rewrite_chain,
                            make_point=reference_chart_point):
    """_verify_checks as it was with verify_rewrite_chain run once per
    (chain, point) pair, on the object-based reference generators and
    verifiers of test_certificates, kept as its reference."""
    checks = []
    rng = Random(seed)

    def record(name: str, ok: bool, detail: str):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    bad = 0
    images = []
    for k in range(cli.VERIFY_POINTS):
        x = random_point(rng, field, ctx.n, lead_zeros=k % (ctx.n + 1))
        Qx = veronese_eval(ctx, x)
        images.append(Qx)
        if not (is_on_variety(ctx, Qx) and proj_eq(inverse_map(ctx, Qx), x)):
            bad += 1
    record("roundtrip-inverse-of-embedding", bad == 0,
           f"{cli.VERIFY_POINTS} seeded points, {bad} failures")

    disagreements = 0
    multi = 0
    for Qx in images:
        charts = available_charts(ctx, Qx)
        if len(charts) < 2:
            continue
        multi += 1
        first = inverse_on_chart(ctx, Qx, charts[0])
        if not all(proj_eq(first, inverse_on_chart(ctx, Qx, i)) for i in charts[1:]):
            disagreements += 1
    record("chart-agreement", disagreements == 0,
           f"{multi} multi-chart points, {disagreements} disagreements")

    cert = reference_zero_propagation_certificate(ctx)
    res = reference_verify_zero_propagation(ctx, cert)
    record("zero-propagation-certificate", res.ok,
           res.diagnostic or f"{len(cert.steps)} steps, full coverage")

    chain_failures = 0
    total = 0
    for i in range(ctx.n + 1):
        points = [make_point(rng, field, ctx, i) for _ in range(cli.CHAIN_POINTS_PER_CHART)]
        for m in ctx.monomials():
            chain = make_chain(ctx, i, m)
            for Qx in points:
                total += 1
                if not reference_verify_rewrite_chain(ctx, chain, Qx):
                    chain_failures += 1
    record("rewrite-chains", chain_failures == 0,
           f"{total} chain verifications, {chain_failures} failures")
    return checks


def corrupted(m) -> bool:
    """The forest nodes whose edge the corrupted runs bend."""
    return sum(m) % 3 == m[0] % 3


def edge_node(step, P):
    """The node of a chain step z_P z_k - z_parent z_{col_j}: its k."""
    side = step.pos if P in step.pos else step.neg
    return side[1] if side[0] == P else side[0]


class TestVerifyChecksReference:
    @pytest.mark.parametrize("n,d,field,seed", [
        (1, 1, QQ, 0), (1, 3, PrimeField(2), 4), (2, 3, QQ, 7),
        (2, 4, PrimeField(7), 1), (3, 3, PrimeField(101), 2), (3, 4, QQ, 3),
        (0, 3, PrimeField(7), 5), (4, 3, QQ, 6),
        (0, 1, QQ, 0), (0, 2, PrimeField(3), 1), (2, 1, PrimeField(2), 3),
        (3, 1, PrimeField(3), 2), (2, 2, PrimeField(3), 9), (1, 4, PrimeField(2), 8),
    ])
    def test_same_checks_as_per_point_loop(self, n, d, field, seed):
        ctx = VeroneseContext(n, d)
        assert cli._verify_checks(ctx, field, seed) == per_point_verify_checks(ctx, field, seed)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)])
    def test_same_failure_counts_with_corrupted_chains_and_points(self, monkeypatch, field):
        # the verify command checks each chart's forest of index quads at int
        # points; the reference checks whole Binomial2 chains at field points.
        # Both swap the sides of the same forest edges, which bends every
        # chain through them, and double the same coordinate of each chart
        # point, which moves the point off the variety without leaving the
        # chart.
        ctx = VeroneseContext(2, 3)
        make_edge, make_point = certs._edge, cli._chart_point

        def corrupted_edge(monos, idx, col, i, k):
            parent, (a, b, c, e) = make_edge(monos, idx, col, i, k)
            return parent, ((c, e, a, b) if corrupted(monos[k]) else (a, b, c, e))

        def bent_point(rng, field, ctx, i):
            z, p = make_point(rng, field, ctx, i)
            k = rng.randrange(len(z))
            z[k] = 2 * z[k] % p if p else 2 * z[k]
            return z, p

        def corrupted_chain(ctx, i, m):
            chain = reference_rewrite_chain(ctx, i, m)
            P = pure_power(ctx.n, ctx.d, i)
            return RewriteChain(ctx, i, m, tuple(Binomial2(s.neg, s.pos) if corrupted(edge_node(s, P)) else s
                                                 for s in chain.steps))

        def bent_reference_point(rng, field, ctx, i):
            Q = reference_chart_point(rng, field, ctx, i)
            coords = list(Q.coords)
            k = rng.randrange(len(coords))
            coords[k] = coords[k] + coords[k]
            return ProjectivePoint(field, tuple(coords))

        monkeypatch.setattr(certs, "_edge", corrupted_edge)
        monkeypatch.setattr(cli, "_chart_point", bent_point)
        checks = cli._verify_checks(ctx, field, 5)
        assert checks == per_point_verify_checks(ctx, field, 5, corrupted_chain, bent_reference_point)
        total, failures = re.fullmatch(
            r"(\d+) chain verifications, (\d+) failures", checks[-1]["detail"]
        ).groups()
        assert 0 < int(failures) < int(total)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)])
    @pytest.mark.parametrize("bend", ["off-variety", "wrong-preimage"])
    def test_same_failure_counts_with_bent_images(self, monkeypatch, field, bend):
        # verify's round trip reads morphism._integer_image, its chain phase
        # cli's import of it, and the reference reads it through
        # veronese_eval.  Doubling z_{d e_n} moves an image with x_0 and x_n
        # nonzero off the variety, and makes its chart-n column disagree
        # with its chart-0 column.  The image of x with x_n doubled stays on
        # the variety, but inverts to another point.
        ctx = VeroneseContext(2, 3)
        image = morphism._integer_image

        def bent_image(ctx, x):
            if bend == "wrong-preimage":
                return image(ctx, ProjectivePoint(x.field, x.coords[:-1] + (2 * x.coords[-1],)))
            z, p = image(ctx, x)
            z[-1] = 2 * z[-1] % p if p else 2 * z[-1]
            return z, p

        monkeypatch.setattr(morphism, "_integer_image", bent_image)
        monkeypatch.setattr(cli, "_integer_image", bent_image)
        checks = cli._verify_checks(ctx, field, 5)
        assert checks == per_point_verify_checks(ctx, field, 5)
        roundtrip, agreement, _, chains = (int(re.findall(r"\d+", c["detail"])[-1]) for c in checks)
        assert 0 < roundtrip < cli.VERIFY_POINTS
        assert (agreement > 0, chains > 0) == ((True, True) if bend == "off-variety" else (False, False))


class TestOversizeRationals:
    @pytest.mark.parametrize("argv", [
        ["eval", "--n", "1", "--d", "3", "[1e2000 : 1]"],
        ["member", "--n", "1", "--d", "2", "[1e5000 : 1 : 1]"],
        ["invert", "--n", "1", "--d", "2", "[1 : 1e3000 : 1e6000]"],
        ["member", "--n", "1", "--d", "2", "[1e10000000 : 1 : 1]"],
        ["member", "--n", "1", "--d", "2", "[1e2500 : 1 : 1e2500]"],
    ], ids=["eval-cube", "member", "invert", "huge-exponent", "failing-minor-value"])
    def test_usage_error_without_delay(self, capsys, argv):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert elapsed < 1.0


class TestMinorBudget:
    """Every subcommand refuses, before building any table, a context whose
    C(n+1, 2) * C(cols, 2) 2-minor candidates, or C(d, 2) if larger, exceed
    --budget."""

    @pytest.mark.parametrize("argv,estimate,budget", [
        (["minors", "--n", "7", "--d", "7"], 41201160, 5000000),
        (["member", "--n", "7", "--d", "7", "[1 : 2]"], 41201160, 5000000),
        (["invert", "--n", "7", "--d", "7", "--field", "fp:5", "[1 : 2]"], 41201160, 5000000),
        (["verify", "--n", "7", "--d", "7", "--format", "json"], 41201160, 5000000),
        (["oracle", "--n", "7", "--d", "7", "--field", "fp:2"], 41201160, 5000000),
        (["oracle", "--n", "5", "--d", "5", "--field", "fp:2", "--budget", "1000"], 118125, 1000),
        # n = 0 has no minors; C(d, 2) bounds it instead
        (["verify", "--n", "0", "--d", "100000000"], 4999999950000000, 5000000),
        (["oracle", "--n", "0", "--d", "100000000", "--field", "fp:2"], 4999999950000000, 5000000),
        (["eval", "--n", "0", "--d", "80000", "[3/2]"], 3199960000, 5000000),
        (["matrix", "--n", "9", "--d", "9", "--format", "json"], 13296415275, 5000000),
    ], ids=["minors", "member", "invert", "verify", "oracle", "oracle-5-5-budget-1000",
            "verify-0-1e8", "oracle-0-1e8", "eval-0-80000", "matrix-9-9"])
    def test_large_context_refused_fast(self, capsys, monkeypatch, argv, estimate, budget):
        def no_table(_):
            raise AssertionError("a minor table was built before the budget check")

        # without the guard the run would build every candidate first
        monkeypatch.setattr(matrix_module, "minors2", no_table)
        monkeypatch.setattr(cli, "build_matrix", no_table)
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"error: enumeration refused: estimated {estimate} 2-minor candidates "
            f"exceed budget {budget}\n"
        )
        assert elapsed < 1.0

    def test_estimate_counts_the_submatrices_minors2_visits(self):
        for n in range(0, 5):
            for d in range(1, 6):
                ctx = VeroneseContext(n, d)
                rows, cols = build_matrix(ctx).shape
                assert minor_candidates(ctx) == comb(rows, 2) * comb(cols, 2)
        assert minor_candidates(VeroneseContext(7, 7)) == 41_201_160
        assert minor_candidates(VeroneseContext(6, 6)) == 2_236_311

    def test_benchmark_configs_far_below_default(self):
        # the verify-sweep contexts
        counts = [minor_candidates(VeroneseContext(n, d)) for n, d in [(2, 3), (3, 4), (4, 4)]]
        assert counts == [45, 1140, 5950]
        assert max(counts) * 800 < matrix_module.DEFAULT_BUDGET

    @pytest.mark.parametrize("command,extra", [
        ("minors", []), ("member", ["[1 : 2 : 3 : 4 : 6 : 9 : 8 : 12 : 18 : 27]"]),
        ("invert", ["[1 : 2 : 3 : 4 : 6 : 9 : 8 : 12 : 18 : 27]"]), ("verify", []),
        ("eval", ["[1 : 2 : 3]"]), ("matrix", []),
    ])
    def test_budget_equal_to_estimate_runs(self, capsys, command, extra):
        estimate = minor_candidates(VeroneseContext(2, 3))
        assert estimate == 45
        at = main([command, "--n", "2", "--d", "3", "--budget", str(estimate), *extra])
        below = main([command, "--n", "2", "--d", "3", "--budget", str(estimate - 1), *extra])
        err = capsys.readouterr().err
        assert (at, below) == (0, 3)
        assert err == "error: enumeration refused: estimated 45 2-minor candidates exceed budget 44\n"


class TestGuardInMain:
    """main runs the cost guard once, before dispatch, so no subcommand can
    skip it, and the one-column grid of d = 1 is bounded by C(n+1, 2)."""

    # the refused run reads none of these: a malformed point, a field the
    # subcommand rejects, a certificate file that does not exist
    EXTRA = {
        "eval": ["not a point"],
        "invert": ["not a point"],
        "member": ["not a point"],
        "verify": ["--propagation-cert", "no-such-file.json"],
        "oracle": ["--field", "rational"],
    }

    @pytest.mark.parametrize("command", sorted(cli._HANDLERS))
    def test_every_handler_is_guarded(self, capsys, monkeypatch, command):
        def entered(*_):
            raise AssertionError(f"{command} ran past the budget")

        monkeypatch.setitem(cli._HANDLERS, command, entered)
        code = main([command, "--n", "2", "--d", "3", "--budget", "44",
                     *self.EXTRA.get(command, [])])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            "error: enumeration refused: estimated 45 2-minor candidates exceed budget 44\n"
        )

    def test_default_budget_bounds_degree_one(self):
        admitted = VeroneseContext(3161, 1)
        matrix_module.check_minor_budget(admitted, matrix_module.DEFAULT_BUDGET)
        with pytest.raises(BudgetError) as low:
            matrix_module.check_minor_budget(admitted, 4_997_540)
        with pytest.raises(BudgetError) as refused:
            matrix_module.check_minor_budget(VeroneseContext(3162, 1), matrix_module.DEFAULT_BUDGET)
        assert (low.value.estimated, refused.value.estimated) == (4_997_541, 5_000_703)

    def test_degree_one_refused_fast(self, capsys):
        start = time.perf_counter()
        code = main(["matrix", "--n", "2000", "--d", "1", "--format", "json", "--budget", "0"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            "error: enumeration refused: estimated 2001000 2-minor candidates exceed budget 0\n"
        )
        assert elapsed < 1.0

    def test_estimate_unchanged_from_degree_two(self):
        # the C(n+1, 2) floor binds only at d = 1; a formula check, no tables
        for n in range(60):
            for d in range(2, 40):
                ctx = VeroneseContext(n, d)
                with pytest.raises(BudgetError) as exc:
                    matrix_module.check_minor_budget(ctx, -1)
                assert exc.value.estimated == max(minor_candidates(ctx), comb(d, 2))

    def test_minors_listing_builds_no_minor_set(self, capsys, monkeypatch):
        # the listing makes each Binomial2 from the flat quad table as it
        # prints: neither minors2 nor the pairs of _minor_table are built
        def no_minors(matrix):
            raise AssertionError("minors built the minor set")

        monkeypatch.setattr(matrix_module, "minors2", no_minors)
        matrix_module.cached_minors.cache_clear()
        _minor_table.cache_clear()
        code, out = run(capsys, "minors", "--n", "2", "--d", "3")
        assert code == 0 and out.endswith("count: 36\n")
        assert matrix_module.cached_minors.cache_info().currsize == 0
        assert _minor_table.cache_info().currsize == 0


class TestMembershipDocuments:
    """Golden JSON and text of member and invert, for members and non-members."""

    @pytest.mark.parametrize("argv,code,expected", [
        (["member", "--n", "2", "--d", "2", "--field", "fp:7", "[1:2:3:4:5:6]"], 1,
         {"command": "member", "d": 2, "failing_minor": "z_{2,0,0} z_{0,1,1} - z_{1,1,0} z_{1,0,1}",
          "field": "fp:7", "member": False, "n": 2, "point": "[1 : 2 : 3 : 4 : 5 : 6]",
          "schema_version": 1, "value": "6"}),
        (["member", "--n", "1", "--d", "2", "[1/2:3:18]"], 0,
         {"command": "member", "d": 2, "field": "rational", "member": True, "n": 1,
          "point": "[1/2 : 3 : 18]", "schema_version": 1}),
        (["invert", "--n", "1", "--d", "3", "[1:2:4:9]"], 1,
         {"command": "invert", "d": 3, "failing_minor": "z_{3,0} z_{0,3} - z_{2,1} z_{1,2}",
          "field": "rational", "member": False, "n": 1, "point": "[1 : 2 : 4 : 9]",
          "schema_version": 1, "value": "1"}),
        (["invert", "--n", "2", "--d", "2", "--field", "fp:7", "[1:2:3:4:6:2]"], 0,
         {"command": "invert", "d": 2, "field": "fp:7", "member": True, "n": 2,
          "point": "[1 : 2 : 3 : 4 : 6 : 2]", "preimage": "[1 : 2 : 3]", "schema_version": 1}),
    ], ids=["member-false-fp", "member-true-q", "invert-false-q", "invert-true-fp"])
    def test_json(self, capsys, argv, code, expected):
        got, out = run(capsys, *argv, "--format", "json")
        assert got == code
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv,code,expected", [
        (["member", "--n", "2", "--d", "2", "--field", "fp:7", "[1:2:3:4:6:2]"], 0, "true\n"),
        (["invert", "--n", "2", "--d", "2", "--field", "fp:7", "[1:2:3:4:5:6]"], 1,
         "not on the variety (minor z_{2,0,0} z_{0,1,1} - z_{1,1,0} z_{1,0,1} evaluates to 6)\n"),
        (["member", "--n", "1", "--d", "2", "[1/2:3:-4/5]"], 1,
         "false (minor z_{2,0} z_{0,2} - z_{1,1}^2 evaluates to -47/5)\n"),
    ])
    def test_text(self, capsys, argv, code, expected):
        assert run(capsys, *argv) == (code, expected)


class TestOracleCommand:
    def test_equal_counts(self, capsys):
        code, out = run(capsys, "oracle", "--n", "1", "--d", "2", "--field", "fp:3")
        assert code == 0
        assert "variety 4, comparison 4, expected 4, equal: true" in out

    def test_plane_conic(self, capsys):
        code, out = run(capsys, "oracle", "--n", "2", "--d", "2", "--field", "fp:3",
                        "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert {r["comparison"] for r in doc["reports"]} == {"veronese-image", "toric-quadrics"}
        assert all(r["variety_count"] == 13 for r in doc["reports"])

    def test_requires_prime_field(self, capsys):
        code, _ = run(capsys, "oracle", "--n", "1", "--d", "2")
        assert code == 2

    def test_budget_refusal_exit_code(self, capsys):
        code, _ = run(capsys, "oracle", "--n", "2", "--d", "3", "--field", "fp:5",
                      "--budget", "1000")
        assert code == 3

    def test_serial_and_parallel_agree_bytewise(self, capsys):
        _, serial = run(capsys, "oracle", "--n", "1", "--d", "3", "--field", "fp:3",
                        "--format", "json")
        _, parallel = run(capsys, "oracle", "--n", "1", "--d", "3", "--field", "fp:3",
                          "--format", "json", "--workers", "3")
        assert serial == parallel
        doc = json.loads(serial)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == serial
