"""Command-line surface: golden outputs, exit codes, determinism."""

import json

import pytest

from veronese.cli import main


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

    def test_invert_rejects_nonmember(self, capsys):
        code, out = run(capsys, "invert", "--n", "1", "--d", "2", "[0 : 1 : 0]")
        assert code == 1
        assert "not on the variety" in out

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


class TestVerifyCommand:
    def test_passes_over_rationals(self, capsys):
        code, out = run(capsys, "verify", "--n", "2", "--d", "3")
        assert code == 0
        assert "all checks passed" in out

    def test_passes_over_prime_field(self, capsys):
        code, out = run(capsys, "verify", "--n", "1", "--d", "4", "--field", "fp:7")
        assert code == 0

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
