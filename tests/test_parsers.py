"""Fuzzing of every text and document parser: whatever the input, the only
exceptions that may escape are VeroneseError subclasses."""

import json
import time

import pytest
from hypothesis import given, strategies as st

from veronese import (
    QQ,
    ContractError,
    InvalidPointError,
    PrimeField,
    VeroneseContext,
    VeroneseError,
    parse_binomial,
    parse_coordinate_name,
    format_point,
    parse_point,
    propagation_from_doc,
    propagation_to_doc,
    zero_propagation_certificate,
)
from veronese.cli import main

F7 = PrimeField(7)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=10,
)
anything = json_values | st.binary(max_size=12) | st.tuples(st.integers())

coordinate_texts = st.from_regex(r"\s*z_\{-?[0-9]{1,3}(,-?[0-9]{1,3}){0,3}\}\s*", fullmatch=True)
binomial_texts = st.builds(
    "{} {} - {} {}".format, coordinate_texts, coordinate_texts, coordinate_texts, coordinate_texts
) | st.builds("{}^2 - {}^2".format, coordinate_texts, coordinate_texts)
point_texts = st.from_regex(r"\s*\[[-+0-9/. :]{0,20}\]\s*", fullmatch=True)

# entries in exponent notation, including exponents near and far past
# the 4,300-digit limit on int <-> str conversion
exponent_entries = st.builds(
    "{}{}e{}".format,
    st.from_regex(r"-?[0-9]{1,4}", fullmatch=True),
    st.sampled_from(["", ".", ".5", ".25"]),
    st.integers(-10**6, 10**6) | st.integers(-4400, 4400) | st.integers(4290, 4310),
)
exponent_points = st.lists(exponent_entries | st.sampled_from(["0", "1", "1/3"]), min_size=1, max_size=4).map(
    lambda entries: "[" + " : ".join(entries) + "]"
)

PROPAGATION = propagation_to_doc(zero_propagation_certificate(VeroneseContext(2, 3)))


def only_library_errors(fn, *args):
    try:
        fn(*args)
    except VeroneseError:
        pass


def mutated(doc, data):
    """A copy of doc with one entry of the document, of its step list or of
    one step replaced or deleted."""
    doc = json.loads(json.dumps(doc))
    holders = [doc, doc["steps"], *(s for s in doc["steps"] if isinstance(s, dict))]
    holder = data.draw(st.sampled_from(holders))
    key = data.draw(st.sampled_from(sorted(holder) if isinstance(holder, dict) else range(len(holder))))
    if isinstance(holder, dict) and data.draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = data.draw(json_values | coordinate_texts | binomial_texts)
    return doc


class TestTextParsers:
    @given(st.text() | coordinate_texts | anything)
    def test_coordinate_name(self, text):
        only_library_errors(parse_coordinate_name, text)

    @given(st.text() | binomial_texts | anything)
    def test_binomial(self, text):
        only_library_errors(parse_binomial, text)

    @given(st.sampled_from([QQ, F7]), st.text() | point_texts | anything)
    def test_point(self, field, text):
        only_library_errors(parse_point, field, text)

    @given(st.sampled_from([QQ, F7]), exponent_points | point_texts | st.text())
    def test_parsed_point_formats(self, field, text):
        try:
            format_point(parse_point(field, text))
        except (ContractError, InvalidPointError):
            pass


class TestDocumentParsers:
    @given(anything)
    def test_arbitrary_json(self, doc):
        only_library_errors(propagation_from_doc, doc)

    @given(st.data())
    def test_propagation_one_field_changed(self, data):
        only_library_errors(propagation_from_doc, mutated(PROPAGATION, data))


class TestRegressions:
    @pytest.mark.parametrize("text", [5, None, b"z_{1,0}", "z_{" + "1" * 5000 + ",0}"],
                             ids=["int", "none", "bytes", "5000-digits"])
    def test_coordinate_name_rejects(self, text):
        with pytest.raises(ContractError, match="^not a coordinate name"):
            parse_coordinate_name(text)

    @pytest.mark.parametrize("text", [5, None, "z_{" + "1" * 5000 + "} z_{1} - z_{1}^2"],
                             ids=["int", "none", "5000-digits"])
    def test_binomial_rejects(self, text):
        with pytest.raises(ContractError):
            parse_binomial(text)

    @pytest.mark.parametrize("field", [QQ, F7], ids=["rational", "fp7"])
    def test_point_rejects_non_text(self, field):
        with pytest.raises(ContractError, match="^point must be bracketed"):
            parse_point(field, 5)

    @pytest.mark.parametrize("text", ["[1e10000000 : 1]", "[1 : 5e-10000000]", "[1.5e4300 : 1]"])
    def test_point_refuses_long_expansion_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(ContractError, match="expands to more than 4300 digits"):
            parse_point(QQ, text)
        assert time.perf_counter() - start < 1.0

    def test_point_too_long_to_print(self):
        with pytest.raises(ContractError, match="^rational too long to print"):
            QQ.format_scalar(QQ.parse_scalar("1e2000") ** 3)

    @pytest.mark.parametrize("doc", [
        {**PROPAGATION, "n": float("inf")},
        {**PROPAGATION, "steps": [{**PROPAGATION["steps"][0], "target": 5}]},
        {**PROPAGATION, "steps": [{**PROPAGATION["steps"][0], "prerequisites": [3]}]},
        {**PROPAGATION, "d": 3.0},
        {**PROPAGATION, "d": "3"},
        {**PROPAGATION, "d": True},
        {**PROPAGATION, "n": True},
        {**PROPAGATION, "schema_version": 99},
        {**PROPAGATION, "schema_version": True},
        {**PROPAGATION, "kind": "nonsense"},
        {key: value for key, value in PROPAGATION.items() if key != "kind"},
    ], ids=["n-inf", "target-int", "prerequisite-int", "d-float", "d-text", "d-true", "n-true",
            "schema-99", "schema-true", "kind-nonsense", "kind-missing"])
    def test_document_rejects(self, doc):
        with pytest.raises(ContractError):
            propagation_from_doc(doc)

    @pytest.mark.parametrize("content", [
        json.dumps({**PROPAGATION, "n": float("inf")}),
        json.dumps({**PROPAGATION, "steps": [{**PROPAGATION["steps"][0], "minor": 0}]}),
        b"\xff\xfe not utf-8",
        # each of these loaded as the (2, 3) certificate and passed
        json.dumps({**PROPAGATION, "d": 3.7}),
        json.dumps({**PROPAGATION, "d": "3"}),
        json.dumps({**PROPAGATION, "schema_version": 99, "kind": "nonsense"}),
    ], ids=["n-inf", "minor-int", "not-utf-8", "d-float", "d-text", "foreign-schema"])
    def test_cli_certificate_file_is_usage_error(self, capsys, tmp_path, content):
        cert_file = tmp_path / "cascade.json"
        if isinstance(content, bytes):
            cert_file.write_bytes(content)
        else:
            cert_file.write_text(content)
        code = main(["verify", "--n", "2", "--d", "3", "--propagation-cert", str(cert_file)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_cli_certificate_past_the_digit_limit(self, capsys, tmp_path):
        # json.load raises a plain ValueError, no JSONDecodeError, for an int
        # literal past the interpreter's 4,300-digit conversion limit
        cert_file = tmp_path / "cascade.json"
        cert_file.write_text(json.dumps({**PROPAGATION, "n": 0}).replace('"n": 0', '"n": ' + "9" * 5001))
        code = main(["verify", "--n", "2", "--d", "3", "--propagation-cert", str(cert_file)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: malformed certificate document: an integer has more "
                                "digits than the interpreter converts\n")
