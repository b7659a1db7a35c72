"""Byte-identity corpus for the command line.

golden_cli.json holds command lines with the exit code, stdout and stderr
that cli.main gave for each.  Every line is replayed in process and must
give the same bytes, which pins the output contract: JSON documents with
schema_version 1 and sorted keys, the text layouts, the error messages and
the exit codes 0/1/2/3.  No line makes argparse print, because argparse
words its usage and errors differently across Python versions.  The first
line of each subcommand, and the first that exits with 3 and with 2, are
also replayed through `python -m veronese.cli` in a fresh process, where a
mistake that only shows at import time cannot hide behind modules the
warm interpreter already holds.

After a deliberate output change, rewrite the recorded outputs with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff of golden_cli.json.  To add a line, append an entry
holding only its "argv" and rewrite.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import veronese
from veronese.cli import _HANDLERS, build_parser, main

CORPUS = Path(__file__).with_name("golden_cli.json")
SRC = str(Path(veronese.__file__).resolve().parent.parent)


def replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", load(), ids=lambda case: " ".join(case["argv"]))
def test_same_bytes(case):
    assert replay(case["argv"]) == case


def fresh_cases() -> list[dict]:
    cases = load()
    commands = dict.fromkeys(case["argv"][0] for case in cases)
    return [next(case for case in cases if case["argv"][0] == command) for command in commands] + [
        next(case for case in cases if case["exit"] == code) for code in (3, 2)
    ]


@pytest.mark.parametrize("case", fresh_cases(), ids=lambda case: " ".join(case["argv"]))
def test_same_bytes_in_a_fresh_process(case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-m", "veronese.cli", *case["argv"]], capture_output=True, env=env
    )
    assert {
        "argv": case["argv"],
        "exit": out.returncode,
        "stdout": out.stdout.decode(),
        "stderr": out.stderr.decode(),
    } == case


def test_corpus_covers_every_subcommand_and_exit_code():
    cases = load()
    assert {case["argv"][0] for case in cases} == set(_HANDLERS)
    assert {case["exit"] for case in cases} == {0, 1, 2, 3}
    for command in _HANDLERS:
        formats = {"json" if "json" in case["argv"] else "text" for case in cases if case["argv"][0] == command}
        assert formats == {"text", "json"}, command


def parsed(parser, argv: list[str]):
    """The namespace parser.parse_args(argv) gives, or its SystemExit code,
    with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


# the corpus, which never makes argparse print, and lines that make it print
# help, usage errors and invalid-choice messages
PARSER_ARGVS = [case["argv"] for case in load()] + [
    [], ["-h"], ["--help"], ["nope"], ["--n", "1", "minors"],
    *([command, "-h"] for command in _HANDLERS),
    ["minors"], ["minors", "--n", "1", "--d", "2", "--bogus"], ["eval", "--n", "x", "--d", "1", "[1]"],
    ["matrix", "--n", "1", "--d", "2", "--field", "fp:3"], ["oracle", "--n", "1", "--d", "2", "--workers"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "<empty>")
def test_one_subcommand_parser_parses_alike(argv):
    # main builds only the subcommand its argv leads with; any other argv
    # gets the same result from a parser built for any subcommand
    commands = [argv[0]] if argv and argv[0] in _HANDLERS else list(_HANDLERS)
    full = parsed(build_parser(), argv)
    for command in commands:
        assert parsed(build_parser(command), argv) == full


if __name__ == "__main__":
    # one case per line, so a diff names the command lines that changed
    lines = (json.dumps(replay(case["argv"]), sort_keys=True) for case in load())
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
