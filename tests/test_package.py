"""The package namespace and the modules each entry point imports.

`import veronese` loads no submodule; a public name imports its home
module on first access.  The boundary tests run in a fresh interpreter
and read sys.modules, so they pin which modules a command loads, not how
long loading takes.
"""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import veronese

SRC = str(Path(veronese.__file__).resolve().parent.parent)


def fresh(code: str):
    """Run code in a new interpreter that can import the package; returns
    the JSON it prints on its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


SUBMODULES = ("errors", "multiindex", "matrix", "projective", "morphism", "certificates",
              "oracle", "cli")

LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'veronese')"


def loaded_by(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of cli.main(argv) and the veronese modules it loaded."""
    exit_code, modules = fresh(
        "import contextlib, io, json, sys\n"
        "from veronese.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(json.dumps([code, {LOADED}]))\n"
    )
    return exit_code, set(modules)


class TestImportBoundaries:
    def test_bare_import_loads_no_submodule(self):
        assert fresh(f"import json, sys\nimport veronese\nprint(json.dumps({LOADED}))") == ["veronese"]

    @pytest.mark.parametrize("argv", [
        ["member", "--n", "1", "--d", "3", "[1 : 2 : 4 : 8]"],
        ["invert", "--n", "1", "--d", "3", "[1 : 2 : 4 : 8]"],
        ["eval", "--n", "1", "--d", "3", "[1 : 2]"],
        ["minors", "--n", "2", "--d", "2"],
        ["matrix", "--n", "2", "--d", "2"],
    ])
    def test_point_commands_load_neither_certificates_nor_oracle(self, argv):
        exit_code, modules = loaded_by(argv)
        assert exit_code == 0
        assert "veronese.cli" in modules
        assert not modules & {"veronese.certificates", "veronese.oracle"}

    def test_oracle_does_not_load_certificates(self):
        exit_code, modules = loaded_by(["oracle", "--n", "1", "--d", "2", "--field", "fp:3"])
        assert exit_code == 0
        assert "veronese.oracle" in modules
        assert "veronese.certificates" not in modules

    def test_verify_does_not_load_oracle(self):
        exit_code, modules = loaded_by(["verify", "--n", "1", "--d", "2"])
        assert exit_code == 0
        assert "veronese.certificates" in modules
        assert "veronese.oracle" not in modules

    def test_submodules_resolve_after_bare_import(self):
        code = (
            "import json, veronese\n"
            "print(json.dumps([callable(veronese.matrix.cached_minors),"
            " callable(veronese.morphism._minor_table),"
            f" [getattr(veronese, m).__name__ for m in {SUBMODULES!r}]]))"
        )
        assert fresh(code) == [True, True, [f"veronese.{m}" for m in SUBMODULES]]

    def test_dir_of_a_bare_import_lists_every_name(self):
        listing = fresh("import json, veronese\nprint(json.dumps(dir(veronese)))")
        assert set(veronese.__all__) | set(SUBMODULES) <= set(listing)


# the standard library modules cli imports, directly or through fractions
CLI_STDLIB = "argparse, contextlib, fractions, io, json, random, re"


def added_to_stdlib(statement: str) -> set[str]:
    """The modules that statement adds, in a fresh interpreter, to those
    loaded by the standard library modules cli imports."""
    return set(fresh(
        f"import sys\nimport {CLI_STDLIB}\n"
        "baseline = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - baseline)))\n"
    ))


class TestNoDataclasses:
    """The value classes are written without dataclasses, whose import
    loads inspect: no command may load either."""

    def test_bare_import(self):
        added = added_to_stdlib("import veronese")
        assert "veronese" in added
        assert not added & {"dataclasses", "inspect"}

    @pytest.mark.parametrize("argv", [
        ["matrix", "--n", "2", "--d", "2"],
        ["minors", "--n", "2", "--d", "2"],
        ["eval", "--n", "1", "--d", "3", "--field", "fp:7", "[1 : 2]"],
        ["member", "--n", "1", "--d", "3", "[1 : 2 : 4 : 8]"],
        ["invert", "--n", "1", "--d", "3", "[1 : 2 : 4 : 8]"],
        ["verify", "--n", "2", "--d", "2"],
        ["oracle", "--n", "1", "--d", "2", "--field", "fp:3"],
    ], ids=lambda argv: argv[0])
    def test_commands(self, argv):
        added = added_to_stdlib(
            "from veronese.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0"
        )
        assert "veronese.cli" in added
        assert not added & {"dataclasses", "inspect"}


class TestPublicNames:
    def test_every_name_is_its_home_module_object(self):
        assert len(veronese.__all__) == len(set(veronese.__all__))
        for name in veronese.__all__:
            home = import_module(f"veronese.{veronese._HOME[name]}")
            assert getattr(veronese, name) is getattr(home, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from veronese import *", namespace)
        for name in veronese.__all__:
            assert namespace[name] is getattr(veronese, name), name

    def test_first_access_caches_the_value(self):
        value = veronese.toric_quadrics
        assert vars(veronese)["toric_quadrics"] is value

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            veronese.no_such_name
        assert not hasattr(veronese, "cached_minors")

    def test_default_budget_resolves_from_the_package(self):
        from veronese import cli, matrix, oracle

        assert veronese.DEFAULT_BUDGET == 5_000_000
        assert veronese.DEFAULT_BUDGET is matrix.DEFAULT_BUDGET is oracle.DEFAULT_BUDGET
        assert cli.build_parser().parse_args(["matrix", "--n", "1", "--d", "1"]).budget == 5_000_000


# every functools cache in the package, by home module and name.  The
# tables-cold benchmark clears the caches it knows by name before each
# build; a new per-context cache on the table path would make later builds
# warm, and the benchmark would read that as a speed-up.
PINNED_CACHES = {
    "multiindex.enumerate_monomials", "multiindex.coordinate_index",
    "matrix.cached_matrix", "matrix.cached_minors",
    "morphism._minor_quads", "morphism._minor_table", "morphism._index_grid",
    "morphism.chart_indices",
}

# the names bench/workloads.py clears, as attribute paths from the package
BENCH_CLEARED = ("enumerate_monomials", "matrix.cached_matrix", "matrix.cached_minors",
                 "morphism.coordinate_index", "morphism._minor_table")


class TestCaches:
    def test_module_level_caches_are_pinned(self):
        from functools import _lru_cache_wrapper

        found = set()
        for name in SUBMODULES:
            module = import_module(f"veronese.{name}")
            found |= {f"{name}.{attr}" for attr, value in vars(module).items()
                      if isinstance(value, _lru_cache_wrapper) and value.__module__ == module.__name__}
        assert found == PINNED_CACHES

    def test_no_cache_outside_module_level(self):
        # a decorator on a method or nested function escapes the scan above
        import re

        pattern = re.compile(r"^\s*@(?:functools\.)?(?:lru_cache|cache)\b", re.M)
        package = Path(veronese.__file__).resolve().parent
        uses = sum(len(pattern.findall(f.read_text(encoding="utf-8"))) for f in package.glob("*.py"))
        assert uses == len(PINNED_CACHES)

    @pytest.mark.parametrize("path", BENCH_CLEARED)
    def test_benchmark_cache_names_resolve(self, path):
        target = veronese
        for attr in path.split("."):
            target = getattr(target, attr)
        target.cache_clear()
        assert target.cache_info().currsize == 0


# the parameters bench/tracer.py's hooks read, by name, from the bound
# arguments of each call they wrap
TRACER_BINDS = {
    "oracle.vanishing_set": ("ctx", "q", "binomials", "budget"),
    "morphism.failing_minor": ("ctx", "Q"),
    "morphism.is_on_variety": ("ctx", "Q"),
    "matrix.minors2": ("matrix",),
}


def names_used(files) -> set[str]:
    """The names the files use in code: Name, Attribute and import alias
    nodes, so a docstring or comment that mentions a name does not count."""
    used = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


class TestTooling:
    def test_every_public_name_is_used_outside_the_tests(self):
        # a public name that only tests call is surface to delete
        root = Path(SRC).parent
        package = Path(veronese.__file__).resolve().parent
        files = [f for f in package.glob("*.py") if f.name != "__init__.py"]
        files += [*(root / "bench").glob("*.py"), *(root / "demos").glob("*.py")]
        assert sorted(set(veronese.__all__) - names_used(files)) == []

    @pytest.mark.parametrize("path,names", TRACER_BINDS.items(), ids=list(TRACER_BINDS))
    def test_tracer_bound_parameters_exist(self, path, names):
        module, name = path.split(".")
        parameters = inspect.signature(getattr(import_module(f"veronese.{module}"), name)).parameters
        assert set(names) <= set(parameters)

    def test_ci_installs_the_declared_test_dependencies(self):
        # both files read as text: Python 3.10 has no tomllib
        root = Path(SRC).parent
        workflow = (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
        tier1 = workflow[workflow.index("\n  tier1:"):workflow.index("\n  bench-smoke:")]
        installed = re.search(r"- name: Install test dependencies\n\s+run: python -m pip install (.+)\n", tier1)
        pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
        section = pyproject[pyproject.index("[project.optional-dependencies]\n"):]
        declared = re.search(r"^test = \[(.*)\]$", section, re.M)
        assert installed and declared
        assert installed.group(1).split() == re.findall(r'"([^"]+)"', declared.group(1))

    def test_console_script_resolves_to_a_callable(self):
        pyproject = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
        section = pyproject[pyproject.index("[project.scripts]\n"):]
        entry = re.search(r'^veronese = "([\w.]+):(\w+)"$', section, re.M)
        assert entry
        assert callable(getattr(import_module(entry.group(1)), entry.group(2)))
