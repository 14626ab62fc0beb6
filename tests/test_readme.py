"""The README's library example runs as written, the README and the
``cli`` docstring name only the options the parser has, the README's
trace example has the fields ``trace_to_json`` writes, the names the
README and the package's docstrings refer to exist, and the package
defines nothing that only the tests use."""

from __future__ import annotations

import argparse
import ast
import builtins
import importlib
import json
import re
from pathlib import Path

import alcsat
from alcsat import cli
from alcsat.engine import TRACE_FORMAT, Strategy, decide_sat, trace_to_json
from alcsat.normal_form import to_cnf
from alcsat.syntax import parse_concept

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = Path(alcsat.__file__).resolve().parent
MODULES = ("syntax", "normal_form", "clause_model", "engine", "oracle", "tableau", "harness", "cli")


def _library_example() -> str:
    """The first Python block under the README's *Library* heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "no python block under ## Library"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.split() == ["True", "Strategy.PLUS", "2"]


def _flags_by_command(lines) -> dict[str, set[str]]:
    """The ``--flags`` each ``alcsat COMMAND ...`` line names, with the
    indented lines that continue it."""
    flags: dict[str, set[str]] = {}
    command = None
    for line in lines:
        match = re.match(r"\s*alcsat ([a-z-]+)", line)
        if match:
            command = match.group(1)
            flags.setdefault(command, set())
        elif not line.startswith(" " * 8):
            command = None
        if command is not None:
            flags[command] |= set(re.findall(r"--[a-z][a-z-]*", line.split("#", 1)[0]))
    return flags


def _parser_options() -> dict[str, set[str]]:
    """Each subcommand's option strings in ``cli.build_parser()``."""
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }


def test_cli_synopsis_and_readme_name_the_parser_options():
    options = _parser_options()
    synopsis = cli.__doc__.split("Subcommands::\n\n", 1)[1].split("\n\n", 1)[0]
    documented = _flags_by_command(synopsis.splitlines())
    assert documented == options
    readme = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", readme, re.DOTALL).group(1)
    for command, flags in _flags_by_command(block.splitlines()).items():
        assert flags <= options[command], (command, flags - options[command])


def test_readme_trace_example_has_the_fields_trace_to_json_writes():
    section = README.read_text(encoding="utf-8").split("\n### Traces\n", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    example = json.loads(block.replace(", ...", ""))  # elided entries
    verdict = decide_sat(to_cnf(parse_concept("A | B")), Strategy.PLUS)
    assert list(example) == list(trace_to_json(verdict, Strategy.PLUS))
    assert example["format"] == TRACE_FORMAT


def _lookup(obj: object, dotted: str) -> bool:
    """Whether ``dotted`` names an attribute chain of ``obj``."""
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _resolves(module, role: str, target: str) -> bool:
    """Whether the Sphinx reference ``:role:`target``` in ``module``
    names something that exists: a name of the module, a builtin, a
    name under ``alcsat``, or for ``meth`` a method of one of the
    module's classes."""
    target = target.lstrip("~")
    if target.startswith("alcsat."):
        return _lookup(alcsat, target[len("alcsat."):])
    if _lookup(module, target) or _lookup(builtins, target):
        return True
    classes = [c for c in vars(module).values() if isinstance(c, type)]
    return role == "meth" and any(_lookup(c, target) for c in classes)


def test_doc_references_name_what_exists():
    engine = importlib.import_module("alcsat.engine")
    assert _resolves(engine, "class", "ValueError")
    assert not _resolves(engine, "func", "is_complete")  # a name engine does not define
    stale = []
    readme = README.read_text(encoding="utf-8")
    pattern = rf"`({'|'.join(MODULES)})\.([A-Za-z_][\w.]*)`"
    for name, attr in re.findall(pattern, readme):
        if not _lookup(importlib.import_module(f"alcsat.{name}"), attr):
            stale.append(f"README.md: {name}.{attr}")
    checked = 0
    for path in sorted(PACKAGE.glob("*.py")):
        name = "alcsat" if path.stem == "__init__" else f"alcsat.{path.stem}"
        module = importlib.import_module(name)
        for role, target in re.findall(r":(func|class|data|meth):`([^`]+)`", path.read_text()):
            checked += 1
            if not _resolves(module, role, target):
                stale.append(f"{path.name}: :{role}:`{target}`")
    assert checked > 50
    assert stale == []


def _names_used(node: ast.AST) -> set[str]:
    """The names ``node`` refers to: its ``Name`` ids, ``Attribute``
    attributes and imported names."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name.rsplit(".", 1)[-1])
    return used


def test_src_holds_no_test_only_code():
    """Every top-level function and class of the package is referred to
    from outside its own definition by the package (not its
    ``__init__``), ``scripts/`` or ``bench/``, or the README names it as
    ``module.name``.  Code that only the tests call belongs in them."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    statements = [
        (path, stmt)
        for path in sorted(paths)
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    users: dict[str, set[int]] = {}  # name -> the statements that refer to it
    for i, (_, stmt) in enumerate(statements):
        for name in _names_used(stmt):
            users.setdefault(name, set()).add(i)
    named = set(re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8")))
    unused = [
        f"{path.stem}.{stmt.name}"
        for i, (path, stmt) in enumerate(statements)
        if path.parent == PACKAGE
        and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not users.get(stmt.name, set()) - {i}
        and (path.stem, stmt.name) not in named
    ]
    assert unused == []
