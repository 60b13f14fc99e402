"""Every import in the package and the tests is used, every module-level
definition and method in the package is referenced outside the tests, every attribute
the package sets on ``self`` is read somewhere, and every command-line
option and defaulted library parameter is set somewhere outside the tests.

``__init__.py`` is left out of the import and definition scans: its
table of public names, each mapped to the module it is imported from on
first use, is the package's API. Those names do not count as references,
and neither does a reference from a test, since a function that only tests
call is code the program does not run. The dotted names the benchmark in
``perfbench/`` looks functions up by do count.
"""

import argparse
import ast
import functools
import importlib
import math
import os
import re
import shlex
import subprocess
import sys

import pytest

import qtokens
from qtokens.cli import build_parser

PACKAGE_DIR = os.path.dirname(qtokens.__file__)
TESTS_DIR = os.path.dirname(__file__)
REPO_DIR = os.path.dirname(TESTS_DIR)
# Where a package definition may be referenced from; perfbench/ is only read.
REFERENCE_DIRS = (os.path.dirname(PACKAGE_DIR), TESTS_DIR, os.path.join(REPO_DIR, "perfbench"))


def _modules():
    for directory in (PACKAGE_DIR, TESTS_DIR):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(directory, name)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced after."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


# What importing each module loads and leaves out; a name ending in "."
# stands for every module under it. ``import qtokens`` loads a module only
# when one of its names is used, and the scalar law needs no numpy. The CLI
# leaves out the fit, the report and the external client, which only their
# own commands run, and ``decimal`` (through ``fractions``), which costs
# every run about 3 ms and 0.3 MB: ``sample_fraction`` takes its exact size
# from the digits of the fraction instead. It keeps numpy and the corpus
# commands' modules, since loading them later only moves their cost into
# the first command.
IMPORT_WEIGHT = [
    ("qtokens", (), ("qtokens.", "numpy")),
    ("qtokens.scaling_law", (), ("numpy",)),
    ("qtokens.cli", ("numpy", "qtokens.diversity", "qtokens.refine", "qtokens.syntheticity"),
     ("qtokens.fitting", "qtokens.fixtures", "qtokens.report", "qtokens.external", "socket",
      "subprocess", "select", "shlex", "fcntl", "decimal", "fractions")),
    ("qtokens.syntheticity", (), ("socket", "subprocess")),
]


@pytest.mark.parametrize("module, kept, left_out", IMPORT_WEIGHT,
                         ids=[m for m, *_ in IMPORT_WEIGHT])
def test_import_loads_only_what_it_runs(module, kept, left_out):
    code = f"import sys, {module}; print(*sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, check=True)
    loaded = result.stdout.split()
    assert [name for name in kept if name not in loaded] == []
    assert [name for name in loaded if name in left_out
            or name.startswith(tuple(n for n in left_out if n.endswith(".")))] == []


def test_every_public_name_is_its_modules_object():
    for name in qtokens.__all__:
        module = importlib.import_module(f"qtokens.{qtokens._MODULE_OF[name]}")
        value = getattr(qtokens, name)
        assert value is vars(module)[name]
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_an_unknown_public_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'qtokens' has no attribute 'nothing'$"):
        qtokens.nothing


def test_dir_lists_the_public_names():
    assert set(qtokens.__all__) <= set(dir(qtokens))


def test_scan_finds_an_unused_import():
    source = "import json\nimport os\nfrom math import exp, log\nprint(os.sep, exp(1))\n"
    assert unused_imports(source) == ["json (line 1)", "log (line 3)"]


@pytest.mark.parametrize(
    "path", list(_modules()), ids=lambda p: os.path.relpath(p, os.path.dirname(TESTS_DIR))
)
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def plain_unique_calls(source: str) -> list[int]:
    """Lines of ``np.unique`` calls that ask for no index, inverse or counts.

    On numpy 2.3 and later such a call takes a hash path that is very slow
    on mostly distinct keys, and ``sorted=True`` does not avoid it: on 1M
    random int64 keys it is about 50 times slower than ``np.sort`` and a
    neighbour mask, which give the same values."""
    wanted = {"return_index", "return_inverse", "return_counts"}
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and getattr(node.func.value, "id", None) in ("np", "numpy")
        and not wanted & {k.arg for k in node.keywords}
    ]


def test_scan_finds_a_plain_unique():
    source = (
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b, c = np.unique(x, return_inverse=True)\n"
        "d = np.unique(x, sorted=True)\n"
    )
    assert plain_unique_calls(source) == [2, 4]


@pytest.mark.parametrize(
    "path",
    [os.path.join(PACKAGE_DIR, n) for n in sorted(os.listdir(PACKAGE_DIR)) if n.endswith(".py")],
    ids=lambda p: os.path.relpath(p, REPO_DIR),
)
def test_no_plain_unique(path):
    with open(path, encoding="utf-8") as fh:
        assert plain_unique_calls(fh.read()) == []


_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def _definitions(tree: ast.Module) -> list[tuple[str, int, int]]:
    """Module-level functions, classes and constants, and the methods of
    module-level classes as ``Class.method``: (name, first line, last line)."""
    found = []

    def add(node, names, prefix=""):
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        found.extend((prefix + name, first, node.end_lineno)
                     for name in names if not name.startswith("__"))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            add(node, [node.name])
        elif isinstance(node, ast.Assign):
            add(node, [t.id for t in node.targets if isinstance(t, ast.Name)])
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            add(node, [node.target.id])
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(method, [method.name], f"{node.name}.")
    return found


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """Every name read, attribute read, imported name, and each part of a
    string that is a (dotted) identifier, such as ``"refine.select_by_weight"``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            found += [(part, node.lineno) for part in node.name.split(".")]
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _DOTTED_NAME.match(node.value)
        ):
            found += [(part, node.lineno) for part in node.value.split(".")]
    return found


def dead_definitions(sources: dict[str, str], path: str) -> list[str]:
    """Module-level definitions and methods in ``sources[path]`` that no
    source in ``sources`` references outside the definition itself. A method
    counts as referenced where its name is, whatever object it is read on."""
    trees = {p: ast.parse(text) for p, text in sources.items()}
    elsewhere = {
        name for p, tree in trees.items()
        if p != path and os.path.basename(p) != "__init__.py"
        for name, _ in _references(tree)
    }
    here = _references(trees[path])
    return [
        f"{shown} (line {first})"
        for shown, first, last in _definitions(trees[path])
        for name in [shown.rpartition(".")[2]]
        if name not in elsewhere
        and not any(ref == name and not first <= line <= last for ref, line in here)
    ]


@functools.lru_cache(maxsize=1)
def _reference_sources() -> dict[str, str]:
    sources = {}
    for directory in REFERENCE_DIRS:
        for root, _, names in os.walk(directory):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    with open(path, encoding="utf-8") as fh:
                        sources[path] = fh.read()
    return sources


def test_scan_finds_a_dead_definition():
    module = (
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "def used():\n"
        "    return LIMIT\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "class Ghost:\n"
        "    pass\n"
        "def by_name():\n"
        "    pass\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def opened(self):\n"
        "        return self.shut()\n"
        "    def shut(self):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def made(cls):\n"
        "        return cls()\n"
    )
    caller = "from mod import Box, used\nprint(used(), 'Ghost is a word', 'mod.by_name')\n"
    caller += "Box().opened()\n"
    # A dunder runs without being named; a method called from another one is used.
    assert dead_definitions({"mod.py": module, "caller.py": caller}, "mod.py") == [
        "UNUSED (line 2)", "recursive (line 5)", "Ghost (line 7)", "Box.made (line 18)",
    ]


def test_scan_does_not_count_a_reexport_as_a_use():
    module = "def exported():\n    pass\ndef called():\n    pass\n"
    sources = {"mod.py": module, "pkg/__init__.py": "from mod import called, exported\n",
               "caller.py": "from pkg import called\ncalled()\n"}
    assert dead_definitions(sources, "mod.py") == ["exported (line 1)"]


PACKAGE_MODULES = [path for path in _modules() if path.startswith(PACKAGE_DIR)]


def _program_sources() -> dict[str, str]:
    return {p: text for p, text in _reference_sources().items() if not p.startswith(TESTS_DIR)}


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: os.path.relpath(p, REPO_DIR))
def test_no_dead_definitions(path):
    assert dead_definitions(_program_sources(), path) == []


def unread_attributes(sources: dict[str, str], paths: list[str]) -> list[str]:
    """``Class.attribute`` for each attribute that a class in one of
    ``paths`` assigns on ``self`` and no source in ``sources`` reads, either
    as an attribute or as a (dotted) identifier string such as ``getattr``
    takes. A local variable of the same name is not a read."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _DOTTED_NAME.match(node.value)
            ):
                read.update(node.value.split("."))
    found = []
    for cls in (node for path in paths for node in ast.walk(trees[path])):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr not in read
                ):
                    found.append(f"{cls.name}.{node.attr} (line {node.lineno})")
    return found


def test_scan_finds_an_unread_attribute():
    module = (
        "class Box:\n"
        "    def __init__(self, size, label):\n"
        "        self.size = size\n"
        "        self.label = label\n"
        "        self.kind = 'box'\n"
        "        self.count = 0\n"
        "    def grow(self):\n"
        "        self.count += 1\n"
        "        return self.size\n"
    )
    caller = "label = 'x'\nprint(label, getattr(Box(1, label), 'kind', None))\n"
    # A counter that is only ever incremented is not read either.
    assert unread_attributes({"mod.py": module, "caller.py": caller}, ["mod.py"]) == [
        "Box.label (line 4)", "Box.count (line 6)", "Box.count (line 8)",
    ]


def test_no_unread_attributes():
    sources = _reference_sources()
    package = [path for path in sources if os.path.dirname(path) == PACKAGE_DIR]
    assert unread_attributes(sources, package) == []


def _option_strings(parser: argparse.ArgumentParser):
    """(command, option string) for ``parser`` and its subcommands, without -h/--help."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                yield from _option_strings(subparser)
        elif not isinstance(action, argparse._HelpAction):
            yield from ((parser.prog, option) for option in action.option_strings)


def _options_given(parser: argparse.ArgumentParser, words) -> set[tuple[str, str]]:
    """(command, option string) for each option in the command-line ``words``
    that follow the program name: an option after a subcommand's name is that
    subcommand's, one before it the program's."""
    subcommands = next(a.choices for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
    command, given = parser.prog, set()
    for word in words:
        if command == parser.prog and word in subcommands:
            command = subcommands[word].prog
        elif word.startswith("-"):
            given.add((command, word.split("=")[0]))
    return given


def unset_options(parser: argparse.ArgumentParser, shell: str, python: list[str]) -> list[str]:
    """``command option`` for each option of ``parser`` that no command line
    sets: a ``qtokens`` line of the shell text ``shell``, or a list of string
    literals in one of the ``python`` sources, such as a ``cli.main`` argv."""
    given = set()
    for line in shell.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if parser.prog in words:
            given |= _options_given(parser, words[words.index(parser.prog) + 1:])
    for source in python:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.List):
                words = [e.value for e in node.elts
                         if isinstance(e, ast.Constant) and isinstance(e.value, str)]
                given |= _options_given(parser, words)
    return [f"{command} {option}" for command, option in _option_strings(parser)
            if (command, option) not in given]


def test_option_scan_keys_on_the_subcommand():
    parser = argparse.ArgumentParser(prog="qtokens")
    parser.add_argument("--seed")
    sub = parser.add_subparsers()
    for name in ("score", "select", "dedup"):
        sub.add_parser(name).add_argument("--mode")
    shell = "pip install qtokens\nqtokens --seed 1 score in.jsonl \\\n    --mode x  # --mode y\n"
    python = ['cli.main(["select", path, "--mode=y"])\nrun(["dedup", "--out", out])\n']
    # Only dedup's --mode is unset, though "--mode" is in every line.
    assert unset_options(parser, shell, python) == ["qtokens dedup --mode"]


# Options that no README example or benchmark job sets, and why each stays an option.
TEST_ONLY_OPTIONS = (
    ("qtokens --tokenizer", "the token unit depends on the data, such as byte tokens for "
                            "text without spaces; a test dedups such text"),
    ("qtokens fit --quality", "experiment results may keep Dr and S in a separate table, "
                              "as the fixture's two tables do; tests fit such a pair"),
    ("qtokens fit --init", "a fit far from the default start needs its own initial "
                           "constants; tests recover synthetic truths that way"),
)


def _sets(option: str, text: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text) is not None


def _texts(directory: str) -> str:
    texts = []
    for root, _, names in os.walk(directory):
        for name in sorted(names):
            path = os.path.join(root, name)
            if name.endswith((".py", ".md")) and path != os.path.abspath(__file__):
                with open(path, encoding="utf-8") as fh:
                    texts.append(fh.read())
    return "\n".join(texts)


def test_every_cli_option_is_set_somewhere():
    """An option that no README example or benchmark job sets, on its own
    subcommand's command line, is a setting with one value in use; it
    belongs in the code as a constant. Tests do not count, since a test may
    set any option it checks; the few that only tests set are listed with
    their reasons, and a test must set them."""
    with open(os.path.join(REPO_DIR, "README.md"), encoding="utf-8") as fh:
        shell = "\n".join(re.findall(r"^```bash\n(.*?)^```", fh.read(), re.M | re.S))
    perfbench = [text for path, text in _reference_sources().items()
                 if path.startswith(os.path.join(REPO_DIR, "perfbench"))]
    unset = unset_options(build_parser(), shell, perfbench)
    assert sorted(unset) == sorted(name for name, _ in TEST_ONLY_OPTIONS)
    tests = _texts(TESTS_DIR)
    assert [name for name, _ in TEST_ONLY_OPTIONS if not _sets(name.split()[-1], tests)] == []


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee, parameter, positional index or None) of every parameter with
    a default. A method's callee is its name, ``__init__``'s its class's;
    ``self`` and ``cls`` take no index."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                if owner is not None and not static:
                    positional = positional[1:]
                callee = owner if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                found.extend((callee, a.arg, i) for i, a in enumerate(positional) if i >= first)
                found.extend((callee, a.arg, None)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            visit(child, None)

    visit(tree, None)
    return found


def _name(node: ast.expr) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _calls(tree: ast.Module) -> list[tuple[str, float, set]]:
    """(callee, positional argument count, keyword names) of every call.
    ``cls(...)`` inside a class calls that class; a ``*`` argument counts
    as every positional argument, and ``**`` gives the keyword name None.
    ``add_argument(..., type=f)`` also calls ``f`` with one argument, the
    command-line string."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = _name(child.func)
                if callee == "cls" and owner is not None:
                    callee = owner
                starred = any(isinstance(a, ast.Starred) for a in child.args)
                found.append((callee, math.inf if starred else len(child.args),
                              {k.arg for k in child.keywords}))
                found.extend((_name(k.value), 1, set()) for k in child.keywords
                             if callee == "add_argument" and k.arg == "type")
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(tree, None)
    return found


def unpassed_parameters(definitions: str, callers: list[str]) -> list[str]:
    """``callee(parameter)`` for each defaulted parameter in ``definitions``
    that no call in ``callers`` passes, by position or by keyword."""
    calls = [c for source in callers for c in _calls(ast.parse(source))]
    return [
        f"{callee}({param})"
        for callee, param, index in _defaulted_parameters(ast.parse(definitions))
        if not any(
            name == callee and (param in keywords or None in keywords
                                or index is not None and index < count)
            for name, count, keywords in calls
        )
    ]


def test_scan_finds_an_unpassed_parameter():
    module = (
        "def f(a, b=1, c=2, *, d=3):\n"
        "    pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def make(cls, z=0):\n"
        "        return cls(y=z)\n"
        "    def m(self, w=0):\n"
        "        pass\n"
    )
    caller = "f(0, 1)\nf(*args)\nK.make()\nK().m(1)\n"
    assert unpassed_parameters(module, [module, caller]) == ["f(d)", "K(x)", "make(z)"]
    assert unpassed_parameters(module, [module, caller, "f(**kw)\nK.make(2)"]) == ["K(x)"]
    # An argparse type is called with the option's string; other keywords are not calls.
    parser = "p.add_argument('--k', type=K, default='0')\np.add_argument('--m', action=m)\n"
    assert unpassed_parameters(module, [module, caller, parser]) == ["f(d)", "make(z)"]


# Defaulted parameters that only tests pass, and why each stays a parameter.
TEST_ONLY_PARAMETERS = (
    ("external_scorer_connect(timeout)", "the tests of a peer that stalls need a short timeout"),
)


def test_every_library_parameter_is_passed_somewhere():
    """A defaulted parameter that no call in the package, the benchmark or
    the README's library example passes is a setting with one value in
    use; it belongs in the code as a constant."""
    with open(os.path.join(REPO_DIR, "README.md"), encoding="utf-8") as fh:
        callers = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    sources = _reference_sources()
    callers += [text for path, text in sources.items() if not path.startswith(TESTS_DIR)]
    unpassed = [
        name
        for path, text in sources.items() if os.path.dirname(path) == PACKAGE_DIR
        for name in unpassed_parameters(text, callers)
    ]
    assert sorted(unpassed) == sorted(name for name, _ in TEST_ONLY_PARAMETERS)
