"""Every name a module imports is used in that module, and every public
name of the package is reached by something other than the tests.

An import that nothing reads still costs start-up time and suggests a
dependency the module does not have. Package ``__init__`` files, which
import to re-export, and ``from __future__`` directives are exempt. A
public function, class or constant that only tests reach is library
surface no run uses.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "scripts", "tests")
               for path in (ROOT / folder).rglob("*.py")
               if path.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name that no expression reads."""
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
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b, c as d\n"
                          "sys.exit(d)\n") == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


PACKAGE = ROOT / "src" / "defect_spectra"
# The readers a public name may be reached from: the package, the scripts
# and the benchmark, without its tests.
READERS = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                  *(path for path in (ROOT / "bench").glob("*.py")
                    if not path.name.startswith("test_"))])
# ensemble.biased_z_retention is acceptance criterion 3's oracle: the
# acceptance test compares a run's retained share against it.
UNREACHED_ALLOWED = {"ensemble.biased_z_retention"}


def public_names(source):
    """(line, name) of each public module-level function, class and
    constant of ``source``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [(node.lineno, target.id) for target in targets
                      if isinstance(target, ast.Name)]
    return [(line, name) for line, name in names if not name.startswith("_")]


def test_finds_public_names():
    source = ("import os\nA = 1\n_b = 2\nC: int = 3\ndef f():\n    D = 4\n"
              "class E:\n    pass\ndef _g():\n    pass\n")
    assert public_names(source) == [(2, "A"), (4, "C"), (5, "f"), (7, "E")]


def test_every_public_name_is_reached_outside_the_tests():
    words = Counter(word for path in READERS
                    for word in re.findall(r"\w+", path.read_text()))
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for line, name in public_names(source):
            # a whole-word use anywhere but the name's own definition line
            own = re.findall(rf"\b{name}\b", lines[line - 1])
            if words[name] == len(own):
                unreached.append(f"{path.stem}.{name}")
    assert sorted(set(unreached) - UNREACHED_ALLOWED) == []
    assert UNREACHED_ALLOWED <= set(unreached)


def test_every_package_exception_has_an_exit_code():
    # the exit code is the only distinction a caller sees, so the package
    # defines one exception class per code and cli.main names each of them
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ClassDef)
               and any(re.search(r"Error$|Exception$", ast.unparse(base))
                       for base in node.bases)}
    main = next(node for node in ast.parse((PACKAGE / "cli.py").read_text())
                .body if isinstance(node, ast.FunctionDef)
                and node.name == "main")
    handled = {name.id for handler in ast.walk(main)
               if isinstance(handler, ast.ExceptHandler)
               for name in ast.walk(handler.type)
               if isinstance(name, ast.Name)}
    assert defined == handled - {"OSError"}
