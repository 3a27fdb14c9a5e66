import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "affinegsb"


def _imported(tree):
    """Names the imports under tree bind, in order of import."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    return imported


def unused_imports(source):
    """Names a module imports and never reads, in order of import."""
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in _imported(tree) if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .a import b, c as d\n"
        "sys.exit(d)\n"
    )
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_modules_read_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _loads(node):
    """How often each name is read under node, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _unread_definitions(sources, readers, wanted):
    """Module-level definitions of sources, kept by ``wanted(name, node)``,
    that no code outside their own definition reads, in sources or
    readers, as a name or an attribute; in order of definition."""
    trees = [ast.parse(source) for source in sources]
    read = sum(map(_loads, trees + [ast.parse(s) for s in readers]), Counter())
    unread = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [
                name for name in names
                if wanted(name, node) and read[name] == _loads(node)[name]
            ]
    return unread


def dead_private_names(sources):
    """Module-level private functions, classes and assignments that no code
    outside their own definition reads, in order of definition."""
    return _unread_definitions(
        sources, (), lambda name, node: name.startswith("_") and not name.endswith("__"))


def unread_public_names(sources, readers=()):
    """Module-level public functions and classes that no code outside their
    own definition reads, in sources or readers, in order of definition."""
    return _unread_definitions(
        sources, readers,
        lambda name, node: not name.startswith("_")
        and isinstance(node, (ast.FunctionDef, ast.ClassDef)))


def test_dead_private_names_are_found():
    sources = [
        "__all__ = ['f']\n"
        "_LIMIT = 3\n"
        "def _rec(x):\n    return _rec(x - 1)\n"
        "def _dead():\n    pass\n"
        "class _Used:\n    pass\n",
        "from .a import _LIMIT, _Used\n"
        "def f():\n    return _Used(), a._dead_attr_is_not_a_definition, _LIMIT\n",
    ]
    assert dead_private_names(sources) == ["_rec", "_dead"]


def test_library_reads_every_private_name():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert dead_private_names(sources) == []


def test_unread_public_names_are_found():
    sources = [
        "LIMIT = 3\n"
        "def rec(x):\n    return rec(x - 1)\n"
        "def helper():\n    pass\n"
        "class Used:\n    pass\n"
        "def _private():\n    pass\n",
        "from .a import Used\n"
        "def run():\n    return Used(), a.helper_attr_is_not_a_definition\n",
    ]
    readers = ["def job(lib):\n    return lib.a.helper(), lib.b.run()\n"]
    assert unread_public_names(sources) == ["rec", "helper", "run"]
    assert unread_public_names(sources, readers) == ["rec"]


# references kept for tests: the acceptance tests import all three
TEST_REFERENCES = ["skeletons", "box_partitions", "bfs_count_oracle"]


def test_every_public_name_is_read_by_library_or_bench():
    # no public function or class exists only for its own unit test
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    bench = SRC.parent.parent / "bench"
    readers = [path.read_text(encoding="utf-8") for path in sorted(bench.glob("*.py"))]
    assert sorted(unread_public_names(sources, readers)) == sorted(TEST_REFERENCES)


def test_every_test_reference_is_imported_by_a_test():
    # an entry that no test imports any more is stale
    imported = set()
    for path in sorted(TESTS.glob("*.py")):
        imported.update(_imported(ast.parse(path.read_text(encoding="utf-8"))))
    assert [name for name in TEST_REFERENCES if name not in imported] == []


def stale_oracles(reference, tests):
    """Top-level functions of the reference module that neither it (outside
    their own definition) nor any of the test modules reads, in order of
    definition."""
    return unread_public_names([reference], tests)


def test_stale_oracles_are_found():
    reference = (
        "def key(w):\n    return len(w)\n"
        "def end(w):\n    return end(w[1:]) if w else w\n"
        "def steps(w):\n    return sorted(w, key=key)\n"
        "def unused(w):\n    return steps(w)\n"
    )
    tests = ["import reference\ndef test_end():\n    assert reference.end(b'') == b''\n"]
    assert stale_oracles(reference, tests) == ["unused"]
    assert stale_oracles(reference, []) == ["end", "unused"]


def test_every_oracle_is_read_by_a_test():
    # an oracle that no test reads any more checks nothing
    tests = [path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("test_*.py"))]
    reference = (TESTS / "reference.py").read_text(encoding="utf-8")
    assert stale_oracles(reference, tests) == []


def _attribute_loads(node):
    """How often each attribute name is read under node."""
    return Counter(
        n.attr for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def unread_attributes(sources, readers=()):
    """Attributes that sources store on ``self`` and that no code outside
    the storing functions reads, in sources or readers, as ``.name``;
    sorted by name."""
    trees = [ast.parse(source) for source in sources]
    read = sum(map(_attribute_loads, trees + [ast.parse(s) for s in readers]), Counter())
    stored = {}
    for tree in trees:
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for n in ast.walk(func):
                if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name) and n.value.id == "self"):
                    stored.setdefault(n.attr, set()).add(func)
    return sorted(
        name for name, funcs in stored.items()
        if read[name] == sum(_attribute_loads(f)[name] for f in funcs)
    )


def test_unread_attributes_are_found():
    sources = [
        "class Index:\n"
        "    def __init__(self, words):\n"
        "        self.goto, self.depth = [], [0]\n"
        "        for w in words:\n"
        "            self.depth.append(self.depth[-1] + len(w))\n"
        "        self.low = []\n"
        "        self.seen = set()\n"
        "    def add(self, w):\n"
        "        self.seen.add(w)\n",
        "def walk(index):\n    return index.goto\n",
    ]
    readers = ["def test_low(index):\n    assert index.low == []\n"]
    assert unread_attributes(sources) == ["depth", "low"]
    assert unread_attributes(sources, readers) == ["depth"]


def test_library_reads_every_attribute_it_stores():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    readers = [path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))]
    assert unread_attributes(sources, readers) == []


def absolute_imports(source):
    """Top-level module names of a module's absolute imports, in order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_absolute_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from . import a\n"
        "from .b import c\n"
        "from x.y import z\n"
    )
    assert absolute_imports(source) == ["__future__", "os", "numpy", "x"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_the_standard_library(path):
    names = absolute_imports(path.read_text(encoding="utf-8"))
    assert [m for m in names if m not in sys.stdlib_module_names] == []


def test_reference_imports_nothing_from_the_library():
    # an oracle that calls the code it checks cannot catch that code's faults
    names = absolute_imports((TESTS / "reference.py").read_text(encoding="utf-8"))
    assert "affinegsb" not in names


def test_test_modules_import_no_other_test_module():
    # shared test code lives in reference (oracles) and conftest (fixtures)
    modules = {path.stem for path in TESTS.glob("*.py")} - {"reference", "conftest"}
    for path in sorted(TESTS.glob("*.py")):
        names = absolute_imports(path.read_text(encoding="utf-8"))
        assert [m for m in names if m in modules] == [], path.name
