"""Every name a module imports is used in that module, every module-level
definition and class member is read by the program itself, and every
parameter is read."""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "nrdkit").glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]

# The only module-level definitions that no src module reads: the second
# routes that the tests check the main routes against, and the plain lift
# of the acceptance gate, which the audit does not run yet.
UNREAD_BY_SRC = {"cancellation": ["cancel_random_order"],
                 "hypergraph": ["nrd_exact_exhaustive"],
                 "pipeline": ["build_plain_lb_instance"],
                 "sat": ["brute_force_satisfiable"]}


def unused_imports(source):
    """Names bound by import statements in source and never read in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import os\nfrom json import dumps, loads as ld\nprint(ld)\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


def names_read(source):
    """Names the source loads, and attribute names it reads; a name that
    is only imported (a re-export) is not read."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


@functools.cache
def src_reads():
    return set().union(*(names_read(p.read_text()) for p in SOURCES))


def defined_names(body):
    """(line, name) for each function, class and assigned name that the
    statements of body define."""
    defined = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined += [(node.lineno, n.id) for t in targets
                        for n in ast.walk(t) if isinstance(n, ast.Name)]
    return defined


def unread_definitions(source, read):
    """Module-level functions, classes and assigned names in source, and
    the methods, properties and class-level fields of its classes (named
    "Class.member"), that are not in the set of names read; dunder names
    are exempt."""
    body = ast.parse(source).body
    defined = defined_names(body)
    for cls in body:
        if isinstance(cls, ast.ClassDef):
            defined += [(line, f"{cls.name}.{name}")
                        for line, name in defined_names(cls.body)]

    def unread(name):
        name = name.rpartition(".")[2]
        return (name not in read
                and not (name.startswith("__") and name.endswith("__")))
    return sorted((line, name) for line, name in defined if unread(name))


def unread_parameters(source):
    """(line, function, parameter) for each parameter of a named function
    that its body never reads; self and cls are exempt."""
    out = []
    for f in ast.walk(ast.parse(source)):
        if not isinstance(f, ast.FunctionDef):
            continue
        a = f.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in f.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(f.lineno, f.name, p.arg) for p in params
                if p.arg not in read and p.arg not in ("self", "cls")]
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unread_definitions(path):
    """Code that only tests, demos or the benchmark read is not part of the
    program; the allow-list must name exactly what is still unread."""
    allowed = UNREAD_BY_SRC.get(path.stem, [])
    unread = [name for _, name in unread_definitions(path.read_text(),
                                                     src_reads())]
    assert [name for name in unread if name not in allowed] == []
    assert unread == allowed


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_definition_and_parameter_are_found():
    source = ("A = 1\nB: int = 2\n__all__ = []\n\n"
              "def f(x, y, *rest):\n    return [x for _ in rest]\n\n"
              "class C:\n    def m(self, z):\n        return lambda w: 0\n\n"
              "    def __len__(self):\n        return 0\n\n"
              "    @property\n    def p(self):\n        return 1\n\n"
              "    k: int = 3\n    n = 4\n")
    assert unread_definitions(source, names_read("f(A.B)")) == [
        (8, "C"), (9, "C.m"), (16, "C.p"), (19, "C.k"), (20, "C.n")]
    assert unread_definitions(source, names_read("C().m(C.k).p + n")) == [
        (1, "A"), (2, "B"), (5, "f")]
    assert unread_parameters(source) == [(5, "f", "y"), (9, "m", "z")]


def test_re_export_is_not_a_read():
    source = "A = 1\nB = 2\nC = 3\n"
    read = names_read("from .m import A, B as D\nfrom . import m\nm.C\n")
    assert unread_definitions(source, read) == [(1, "A"), (2, "B")]
