import ast
import collections
import pathlib
import subprocess
import sys
import time

import pytest

import circlecorr


def test_all_exports_resolve():
    missing = [name for name in circlecorr.__all__ if not hasattr(circlecorr, name)]
    assert missing == []
    assert len(set(circlecorr.__all__)) == len(circlecorr.__all__)


def test_names_import_their_module_on_first_access():
    code = ("import sys, circlecorr\n"
            "print(*sorted(m for m in sys.modules if m.startswith('circlecorr.')))\n"
            "from circlecorr import f_stat\n"
            "print(f_stat.__module__, 'circlecorr.verify' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "circlecorr.paircorr False"]
    with pytest.raises(AttributeError):
        circlecorr.no_such_name


def unused_definitions(package_dir, exempt):
    """(module, name) of each non-dunder def or class in package_dir/*.py read nowhere else.

    A read is a loaded name or attribute anywhere in the package, outside the
    definition's own body; imports and string literals do not count.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package_dir.glob("*.py"))}

    def reads(tree):
        return collections.Counter(
            node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load))

    everywhere = sum((reads(tree) for tree in trees.values()), collections.Counter())
    return [(module, node.name) for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in exempt
            and everywhere[node.name] == reads(node)[node.name]]


def test_nothing_in_src_is_reached_only_by_tests():
    start = time.perf_counter()
    unused = unused_definitions(pathlib.Path(circlecorr.__file__).parent, set(circlecorr.__all__))
    assert time.perf_counter() - start < 1
    assert unused == []
