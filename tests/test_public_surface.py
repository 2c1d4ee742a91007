"""Every public name in ``src/prs`` has a caller in ``src/prs``.

A public top-level function or class of a module, or a public method of
a top-level class, must be referenced (an ``ast.Name`` or an
``ast.Attribute`` with its name) somewhere in the package outside its
own body, or be exported in ``prs.__all__``. A name that only tests call
is a second copy of some concept, or dead code.

Names are matched by their bare text, so this is a floor, not a proof:
any reference with the same text counts, and a local variable named
``train`` hides an unused ``classifiers.train``. ``perfbench/`` is not
parsed, so that a change to the benchmark never has to edit this test.
"""

import ast
from pathlib import Path

import prs

# wrapped by perfbench/tracer.py; goes with ROADMAP item 4
TRACER_ONLY = {"TrainedModel.predict"}


def _definitions(tree):
    """(qualified name, bare name, first line, last line) of each public
    top-level function or class and each public method of a top-level
    class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    qualified = f"{node.name}.{item.name}"
                    yield qualified, item.name, item.lineno, item.end_lineno


def _references(tree):
    """(bare name, line) of every Name and Attribute node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _uncalled_names() -> set[str]:
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(prs.__file__).parent.glob("*.py"))
    }
    references = {
        module: list(_references(tree)) for module, tree in trees.items()
    }
    uncalled = set()
    for module, tree in trees.items():
        for qualified, name, first, last in _definitions(tree):
            called = any(
                ref == name and (other != module or not first <= line <= last)
                for other, refs in references.items()
                for ref, line in refs
            )
            if not called and name not in prs.__all__:
                uncalled.add(qualified)
    return uncalled


def test_every_public_name_has_a_caller_in_the_package():
    uncalled = _uncalled_names()
    assert uncalled - TRACER_ONLY == set(), (
        "public names with no caller in src/prs; call them, make them "
        "private, or delete them"
    )
    # an entry leaves the list once its name is gone or has a caller
    assert TRACER_ONLY <= uncalled
