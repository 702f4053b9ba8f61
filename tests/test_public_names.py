"""Nothing public in the package is reached only from the tests.

Every module-level public function and class of ``src/sensewalk`` must be
named (as a name or an attribute, imports aside) by the package itself, the
benchmark harness or a demo, or appear in the CI workflow. The only names
exempt are those the acceptance tests import, which pin them as the API.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(directory):
    for path in sorted((ROOT / directory).glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _named_in(*directories):
    """Every name and attribute the directories' modules use, imports aside."""
    names = set()
    for directory in directories:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def _acceptance_imports():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("sensewalk") for alias in node.names}


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    used = _named_in("src/sensewalk", "perfbench", "demos")
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    pinned = _acceptance_imports()
    unused = [f"{path.stem}.{node.name}" for path, tree in _trees("src/sensewalk")
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in used and not re.search(rf"\b{node.name}\b", workflow)
              and node.name not in pinned]
    assert unused == []

