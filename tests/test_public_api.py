"""The public API is what the package, the demos or the README use.

Every public function and class of ``src/offdiag/*.py``, and every public
method or property of those classes, must be named outside its own body
somewhere in ``src/offdiag`` or ``demos/`` (as a name or an attribute), or
appear as a word in README.md.  Tests do not count: a name that only tests
call is a second way to do a job the package does another way.  ``cli.cmd_*``
are exempt, since ``main`` dispatches them by name.  Sources are parsed, not
imported.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "offdiag").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def referenced(tree):
    """Every name and attribute that ``tree`` reads or writes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def public_definitions(module, tree):
    """``(qualified name, node)`` of each public function, class, method and property."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if module == "cli" and node.name.startswith("cmd_"):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member


def unused(sources, readme):
    """The public definitions of ``sources`` (module -> text) that nothing uses or documents.

    Demos, keyed ``demos/NAME``, use names but define no API.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    uses = Counter()
    for tree in trees.values():
        uses.update(referenced(tree))
    words = set(re.findall(r"\w+", readme))
    found = []
    for module, tree in trees.items():
        if module.startswith("demos/"):
            continue
        for qualified, node in public_definitions(module, tree):
            own = Counter(referenced(node))[node.name]
            if uses[node.name] - own <= 0 and node.name not in words:
                found.append(qualified)
    return found


def test_every_public_name_is_used_or_documented():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    sources.update({f"demos/{p.stem}": p.read_text(encoding="utf-8") for p in DEMOS})
    assert unused(sources, (ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_guard_catches_a_name_only_its_own_body_uses():
    module = (
        "def used(x):\n    return x\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used(n)\n\n"
        "def documented():\n    pass\n\n"
        "def cmd_run(args):\n    pass\n\n"
        "class Box:\n"
        "    def opened(self):\n        return self.opened\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def _private(self):\n        pass\n"
    )
    demo = "from offdiag.m import Box\nprint(Box().size)\n"
    assert unused({"m": module, "demos/d": demo}, "Call `documented` first.") == [
        "m.recursive", "m.cmd_run", "m.Box.opened",
    ]
    # the exemption holds for cli's commands only
    assert unused({"cli": module}, "documented Box size") == ["cli.recursive", "cli.Box.opened"]
