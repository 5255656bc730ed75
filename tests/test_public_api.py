"""The public API is what the package, the demos or the README use.

Every public function and class of ``src/offdiag/*.py``, and every public
method or property of those classes, must be used outside its own body
somewhere in ``src/offdiag`` or ``demos/``, or be named in a code span of
README.md (an inline span or a fenced block).  A function or class counts
as used where it is named or read as an attribute; a class member counts
only where it is read as an attribute.  An attribute of ``np`` or ``math``
is never a use, so ``np.inf`` does not use a property ``inf``, nor does a
parameter or variable that shares a member's name.  In README, a function
or class is documented by a code span that holds its name as a word, and a
member only by a code span that names it as ``Class.member``; prose does
not count.  Tests do not count either: a name that only tests call is a
second way to do a job the package does another way.  ``cli.cmd_*`` are
exempt, since ``main`` dispatches them by name.  Sources are parsed, not
imported.

Private code must be used too: every module-level private function and
class of ``src/offdiag`` is named or read as an attribute somewhere in
``src/offdiag`` outside its own body, and every name that a module imports
is read in it or listed in its ``__all__``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "offdiag").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXTERNAL = {"np", "math"}  # modules whose attributes are never the package's API


def referenced(tree):
    """``(names, attributes)`` that ``tree`` uses: every name, and every attribute it reads
    of anything but ``np`` or ``math``."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and not (isinstance(node.value, ast.Name) and node.value.id in EXTERNAL)):
            attributes[node.attr] += 1
    return names, attributes


def public_definitions(module, tree):
    """``(qualified name, node, class name or None)`` of each public function, class, method
    and property."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if module == "cli" and node.name.startswith("cmd_"):
            continue
        yield f"{module}.{node.name}", node, None
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member, node.name


def code_spans(readme):
    """The fenced blocks and inline code spans of a Markdown text."""
    fence = re.compile(r"```.*?```", re.S)
    return fence.findall(readme) + re.findall(r"`([^`]+)`", fence.sub("", readme))


def unused(sources, readme):
    """The public definitions of ``sources`` (module -> text) that nothing uses or documents.

    Demos, keyed ``demos/NAME``, use names but define no API.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        found_names, found_attributes = referenced(tree)
        names.update(found_names)
        attributes.update(found_attributes)
    spans = code_spans(readme)
    words = {word for span in spans for word in re.findall(r"\w+", span)}
    members = {pair for span in spans for pair in re.findall(r"(\w+)\.(\w+)", span)}
    found = []
    for module, tree in trees.items():
        if module.startswith("demos/"):
            continue
        for qualified, node, owner in public_definitions(module, tree):
            own_names, own_attributes = referenced(node)
            uses = attributes[node.name] - own_attributes[node.name]
            if owner is None:
                uses += names[node.name] - own_names[node.name]
                documented = node.name in words
            else:
                documented = (owner, node.name) in members
            if uses <= 0 and not documented:
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
    assert unused({"cli": module}, "`documented` and `Box.size`") == [
        "cli.recursive", "cli.Box.opened",
    ]


def test_guard_catches_a_member_whose_name_is_used_otherwise():
    module = (
        "import math\nimport numpy as np\n\n"
        "def fill(matrix, width):\n    return [matrix] * width, np.inf, math.inf\n\n"
        "class Box:\n"
        "    @property\n    def inf(self):\n        return 0.0\n\n"
        "    @property\n    def matrix(self):\n        return 1\n\n"
        "    @property\n    def width(self):\n        return 2\n\n"
        "    @property\n    def size(self):\n        return 3\n\n"
        "    def grow(self):\n        self.grow = None\n"
    )
    demo = "from offdiag.m import Box, fill\nprint(fill(Box(), 1))\n"
    readme = "`fill` takes a matrix; the width of a Box grows.\n\n```\nBox.size\n```\n"
    # np.inf and math.inf, a parameter, prose and an attribute written but never read are no use
    assert unused({"m": module, "demos/d": demo}, readme) == [
        "m.Box.inf", "m.Box.matrix", "m.Box.width", "m.Box.grow",
    ]
    # a code span that names the member documents it, and one that names the class alone does not
    assert unused({"m": module}, "`fill`, `Box.inf`, `Box.matrix`, `Box.grow` and `Box`") == [
        "m.Box.width", "m.Box.size",
    ]


def unused_private(sources):
    """The module-level private functions and classes of ``sources`` (module -> text) that
    no module uses outside their own body, and every name a module imports but never reads
    nor lists in ``__all__``, as ``module.name``."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        found_names, found_attributes = referenced(tree)
        names.update(found_names)
        attributes.update(found_attributes)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                own_names, own_attributes = referenced(node)
                uses = (names[node.name] - own_names[node.name]
                        + attributes[node.name] - own_attributes[node.name])
                if uses <= 0:
                    found.append(f"{module}.{node.name}")
        read, _ = referenced(tree)
        exported = {element.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for element in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if not read[bound] and bound not in exported:
                        found.append(f"{module}.{bound}")
    return found


def test_every_private_name_and_import_is_used():
    assert unused_private({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}) == []


def test_guard_catches_a_leftover_helper_and_an_unused_import():
    module = (
        "from __future__ import annotations\n"
        "import math\nimport numpy as np\nfrom .ops import _select, _blocks as gather\n\n"
        "def _near(x):\n    return _near(x - 1) if x else _select(x)\n\n"
        "def _region(x):\n    return np.sqrt(x)\n\n"
        "class _Sides:\n    pass\n"
    )
    other = "from .m import _region, _Sides\n__all__ = ['_Sides']\n\n_region(1.0)\n"
    # recursion is no use, a name exported in __all__ is one, and an alias is the name it binds
    assert unused_private({"m": module, "n": other}) == ["m._near", "m._Sides", "m.math",
                                                         "m.gather"]
