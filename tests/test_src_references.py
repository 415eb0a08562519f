"""Every definition in the library is used by the library: a syntax check
over src/weylbn.

Each top-level function and class, and each method that is not a dunder,
of every module but ``__init__.py`` must be named by an ``ast.Name`` or an
``ast.Attribute`` somewhere in those modules.  A helper only the tests
call belongs in the tests; re-exporting a name from the package does not
count as a use.
"""

import ast
from pathlib import Path

import weylbn

# Kept although nothing in the library calls them, each for its reason.
UNCALLED = {
    "double_coset_orbit_sizes": "the W'-orbit sizes that the group-side double cosets will be checked against",
}


def _unreferenced(sources):
    """The names defined in ``sources`` (module name -> source) that no
    Name or Attribute in them refers to, as "module:name" strings."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            defined = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [
                    f.name
                    for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (f.name.startswith("__") and f.name.endswith("__"))
                ]
            found += [f"{name}:{d}" for d in defined if d not in used]
    return found


def _library_unreferenced():
    paths = sorted(Path(weylbn.__file__).parent.glob("*.py"))
    return _unreferenced({p.name: p.read_text() for p in paths if p.name != "__init__.py"})


def test_library_defines_only_what_it_uses():
    assert [hit for hit in _library_unreferenced() if hit.split(":")[1] not in UNCALLED] == []


def test_every_exception_is_still_defined_and_uncalled():
    assert {hit.split(":")[1] for hit in _library_unreferenced()} == set(UNCALLED)


def test_scan_catches_each_kind():
    source = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "class Kept:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "    def idle(self): pass\n"
        "class Idle: pass\n"
        "x = used() or Kept().method\n"
    )
    assert _unreferenced({"m.py": source}) == ["m.py:unused", "m.py:idle", "m.py:Idle"]
    # A use in another module counts.
    assert _unreferenced({"a.py": "def f(): pass", "b.py": "from a import f\nf()"}) == []
