"""Every definition and every option in the library is used by the
library: a syntax check over src/weylbn.

Each top-level function and class, and each method that is not a dunder,
of every module but ``__init__.py`` must be named by an ``ast.Name`` or an
``ast.Attribute`` somewhere in those modules.  A helper only the tests
call belongs in the tests; re-exporting a name from the package does not
count as a use.

Likewise each parameter with a default, of a top-level function or a
method, must be passed by some call in those modules: by keyword, by
position, through ``*args`` or ``**kwargs``, or through
``functools.partial(f, ...)``; a call of a class is a call of its
``__init__`` and ``__new__``.  A default that only the tests override is a
constant, not an option.  Calls are matched by name, as the uses above.
"""

import ast
from pathlib import Path

import weylbn

# Kept although nothing in the library calls them, each for its reason.
UNCALLED = {}

# Defaulted parameters that no call in the library passes, each for its reason.
UNPASSED = {
    "cli.py:main:argv": "the entry point, which the tests and perfbench/tracer.py call with an argument list",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [
                    f.name
                    for f in node.body
                    if isinstance(f, FUNCTIONS)
                    and not (f.name.startswith("__") and f.name.endswith("__"))
                ]
            found += [f"{name}:{d}" for d in defined if d not in used]
    return found


def _name(node):
    """The name a call's callee is written with, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls(trees):
    """(callee name, positional count, keyword names) of every call in
    ``trees``, with ``partial(f, ...)`` a call of f.  A ``*`` or ``**``
    argument passes every parameter: the count is then infinite and the
    keyword names None."""
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if _name(func) == "partial" and args:
                func, args = args[0], args[1:]
            keywords = {k.arg for k in node.keywords}
            if None in keywords or any(isinstance(a, ast.Starred) for a in args):
                yield _name(func), float("inf"), None
            else:
                yield _name(func), len(args), keywords


def _definitions(tree):
    """(label, callee names, function, leading parameters a call does not
    pass) of each top-level function and method in ``tree``."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, {node.name}, node, 0
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, FUNCTIONS):
                    names = {f.name, node.name} if f.name in ("__init__", "__new__") else {f.name}
                    static = any(_name(d) == "staticmethod" for d in f.decorator_list)
                    yield f"{node.name}.{f.name}", names, f, 0 if static else 1


def _unpassed(sources):
    """The defaulted parameters in ``sources`` (module name -> source) that
    no call in them passes, as "module:function:parameter" strings."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    calls = list(_calls(trees.values()))
    found = []
    for module, tree in trees.items():
        for label, names, fn, skip in _definitions(tree):
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            wanted = [(p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
            wanted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for param, at in wanted:
                if not any(
                    callee in names and (kws is None or param in kws or (at is not None and at < count))
                    for callee, count, kws in calls
                ):
                    found.append(f"{module}:{label}:{param}")
    return found


def _library_sources():
    paths = sorted(Path(weylbn.__file__).parent.glob("*.py"))
    return {p.name: p.read_text() for p in paths if p.name != "__init__.py"}


def _library_unreferenced():
    return _unreferenced(_library_sources())


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


def test_library_passes_every_defaulted_parameter():
    assert _unpassed(_library_sources()) == list(UNPASSED)


def test_parameter_scan_catches_each_kind():
    source = (
        "from functools import partial\n"
        "def f(a, by_pos=1, by_kw=2, unset=3, *, kw_only=4): pass\n"
        "def via_star(x=1): pass\n"
        "def via_kwargs(*, x=1): pass\n"
        "def bound(x=1, y=2): pass\n"
        "class K:\n"
        "    def __init__(self, made=1, idle=2): pass\n"
        "    def method(self, given=1, idle=2): pass\n"
        "    @staticmethod\n"
        "    def static(given=1, idle=2): pass\n"
        "f(0, 1, by_kw=2)\n"
        "via_star(*args)\n"
        "via_kwargs(**kw)\n"
        "partial(bound, 1)\n"
        "K(1).method(1)\n"
        "K.static(1)\n"
    )
    assert _unpassed({"m.py": source}) == [
        "m.py:f:unset",
        "m.py:f:kw_only",
        "m.py:bound:y",
        "m.py:K.__init__:idle",
        "m.py:K.method:idle",
        "m.py:K.static:idle",
    ]
    # A call in another module counts.
    assert _unpassed({"a.py": "def f(x=1): pass", "b.py": "from a import f\nf(x=2)"}) == []
