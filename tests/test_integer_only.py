"""No floating point in the library: a syntax check over src/weylbn."""

import ast
from pathlib import Path

import weylbn

FLOAT_CALLS = {"float", "complex", "round"}
FLOAT_CLOCKS = {"monotonic", "time", "perf_counter"}
FLOAT_MODULES = {"math", "fractions", "decimal"}


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node, f"literal {node.value!r}"
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in FLOAT_CALLS:
                yield node, f"call to {f.id}"
            elif (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id == "time"
                and f.attr in FLOAT_CLOCKS
            ):
                yield node, f"call to time.{f.attr}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in FLOAT_MODULES:
                    yield node, f"import of {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in FLOAT_MODULES:
                yield node, f"import from {node.module}"
            elif node.module == "time" and {a.name for a in node.names} & FLOAT_CLOCKS:
                yield node, "import of a float clock from time"


def _scan(source, name="<src>"):
    found = sorted(_offences(ast.parse(source)), key=lambda hit: hit[0].lineno)
    return [f"{name}:{node.lineno}: {what}" for node, what in found]


def test_library_has_no_floating_point():
    found = []
    for path in sorted(Path(weylbn.__file__).parent.glob("*.py")):
        found += _scan(path.read_text(), path.name)
    assert found == []


def test_scan_catches_each_kind():
    assert _scan("x = a / b\ny /= 2\nz = a // b") == [
        "<src>:1: true division",
        "<src>:2: true division",
    ]
    assert _scan("x = 0.5\ny = 2j\nz = 5") == ["<src>:1: literal 0.5", "<src>:2: literal 2j"]
    assert _scan("float(x)\ncomplex(x)\nround(x)\nint(x)") == [
        "<src>:1: call to float",
        "<src>:2: call to complex",
        "<src>:3: call to round",
    ]
    assert _scan("time.monotonic()\ntime.time()\ntime.perf_counter()\ntime.monotonic_ns()") == [
        "<src>:1: call to time.monotonic",
        "<src>:2: call to time.time",
        "<src>:3: call to time.perf_counter",
    ]
    assert _scan("import math\nfrom fractions import Fraction\nimport decimal\nimport json") == [
        "<src>:1: import of math",
        "<src>:2: import from fractions",
        "<src>:3: import of decimal",
    ]
    assert _scan("from time import monotonic\nfrom time import monotonic_ns") == [
        "<src>:1: import of a float clock from time"
    ]
