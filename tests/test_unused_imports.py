"""Every imported name is used in the module that imports it.

The scan parses each module with `ast` and counts a name as used when it
appears as a `Name` node, which covers attribute bases such as `math` in
`math.floor`, or inside a string annotation.  Package `__init__.py` files
import names only to re-export them, and `from __future__` imports are
compiler directives, so both are skipped.
"""

import ast
from pathlib import Path
from typing import List, Set

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "tools", "demos")


def unused_imports(source: str) -> List[str]:
    """`line: name` for each imported name the module never uses."""
    imported = []
    used: Set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        # an argument's or assignment's annotation, or a return annotation
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                quoted = ast.walk(ast.parse(sub.value, mode="eval"))
                used.update(n.id for n in quoted if isinstance(n, ast.Name))
    return [f"{line}: {name}" for line, name in sorted(imported) if name not in used]


def test_the_scan_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import List, Tuple\n"
        "from fractions import Fraction as F\n"
        "def f(x: 'List[int]') -> int:\n"
        "    return os.path.sep and math.floor(x[0])\n"
    )
    assert unused_imports(source) == ["4: Tuple", "5: F"]


def test_no_module_imports_an_unused_name():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            found += [f"{path.relative_to(ROOT)}:{u}" for u in unused_imports(path.read_text())]
    assert found == []
