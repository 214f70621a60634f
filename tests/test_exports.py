import ast
import sys
from pathlib import Path

import irgaze


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from irgaze import *", namespace)  # raises on a name that is gone
    assert set(irgaze.__all__) <= set(namespace)
    assert len(set(irgaze.__all__)) == len(irgaze.__all__)


def test_runtime_imports_only_the_standard_library_and_numpy():
    """pyproject.toml declares numpy as the one runtime dependency."""
    sources = sorted(Path(irgaze.__file__).parent.rglob("*.py"))
    assert len(sources) > 5
    outside = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in (*sys.stdlib_module_names, "numpy")}
    assert not outside
