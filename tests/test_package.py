"""The package namespace and the import layering of its modules."""

import ast
import pathlib

import pytest

import riskengine


def test_every_exported_name_resolves():
    missing = [name for name in riskengine.__all__ if not hasattr(riskengine, name)]
    assert missing == []
    assert len(set(riskengine.__all__)) == len(riskengine.__all__)


_CORE = sorted(p.stem for p in pathlib.Path(riskengine.__file__).parent.glob("*.py")
               if p.stem not in ("__init__", "cli", "engine", "timeseries"))


@pytest.mark.parametrize("module", _CORE)
def test_core_modules_import_neither_timeseries_nor_engine(module):
    # panels and runs stop at the engine: the numerical modules take arrays
    path = pathlib.Path(riskengine.__file__).with_name(f"{module}.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").split(".")[-1]
            imported.add(base)
            if node.level and not node.module:  # from . import x
                imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name.split(".")[-1] for a in node.names)
    assert not imported & {"timeseries", "engine"}
