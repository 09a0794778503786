"""The runtime needs numpy alone: what the package imports is what it
declares, and no run of the engine loads networkx or scipy."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# one run of each part of the engine that once asked networkx its graph
# questions (a 3-D reduction orders its walls by search), then the modules
# loaded
ENGINE_RUN = """
import json, sys
sys.path.insert(0, {src!r})
import cubalex.cli
from cubalex import alexander as al, factories as fa, refinement as rf
from cubalex import shelling as sh, weaving as wv

K = fa.grid_complex([(0, 0), (1, 0), (1, 1), (2, 1)])
assert sh.find_shelling(K) is not None
al.reduce_cubical(K)
al.reduce_cubical(fa.box_complex(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)]))
rf.find_separating_complex(fa.product_with_interval(fa.circle_complex(6), 3))
rf.build_molecule(2, [[((0, 0), 3), ((3, 0), 3)], [((6, 0), 1)]], [1, 0])
wv.neighborly_forest([1, 2, 3], {{1: 1, 2: 1, 3: 2}}, [(1, 2, "s")], [1, 3])
assert cubalex.cli.main(["validate", {complex!r}]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("networkx", "scipy"))))
"""


def test_runtime_imports_neither_networkx_nor_scipy(tmp_path):
    from cubalex import factories as fa

    path = tmp_path / "grid.json"
    path.write_text(json.dumps(fa.rect_grid(2, 2).to_json()))
    code = ENGINE_RUN.format(src=str(SRC), complex=str(path))
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def third_party_imports():
    """Top-level names of every absolute import under src/cubalex that is
    neither the standard library nor cubalex itself."""
    names = set()
    for path in (SRC / "cubalex").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names) - {"cubalex"})


def test_imports_are_the_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    # numpy 2.0 added `np.bitwise_count`, which pass (b) of the cubical
    # validation calls from 16 maximal cubes on
    assert declared == ["numpy>=2.0"]
    assert third_party_imports() == sorted(
        re.match(r"[A-Za-z0-9_.-]+", d).group() for d in declared)
