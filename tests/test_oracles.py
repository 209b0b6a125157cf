import ast
from pathlib import Path

# the modules and the phasecomm matrix-path names `oracles.py` imports
MODULES = {"math", "numpy", "scipy"}
MATRIX_PATH = {"AtomicParams", "Povm", "build_ensemble", "joint_distribution"}


def test_oracles_import_only_numpy_scipy_and_the_matrix_path():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    outside, matrix_path = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            outside += [a.name for a in node.names if a.name.split(".")[0] not in MODULES]
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if node.level or root not in MODULES | {"phasecomm"}:
                outside.append("." * node.level + (node.module or ""))
            elif root == "phasecomm":
                matrix_path |= {a.name for a in node.names}
    assert not outside, outside
    # the list exactly, so that a name the oracle stops importing leaves it too
    assert matrix_path == MATRIX_PATH
