import ast
from pathlib import Path

# the modules and the phasecomm matrix-path names `oracles.py` may import
MODULES = {"math", "numpy", "scipy"}
MATRIX_PATH = {
    "AtomicParams", "kraus_operators", "povm_from_kraus", "build_ensemble",
    "phase_diffused_coherent", "joint_distribution", "error_probability",
}


def test_oracles_import_only_numpy_scipy_and_the_matrix_path():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            outside += [a.name for a in node.names if a.name.split(".")[0] not in MODULES]
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if node.level or root not in MODULES | {"phasecomm"}:
                outside.append("." * node.level + (node.module or ""))
            elif root == "phasecomm":
                outside += [f"{node.module}.{a.name}" for a in node.names if a.name not in MATRIX_PATH]
    assert not outside, outside
