"""Every public module-level function or class in the package is used by the
package itself or named in the benchmark's tracing targets: a helper that
only tests call is deleted or made real."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "halfspace_lpp"

# public names kept although only tests call them, each with its reason
ALLOWED = {
    "characteristic_ratio": "the only check of the origin characteristic-"
                            "function limit (tests/test_schur.py)",
}


def _perfbench_targets():
    """Top-level names in perfbench/tracing.py TARGETS, read without importing."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TARGETS" for t in node.targets
        ):
            return {name.split(".")[0]
                    for names in ast.literal_eval(node.value).values()
                    for name in names}
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_no_public_name_is_test_only():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    assert set(ALLOWED) <= {name for _, name in public}
    unused = sorted(
        f"{module}.{name}" for module, name in public
        if name not in used | _perfbench_targets() | set(ALLOWED)
    )
    assert not unused, f"public names no src module uses: {unused}"
