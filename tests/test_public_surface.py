"""Every public module-level function or class in the package is used by the
package itself or named in the benchmark's tracing targets: a helper that
only tests call is deleted or made real.  Likewise every defaulted parameter
of a public function, method or constructor is set by some call in src/ or
perfbench/: a parameter no caller sets is deleted, its default a constant."""

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


# defaulted parameters that no call in src/ or perfbench/ sets, kept with
# their reason; every other such parameter is deleted, its default a constant
UNSET_ALLOWED = {
    "acceptance.CheckResult.seconds": "filled in by acceptance._timed once the "
                                      "check has returned",
    "schur.characteristic_ratio.b": "a model parameter (d_n = T_n / b) of the "
                                    "characteristic-function limit",
    "bridges.discrete_to_pinned_check.n_cont": "the size of the pinned-pair "
                                               "reference sample, which "
                                               "tests/test_bridges.py matches "
                                               "to its n_samples",
    "interacting.enumerate_interacting_configs.floor_slack": "a test seam of the "
                                                             "enumeration bounds",
    "interacting.gibbs_consistency_check.min_hits": "a test seam of the chi^2 "
                                                    "cell pooling",
    "kernels.hs_limit_components.tol": "the tol every kernel entry point "
                                       "takes; tests set it on this one",
    "kernels.kernel_geo.radii": "the contour-independence test's seam",
    "cli.load_config.env": "the environment seam of the CLI tests",
    "contours.integrate_contour.tol": "integrate_contour is the independent "
                                      "adaptive reference of the tests, "
                                      "which set these",
    "contours.integrate_contour.poles": "as integrate_contour.tol",
    "contours.integrate_contour.max_depth": "as integrate_contour.tol",
    "contours.integrate_contour.pole_clearance": "as integrate_contour.tol",
}


def _is_dataclass(node):
    return any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def _defaulted(fn, offset):
    """(parameter, position or None) of each defaulted parameter of a def,
    positions counted after the first `offset` parameters."""
    pos = fn.args.posonlyargs + fn.args.args
    first = len(pos) - len(fn.args.defaults)
    out = [(a.arg, i - offset) for i, a in enumerate(pos) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _init_fields(cls):
    """(field, position) of each defaulted __init__ field of a dataclass."""
    def in_init(n):
        return not (isinstance(n.value, ast.Call) and any(
            k.arg == "init" and getattr(k.value, "value", True) is False
            for k in n.value.keywords))

    fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)
              and isinstance(n.target, ast.Name) and in_init(n)]
    return [(n.target.id, i) for i, n in enumerate(fields) if n.value is not None]


def _public_defaulted():
    """{(call name, "module.qualname.param"): position} over the public
    functions, the public methods and constructors of public classes (a
    method's positions count after self; the package has no static
    methods)."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if isinstance(node, ast.FunctionDef):
                for p, i in _defaulted(node, 0):
                    out[node.name, f"{path.stem}.{node.name}.{p}"] = i
            elif isinstance(node, ast.ClassDef):
                params = _init_fields(node) if _is_dataclass(node) else []
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        params += _defaulted(item, 1)
                    elif not item.name.startswith("_"):
                        for p, i in _defaulted(item, 1):
                            out[item.name, f"{path.stem}.{node.name}.{item.name}.{p}"] = i
                for p, i in params:
                    out[node.name, f"{path.stem}.{node.name}.{p}"] = i
    return out


def _settings():
    """{call name: (keywords set, positions set)} over every call in src/ and
    perfbench/.  A *args argument at position i counts as setting positions
    i and up (to 99), a **kwargs argument as setting every keyword ("**")."""
    sets = {}
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords, positions = sets.setdefault(name, (set(), set()))
            for i, arg in enumerate(node.args):
                positions.update(range(i, 100) if isinstance(arg, ast.Starred) else (i,))
            keywords.update(k.arg or "**" for k in node.keywords)
    return sets


def test_every_defaulted_parameter_is_set_somewhere():
    sets = _settings()
    found = set()
    unset = []
    for (name, key), pos in sorted(_public_defaulted().items()):
        found.add(key)
        keywords, positions = sets.get(name, (set(), set()))
        if key.rsplit(".", 1)[1] in keywords or "**" in keywords or pos in positions:
            continue
        if key not in UNSET_ALLOWED:
            unset.append(key)
    assert set(UNSET_ALLOWED) <= found, "allow-list names a parameter that is gone"
    assert not unset, f"defaulted parameters no src or perfbench call sets: {unset}"


# the names through which a module reads the process environment
ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def test_only_the_cli_reads_the_environment():
    # settings come in as parameters; cli.load_config is the one place that
    # maps HSLPP_<KEY> variables onto them, so no module grows a hidden knob
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ENV_READS:
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                readers += [f"{path.name}:{node.lineno} from os import {a.name}"
                            for a in node.names if a.name in ENV_READS | {"*"}]
    assert not readers, f"modules other than cli.py read the environment: {readers}"


def test_only_lpp_starts_threads():
    # lpp._run_jobs is the one thread runner: no other module imports
    # concurrent.futures or constructs a threading.Thread (thread-local
    # state is allowed)
    starters = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "lpp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                starters += [f"{path.name}:{node.lineno} import {a.name}"
                             for a in node.names if a.name.split(".")[0] == "concurrent"]
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "concurrent" or (
                        node.module == "threading"
                        and any(a.name in ("Thread", "*") for a in node.names)):
                    starters.append(f"{path.name}:{node.lineno} from {node.module} import")
            elif isinstance(node, ast.Attribute) and node.attr == "Thread":
                starters.append(f"{path.name}:{node.lineno} .Thread")
    assert not starters, f"modules other than lpp.py start threads: {starters}"


# the quadrature entry points and loops, each returning (value, error)
INTEGRATORS = {"integrate_single", "integrate_double", "integrate_circle",
               "_single_walk", "_walk"}


def _integrator_call(node):
    return isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)) in INTEGRATORS


def test_no_src_call_discards_an_integrator_error():
    # every number comes with its error: a call that unpacks the error into
    # `_` or keeps only [0] drops the one sign of a floor accept
    dropped = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and _integrator_call(node.value):
                for target in node.targets:
                    if (isinstance(target, ast.Tuple) and len(target.elts) == 2
                            and getattr(target.elts[1], "id", None) == "_"):
                        dropped.append(f"{path.name}:{node.lineno} unpacked into _")
            elif (isinstance(node, ast.Subscript) and _integrator_call(node.value)
                  and isinstance(node.slice, ast.Constant) and node.slice.value == 0):
                dropped.append(f"{path.name}:{node.lineno} indexed [0]")
    assert not dropped, f"src calls that discard an integrator's error: {dropped}"
