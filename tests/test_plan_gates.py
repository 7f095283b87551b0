"""Plan-choosing size gates are module constants, not parameters.

Every broadcast-or-shuffle and driver-or-distributed choice reads a module
constant at call time (``stages.joins.DIM_BROADCAST_MAX`` for every key set
and dimension table), so a test forces the other plan with
``monkeypatch.setattr``. This scan keeps per-call gate knobs from coming
back."""

import ast
import os

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "sprout_ray")

GATE_PARAMS = {
    "broadcast_max",
    "id_broadcast_max",
    "hot_max",
    "broadcast_max_ids",
    "fused_incidence_max",
    "driver_tier_max_rows",
    "partition_rows",
    "driver_side",
}


def test_no_function_takes_a_size_gate_parameter():
    found = []
    for dirpath, _, files in os.walk(PKG):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as f:
                tree = ast.parse(f.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    a = node.args
                    for arg in a.posonlyargs + a.args + a.kwonlyargs:
                        if arg.arg in GATE_PARAMS:
                            where = getattr(node, "name", "<lambda>")
                            found.append(f"{os.path.relpath(path, PKG)}:{node.lineno} {where}({arg.arg})")
    assert not found, "size gates must be module constants: " + ", ".join(found)


def test_cbf_open_orders_verify_plans_agree(ray_session, sf_dir, monkeypatch):
    """cbf_open_orders_lineitems' exact verify through id_set_filter: the
    distributed hash semi-join (DIM_BROADCAST_MAX=0) gives the broadcast
    plan's sf0.01 result."""
    import sprout_ray.pipelines.analytics as A
    import sprout_ray.stages.joins as J

    sf = os.path.join(os.path.dirname(sf_dir), "sf0.01")  # sibling scale

    def run():
        return (
            A.cbf_open_orders_lineitems(sf)
            .to_pandas()
            .sort_values("l_linestatus")
            .reset_index(drop=True)
        )

    a = run()
    monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)
    b = run()[a.columns]
    assert len(a) > 0 and a["n_lines"].sum() > 0
    assert a.equals(b)


def _local_import_names(fn):
    """(name, lineno) bound by the imports in ``fn``'s own body, nested
    functions excluded (they are scanned on their own)."""
    out, todo = [], list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
        todo.extend(ast.iter_child_nodes(node))
    return out


def test_no_unused_function_local_imports():
    """Every name a function imports is read somewhere in that function
    (nested functions and lambdas included): a dead local import is a
    dead dependency that still costs its import time."""
    found = []
    for dirpath, _, files in os.walk(PKG):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as f:
                tree = ast.parse(f.read(), path)
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                used = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
                for imported, lineno in _local_import_names(fn):
                    if imported not in used:
                        found.append(f"{os.path.relpath(path, PKG)}:{lineno} {fn.name}({imported})")
    assert not found, "unused function-local imports: " + ", ".join(found)
