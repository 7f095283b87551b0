"""Plan-choosing size gates are module constants, not parameters.

Every broadcast-or-shuffle and driver-or-distributed choice reads a module
constant at call time (``stages.joins.DIM_BROADCAST_MAX`` for every key set
and dimension table), so a test forces the other plan with
``monkeypatch.setattr``. This scan keeps per-call gate knobs from coming
back, and keeps stateful stages on the one task plan
(``stages.agg.stateful_map``) with no pool-size knobs."""

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


def _package_trees():
    """(path relative to the package, parsed module) of every module."""
    for dirpath, _, files in os.walk(PKG):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as f:
                    yield os.path.relpath(path, PKG), ast.parse(f.read(), path)


def _params(node):
    a = node.args
    return [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]


def test_no_function_takes_a_size_gate_parameter():
    found = []
    for rel, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for arg in _params(node):
                    if arg in GATE_PARAMS:
                        where = getattr(node, "name", "<lambda>")
                        found.append(f"{rel}:{node.lineno} {where}({arg})")
    assert not found, "size gates must be module constants: " + ", ".join(found)


def test_no_actor_pool_knobs():
    """Stateful stages run as tasks through ``stages.agg.stateful_map``: no
    function takes a ``concurrency`` parameter, no ``map_batches`` call
    passes ``concurrency=``/``compute=`` or is handed a class, and the
    pool sizer ``actor_pool_size`` is gone."""
    trees = list(_package_trees())
    classes = {
        n.name for _, t in trees for n in ast.walk(t) if isinstance(n, ast.ClassDef)
    }
    found = []
    for rel, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                where = getattr(node, "name", "<lambda>")
                if "concurrency" in _params(node):
                    found.append(f"{rel}:{node.lineno} {where}(concurrency)")
                if where == "actor_pool_size":
                    found.append(f"{rel}:{node.lineno} def actor_pool_size")
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_batches"
            ):
                continue
            found += [
                f"{rel}:{node.lineno} map_batches({kw.arg}=)"
                for kw in node.keywords
                if kw.arg in ("concurrency", "compute")
            ]
            fns = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "fn"]
            for fn in fns:
                name = getattr(fn, "id", None) or getattr(fn, "attr", None)
                if name in classes or (name or "").lstrip("_")[:1].isupper():
                    found.append(f"{rel}:{node.lineno} map_batches({name})")
    assert not found, "stateful stages go through stateful_map: " + ", ".join(found)


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
    for rel, tree in _package_trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            used = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
            for imported, lineno in _local_import_names(fn):
                if imported not in used:
                    found.append(f"{rel}:{lineno} {fn.name}({imported})")
    assert not found, "unused function-local imports: " + ", ".join(found)


def _header_framings(fn):
    """Line numbers in ``fn`` of ``len(x).to_bytes(...)`` calls where ``x``
    is named ``meta`` or was assigned from a ``json.dumps(...)`` expression:
    a sketch header (JSON metadata behind its length) framed by hand."""
    json_names = {"meta"}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and any(
            isinstance(c, ast.Call)
            and isinstance(c.func, ast.Attribute)
            and c.func.attr == "dumps"
            for c in ast.walk(node.value)
        ):
            json_names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return [
        node.lineno
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "to_bytes"
        and isinstance(node.func.value, ast.Call)
        and getattr(node.func.value.func, "id", None) == "len"
        and node.func.value.args
        and getattr(node.func.value.args[0], "id", None) in json_names
    ]


def test_sketch_headers_are_framed_in_one_place():
    """``kernel.sketch.write_sketch`` is the one writer of the sketch
    header (a u32 length, then JSON metadata): no other function under
    ``sprout_ray/`` frames one, and it does so once."""
    found = []
    for rel, tree in _package_trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{rel}:{ln} {fn.name}" for ln in _header_framings(fn)]
    where = os.path.join("kernel", "sketch.py")
    assert len(found) == 1 and found[0].startswith(where + ":"), (
        "sketch headers are framed by kernel.sketch.write_sketch alone: "
        + ", ".join(found)
    )
