"""Package layout: the names the benchmark tracer wraps exist, every
exported name resolves, no module reaches into another module's private
names, no library function takes a jobs parameter, lattice counting and the
CLI import no LP routine, the symmetric count and the Ehrhart interpolation
each walk one projection chain, the facet walk of repconv stays in integer
arithmetic, and neither the adjacency graph nor the triangulation behind
volume converts anything."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyorbit"


def _called(fn: ast.AST) -> set[str]:
    """Names of the functions and methods a syntax tree calls."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(fn) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def _entry_points():
    spec = importlib.util.spec_from_file_location("polybench_spans", ROOT / "polybench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return sorted({target for targets, _ in spans.ENTRY_POINTS.values() for target in targets})


@pytest.mark.parametrize("module, path", _entry_points())
def test_traced_entry_point_resolves(module, path):
    owner = importlib.import_module(f"polyorbit.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("module", ["polyorbit"] + [f"polyorbit.{p.stem}" for p in
                                                   sorted(PACKAGE.glob("*.py"))
                                                   if p.stem != "__init__"])
def test_every_export_resolves(module):
    # a name deleted from a module must leave its export lists too
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists {missing}"


@pytest.mark.parametrize("source", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(source):
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, f"{source.name} imports {private} from {node.module}"


@pytest.mark.parametrize("source", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_takes_a_jobs_parameter(source):
    # everything runs serially; only the CLI reads --jobs, and ignores it
    for fn in ast.walk(ast.parse(source.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            assert "jobs" not in {a.arg for a in params}, \
                f"{source.name}: {getattr(fn, 'name', 'lambda')} takes jobs"


@pytest.mark.parametrize("name", ["latcount.py", "cli.py"])
def test_lattice_counting_imports_no_lp_routine(name):
    # the CLI's ilp without blocks runs the counting walk, not an LP box scan
    imported = {a.asname or a.name
                for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert not imported & {"solve_lp", "feasible_point"}


def test_symmetric_count_and_ehrhart_build_one_chain():
    # no count per fiber or per dilate: each routine walks its own chain
    tree = ast.parse((PACKAGE / "latcount.py").read_text())
    fns = [node for node in tree.body if isinstance(node, ast.FunctionDef)
           and node.name in {"ehrhart", "count_with_symmetry"}]
    assert len(fns) == 2
    for fn in fns:
        called = _called(fn)
        banned = called & {"count_lattice_points", "slice_decomposition", "dilate"}
        assert not banned, f"{fn.name} calls {sorted(banned)}"


@pytest.mark.parametrize("source", sorted(p for p in PACKAGE.glob("*.py") if p.name != "permgrp.py"),
                         ids=lambda p: p.name)
def test_permutation_representation_stays_in_permgrp(source):
    read = {node.attr for node in ast.walk(ast.parse(source.read_text()))
            if isinstance(node, ast.Attribute)}
    assert not read & {"_p", "_levels", "_trusted"}, f"{source.name} reads permgrp internals"


def test_facet_walk_builds_no_fraction():
    walk = {"_rotate_about", "_supporting_row", "_initial_facet", "_neighbor_facet",
            "_neighbor_facets", "_walk"}
    banned = {"dot", "vec_scale", "vec_add", "Fraction", "affine_hull", "coordinates"}
    tree = ast.parse((PACKAGE / "repconv.py").read_text())
    found = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert walk <= found
    for fn in (node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in walk):
        called = _called(fn)
        assert not called & banned, f"{fn.name} calls {sorted(called & banned)}"


def test_adjacency_graph_converts_nothing():
    # the graph is read off the facet walk; no second conversion pass
    tree = ast.parse((PACKAGE / "repconv.py").read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "adjacency_graph")
    assert not _called(fn) & {"convert_dd_incidence", "dd_cone"}


def test_volume_triangulation_converts_nothing():
    # faces are cut from the masks of volume's one double description
    tree = ast.parse((PACKAGE / "latcount.py").read_text())
    fns = [node for node in tree.body if isinstance(node, ast.FunctionDef)
           and node.name in {"_pull", "_facets"}]
    assert len(fns) == 2
    for fn in fns:
        banned = _called(fn) & {"convert_dd_incidence", "dd_cone", "hull_coordinates"}
        assert not banned, f"{fn.name} calls {sorted(banned)}"
