"""Package layout: the names the benchmark tracer wraps exist, every
exported name resolves, no module reaches into another module's private
names, no library function takes a jobs parameter, lattice counting and the
CLI import no LP routine, symilp imports no elimination routine, the
symmetric count and the Ehrhart interpolation each walk one projection
chain, Ehrhart reads neither volume nor a dilate, the facet walk of repconv
and the counting walk of latcount stay in integer arithmetic, neither the
adjacency graph nor the triangulation behind volume converts anything,
symmetry detection and the group check
of the decompositions build no map, the symmetry search makes no Fraction
color and finds its spanning prefix with no whole elimination, only
polycore clears denominators,
the facet geometry, the projection chain and the volume frame stay in
integers, the symmetric ILP and its membership check read integer rows,
the simplex pivots one integer tableau, the block sums stay in integers,
the decompositions read what their input holds, an index set is an
ascending tuple from permgrp's set orbits through repconv's facet walk, a
polyhedron's rows and
points become integers only when it is built, as the int_rows and
int_points every constructor sets, are rounded or have denominators read
nowhere, and are converted and framed only through its own dd and frame,
and only polycore
builds a homogenization cone: outside it, only the tangent cones of
repconv._idm_orbits call dd_cone, the two realizers of symdetect are the
one place that judges the shape of an input for the symmetric routes, the
projection chain of latcount runs no double description, the double
description and the projection chain pair generators through the one
adjacency test adjacent_pairs and combine them, and the facet walk's
rotation, through combine, an H-description is converted to integer points
with no Fraction, and no module is long enough to grow the parser's token
array past 8,192 slots."""
import ast
import importlib
import importlib.util
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyorbit"


def _called(fn: ast.AST) -> set[str]:
    """Names of the functions and methods a syntax tree calls."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(fn) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def _imported(name: str) -> set[str]:
    """Names a module of the package imports."""
    return {a.asname or a.name
            for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}


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
    assert not _imported(name) & {"solve_lp", "feasible_point"}


def test_symilp_imports_no_elimination_routine():
    # groups act by permuting coordinates: fixed spaces and barycenters are
    # read off the point orbits, the reduced LP folds its rows over them
    # with no basis product, and no generator is a matrix
    banned = {"nullspace", "row_space_basis", "rank", "invert_matrix", "identity_matrix",
              "AffineMap", "mat_mul", "transpose"}
    assert not _imported("symilp.py") & banned


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


def test_ehrhart_reads_neither_volume_nor_a_dilate():
    # every sample is a count on the one chain of P, and the leading
    # coefficient is interpolated like the others
    tree = ast.parse((PACKAGE / "latcount.py").read_text())
    fns = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in
           {"ehrhart", "_count_scaled"}]
    assert len(fns) == 2
    for fn in fns:
        banned = _called(fn) & {"volume", "dilate"}
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


def test_counting_walk_builds_no_fraction():
    # the walk, its closed-form last two levels, the order it takes the
    # coordinates in and the closed and interior counts of a dilate run on
    # integer rows and points
    walk = {"_walk", "_fiber", "_plane_count", "_envelope_sum", "_floor_sum", "_widest_last",
            "_count_scaled"}
    banned = {"Fraction", "frac", "dot", "floor", "ceil"}
    tree = ast.parse((PACKAGE / "latcount.py").read_text())
    fns = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in walk]
    assert {fn.name for fn in fns} == walk
    for fn in fns:
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


def test_symmetry_checks_build_no_map():
    # detection and the check behind the decompositions stay in integers:
    # only realize_vertex_permutation and realize_row_permutation build maps
    checks = {"affine_symmetry_group", "restricted_symmetries_H", "are_affine_symmetries",
              "_frame_symmetries", "realize", "_relabels", "_image_matrix"}
    banned = {"Fraction", "AffineMap", "frac", "realize_vertex_permutation",
              "realize_row_permutation"}
    tree = ast.parse((PACKAGE / "symdetect.py").read_text())
    fns = [node for node in ast.walk(tree)
           if isinstance(node, ast.FunctionDef) and node.name in checks]
    assert {fn.name for fn in fns} == checks and len(fns) == len(checks) + 1   # two realize
    # the frame that each relabeling is checked on is a polyhedron's, in
    # polycore: its __init__, its R, and _pack and keeps on its packed rows
    (frame,) = _top_level("polycore.py", {"_IntegerFrame"})
    methods = [node for node in frame.body if isinstance(node, ast.FunctionDef)]
    assert sorted(fn.name for fn in methods) == ["R", "__init__", "_pack", "keeps"]
    fns += methods
    assert len(fns) == len(checks) + 5
    for fn in fns:
        assert not _called(fn) & banned, f"{fn.name} calls {sorted(_called(fn) & banned)}"
    tree = ast.parse((PACKAGE / "repconv.py").read_text())
    for fn in (node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in {"_decompose_points", "_decompose_rows"}):
        called = _called(fn)
        assert "are_affine_symmetries" in called and not called & banned, fn.name
    assert not _imported("repconv.py") & banned - {"Fraction"}


def test_symmetry_search_makes_no_fraction_color():
    # the gram colors, their refinement and the automorphism search compare
    # integer ranks and make no Fraction: only the two realize_* functions
    # build maps, and nothing else in the module makes one
    tree = ast.parse((PACKAGE / "symdetect.py").read_text())
    fns = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    search = {"_gram", "_refine_colors", "_automorphism_search"}
    assert {fn.name for fn in fns} >= search
    for fn in fns:
        if fn.name in search:
            assert not _called(fn) & {"Fraction", "frac"}, fn.name
    assert {fn.name for fn in fns if _called(fn) & {"Fraction", "frac"}} == {
        "realize_vertex_permutation", "realize_row_permutation"}


def test_spanning_prefix_eliminates_no_whole_matrix():
    # the prefix of the search order whose rows span is found row by row,
    # stopping at the frame's rank, with no elimination of every row
    (fn,) = [node for node in ast.walk(ast.parse((PACKAGE / "symdetect.py").read_text()))
             if isinstance(node, ast.FunctionDef) and node.name == "_spanning_prefix"]
    assert not _called(fn) & {"gauss_jordan", "_bareiss_step", "adjugate", "rank"}


@pytest.mark.parametrize("source", sorted(p for p in PACKAGE.glob("*.py")
                                         if p.name != "polycore.py"), ids=lambda p: p.name)
def test_only_polycore_clears_denominators(source):
    # a point list is scaled to integers by polycore.clear_denominators
    assert "lcm" not in _called(ast.parse(source.read_text()))


def _top_level(name: str, names: set) -> list:
    tree = ast.parse((PACKAGE / name).read_text())
    found = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name in names]
    assert {node.name for node in found} == names
    return found


def test_facet_geometry_projection_chain_and_volume_frame_stay_in_integers():
    banned = {"invert_matrix", "mat_mul", "mat_vec", "transpose", "solve_linear", "coordinates"}
    for name, names in [("repconv.py", {"_Geometry", "_plain_orbits", "_idm_orbits"}),
                        ("latcount.py", {"_top", "_chain", "_eliminate", "volume"})]:
        for node in _top_level(name, names):
            assert not _called(node) & banned, f"{node.name} calls {sorted(_called(node) & banned)}"


@pytest.mark.parametrize("source", sorted(p for p in PACKAGE.glob("*.py")
                                         if p.name != "polycore.py"), ids=lambda p: p.name)
def test_only_polycore_homogenizes_a_cone(source):
    # integer_h_to_v and integer_v_to_h own the homogenizing coordinate and
    # the conventions for equalities, lines and the trivial row; the tangent
    # cones of _idm_orbits are not homogenized
    if source.name in {"symilp.py", "latcount.py"}:
        assert "dd_cone" not in _imported(source.name)
    tree = ast.parse(source.read_text())
    callers = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and "dd_cone" in _called(node)}
    assert callers == ({"_idm_orbits"} if source.name == "repconv.py" else set())


def test_plain_orbits_read_one_integer_cone():
    # the masks come from integer_v_to_h on the integer points, with no
    # VPolyhedron built and no H-description thrown away
    (fn,) = _top_level("repconv.py", {"_plain_orbits"})
    assert not _called(fn) & {"convert_dd_incidence", "from_points"}


def _frozenset_calls(fn: ast.AST) -> list:
    """The calls of frozenset in a syntax tree."""
    return [call for call in ast.walk(fn) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "frozenset"]


def test_index_sets_are_ascending_tuples():
    # set orbit members and the facets of repconv's walk are ascending
    # tuples: orbit_of_set's one frozenset is SetOrbit.elements, the set of
    # its members, and _walk's is the crossed key pairs, OrbitLedger.edges
    (stab,) = _top_level("permgrp.py", {"set_stabilizer"})
    walk = _top_level("repconv.py", {"_initial_facet", "_neighbor_facet", "_neighbor_facets",
                                     "_idm_orbits", "_distinct_orbits", "_decompose_points",
                                     "_decompose_rows"})
    for fn in [stab, *walk]:
        assert not _frozenset_calls(fn), f"{fn.name} builds a frozenset"
    (orbit,) = _top_level("permgrp.py", {"orbit_of_set"})
    (call,) = _frozenset_calls(orbit)
    (made,) = [node for node in ast.walk(orbit) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "SetOrbit"]
    assert made.args[2] is call
    (fn,) = _top_level("repconv.py", {"_walk"})
    (call,) = _frozenset_calls(fn)
    assert [arg.id for arg in call.args] == ["pairs"]


def test_symmetric_ilp_reads_one_integer_row_list():
    # the rows are P.int_rows, made primitive in polycore, read once into row
    # orbits with no permutation built; the fiber ranges come from one
    # integer cone, with no Fraction system or conversion
    banned = {"convert_dd", "convert_dd_incidence", "fixed_space_system", "block_sum_image",
              "primitive", "integerize", "check_invariance", "_permutes_rows",
              "_block_generators"}
    for fn in _top_level("symilp.py", {"symmetric_ilp", "_sum_ranges", "_sweep"}):
        called = _called(fn)
        bad = called & (banned if fn.name == "symmetric_ilp" else banned | {"_block_sums"})
        assert not bad, f"{fn.name} calls {sorted(bad)}"
    tree = ast.parse((PACKAGE / "symilp.py").read_text())
    callers = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and _called(node) & {"primitive", "integerize"}}
    assert not callers, f"symilp: {sorted(callers)} make rows integer"


def test_block_sums_stay_in_integers():
    # block_sum_image is VPolyhedron.of_points of the integer block sums,
    # and slice_decomposition reads their extents off its int_points
    (fn,) = _top_level("symilp.py", {"block_sum_image"})
    assert not _called(fn) & {"Fraction", "frac", "vector", "matrix"}
    (fn,) = _top_level("latcount.py", {"slice_decomposition"})
    assert not _called(fn) & {"coordinate_bounds", "ceil", "floor"}


def test_decompositions_read_what_their_input_holds():
    # _decompose_rows reads P.dd and _decompose_points keeps V.vertices as
    # they are: neither converts nor rebuilds a form the object holds
    assert not _imported("repconv.py") & {"convert_dd_incidence", "vector"}


def test_membership_compares_integers():
    (cls,) = _top_level("polycore.py", {"HPolyhedron"})
    (fn,) = [node for node in cls.body if isinstance(node, ast.FunctionDef)
             and node.name == "contains"]
    assert not _called(fn) & {"dot", "Fraction", "frac"}


def test_simplex_pivots_one_integer_tableau():
    # the pivots and ratio tests of solve_lp run in integers, by the row step
    # of gauss_jordan; Fraction and dot make only the returned point
    fns = {fn.name: fn for fn in _top_level(
        "polycore.py", {"solve_lp", "_simplex", "_bareiss_step", "gauss_jordan"})}
    banned = {"Fraction", "frac", "dot"}
    for name in ("_simplex", "_bareiss_step"):
        assert not _called(fns[name]) & banned, f"{name} calls {sorted(_called(fns[name]) & banned)}"
    assert all("_bareiss_step" in _called(fns[name]) for name in ("_simplex", "gauss_jordan", "solve_lp"))
    calls = [call for call in ast.walk(fns["solve_lp"]) if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name)]
    last_pivot = max(call.lineno for call in calls if call.func.id == "_simplex")
    early = [call.lineno for call in calls if call.func.id in banned and call.lineno < last_pivot]
    assert not early, f"solve_lp calls {sorted(banned)} before its last pivot, at lines {early}"


@pytest.mark.parametrize("source", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_polyhedron_data_becomes_integer_only_through_its_own_form(source):
    # rows and points are scaled to integers once per object, when it is
    # built: HPolyhedron.int_rows and VPolyhedron.int_points are set by the
    # constructors of their class and by nothing else, and no other call
    # hands a polyhedron's A, b, vertices or rays to an integer scaling helper
    own = {"int_rows", "int_points"}
    makers = {("HPolyhedron", "__post_init__"), ("HPolyhedron", "of_rows"),
              ("VPolyhedron", "__post_init__"), ("VPolyhedron", "of_points")}
    scalers = {"primitive", "integerize", "clear_denominators"}
    data = {"A", "b", "vertices", "rays"}
    tree = ast.parse(source.read_text())
    methods = [(cls.name, fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    methods += [(None, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    skip = {id(node) for cls, fn in methods if source.name == "polycore.py"
            and (cls, fn.name) in makers for node in ast.walk(fn)}
    bad = [call.lineno for call in ast.walk(tree)
           if isinstance(call, ast.Call) and id(call) not in skip
           and (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) in scalers
           and any(isinstance(node, ast.Attribute) and node.attr in data
                   for arg in call.args + [k.value for k in call.keywords]
                   for node in ast.walk(arg))]
    assert not bad, f"{source.name} scales polyhedron data at lines {bad}"
    assert not {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)} & own
    setters = {(cls, fn.name) for cls, fn in methods for node in ast.walk(fn)
               if isinstance(node, ast.keyword) and node.arg in own
               or isinstance(node, ast.Constant) and node.value in own}
    assert setters == (makers if source.name == "polycore.py" else set())
    if source.name == "polycore.py":
        # the double description of an H-description and the integer frame
        # of either are cached, made at most once per object; nothing else
        # converts or frames a polyhedron
        forms = {("HPolyhedron", "dd"), ("HPolyhedron", "frame"), ("VPolyhedron", "frame")}
        for cls, name in sorted(forms):
            (node,) = _top_level("polycore.py", {cls})
            (fn,) = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == name]
            assert [ast.unparse(d) for d in fn.decorator_list] == ["cached_property"]
        makers = {(cls.name, fn.name): _called(fn) & {"_h_to_v", "_IntegerFrame"}
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        makers.update((fn.name, _called(fn) & {"_h_to_v", "_IntegerFrame"})
                      for fn in tree.body if isinstance(fn, ast.FunctionDef))
        assert {key: v for key, v in makers.items() if v} == {
            ("HPolyhedron", "dd"): {"_h_to_v"}, ("HPolyhedron", "frame"): {"_IntegerFrame"},
            ("VPolyhedron", "frame"): {"_IntegerFrame"}}
    else:
        assert not _called(tree) & {"_h_to_v", "_IntegerFrame"}, f"{source.name} builds a form"


def test_integer_form_is_set_by_every_constructor():
    # HPolyhedron(...), from_rows and of_rows set int_rows, and
    # VPolyhedron(...), from_points and of_points set int_points, before
    # anything reads them
    from polyorbit.polycore import HPolyhedron, VPolyhedron
    half = Fraction(1, 2)
    made = [(HPolyhedron(((half, 1),), (Fraction(3),)), "int_rows"),
            (HPolyhedron.from_rows([(1, 2)], [3], [1]), "int_rows"),
            (HPolyhedron.of_rows([(1, half, 3)]), "int_rows"),
            (VPolyhedron(((half, Fraction(1)),), ((Fraction(0), Fraction(1)),)), "int_points"),
            (VPolyhedron.from_points([(1, 2)], [(0, 1)]), "int_points"),
            (VPolyhedron.of_points(2, [(1, 2)], [(0, 1)]), "int_points")]
    assert all(name in vars(obj) for obj, name in made), \
        [type(obj).__name__ for obj, name in made if name not in vars(obj)]


def _hand_rounded(tree: ast.AST) -> list[int]:
    """Lines where a function takes lcm, floor or ceil of a polyhedron's A,
    b, vertices or rays, or reads their numerator or denominator: directly,
    or through a name bound by a loop, a comprehension or an assignment over
    them."""
    data = {"A", "b", "vertices", "rays"}
    bad = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        tainted: set = set()

        def reads(node):
            return any(isinstance(x, ast.Attribute) and x.attr in data
                       or isinstance(x, ast.Name) and x.id in tainted for x in ast.walk(node))

        binds = [(n.target, n.iter) for n in ast.walk(fn)
                 if isinstance(n, (ast.For, ast.comprehension))]
        binds += [(t, n.value) for n in ast.walk(fn) if isinstance(n, ast.Assign)
                  for t in n.targets]
        grew = True
        while grew:
            names = {x.id for target, value in binds if reads(value)
                     for x in ast.walk(target) if isinstance(x, ast.Name)}
            grew, tainted = not names <= tainted, tainted | names
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and (getattr(node.func, "id", None) or getattr(
                    node.func, "attr", None)) in {"lcm", "floor", "ceil"} and any(
                    reads(arg) for arg in node.args):
                bad.append(node.lineno)
            elif isinstance(node, ast.Attribute) and node.attr in {"numerator", "denominator"} \
                    and reads(node.value):
                bad.append(node.lineno)
    return sorted(set(bad))


def test_hand_rounding_rule_sees_a_rescaled_tableau_and_rounded_vertices():
    # the forms solve_lp and _widest_last took before they read the cached ones
    for text, lines in [
            ("def f(P):\n    return lcm(*(x.denominator for row in P.A for x in row))\n", [2]),
            ("def f(P):\n    for a, bb in zip(P.A, P.b):\n        g = bb.numerator\n", [3]),
            ("def f(V, t):\n    return [floor(t * max(c)) for c in zip(*V.vertices)]\n", [2]),
            ("def f(V, t):\n    s, pts, _ = V.int_points\n    return [t * max(c) // s for c in zip(*pts)]\n",
             [])]:
        assert _hand_rounded(ast.parse(text)) == lines, text


@pytest.mark.parametrize("source", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_polyhedron_data_is_rounded_only_in_its_own_form(source):
    # the simplex pivots P.int_rows and the counting walk orders coordinates
    # on V.int_points, so neither depends on how the input scales its data
    bad = _hand_rounded(ast.parse(source.read_text()))
    assert not bad, f"{source.name} rounds or rescales polyhedron data at lines {bad}"


def _counts_distinct(fn: ast.AST) -> bool:
    """Whether a syntax tree takes len(set(...)), the test for repeated items."""
    return any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "len"
               and call.args and isinstance(call.args[0], ast.Call)
               and getattr(call.args[0].func, "id", None) == "set"
               for call in ast.walk(fn))


def test_one_gate_judges_each_input_form():
    # detection builds a realizer, and each decomposition builds one through
    # are_affine_symmetries: only their constructors judge redundancy, full
    # dimension and repeated points, and a decomposition of rows reads the
    # one double description of its input
    judges = set()
    for name in ("symdetect.py", "repconv.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        for owner in tree.body:
            for fn in owner.body if isinstance(owner, ast.ClassDef) else [owner]:
                if isinstance(fn, ast.FunctionDef) and (
                        _called(fn) & {"irredundant_rows", "remove_redundancy"}
                        or _counts_distinct(fn)):
                    judges.add((owner.name, fn.name) if owner is not fn else fn.name)
    assert judges == {("_VertexRealizer", "__init__"), ("_RowRealizer", "__init__")}
    tree = ast.parse((PACKAGE / "symdetect.py").read_text())
    assert "_polytope_frame" not in {fn.name for fn in ast.walk(tree)
                                     if isinstance(fn, ast.FunctionDef)}
    (fn,) = _top_level("repconv.py", {"_decompose_rows"})
    assert "integer_h_to_v" not in _called(fn)


def test_projection_chain_runs_no_double_description():
    # the levels below the top are Fourier-Motzkin steps on the facets and
    # masks of the one DD the caller already made
    banned = {"dd_cone", "convert_dd", "convert_dd_incidence", "integer_h_to_v",
              "integer_v_to_h", "_top"}
    for node in _top_level("latcount.py", {"_chain", "_eliminate"}):
        assert not _called(node) & banned, f"{node.name} calls {sorted(_called(node) & banned)}"


def test_one_top_builds_every_projection_chain():
    # _chain takes a top and an order, no polyhedron, and _top, which makes
    # that top for H and V input alike, is the one routine of latcount that
    # converts, reads a double description or judges redundancy; volume and
    # ehrhart take their facets, masks, hull normals and period from it
    tree = ast.parse((PACKAGE / "latcount.py").read_text())
    dd = {"irredundant_rows", "convert_dd_incidence", "convert_dd", "integer_h_to_v",
          "integer_v_to_h", "integer_nullspace"}
    readers = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef) and (
        _called(fn) & dd or any(
            isinstance(node, ast.Attribute) and node.attr == "dd" for node in ast.walk(fn)))}
    assert readers == {"_top"}
    (ehrhart,) = _top_level("latcount.py", {"ehrhart"})
    assert not _called(ehrhart) & {"VPolyhedron", "from_points", "of_points"}
    (chain,) = _top_level("latcount.py", {"_chain"})
    assert [a.arg for a in chain.args.args] == ["top", "order"]
    assert not chain.args.vararg and not chain.args.kwonlyargs and not chain.args.kwarg



def _tests_common_mask(fn: ast.AST) -> bool:
    """Whether fn tests a mask against a pair's common mask, m & z == z with
    z a name that fn assigns the AND of two masks to."""
    common = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.BitAnd)
              for t in node.targets if isinstance(t, ast.Name)}
    return any(isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Eq)
               and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.BitAnd)
               and isinstance(node.comparators[0], ast.Name) and node.comparators[0].id in common
               and node.comparators[0].id in {getattr(node.left.left, "id", None),
                                              getattr(node.left.right, "id", None)}
               for node in ast.walk(fn))


def test_one_pair_step_serves_the_dd_and_the_projection_chain():
    # the double description and each Fourier-Motzkin step pair generators
    # through adjacent_pairs (Chernikov's rule) and combine each pair with
    # combine, which also rotates repconv's supporting hyperplane
    for name, names in [("polycore.py", {"dd_cone"}), ("latcount.py", {"_eliminate"})]:
        (fn,) = _top_level(name, names)
        assert {"adjacent_pairs", "combine"} <= _called(fn), fn.name
    (fn,) = _top_level("repconv.py", {"_rotate_about"})
    assert "combine" in _called(fn)
    testers = {(source.name, fn.name) for source in PACKAGE.glob("*.py")
               for fn in ast.walk(ast.parse(source.read_text()))
               if isinstance(fn, ast.FunctionDef) and _tests_common_mask(fn)}
    assert testers == {("polycore.py", "adjacent_pairs")}

def test_h_to_v_conversion_builds_no_fraction():
    # the vertices of P.dd are made from its int_points on their first read,
    # by VPolyhedron, not by the conversion
    banned = {"Fraction", "frac", "vector", "matrix"}
    for fn in _top_level("polycore.py", {"integer_h_to_v", "_h_to_v"}):
        assert not _called(fn) & banned, f"{fn.name} calls {sorted(_called(fn) & banned)}"


@pytest.mark.parametrize("source", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_under_8192_tokens(source):
    # CPython 3.11's parser doubles its token array at 8,192 tokens (comments
    # and blank lines are not tokens to it), and compiling a module past
    # that raises the peak memory of every fresh import by about 0.5 MiB
    with source.open(encoding="utf-8") as fh:
        tokens = sum(1 for tok in tokenize.generate_tokens(fh.readline)
                     if tok.type not in (tokenize.COMMENT, tokenize.NL))
    assert tokens < 8192, f"{source.name} has {tokens} tokens"
