"""Representation conversion: plain double description and the orbit methods."""
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from operator import mul
from pathlib import Path

import pytest

from polyorbit.polycore import (
    EmptyPolyhedronError,
    HPolyhedron,
    PolyhedronError,
    VPolyhedron,
    affine_hull,
    convert_dd_incidence,
    dot,
    hull_coordinates,
    incidence,
    index_set,
    integer_nullspace,
    integer_v_to_h,
    invert_matrix,
    nullspace,
    primitive,
    rank,
    remove_redundancy,
    vec_sub,
    vector,
)
from polyorbit import cli, polycore, repconv, symdetect
from polyorbit.cli import main, parse_polyfile
from polyorbit.permgrp import (
    OrbitBudgetExceeded,
    Permutation,
    PermutationGroup,
    orbit_of_set,
    set_stabilizer,
)
from polyorbit.repconv import (
    AdjacencyGraphUpToSymmetry,
    adjacency_decomposition,
    adjacency_graph,
    convert_dd,
    dd_cone,
    incidence_decomposition,
    shortest_path,
    write_dot,
)
from polyorbit.symdetect import (
    affine_symmetry_group,
    are_affine_symmetries,
    restricted_symmetries_H,
)

from shapes import (
    affine_coordinates,
    cross_h,
    cross_v,
    cube_h,
    cube_v,
    cut_v,
    hypersimplex_v,
    ledger_facet_rows,
    mat_mul,
    mat_vec,
    replace,
    row_set,
    santos_prismatoid,
    simplex_h,
    simplex_v,
    transpose,
    vec_add,
    vec_scale,
)

FIX = Path(__file__).parent / "fixtures"


def normalized_rows(H: HPolyhedron) -> set:
    return {primitive(tuple(H.A[i]) + (H.b[i],)) for i in range(H.m)}


def neighbors(graph, i: int) -> list[int]:
    """The nodes an edge of an orbit graph joins to node i, ascending."""
    return sorted({v for u, v in graph.edges if u == i} | {u for u, v in graph.edges if v == i})


def group_of(P):
    if isinstance(P, HPolyhedron):
        return restricted_symmetries_H(P)
    return affine_symmetry_group(P)


# ---------------------------------------------------------------------------
# dd_cone


def test_dd_cone_no_rows_is_whole_space():
    lin, rays, masks = dd_cone([], 3)
    assert len(lin) == 3 and rays == [] and masks == []


def test_dd_cone_orthant():
    rows = [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]  # -x_i <= 0
    lin, rays, masks = dd_cone([tuple(map(Fraction, r)) for r in rows], 3)
    assert lin == []
    assert set(rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    # e_i is tight on every row but -x_i <= 0
    assert {r: m for r, m in zip(rays, masks)} == {
        (1, 0, 0): 0b110, (0, 1, 0): 0b101, (0, 0, 1): 0b011}


def test_dd_cone_halfspace_keeps_lineality():
    lin, rays, masks = dd_cone([(Fraction(1), Fraction(0))], 2)
    assert masks == [0]
    assert set(rays) == {(-1, 0)}
    assert set(lin) == {(0, 1)}


def test_dd_cone_square_cone():
    # cone over the square: x, y between -z and z
    rows = [(1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)]
    lin, rays, masks = dd_cone([tuple(map(Fraction, r)) for r in rows], 3)
    assert lin == []
    assert set(rays) == {(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)}
    for r, m in zip(rays, masks):
        assert m == sum(1 << t for t, row in enumerate(rows) if dot(row, r) == 0)


def test_dd_cone_deterministic():
    rows = [(1, 2, -3), (-2, 1, -1), (0, -1, -1), (1, 1, -5), (-1, -1, 0)]
    fr = [tuple(map(Fraction, r)) for r in rows]
    assert dd_cone(fr, 3) == dd_cone(fr, 3)


def test_dd_round_trip_returns_irredundant_rows():
    """H -> V -> H on seeded rational full-dimensional polytopes gives back the
    primitive rows of remove_redundancy(P); every vertex is tight on n rows."""
    rng = random.Random(1996)
    for _ in range(30):
        n = rng.randint(1, 4)
        A, b = [], []
        for i in range(n):
            for s in (1, -1):
                A.append(tuple(Fraction(s * (i == j)) for j in range(n)))
                b.append(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 5)):
            A.append(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)))
            b.append(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        k = rng.randrange(len(A))          # a positive multiple of a row
        A.append(tuple(2 * x for x in A[k]))
        b.append(2 * b[k])
        P = HPolyhedron.from_rows(A, b)    # the origin is an interior point
        V = convert_dd(P)
        assert normalized_rows(convert_dd(V)) == normalized_rows(remove_redundancy(P))
        for v in V.vertices:
            assert sum(dot(a, v) == bb for a, bb in zip(P.A, P.b)) >= n


# ---------------------------------------------------------------------------
# convert_dd


def test_cube_h_to_v():
    V = convert_dd(cube_h(3))
    assert len(V.rays) == 0
    assert set(V.vertices) == set(cube_v(3).vertices)


def test_simplex_v_to_h():
    H = convert_dd(simplex_v(3))
    assert H.m == 4 and not H.equality_rows
    for v in simplex_v(3).vertices:
        assert H.contains(v)


def test_octahedron_v_to_h():
    octa = cross_v(3)
    H = convert_dd(octa)
    assert H.m == 8
    # substitution cross-check: every facet is sign-vector . x <= 1 and is
    # tight on exactly 3 of the 6 vertices
    inc = incidence(H, octa)
    for i in range(1, H.m + 1):
        assert primitive(tuple(H.A[i - 1]) + (H.b[i - 1],))[-1] == 1
        assert all(abs(x) == abs(H.A[i - 1][0]) for x in H.A[i - 1])
        assert len(row_set(inc, i)) == 3


def test_round_trips():
    for P in [cube_h(2), cube_h(4), cross_h(3)]:
        V = convert_dd(P)
        H2 = convert_dd(V)
        assert normalized_rows(H2) == normalized_rows(P)
    for V in [cube_v(3), cross_v(4), simplex_v(4)]:
        H = convert_dd(V)
        V2 = convert_dd(H)
        assert set(V2.vertices) == set(V.vertices)


def test_redundant_rows_dropped():
    # unit square plus a loose row x + y <= 5
    A = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)]
    b = [1, 1, 1, 1, 5]
    P = HPolyhedron.from_rows([tuple(map(Fraction, r)) for r in A], list(map(Fraction, b)))
    V = convert_dd(P)
    assert len(V.vertices) == 4
    H2 = convert_dd(V)
    assert H2.m == 4


def test_empty_polyhedron_flagged():
    P = HPolyhedron.from_rows([(Fraction(1),), (Fraction(-1),)],
                              [Fraction(-1), Fraction(-1)])   # x <= -1, -x <= -1
    with pytest.raises(EmptyPolyhedronError):
        convert_dd(P)
    with pytest.raises(EmptyPolyhedronError):
        convert_dd(VPolyhedron((), ()))


def test_unbounded_h_to_v_reports_rays():
    # x >= 0 quadrant in R^2, shifted: x_i >= 1
    A = [(-1, 0), (0, -1)]
    b = [-1, -1]
    V = convert_dd(HPolyhedron.from_rows(
        [tuple(map(Fraction, r)) for r in A], list(map(Fraction, b))))
    assert set(V.vertices) == {(Fraction(1), Fraction(1))}
    assert set(V.rays) == {(1, 0), (0, 1)}


def test_lower_dimensional_v_to_h_has_equalities():
    # a segment embedded in R^3
    seg = VPolyhedron.from_points([(0, 0, 0), (1, 1, 2)])
    H = convert_dd(seg)
    assert len(H.equality_rows) == 2
    for v in seg.vertices:
        assert H.contains(v)
    assert not H.contains((Fraction(2), Fraction(2), Fraction(4)))
    assert not H.contains((Fraction(1), Fraction(0), Fraction(0)))


def test_vertex_figure_of_unbounded_lineality():
    # {x : x1 <= 0} has a lineality direction, returned as a +/- ray pair
    P = HPolyhedron.from_rows([(Fraction(1), Fraction(0))], [Fraction(0)])
    V = convert_dd(P)
    assert (0, 1) in set(V.rays) and (0, -1) in set(V.rays)


# ---------------------------------------------------------------------------
# adjacency decomposition


def test_cube_full_group_single_orbit():
    P = cube_h(3)
    led = adjacency_decomposition(P, restricted_symmetries_H(P))
    assert led.orbit_count == 1
    entry = next(iter(led.entries.values()))
    assert entry.size == 6
    assert len(led.vertex_group.point_orbits()) == 1
    assert set(led.vertices) == set(cube_v(3).vertices)


def test_cube_trivial_group_six_orbits():
    V = cube_v(3)
    led = adjacency_decomposition(V, PermutationGroup([], degree=8))
    assert led.orbit_count == 6
    assert all(e.size == 1 for e in led.entries.values())
    assert ledger_facet_rows(led) == normalized_rows(convert_dd(V))


def test_santos_prismatoid_expansion_matches_plain():
    V = santos_prismatoid()
    G = affine_symmetry_group(V)
    led = adjacency_decomposition(V, G)
    H = convert_dd(V)
    assert H.m == 322
    assert sum(e.size for e in led.entries.values()) == 322
    assert ledger_facet_rows(led) == normalized_rows(H)


def test_non_symmetry_group_rejected():
    V = cube_v(3)
    # swapping just two vertices of a cube is no affine symmetry
    bad = PermutationGroup([Permutation((2, 1, 3, 4, 5, 6, 7, 8))])
    with pytest.raises(PolyhedronError):
        adjacency_decomposition(V, bad)
    P = cube_h(3)
    # maps +e1 <-> +e2 while fixing -e1 and -e2: no linear map does that
    badrows = PermutationGroup([Permutation((3, 2, 1, 4, 5, 6))])
    with pytest.raises(PolyhedronError):
        adjacency_decomposition(P, badrows)


def test_preconditions_rejected():
    G1 = PermutationGroup([], degree=2)
    unbounded = HPolyhedron.from_rows([(Fraction(1), Fraction(0)),
                                       (Fraction(0), Fraction(1))],
                                      [Fraction(1), Fraction(1)])
    with pytest.raises(PolyhedronError):
        adjacency_decomposition(unbounded, G1)
    redundant = HPolyhedron.from_rows(
        [tuple(map(Fraction, r)) for r in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)]],
        [Fraction(x) for x in [1, 1, 1, 1, 5]])
    with pytest.raises(PolyhedronError):
        adjacency_decomposition(redundant, PermutationGroup([], degree=5))
    with pytest.raises(PolyhedronError):
        adjacency_decomposition(cube_v(2), PermutationGroup([], degree=7))
    rays = VPolyhedron.from_points([(0, 0)], [(1, 0)])
    with pytest.raises(PolyhedronError):
        adjacency_decomposition(rays, PermutationGroup([], degree=1))
    with pytest.raises(PolyhedronError):
        adjacency_decomposition(cube_v(2), PermutationGroup([], degree=4),
                                levels=(0, -1))


def _h(A, b, eq=()):
    return HPolyhedron.from_rows(A, b, eq)


SQUARE_A = [(1, 0), (-1, 0), (0, 1), (0, -1)]


# One gate judges an H input for every symmetric route: the row check of
# symdetect, which the group check builds, refuses an empty, lower-dimensional
# or redundant system with the texts of restricted_symmetries_H.  A
# decomposition adds only its degree and boundedness checks.
@pytest.mark.parametrize("P, G, error, message", [
    pytest.param(_h([(1,), (-1,)], [0, -1]), None, EmptyPolyhedronError,
                 "empty polyhedron has no affine hull", id="empty"),
    pytest.param(_h([(1, 0), (-1, 0)], [0, -1]), None, EmptyPolyhedronError,
                 "empty polyhedron has no affine hull", id="empty-with-a-line"),
    pytest.param(_h([(-1, 0), (0, -1), (-1, -1)], [0, 0, -1]), None, PolyhedronError,
                 "decomposition requires a bounded polytope", id="unbounded"),
    pytest.param(_h([(1,), (-1,)], [0, 0]), None, PolyhedronError,
                 "restricted symmetry detection needs a full-dimensional input", id="point"),
    pytest.param(_h(SQUARE_A, [1, -1, 1, 1]), None, PolyhedronError,
                 "restricted symmetry detection needs a full-dimensional input", id="segment"),
    pytest.param(_h(SQUARE_A + [(1, 1)], [1, 1, 1, 1, 5]), None, PolyhedronError,
                 "restricted symmetry detection needs an irredundant description",
                 id="redundant"),
    pytest.param(_h(SQUARE_A + [(2, 0)], [1, 1, 1, 1, 2]), None, PolyhedronError,
                 "restricted symmetry detection needs an irredundant description",
                 id="duplicate"),
    pytest.param(_h(SQUARE_A + [(0, 0)], [1, 1, 1, 1, 0]), None, PolyhedronError,
                 "restricted symmetry detection needs an irredundant description",
                 id="zero-row"),
    pytest.param(_h(SQUARE_A, [1, 1, 1, 1], (1,)), None, PolyhedronError,
                 "restricted symmetry detection needs a full-dimensional input",
                 id="equality-rows"),
    pytest.param(cube_h(3), PermutationGroup([], degree=5), PolyhedronError,
                 "group degree does not match the number of rows", id="wrong-degree"),
    pytest.param(cube_h(3), PermutationGroup([Permutation((3, 2, 1, 4, 5, 6))]),
                 PolyhedronError, "group generator is not an affine symmetry of the rows",
                 id="non-symmetric-generator"),
])
@pytest.mark.parametrize("decompose", [adjacency_decomposition, incidence_decomposition])
def test_h_preconditions_raise_their_own_messages(P, G, error, message, decompose):
    G = G or PermutationGroup([], degree=P.m)
    with pytest.raises(error) as info:
        decompose(P, G)
    assert type(info.value) is error and str(info.value) == message


# ---------------------------------------------------------------------------
# incidence decomposition


@pytest.mark.parametrize("P", [cube_h(3), cube_v(3), cross_v(3), cross_h(3)])
def test_idm_matches_adm(P):
    G = group_of(P)
    led_a = adjacency_decomposition(P, G)
    led_i = incidence_decomposition(P, G)
    assert list(led_a.entries) == list(led_i.entries)
    assert [e.size for e in led_a.entries.values()] == \
           [e.size for e in led_i.entries.values()]
    assert led_a.vertices == led_i.vertices


def test_idm_trivial_group_equals_plain():
    V = cross_v(3)
    led = incidence_decomposition(V, PermutationGroup([], degree=6))
    assert led.orbit_count == 8
    assert ledger_facet_rows(led) == normalized_rows(convert_dd(V))


def test_levels_policy_idm_at_top():
    # --idm-adm-level style: depth 0 under IDM, everything below plain
    V = cube_v(4)
    G = affine_symmetry_group(V)
    led = adjacency_decomposition(V, G, levels=(1, 1))
    assert list(led.entries) == list(adjacency_decomposition(V, G).entries)


# ---------------------------------------------------------------------------
# ledger invariants


@pytest.mark.parametrize("P", [cube_v(2), cube_v(3), cube_v(4), cross_v(3),
                               cross_v(4), simplex_v(3), simplex_v(5)])
def test_oracle_equivalence_and_counts(P):
    G = group_of(P)
    led = adjacency_decomposition(P, G)
    H = convert_dd(P)
    assert ledger_facet_rows(led) == normalized_rows(H)
    assert sum(e.orbit.size for e in led.entries.values()) == H.m


LEVELS = {"adm": (0, 1), "idm": (1, 1), "plain": (0, 0)}


@pytest.mark.parametrize("P", [
    cube_v(3), cube_v(4), cross_v(4), simplex_v(4), cut_v(4), santos_prismatoid(),
    "cube3.ext", "quad-asym.ext",
    cube_h(4), cross_h(3), simplex_h(4), "cube3.ine", "cube3-blocks.ine",
], ids=["cube_v3", "cube_v4", "cross_v4", "simplex_v4", "cut_v4", "santos", "cube3.ext",
        "quad-asym.ext", "cube_h4", "cross_h3", "simplex_h4", "cube3.ine", "cube3-blocks.ine"])
def test_ledger_orbit_sizes_sum_to_plain_dd(P):
    """V input: the facet-orbit sizes of every ledger sum to the facet count
    of a plain conversion.  H input: the vertex-orbit sizes sum to its
    vertex count.  Every key is the lex-least set of its orbit, found here
    by applying every group element."""
    if isinstance(P, str):
        pf = parse_polyfile((FIX / P).read_text())
        P = pf.to_vpolyhedron() if pf.kind == "V" else pf.to_hpolyhedron()
    G = group_of(P)
    plain = convert_dd(P)
    for levels in LEVELS.values():
        led = adjacency_decomposition(P, G, levels)
        group = list(led.vertex_group.elements())
        for key, e in led.entries.items():
            images = {tuple(sorted(g.apply_set(key))) for g in group}
            assert e.orbit.elements == images, levels
            assert key == e.orbit.representative == min(tuple(sorted(X)) for X in images), levels
        if isinstance(P, VPolyhedron):
            assert sum(e.size for e in led.entries.values()) == plain.m, levels
        else:
            assert sum(len(orb) for orb in led.vertex_group.point_orbits()) == len(plain.vertices)
            assert set(led.vertices) == set(plain.vertices)


@pytest.mark.parametrize("V", [pytest.param(cut_v(5), id="cut5"),
                               pytest.param(cross_v(6), id="cross6")])
@pytest.mark.parametrize("method", list(LEVELS))
def test_orbits_over_the_set_budget_are_counted_once(V, method, monkeypatch):
    # every facet orbit has more than 20 sets, so none can get a canonical
    # key; the conversion refuses rather than count an orbit twice (CUT_5
    # once gave 8, 31 and 41 orbits)
    monkeypatch.setattr(repconv, "orbit_of_set", partial(orbit_of_set, budget=20))
    G = affine_symmetry_group(V)
    with pytest.raises(OrbitBudgetExceeded, match="^set orbit exceeded budget 20$"):
        adjacency_decomposition(V, G, LEVELS[method])


@pytest.mark.parametrize("V,method,orbits", [
    pytest.param(cross_v(6), "adm", 1, id="cross6-adm"),
    pytest.param(cut_v(5), "idm", 2, id="cut5-idm"),
])
def test_each_facet_orbit_is_expanded_once(V, method, orbits, monkeypatch):
    # a facet in an orbit already expanded is looked up, not expanded again;
    # the ridge orbits below the top are expanded under facet stabilizers
    G = affine_symmetry_group(V)
    groups = []

    def counted(H, S, *args, **kwargs):
        groups.append(H)
        return orbit_of_set(H, S, *args, **kwargs)

    monkeypatch.setattr(repconv, "orbit_of_set", counted)
    led = adjacency_decomposition(V, G, LEVELS[method])
    assert led.orbit_count == orbits
    assert sum(H is G for H in groups) == orbits


def test_every_facet_supporting():
    V = cross_v(4)
    G = affine_symmetry_group(V)
    led = adjacency_decomposition(V, G)
    d = 4
    for row in ledger_facet_rows(led):
        a, bb = row[:-1], row[-1]
        tight = [v for v in V.vertices if dot(a, v) == bb]
        assert all(dot(a, v) <= bb for v in V.vertices)
        # incident vertices affinely span a (d-1)-dimensional set
        from polyorbit.polycore import rank, vec_sub
        assert rank([vec_sub(t, tight[0]) for t in tight[1:]]) == d - 1


def test_ledger_counters():
    P = cube_h(3)
    led = adjacency_decomposition(P, restricted_symmetries_H(P))
    assert led.orbit_count == len(led.entries)
    assert sum(e.size for e in led.entries.values()) == 6


def test_lower_dimensional_input_handled():
    # planar square floating in R^3
    pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    V = VPolyhedron.from_points([tuple(map(Fraction, p)) for p in pts])
    G = affine_symmetry_group(V)
    assert G.order() == 8
    led = adjacency_decomposition(V, G)
    assert led.orbit_count == 1 and sum(e.size for e in led.entries.values()) == 4
    H = convert_dd(V)
    inc = incidence(H, V)
    want = {tuple(sorted(row_set(inc, i))) for i in range(1, H.m + 1) if i not in H.equality_rows}
    assert set().union(*(e.orbit.elements for e in led.entries.values())) == want


# ---------------------------------------------------------------------------
# adjacency graph and paths


def test_cube_full_group_graph_self_loop():
    P = cube_h(3)
    G = restricted_symmetries_H(P)
    led = adjacency_decomposition(P, G)
    g = adjacency_graph(led)
    assert g.node_count == 1
    assert g.edges == frozenset({(1, 1)})


def test_cube_trivial_group_graph_is_octahedral():
    V = cube_v(3)
    triv = PermutationGroup([], degree=8)
    led = adjacency_decomposition(V, triv)
    g = adjacency_graph(led)
    assert g.node_count == 6
    assert len(g.edges) == 12
    for i in range(1, 7):
        assert len(neighbors(g, i)) == 4


def test_shortest_path_basics():
    V = cube_v(3)
    triv = PermutationGroup([], degree=8)
    g = adjacency_graph(adjacency_decomposition(V, triv))
    assert shortest_path(g, 3, 3) == 0
    n1 = neighbors(g, 1)[0]
    assert shortest_path(g, 1, n1) == 1
    # opposite facets of a cube are two steps apart
    far = [j for j in range(1, 7) if j != 1 and j not in neighbors(g, 1)]
    assert far and all(shortest_path(g, 1, j) == 2 for j in far)
    with pytest.raises(ValueError):
        shortest_path(g, 0, 1)
    with pytest.raises(ValueError):
        shortest_path(g, 1, 99)


def test_unreachable_is_distinct_outcome():
    # the two endpoints of a segment share no ridge
    seg = VPolyhedron.from_points([(Fraction(0),), (Fraction(1),)])
    triv = PermutationGroup([], degree=2)
    led = adjacency_decomposition(seg, triv)
    g = adjacency_graph(led)
    assert g.node_count == 2 and not g.edges
    assert shortest_path(g, 1, 2) is None


def test_dot_output_format():
    P = cube_h(3)
    G = restricted_symmetries_H(P)
    led = adjacency_decomposition(P, G)
    g = adjacency_graph(led)
    text = write_dot(g)
    assert text == 'graph {\n  o1 [label="orbit 1 (size 6)"];\n  o1 -- o1;\n}\n'


def test_dot_multi_node():
    V = cross_v(2)
    triv = PermutationGroup([], degree=4)
    g = adjacency_graph(adjacency_decomposition(V, triv))
    text = write_dot(g)
    lines = text.splitlines()
    assert lines[0] == "graph {" and lines[-1] == "}"
    assert sum("--" in ln for ln in lines) == len(g.edges)
    for i in range(1, 5):
        assert f'o{i} [label="orbit {i} (size 1)"];' in text


def test_santos_base_distance_six():
    V = santos_prismatoid()
    G = affine_symmetry_group(V)
    top = frozenset(i + 1 for i, p in enumerate(V.vertices) if p[4] == 1)
    stab = set_stabilizer(G, top)
    led = adjacency_decomposition(V, stab)
    g = adjacency_graph(led)
    # base facets are the ones with the most incident vertices
    counts = [len(k) for k in g.keys]
    peak = max(counts)
    bases = [i + 1 for i, c in enumerate(counts) if c == peak]
    assert len(bases) == 2 and peak == 24
    assert shortest_path(g, bases[0], bases[1]) == 6


# ---------------------------------------------------------------------------
# one facet walk behind the ledger and the graph


def _key_edges(g):
    """The edges of a graph as sets of orbit keys; node numbers follow
    discovery order, which differs between routes."""
    return {frozenset((g.keys[i - 1], g.keys[j - 1])) for i, j in g.edges}


def _ridge_oracle(V):
    """Facet adjacency from the incidence masks of a plain conversion: two
    facets are adjacent exactly when no third facet contains their common
    points."""
    H, masks = convert_dd_incidence(V)
    facets = [m for i, m in enumerate(masks, start=1) if i not in H.equality_rows]
    edges = set()
    for s, m1 in enumerate(facets):
        for t in range(s + 1, len(facets)):
            common = m1 & facets[t]
            if not any(m & common == common
                       for u, m in enumerate(facets) if u not in (s, t)):
                edges.add(frozenset((tuple(sorted(index_set(m1))),
                                     tuple(sorted(index_set(facets[t]))))))
    return edges


GRAPH_INPUTS = {
    "cube3.ext": None, "quad-asym.ext": None, "diamond-third.ext": None,
    "square-midpoint.ext": None, "santos.ext": None,
    "cube4": partial(cube_v, 4), "cross4": partial(cross_v, 4),
    "hypersimplex-2-5": partial(hypersimplex_v, 2, 5), "cut5": partial(cut_v, 5),
}


def _graph_input(name):
    make = GRAPH_INPUTS[name]
    return make() if make else parse_polyfile((FIX / name).read_text()).to_vpolyhedron()


@pytest.mark.parametrize("name", list(GRAPH_INPUTS))
def test_recorded_and_walked_graphs_agree(name):
    """The ADM ledger's recorded edges against the graph walked for the IDM
    and plain ledgers, under the full group; under the trivial group all
    three against the facet incidences of a plain conversion."""
    V = _graph_input(name)
    trivial = PermutationGroup([], degree=len(V.vertices))
    # the prismatoid's 322 facets make the trivial-group walks and the cubic
    # oracle slow; it keeps the full-group check
    groups = [group_of(V)] + ([trivial] if name != "santos.ext" else [])
    for G in groups:
        graphs = {}
        for method, levels in LEVELS.items():
            led = adjacency_decomposition(V, G, levels)
            assert (led.edges is not None) == (method == "adm")
            graphs[method] = _key_edges(adjacency_graph(led))
        assert graphs["adm"] == graphs["idm"] == graphs["plain"]
        if G is trivial:
            assert graphs["adm"] == _ridge_oracle(V)


@pytest.mark.parametrize("method", ["adm", "idm"])
def test_incomplete_ledger_is_refused(method):
    V = santos_prismatoid()
    led = adjacency_decomposition(V, group_of(V), LEVELS[method])
    assert (led.edges is not None) == (method == "adm")
    for dropped in led.entries:
        entries = {k: e for k, e in led.entries.items() if k != dropped}
        with pytest.raises(PolyhedronError, match="^ledger is not complete"):
            adjacency_graph(replace(led, entries=entries))


def test_walk_ledger_graph_rotates_no_ridge(monkeypatch):
    V = santos_prismatoid()
    G = group_of(V)
    led = adjacency_decomposition(V, G)
    # the same ledger without its edges is walked again, with rotations
    want = adjacency_graph(replace(led, edges=None))

    def refuse(*args, **kwargs):
        raise AssertionError("the graph of a walked ledger rotates no ridge")

    monkeypatch.setattr(repconv, "_rotate_about", refuse)
    assert adjacency_graph(led) == want


# ---------------------------------------------------------------------------
# integer facet walk against the Fraction reference


def _off(pts, c, delta, on):
    """What repconv._rotate_about scans: (i, p, delta - c.p) for each point
    p off the index set on, 1-based index i."""
    return [(i, p, delta - sum(map(mul, c, p))) for i, p in enumerate(pts, 1) if i not in on]


def _ref_supporting_row(pts, S, ns):
    """The Fraction form of repconv._supporting_row, which also checks that
    the given null space vector is constant on S."""
    if len(ns) != 1:
        raise PolyhedronError("index set does not span a facet")
    a = vector(ns[0])
    delta = dot(a, pts[min(S) - 1])
    assert all(dot(a, pts[i - 1]) == delta for i in S)
    for j in range(len(pts)):
        if (j + 1) in S:
            continue
        val = dot(a, pts[j])
        if val == delta:
            raise PolyhedronError("index set is not a full incidence set")
        if val > delta:
            a = tuple(-x for x in a)
            delta = -delta
        break
    return a, delta


def _ref_ambient_row(points, S):
    """The facet row on S of a point list, found in its hull coordinates
    and lifted back through the pseudo-inverse of the hull directions D:
    coordinates(x) = (D D^T)^-1 D (x - point), so a row a.y <= delta in
    hull coordinates is (M^T a).x <= delta + (M^T a).point, M = (D D^T)^-1 D."""
    hull = affine_hull(points)
    D = hull.directions
    M = mat_mul(invert_matrix(mat_mul(D, transpose(D))), D)
    local = [affine_coordinates(hull, p) for p in points]
    ns = _ref_hull_coordinates([local[i - 1] for i in sorted(S)])[0]
    a, delta = _ref_supporting_row(local, S, ns)
    a_amb = mat_vec(transpose(M), a)
    return primitive(tuple(a_amb) + (delta + dot(a_amb, hull.point),))


def _ref_rotate_about(pts, face, c, delta, off, g=None):
    """The Fraction form of repconv._rotate_about: one Fraction parameter
    per point of off, read by index only.  A given g is not used: the second
    functional is always a null vector of the face, oriented by the first
    point in neither off nor the face, a point of the facet off its ridge,
    when there is one."""
    members = sorted(face)
    base = pts[members[0] - 1]
    ns = nullspace([vec_sub(pts[i - 1], base) for i in members[1:]], len(base))
    if len(ns) == 1:
        return None
    skip = {i for i, _, _ in off}
    away = next((i for i in range(1, len(pts) + 1) if i not in skip and i not in face), None)
    g = next(v for v in ns if rank([v, c]) == 2)
    if away is not None and dot(g, pts[away - 1]) > dot(g, base):
        g = tuple(-x for x in g)
    gamma = dot(g, base)
    t_best = None
    arg = []
    for i in sorted(skip):
        p = pts[i - 1]
        tv = (dot(g, p) - gamma) / (delta - dot(c, p))
        if t_best is None or tv > t_best:
            t_best, arg = tv, [i]
        elif tv == t_best:
            arg.append(i)
    return vec_add(g, vec_scale(t_best, c)), gamma + t_best * delta, arg


def _ref_hull_coordinates(pts):
    """The Fraction form of hull_coordinates: the normals are the primitive
    forms of the null space of the hull's directions, and the pivots are
    the leading columns of those directions, rows of a reduced row echelon
    form."""
    hull = affine_hull(pts)
    normals = [primitive(v) for v in nullspace(hull.directions, len(pts[0]))]
    pivots = [next(j for j, x in enumerate(row) if x) for row in hull.directions]
    return normals, [affine_coordinates(hull, p) for p in pts], pivots


def _affine_image(V, seed, extra):
    """x -> A x + b with a seeded rational A of full column rank, into a
    space of extra more dimensions."""
    rng = random.Random(seed)
    n = V.n
    while True:
        A = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))
             for _ in range(n + extra)]
        if rank(A) == n:
            break
    b = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n + extra)]
    return VPolyhedron.from_points(
        [tuple(dot(row, v) + bb for row, bb in zip(A, b)) for v in V.vertices])


def _with_points(V, extra):
    return VPolyhedron.from_points(list(V.vertices) + [vector(p) for p in extra])


WALK_SHAPES = {
    "cube5": lambda: cube_v(5),
    "cross6": lambda: cross_v(6),
    "cut5": lambda: cut_v(5),
    "hypersimplex-3-7": lambda: hypersimplex_v(3, 7),
    "prismatoid": santos_prismatoid,
    # one-dimensional facets, and in its image a lower-dimensional polygon
    "hexagon": lambda: VPolyhedron.from_points([(2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2),
                                                (1, -1)]),
}
# point sets with points that are not vertices: an edge midpoint (a pencil
# tie puts three points on one facet), the centre of a facet, an interior
# point
NON_VERTEX = {
    "square-midpoint": lambda: VPolyhedron.from_points([(0, 0), (2, 0), (0, 2), (2, 2), (1, 0)]),
    "cube3-extra": lambda: _with_points(cube_v(3), [(0, 0, 1), (1, 0, -1), (0, 0, 0)]),
    "cross4-extra": lambda: _with_points(cross_v(4), [(Fraction(1, 2), Fraction(1, 2), 0, 0),
                                                      (Fraction(1, 4), 0, 0, 0)]),
}
WALK_INPUTS = dict(WALK_SHAPES, **NON_VERTEX, **{
    f"{name}-image{extra}": (lambda make=make, extra=extra, i=i:
                             _affine_image(make(), 100 + i, extra))
    for i, (name, make) in enumerate(WALK_SHAPES.items()) for extra in (0, 1)})


def _same_row(a, delta, scale, ref_a, ref_delta):
    """a.x <= delta over the scaled points is ref_a.x <= ref_delta over the
    unscaled ones, up to a positive factor."""
    return primitive(tuple(a) + (Fraction(delta, scale),)) == primitive(tuple(ref_a) + (ref_delta,))


@pytest.mark.parametrize("name", list(WALK_INPUTS))
def test_integer_walk_kernel_matches_fraction_reference(name):
    V = WALK_INPUTS[name]()
    geo = repconv._Geometry(V)
    pts, scale = geo.local, geo.scale
    ref = _ref_hull_coordinates(list(V.vertices))[1] if geo.normals else list(V.vertices)
    assert list(pts) == [tuple(scale * x for x in p) for p in ref]
    assert all(type(x) is int for p in pts for x in p)

    # the seed facet, one rotation at a time
    d = V.n - len(geo.normals)
    c, delta = (1,) + (0,) * (d - 1), max(p[0] for p in pts)
    ref_c, ref_delta = vector(c), max(p[0] for p in ref)
    S = tuple(i + 1 for i, p in enumerate(pts) if p[0] == delta)
    while True:
        off = _off(pts, c, delta, S)
        step = repconv._rotate_about(pts, S, c, delta, off)
        ref_step = _ref_rotate_about(ref, S, ref_c, ref_delta, off)
        assert (step is None) == (ref_step is None)
        if step is None:
            break
        assert step[2] == ref_step[2]
        assert _same_row(*step[:2], scale, *ref_step[:2])
        (c, delta, arg), (ref_c, ref_delta, _) = step, ref_step
        S = tuple(sorted([*S, *arg]))
    assert S == repconv._initial_facet(pts)

    # supporting rows of the first facets and the rotation about each ridge,
    # by the second functional lifted from the ridge's row in the facet's
    # hull coordinates, by the null space of the ridge, and in Fractions
    facets = [index_set(m) for m in convert_dd_incidence(VPolyhedron.from_points(ref))[1]]
    for F in facets[:12]:
        members = sorted(F)
        normals, local, pivots = hull_coordinates([pts[i - 1] for i in members])
        ref_normals, ref_local, ref_pivots = _ref_hull_coordinates([ref[i - 1] for i in members])
        assert pivots == ref_pivots
        assert local == [tuple(scale * x for x in y) for y in ref_local]
        a, delta = repconv._supporting_row(pts, F, normals)
        ref_a, ref_delta = _ref_supporting_row(ref, F, ref_normals)
        assert _same_row(a, delta, scale, ref_a, ref_delta)
        off = _off(pts, a, delta, F)
        assert [i for i, _, _ in off] == [i for i in range(1, len(pts) + 1) if i not in F]
        rows, masks = integer_v_to_h(1, local)[1:]
        assert len(rows) >= len(local[0]) + 1
        for (*a_loc, b_loc), mask in zip(rows, masks):
            R = tuple(members[j - 1] for j in index_set(mask))
            g = [0] * d
            for col, x in zip(pivots, a_loc):
                g[col] = x
            g = tuple(g)
            # g supports F at the ridge: g.x <= g.base + b_loc on F, tight on R
            gamma = dot(g, pts[members[0] - 1]) + b_loc
            assert all(dot(g, pts[i - 1]) <= gamma for i in F)
            assert {i for i in F if dot(g, pts[i - 1]) == gamma} == set(R)
            # the first null vector of the ridge not parallel to a, oriented
            # by a point of F off R
            base = pts[R[0] - 1]
            ns = integer_nullspace([vec_sub(pts[i - 1], base) for i in R[1:]], d)
            h = next(v for v in ns if rank([v, a]) == 2)
            f0 = next(i for i in members if i not in R)
            if dot(h, pts[f0 - 1]) > dot(h, base):
                h = tuple(-x for x in h)
            lifted = repconv._rotate_about(pts, R, a, delta, off, g)
            step = repconv._rotate_about(pts, R, a, delta, off, h)
            ref_step = _ref_rotate_about(ref, R, ref_a, ref_delta, off)
            assert lifted[2] == step[2] == ref_step[2]
            assert lifted[:2] == step[:2]
            assert _same_row(*lifted[:2], scale, *ref_step[:2])


@pytest.mark.parametrize("name", [*WALK_SHAPES, "square-midpoint", "cube3-extra",
                                  "cut5-image1", "hypersimplex-3-7-image0"])
def test_integer_walk_ledgers_match_fraction_reference(name, monkeypatch):
    V = WALK_INPUTS[name]()
    G = affine_symmetry_group(V)

    def ledgers_and_graphs():
        out = []
        for levels in LEVELS.values():
            led = adjacency_decomposition(V, G, levels)
            rows = [(key, e.size, e.row) for key, e in led.entries.items()]
            out.append((rows, adjacency_graph(led)))
        return out

    walked = ledgers_and_graphs()
    monkeypatch.setattr(repconv, "_rotate_about", _ref_rotate_about)
    monkeypatch.setattr(repconv, "_supporting_row", _ref_supporting_row)
    monkeypatch.setattr(repconv, "hull_coordinates", _ref_hull_coordinates)
    assert walked == ledgers_and_graphs()


def _stabilizer_walk(V, G):
    """The facet walk at the default levels (0, 1) by the stabilizer route:
    the ridges of each key one per orbit of its stabilizer, each the least
    of its orbit, the orbits met in mask order of the key's double
    description, and each ridge rotated with its own elimination, in
    Fractions.  Returns (key, size) per facet orbit in discovery order, and
    the crossed pairs."""
    pts = repconv._Geometry(V).local
    entries, key_of, pairs = {}, {}, set()

    def meet(S):
        orb = orbit_of_set(G, S)
        entries[orb.representative] = orb
        key_of.update(dict.fromkeys(orb.elements, orb.representative))
        return orb.representative

    frontier = [meet(repconv._initial_facet(pts))]
    while frontier:
        batch, frontier = sorted(frontier), []
        for key in batch:
            normals, local, _ = hull_coordinates([pts[i - 1] for i in key])
            c, delta = repconv._supporting_row(pts, key, normals)
            off = _off(pts, c, delta, key)
            pos = {v: j + 1 for j, v in enumerate(key)}
            stab = set_stabilizer(G, entries[key])
            sub = PermutationGroup([Permutation(tuple(pos[g(v)] for v in key))
                                    for g in stab.generators], degree=len(key))
            ridges, seen = [], set()
            for mask in integer_v_to_h(1, local)[2]:
                if index_set(mask) not in seen:
                    ridge_orbit = orbit_of_set(sub, index_set(mask))
                    seen |= ridge_orbit.elements
                    ridges.append(tuple(key[j - 1] for j in ridge_orbit.representative))
            for R in ridges:
                N = tuple(sorted([*R, *_ref_rotate_about(pts, R, c, delta, off)[2]]))
                if N not in key_of:
                    frontier.append(meet(N))
                pairs.add((key, key_of[N]))
    return [(key, orb.size) for key, orb in entries.items()], frozenset(pairs)


@pytest.mark.parametrize("name", list(WALK_INPUTS))
def test_every_ridge_walk_matches_stabilizer_walk(name):
    # rotating about every ridge meets the facet orbits in the order of the
    # stabilizer route, with the same sizes and crossed pairs
    V = WALK_INPUTS[name]()
    G = affine_symmetry_group(V)
    led = adjacency_decomposition(V, G)
    assert ([(key, e.size) for key, e in led.entries.items()], led.edges) == _stabilizer_walk(V, G)


@pytest.mark.parametrize("name", ["cut5", "prismatoid", "hypersimplex-3-7", "cross6-image1",
                                  "hexagon", "square-midpoint"])
def test_default_walk_needs_no_stabilizer_and_no_ridge_elimination(name, monkeypatch):
    V = WALK_INPUTS[name]()
    G = affine_symmetry_group(V)
    want = {levels: adjacency_decomposition(V, G, levels) for levels in [(0, 1), (0, 2)]}
    depth = [0]                # how many _neighbor_facets calls are running
    calls = []                 # the spied calls made inside one of them
    callers = Counter()        # (name, caller) of each elimination
    real_facets = repconv._neighbor_facets

    def neighbor_facets(*args):
        # the neighbors come lazily: rotate about every ridge in here
        depth[0] += 1
        try:
            row, nbrs = real_facets(*args)
            return row, list(nbrs)
        finally:
            depth[0] -= 1

    def spy(name, real):
        def call(*args):
            if depth[0]:
                calls.append(name)
            # a rotation given no second functional g eliminates
            if name == "integer_nullspace" or name == "_rotate_about" and len(args) < 6:
                callers[name, sys._getframe(1).f_code.co_name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(repconv, "_neighbor_facets", neighbor_facets)
    for fn in ("set_stabilizer", "integer_nullspace", "_rotate_about"):
        monkeypatch.setattr(repconv, fn, spy(fn, getattr(repconv, fn)))
    normals = repconv._Geometry(V).normals
    for levels, led in want.items():
        calls.clear()
        callers.clear()
        assert adjacency_decomposition(V, G, levels) == led
        # at every level, only the seed facet's rotations eliminate
        assert {fn for name, fn in callers if name == "_rotate_about"} == {"_initial_facet"}
        if levels == (0, 1):
            assert "set_stabilizer" not in calls and "integer_nullspace" not in calls
            # the ledger rows of a full-dimensional input come from the walk
            assert (("integer_nullspace", "ambient_row") in callers) == bool(normals)
        else:
            # the stabilizer route still runs below l2, except on polygons,
            # whose one-dimensional facets are converted
            assert ("set_stabilizer" in calls) == (V.n - len(normals) > 2)
    keys = {levels: {(k, e.size, e.row) for k, e in led.entries.items()}
            for levels, led in want.items()}
    assert keys[(0, 1)] == keys[(0, 2)] and want[(0, 1)].edges == want[(0, 2)].edges


LOWER_DIMENSIONAL = [name for name, make in WALK_INPUTS.items()
                     if affine_hull(make().vertices).dim < make().n]


def test_lower_dimensional_walk_inputs_exist():
    assert "hypersimplex-3-7" in LOWER_DIMENSIONAL
    assert {f"{name}-image1" for name in WALK_SHAPES} <= set(LOWER_DIMENSIONAL)


@pytest.mark.parametrize("name", LOWER_DIMENSIONAL)
def test_ambient_rows_match_pseudo_inverse_lift(name):
    # the row orthogonal to the integer hull normals is the lifted hull row
    V = WALK_INPUTS[name]()
    G = affine_symmetry_group(V)
    for levels in [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2)]:
        led = adjacency_decomposition(V, G, levels)
        for key, e in led.entries.items():
            assert e.row == _ref_ambient_row(list(V.vertices), frozenset(key)), (levels, key)


# ---------------------------------------------------------------------------
# One double description and one integer frame per polyhedron


def _counted(monkeypatch, owner, name) -> list:
    """The argument tuples of every later call of owner.name."""
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("extra", [(), ("--adjacencies",)])
def test_h_convert_runs_one_double_description(extra, monkeypatch, capsys):
    # detection's redundancy check and the decomposition read the same P.dd
    calls = _counted(monkeypatch, polycore, "_h_to_v")
    assert main(["convert", str(FIX / "cube3.ine"), *extra]) == 0
    assert capsys.readouterr().out.startswith("vertex orbits 1\n")
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["santos.ext", "cube3.ext", "cube3.ine"])
def test_convert_frames_once_and_realizes_each_generator_once(name, monkeypatch, capsys):
    frames = _counted(monkeypatch, polycore._IntegerFrame, "__init__")
    realized = Counter()
    relabels = symdetect._relabels

    def recording(frame, img):
        # an image checked before is answered from the frame's record
        if tuple(img) not in frame.images:
            realized[tuple(img)] += 1
        return relabels(frame, img)

    monkeypatch.setattr(symdetect, "_relabels", recording)
    groups = _counted(monkeypatch, cli, "adjacency_decomposition")
    assert main(["convert", str(FIX / name)]) == 0
    capsys.readouterr()
    ((_, G, _),) = groups
    gens = [tuple(g(i + 1) - 1 for i in range(G.degree)) for g in G.generators]
    assert len(frames) == 1
    assert gens and all(realized[img] == 1 for img in gens)
    assert set(realized.values()) == {1}


@pytest.mark.parametrize("kind", ["V", "H"])
def test_recorded_realizations_skip_no_new_generator(kind):
    # detection records its candidates on the object's frame; a generator it
    # never saw is still realized, and rejected, by the decompositions
    P = cube_v(3) if kind == "V" else cube_h(3)
    G = (affine_symmetry_group if kind == "V" else restricted_symmetries_H)(P)
    message = ("group generator is not an affine symmetry of the "
               + ("vertex set" if kind == "V" else "rows"))
    k = G.degree
    swaps = (Permutation(tuple(j if i == 1 else 1 if i == j else i for i in range(1, k + 1)))
             for j in range(2, k + 1))
    bad = next(t for t in swaps if not are_affine_symmetries(replace(P), [t]))
    assert P.frame.images and bad not in G
    H = PermutationGroup(list(G.generators) + [bad], degree=k)
    for method in (adjacency_decomposition, incidence_decomposition):
        with pytest.raises(PolyhedronError) as info:
            method(P, H)
        assert str(info.value) == message
    # an equal but distinct object has its own frame and its own record
    Q = replace(P)
    assert Q == P and Q.frame is not P.frame and not Q.frame.images
    with pytest.raises(PolyhedronError) as info:
        adjacency_decomposition(Q, H)
    assert str(info.value) == message
