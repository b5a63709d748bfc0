"""Symmetry detection: gram graph construction, automorphism search,
affine realization, and the H-side restricted variant.

Brute-force oracles: permutation scans over all k! candidates for small k,
independently computed gram values for the square, the gram of the
frame's coefficients (shapes.reference_gram) for every other gram, one
elimination of the rows in order (shapes.reference_spanning_prefix) for
the spanning prefix, and the search without domains
(shapes.reference_automorphism_search) for the generators, base and order
of the search.
"""
import itertools
import math
import random
import sys
import time
from fractions import Fraction as F
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polyorbit import polycore, symdetect
from polyorbit.cli import main, parse_polyfile
from polyorbit.polycore import (
    AffineMap,
    EmptyPolyhedronError,
    HPolyhedron,
    PolyhedronError,
    VPolyhedron,
    _IntegerFrame,
    invert_matrix,
    primitive,
    rank as poly_rank,
    row_space_basis,
    solve_linear,
    vec_sub,
)
from polyorbit.permgrp import Permutation, PermutationGroup
from polyorbit.repconv import adjacency_decomposition, incidence_decomposition
from polyorbit.symdetect import (
    affine_symmetry_group,
    are_affine_symmetries,
    realize_row_permutation,
    realize_vertex_permutation,
    restricted_symmetries_H,
)

from shapes import (apply_map, birkhoff, cross_h, cross_v, cube_h, cube_v, cut_v, hypersimplex_v,
                    mat_vec, met_h, probe_permutations, reference_automorphism_search,
                    reference_gram, reference_relabels, reference_row_affine,
                    reference_spanning_prefix, row_image, santos_prismatoid, simplex_h, simplex_v,
                    unimodular_image, unpack_row, vec_add)

FIX = Path(__file__).parent / "fixtures"


def automorphisms(gram):
    """Generators of the automorphisms of a gram given entry by entry: the
    search on its ranks."""
    return symdetect._automorphism_search(dense_ranks(gram), len)[0]


def gram_w(V):
    """(ranks, W) of the gram of V's frame, W entry by entry as Fractions."""
    rank, values, dq = symdetect._gram(V.frame)
    return rank, [[F(values[r], dq) for r in row] for row in rank]


def cube_vertices(n):
    return [tuple(F(s) for s in signs) for signs in itertools.product((-1, 1), repeat=n)]


def cube_h(n):
    A, b = [], []
    for i in range(n):
        for s in (1, -1):
            row = [F(0)] * n
            row[i] = F(s)
            A.append(row)
            b.append(F(1))
    return HPolyhedron.from_rows(A, b)


def consistent_permutations(gram):
    """All permutations preserving every (diagonal and off-diagonal) color."""
    k = len(gram)
    out = []
    for p in itertools.permutations(range(k)):
        if all(gram[p[i]][p[j]] == gram[i][j] for i in range(k) for j in range(i, k)):
            out.append(Permutation(tuple(x + 1 for x in p)))
    return out


def group_order(gens, degree):
    return PermutationGroup(gens, degree=degree).order()


# -- gram graph construction ---------------------------------------------------

def test_square_gram_values():
    # vertices (+-1, +-1): barycenter 0, Q = 4*I, so W_ij = 1/4 + <v_i, v_j>/4
    sq = VPolyhedron.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    rank, W = gram_w(sq)
    assert {v for row in W for v in row} == {F(3, 4), F(1, 4), F(-1, 4)}
    for i, vi in enumerate(sq.vertices):
        for j, vj in enumerate(sq.vertices):
            assert W[i][j] == F(1 + sum(a * b for a, b in zip(vi, vj)), 4)
    assert rank == dense_ranks(W)


def test_single_point_graph():
    pt = VPolyhedron.from_points([(3, 7)])
    rank, W = gram_w(pt)
    assert W == [[1]]
    assert symdetect._automorphism_search(rank, len) == ([], (), 1)


def test_regular_simplex_two_colors():
    # e_1..e_{n+1} in R^{n+1} is a regular n-simplex with rational coordinates
    for n in (2, 3):
        pts = [tuple(F(1) if i == j else F(0) for j in range(n + 1)) for i in range(n + 1)]
        rank, _ = gram_w(VPolyhedron.from_points(pts))
        diag = {rank[i][i] for i in range(n + 1)}
        off = {rank[i][j] for i in range(n + 1) for j in range(n + 1) if i != j}
        assert len(diag) == 1 and len(off) == 1 and diag != off


def test_rays_rejected():
    V = VPolyhedron(vertices=((F(0),),), rays=((F(1),),))
    with pytest.raises(PolyhedronError, match="^affine realization requires a bounded polytope$"):
        affine_symmetry_group(V)


def test_gram_invariant_under_affine_image():
    sq = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    A = [[F(2), F(1)], [F(1), F(1)]]   # det 1
    t = (F(5), F(-3))
    moved = [tuple(vec_add(mat_vec(A, v), t)) for v in sq]
    assert gram_w(VPolyhedron.from_points(sq)) == gram_w(VPolyhedron.from_points(moved))


# -- the pivot-column gram against the coefficient route --------------------------

GRAM_V = {
    "cube3": lambda: list(cube_v(3).vertices),
    "cross4": lambda: list(cross_v(4).vertices),
    "cut5": lambda: list(cut_v(5).vertices),
    "simplex3": lambda: list(simplex_v(3).vertices),
    "prismatoid": lambda: list(santos_prismatoid().vertices),
    "quad-asym": lambda: list(parse_polyfile((FIX / "quad-asym.ext").read_text())
                              .to_vpolyhedron().vertices),
    "hypersimplex36": lambda: hypersimplex(3, 6),       # 5-dimensional in R^6
    "segment": lambda: [(F(0), F(1), F(2)), (F(3), F(1), F(-1))],
    "point": lambda: [(F(2), F(-1), F(3))],
}
GRAM_H = {
    "cube_h3": lambda: cube_h(3),
    "cube_h4-image": lambda: row_image(cube_h(4), "gram/cube_h4"),
    "cross_h3": lambda: cross_h(3),
    "cross_h3-image": lambda: row_image(cross_h(3), "gram/cross_h3"),
    "rectangle": lambda: rectangle_h(),
    "simplex_h3": lambda: simplex_h(3),
    "triangle-rows": lambda: _triangle_rows(),
}


def dense_ranks(gram):
    """Each entry's index among the distinct entries, ascending."""
    rank = {v: r for r, v in enumerate(sorted({x for row in gram for x in row}))}
    return [[rank[x] for x in row] for row in gram]


@pytest.mark.parametrize("name", sorted(GRAM_V))
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_vertex_gram_matches_coefficient_route(name, seed):
    points = GRAM_V[name]()
    V = VPolyhedron.from_points(points) if seed is None else \
        unimodular_image(points, f"gram/{name}/{seed}")[0]
    check_gram(V.frame)


@pytest.mark.parametrize("name", sorted(GRAM_H))
def test_row_gram_matches_coefficient_route(name):
    check_gram(GRAM_H[name]().frame)


def test_random_point_set_grams_match_coefficient_route():
    # 200 seeded point sets of 1 to 9 distinct points, many of them spanning
    # less than their ambient space
    rng = random.Random("gram/random")
    short = 0
    for _ in range(200):
        n, d = rng.randint(1, 4), rng.randint(0, 4)
        gens = [[F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
                for _ in range(d + 1)]
        pts = {tuple(sum(c * g[a] for c, g in zip(cs, gens)) for a in range(n))
               for cs in ([rng.randint(-2, 2) for _ in gens] for _ in range(rng.randint(1, 9)))}
        frame = VPolyhedron.from_points(sorted(pts)).frame
        short += len(frame.pivots) < n + 1      # pivots short of some column
        check_gram(frame)
    assert short > 50


def check_gram(frame):
    """_gram's values over dq are the reference W entry by entry, its ranks
    order pairs exactly as W does, its diagonal sums to the rank times dq,
    and the search returns the same (generators, base, order) on them, on
    W's own ranks, and as the reference search.  _spanning_prefix is the
    elimination's prefix on the search's order and on 20 seeded random
    orders.  Returns dq."""
    ref = reference_gram(frame)
    rank, values, dq = symdetect._gram(frame)
    k = len(rank)
    assert all(F(values[rank[i][j]], dq) == ref[i][j] for i in range(k) for j in range(k))
    assert rank == dense_ranks(ref)
    assert sum(values[rank[i][i]] for i in range(k)) == len(frame.basis) * dq
    orders = []
    search = symdetect._automorphism_search(rank, lambda order: orders.append(order) or len(order))
    assert search == symdetect._automorphism_search(dense_ranks(ref), len)
    assert search == reference_automorphism_search(rank)
    rng = random.Random(str(frame.rows))
    for order in orders + [rng.sample(range(k), k) for _ in range(20)]:
        assert symdetect._spanning_prefix(frame, order) == reference_spanning_prefix(frame, order)
    return dq


def check_search(gram):
    """The search returns the reference search's (generators, base, order)
    on the ranks of a gram given entry by entry."""
    rank = dense_ranks(gram)
    assert symdetect._automorphism_search(rank, len) == reference_automorphism_search(rank)


# every family of shapes, as given and in two unimodular images (V) or row
# images (H); none is a slow input of the reference search
FAMILIES = {
    "cube_v4": lambda: cube_v(4),
    "cross_v5": lambda: cross_v(5),
    "cut_v6": lambda: cut_v(6),
    "simplex_v4": lambda: simplex_v(4),
    "hypersimplex_v36": lambda: hypersimplex_v(3, 6),
    "prismatoid": santos_prismatoid,
    "cube_h4": lambda: cube_h(4),
    "cross_h4": lambda: cross_h(4),
    "simplex_h4": lambda: simplex_h(4),
    "birkhoff3": lambda: birkhoff(3),
    "met_h5": lambda: met_h(5),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_search_matches_reference_on_families(name, seed):
    P = FAMILIES[name]()
    if seed is not None:
        P = unimodular_image(list(P.vertices), f"search/{name}/{seed}")[0] \
            if isinstance(P, VPolyhedron) else row_image(P, f"search/{name}/{seed}")
    check_gram(P.frame)


def check_spanning_stop(frame) -> tuple[int, int]:
    """The search stopped at the shortest prefix of its order whose frame
    rows span returns the (generators, base, order) of the search run with
    len and of the reference search; that prefix is the shortest by a rank
    scan of every prefix.  Returns (prefix length, number of rows)."""
    rank = symdetect._gram(frame)[0]
    k, full = len(rank), len(frame.basis)
    stops = []

    def spans(order):
        stops.append(symdetect._spanning_prefix(frame, order))
        assert poly_rank([frame.rows[i] for i in order[:stops[-1]]]) == full
        assert poly_rank([frame.rows[i] for i in order[:stops[-1] - 1]]) < full
        return stops[-1]

    search = symdetect._automorphism_search(rank, spans)
    assert search == symdetect._automorphism_search(rank, len)
    assert search == reference_automorphism_search(rank)
    assert len(stops) == (k > 1)
    return (stops or [k])[0], k


def symmetric_point_set(rng, n):
    """The distinct images of one to three seeded integer points under
    every permutation and sign change of n coordinates; none is 0."""
    seeds = [(rng.randint(1, 3), *(rng.randint(-2, 3) for _ in range(n - 1)))
             for _ in range(rng.randint(1, 3))]
    return sorted({tuple(sgn[i] * p[perm[i]] for i in range(n))
                   for p in seeds for perm in itertools.permutations(range(n))
                   for sgn in itertools.product((1, -1), repeat=n)})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_stopped_at_a_spanning_prefix_matches_the_full_search(seed):
    rng = random.Random(f"span-stop/{seed}")
    stopped = 0
    for _ in range(25):
        # points in the span of d + 1 random vectors: often all of R^n, often
        # a proper subspace
        n = rng.randint(1, 4)
        d = rng.choice((n, rng.randint(0, n)))
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d + 1)]
        pts = {tuple(F(sum(c * g[a] for c, g in zip(cs, gens)), 2) for a in range(n))
               for cs in ([rng.randint(-2, 2) for _ in gens]
                          for _ in range(rng.randint(1, 10)))}
        prefix, k = check_spanning_stop(VPolyhedron.from_points(sorted(pts)).frame)
        stopped += prefix < k - 1
    for n in (2, 3):
        # sets with symmetry, so their color cells are not all single points
        V = unimodular_image(symmetric_point_set(rng, n), f"span-stop/{seed}/{n}")[0]
        assert len(set(symdetect._refine_colors(symdetect._gram(V.frame)[0]))) < V.k
        prefix, k = check_spanning_stop(V.frame)
        stopped += prefix < k - 1
    for P in (cube_h(3), cross_h(3), simplex_h(3), birkhoff(3), rectangle_h()):
        # H row frames, as given and in a row image
        for Q in (P, row_image(P, f"span-stop/{seed}/rows")):
            prefix, k = check_spanning_stop(Q.frame)
            stopped += prefix < k - 1
    assert stopped


# -- the packed gram: its content division, wide digits and trace check --------

def gram_content(frame):
    """The content of Q = Y^t Y, Y the frame rows' pivot columns."""
    ycols = list(zip(*([row[c] for c in frame.pivots] for row in frame.rows)))
    return math.gcd(*(sum(map(mul, u, v)) for u in ycols for v in ycols))


def test_packed_gram_divides_out_the_content_of_q():
    # the unit triangle's Q has content 1, and the cube's Q is 8 I
    triangle = VPolyhedron.from_points([(0, 0), (1, 0), (0, 1)]).frame
    cube = cube_v(3).frame
    assert gram_content(triangle) == 1 and gram_content(cube) == 8
    for frame in (triangle, cube):
        check_gram(frame)
    # W of the cube is (1 + x . y) / 8 over x . y in {-3, -1, 1, 3}, and
    # adj(Q / 8) = I gives dq = 8, where adj(Q) would give det Q = 8^4
    assert symdetect._gram(cube)[1:] == ([-2, 0, 2, 4], 8)


def test_packed_gram_reads_digits_wider_than_64_bits():
    # a random point set in large coordinates: |g_ij| <= dq needs more than
    # 8 bytes a digit
    rng = random.Random("packed-gram/wide")
    pts = sorted({tuple(F(rng.randint(-10 ** 6, 10 ** 6)) for _ in range(4)) for _ in range(9)})
    frame = VPolyhedron.from_points(pts).frame
    assert check_gram(frame).bit_length() > 64


def test_gram_failing_its_trace_check_exits_3(tmp_path, capsys, monkeypatch):
    # a wrong determinant of Q leaves every digit readable, but the diagonal
    # of g no longer sums to rank * dq
    path = tmp_path / "square.ext"
    path.write_text("V-representation\nbegin\n4 3 integer\n1 1 1\n1 1 -1\n1 -1 1\n1 -1 -1\nend\n")
    adjugate = symdetect.adjugate
    monkeypatch.setattr(symdetect, "adjugate", lambda M: (adjugate(M)[0] + 1, adjugate(M)[1]))
    assert main(["automorphisms", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failure: gram of a 4-row frame fails its trace check\n"


@st.composite
def symmetric_colorings(draw):
    """Symmetric k x k colorings, k <= 7, in at most 4 colors."""
    k = draw(st.integers(1, 7))
    colors = draw(st.lists(st.integers(0, 3), min_size=k * (k + 1) // 2,
                           max_size=k * (k + 1) // 2))
    gram = [[0] * k for _ in range(k)]
    for (i, j), c in zip(itertools.combinations_with_replacement(range(k), 2), colors):
        gram[i][j] = gram[j][i] = c
    return gram


@settings(max_examples=100, deadline=None)
@given(symmetric_colorings())
def test_search_matches_reference_and_brute_force_on_random_colorings(gram):
    rank = dense_ranks(gram)
    search = symdetect._automorphism_search(rank, len)
    assert search == reference_automorphism_search(rank)
    assert search[2] == len(consistent_permutations(rank))


@pytest.mark.parametrize("n, order", [(5, 1920), (6, 23040), (7, 322560)])
def test_metric_polytope_search_has_order_2_to_n_minus_1_times_n_factorial(n, order):
    # the search on MET_n's row gram alone, with no double description.
    # Without forward checking the search takes over 20 s on MET_7, and
    # with it well under 1 s
    rank = symdetect._gram(met_h(n).frame)[0]
    start = time.perf_counter()
    gens, _, size = symdetect._automorphism_search(rank, len)
    assert time.perf_counter() - start < 5
    assert size == order
    k = len(rank)
    for g in gens:
        img = [x - 1 for x in g.images]
        assert all(rank[img[i]][img[j]] == rank[i][j] for i in range(k) for j in range(k))


# -- graph automorphisms --------------------------------------------------------

def test_monochrome_gives_symmetric_group():
    k = 4
    gram = [[F(1) if i == j else F(2) for j in range(k)] for i in range(k)]
    gens = automorphisms(gram)
    assert group_order(gens, k) == 24


def test_square_automorphism_order_eight():
    sq = VPolyhedron.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    gens = symdetect._automorphism_search(symdetect._gram(sq.frame)[0], len)[0]
    assert group_order(gens, 4) == 8


def test_rigid_coloring_identity_only():
    # gram_ij = i + j admits no nontrivial automorphism for k >= 3
    k = 5
    gram = [[F(i + j) for j in range(k)] for i in range(k)]
    assert automorphisms(gram) == []
    assert len(consistent_permutations(gram)) == 1


@pytest.mark.parametrize("gram", [
    [[F(0), F(1), F(1), F(2)],
     [F(1), F(0), F(2), F(1)],
     [F(1), F(2), F(0), F(1)],
     [F(2), F(1), F(1), F(0)]],
    [[F(1)] * 5 for _ in range(5)],
    [[F(1, 2) if i == j else F(abs(i - j)) for j in range(6)] for i in range(6)],
    [[F((i * j) % 3) for j in range(6)] for i in range(6)],
    [[F(min(i, j)) for j in range(7)] for i in range(7)],
])
def test_automorphisms_match_brute_force(gram):
    # symmetrize, then compare the generated group against the k! scan
    k = len(gram)
    for i in range(k):
        for j in range(i):
            gram[j][i] = gram[i][j]
    gens = automorphisms(gram)
    oracle = consistent_permutations(gram)
    G = PermutationGroup(gens, degree=k)
    assert G.order() == len(oracle)
    for p in oracle:
        assert p in G
    check_search(gram)



def test_automorphisms_of_random_graphs_match_brute_force():
    # seeded random graphs on 6 vertices: their colorings refine poorly, so
    # the search has to backtrack
    rng = random.Random("graphs/6")
    for _ in range(40):
        gram = [[F(2) if i == j else F(0) for j in range(6)] for i in range(6)]
        for i, j in itertools.combinations(range(6), 2):
            if rng.random() < 0.5:
                gram[i][j] = gram[j][i] = F(1)
        gens = automorphisms(gram)
        assert group_order(gens, 6) == len(consistent_permutations(gram))
        check_search(gram)


def pair_refined_colors(gram):
    """Stable coloring by the multisets of (neighbor color, edge color)
    pairs, compared as tuples: the refinement _refine_colors keys by one
    integer per pair."""
    k = len(gram)
    colors = dense_ranks([[gram[i][i] for i in range(k)]])[0]
    while True:
        sigs = [(colors[i], tuple(sorted((colors[j], gram[i][j]) for j in range(k) if j != i)))
                for i in range(k)]
        new = dense_ranks([sigs])[0]
        if new == colors:
            return colors
        colors = new


def test_integer_keyed_refinement_matches_pair_refinement():
    # seeded rank matrices with few and many edge colors: the keys
    # color * E + edge order as the pairs do, so the colorings agree
    rng = random.Random("refine")
    for _ in range(300):
        k, E = rng.randint(2, 9), rng.randint(1, 6)
        gram = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                gram[i][j] = gram[j][i] = rng.randrange(E)
        gram = dense_ranks(gram)
        assert symdetect._refine_colors(gram) == pair_refined_colors(gram)
        check_search(gram)


def cycles_gram(lengths, seed):
    """Disjoint cycles of the given lengths on shuffled labels: edges color 1,
    non-edges 2, the diagonal 0.  Every vertex has degree 2, so color
    refinement cannot tell one cycle length from another."""
    labels = list(range(sum(lengths)))
    random.Random(seed).shuffle(labels)
    k = len(labels)
    gram = [[F(0) if i == j else F(2) for j in range(k)] for i in range(k)]
    start = 0
    for n in lengths:
        for t in range(n):
            a, b = labels[start + t], labels[start + (t + 1) % n]
            gram[a][b] = gram[b][a] = F(1)
        start += n
    return gram


@pytest.mark.parametrize("lengths, order", [
    ((6, 3, 3), 12 * 6 * 6 * 2),
    ((4, 4, 8), 8 * 8 * 2 * 16),
])
def test_images_no_automorphism_reaches_are_pruned_exactly(lengths, order):
    # the search meets images in cycles of the wrong length, which it cannot
    # complete; skipping their orbits must lose no image it can complete
    for seed in range(12):
        gram = cycles_gram(lengths, f"{lengths}/{seed}")
        gens = automorphisms(gram)
        k = len(gram)
        assert all(gram[g(i + 1) - 1][g(j + 1) - 1] == gram[i][j]
                   for g in gens for i in range(k) for j in range(k))
        assert group_order(gens, k) == order
        check_search(gram)

# -- affine symmetry groups -----------------------------------------------------

def test_cube_affine_group_order_48():
    V = VPolyhedron.from_points(cube_vertices(3))
    G = affine_symmetry_group(V)
    assert G.order() == 48
    # one orbit of vertices
    assert len(G.point_orbits()) == 1
    # every generator has a realization
    assert all(realize_vertex_permutation(V, g) is not None for g in G.generators)


def test_cube_orders_n2_to_n4():
    for n in (2, 3, 4):
        res = affine_symmetry_group(VPolyhedron.from_points(cube_vertices(n)))
        expected = 2 ** n
        for i in range(1, n + 1):
            expected *= i
        assert res.order() == expected


def test_realizations_permute_vertex_set():
    V = VPolyhedron.from_points(cube_vertices(3))
    vset = set(V.vertices)
    for sigma in affine_symmetry_group(V).generators:
        amap = realize_vertex_permutation(V, sigma)
        images = [apply_map(amap, v) for v in V.vertices]
        assert set(images) == vset
        for i, v in enumerate(V.vertices):
            assert apply_map(amap, v) == V.vertices[sigma(i + 1) - 1]


def test_affine_image_keeps_order():
    A = [[F(1), F(2), F(0)], [F(0), F(1), F(0)], [F(3), F(0), F(1)]]
    t = (F(1, 3), F(-2), F(7))
    moved = [tuple(vec_add(mat_vec(A, v), t)) for v in cube_vertices(3)]
    res = affine_symmetry_group(VPolyhedron.from_points(moved))
    assert res.order() == 48


def test_any_triangle_is_affinely_regular():
    res = affine_symmetry_group(VPolyhedron.from_points([(0, 0), (3, 0), (0, 5)]))
    assert res.order() == 6


def test_perturbed_cube_strictly_smaller():
    pts = cube_vertices(3)
    pts[-1] = (F(1), F(1), F(2))   # move one vertex off the cube
    V = VPolyhedron.from_points(pts)
    res = affine_symmetry_group(V)
    gram = symdetect._gram(V.frame)[0]
    oracle = consistent_permutations(gram)
    assert res.order() == len(oracle) < 48


def test_repeated_point_is_refused():
    # the square with (0, 0) listed twice once gave order 4 instead of 8
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert affine_symmetry_group(VPolyhedron.from_points(square)).order() == 8
    with pytest.raises(PolyhedronError, match="^duplicate points in the input$"):
        affine_symmetry_group(VPolyhedron.from_points(square + [(0, 0)]))


def test_lower_dimensional_vertex_set():
    # planar square embedded in R^3: span projection keeps detection exact
    pts = [(0, 0, 0), (1, 0, 1), (0, 1, -1), (1, 1, 0)]
    res = affine_symmetry_group(VPolyhedron.from_points(pts))
    assert res.order() == 8


# -- restricted H-side symmetries -------------------------------------------------

def test_cube_h_side_order_and_single_orbit():
    G = restricted_symmetries_H(cube_h(3))
    assert G.order() == 48
    orbits = G.point_orbits()
    assert len(orbits) == 1 and len(orbits[0]) == 6


def test_simplex_h_matches_v_side():
    A = [[F(-1), F(0), F(0)], [F(0), F(-1), F(0)], [F(0), F(0), F(-1)], [F(1), F(1), F(1)]]
    b = [F(0), F(0), F(0), F(1)]
    H_order = restricted_symmetries_H(HPolyhedron.from_rows(A, b)).order()
    V_order = affine_symmetry_group(
        VPolyhedron.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])).order()
    assert H_order == V_order == 24


def test_scalene_triangle_h_side_trivial():
    A = [[F(-1), F(0)], [F(0), F(-1)], [F(5), F(3)]]
    b = [F(0), F(0), F(15)]
    assert restricted_symmetries_H(HPolyhedron.from_rows(A, b)).order() == 1


def test_h_side_rejects_redundant_rows():
    P = cube_h(2)
    A = [list(r) for r in P.A] + [[F(1), F(0)]]
    b = list(P.b) + [F(5)]   # x <= 5 is implied by x <= 1
    with pytest.raises(PolyhedronError):
        restricted_symmetries_H(HPolyhedron.from_rows(A, b))


def test_h_side_rejects_non_full_dimensional():
    A = [[F(1)], [F(-1)]]
    b = [F(0), F(0)]   # x <= 0 and -x <= 0 force x = 0
    with pytest.raises(PolyhedronError):
        restricted_symmetries_H(HPolyhedron.from_rows(A, b))


SQUARE_A = [(1, 0), (-1, 0), (0, 1), (0, -1)]


@pytest.mark.parametrize("A, b, eq, error, message", [
    pytest.param([(1,), (-1,)], [0, -1], (), EmptyPolyhedronError,
                 "empty polyhedron has no affine hull", id="empty"),
    pytest.param([(1, 0), (-1, 0)], [0, -1], (), EmptyPolyhedronError,
                 "empty polyhedron has no affine hull", id="empty-with-a-line"),
    pytest.param([(1, 0), (0, 1)], [1, 1], (), PolyhedronError,
                 "homogenized rows do not span; input must be bounded and full-dimensional",
                 id="unbounded"),
    pytest.param([(1,), (-1,)], [0, 0], (), PolyhedronError,
                 "restricted symmetry detection needs a full-dimensional input", id="point"),
    pytest.param(SQUARE_A, [1, 1, 1, 1], (1,), PolyhedronError,
                 "restricted symmetry detection needs a full-dimensional input",
                 id="equality-rows"),
    pytest.param(SQUARE_A + [(1, 1)], [1, 1, 1, 1, 5], (), PolyhedronError,
                 "restricted symmetry detection needs an irredundant description",
                 id="redundant"),
    pytest.param(SQUARE_A + [(2, 0)], [1, 1, 1, 1, 2], (), PolyhedronError,
                 "restricted symmetry detection needs an irredundant description",
                 id="duplicate"),
    pytest.param(SQUARE_A + [(0, 0)], [1, 1, 1, 1, 0], (), PolyhedronError,
                 "restricted symmetry detection needs an irredundant description",
                 id="zero-row"),
])
def test_h_side_preconditions_raise_their_own_messages(A, b, eq, error, message):
    with pytest.raises(error) as info:
        restricted_symmetries_H(HPolyhedron.from_rows(A, b, eq))
    assert type(info.value) is error and str(info.value) == message


def test_h_side_accepts_an_unbounded_system_whose_rows_span():
    # x, y >= 0 and x + y >= 1: irredundant, full-dimensional, and the
    # homogenized rows span R^3, so the swap of x and y is found
    P = HPolyhedron.from_rows([(-1, 0), (0, -1), (-1, -1)], [0, 0, -1])
    assert restricted_symmetries_H(P).order() == 2


def test_automorphisms_of_long_cycle_need_no_deep_recursion():
    # cycle distances on k = 200 points: the dihedral group of order 2k; the
    # search must not recurse once per vertex
    k = 200
    gram = [[F(min(abs(i - j), k - abs(i - j))) for j in range(k)] for i in range(k)]
    rank = dense_ranks(gram)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        gens = symdetect._automorphism_search(rank, len)[0]
    finally:
        sys.setrecursionlimit(limit)
    for g in gens:
        assert all(gram[g(i + 1) - 1][g(j + 1) - 1] == gram[i][j]
                   for i in range(k) for j in range(k))
    assert group_order(gens, k) == 2 * k


# -- realizations against maps solved directly ------------------------------------

def solved_vertex_map(V, sigma):
    """x -> A x + t with A v_i + t = v_sigma(i) for every vertex and A e_j = e_j
    for each coordinate j that is not a pivot of the vertex differences,
    solved by solve_linear one output coordinate at a time; None if the
    equations have no solution."""
    n, pts = V.n, V.vertices
    pivots = {next(j for j, x in enumerate(r) if x)
              for r in row_space_basis([vec_sub(p, pts[0]) for p in pts[1:]] or [pts[0]])
              } if len(pts) > 1 else set()
    free = [j for j in range(n) if j not in pivots]
    rows = [tuple(p) + (F(1),) for p in pts] + \
           [tuple(F(int(a == j)) for a in range(n)) + (F(0),) for j in free]
    A, t = [], []
    for a in range(n):
        rhs = [pts[sigma(i + 1) - 1][a] for i in range(len(pts))] + [F(int(a == j)) for j in free]
        sol = solve_linear(rows, rhs)
        if sol is None:
            return None
        A.append(tuple(sol[:n]))
        t.append(sol[n])
    return AffineMap(tuple(A), tuple(t))


def hypersimplex(k, n):
    return [tuple(F(int(i in S)) for i in range(n)) for S in itertools.combinations(range(n), k)]


@pytest.mark.parametrize("name,points,order", [
    ("cube", list(cube_v(3).vertices), 48),
    ("cross", list(cross_v(3).vertices), 48),
    ("hypersimplex", hypersimplex(3, 6), 1440),   # 5-dimensional in R^6
    ("point", [(F(2), F(-1), F(3))], 1),
    ("segment", [(F(0), F(1), F(2)), (F(3), F(1), F(-1))], 2),
])
@pytest.mark.parametrize("seed", [1, 2])
def test_realizations_match_solved_maps(name, points, order, seed):
    V, _, _ = unimodular_image(points, f"{name}/{seed}")
    G = affine_symmetry_group(V)
    assert G.order() == order
    # generators, their pairwise products, and the identity
    perms = list(G.generators) + [g * h for g in G.generators for h in G.generators] + \
        [Permutation.identity(V.k)]
    assert are_affine_symmetries(V, perms)
    for sigma in perms:
        expected = solved_vertex_map(V, sigma)
        assert expected is not None
        assert realize_vertex_permutation(V, sigma) == expected


def test_transpositions_of_asymmetric_quadrilateral_are_not_realized():
    V = parse_polyfile((FIX / "quad-asym.ext").read_text()).to_vpolyhedron()
    perms = [Permutation.from_cycles(V.k, [c]) for c in itertools.combinations(range(1, V.k + 1), 2)]
    assert all(solved_vertex_map(V, s) is None for s in perms)
    assert [realize_vertex_permutation(V, s) for s in perms] == [None] * len(perms)
    assert not any(are_affine_symmetries(V, [s]) for s in perms)
    assert affine_symmetry_group(V).order() == 1


def rectangle_h():
    # [-1, 1] x [-2, 2]: rows x <= 1, -x <= 1, y <= 2, -y <= 2
    return HPolyhedron.from_rows([(1, 0), (-1, 0), (0, 1), (0, -1)], [1, 1, 2, 2])


def solved_row_action(P, sigma):
    """L with r_i L = r_sigma(i) on the primitive rows r_i = (a_i | b_i), one
    column at a time by solve_linear; None if there is none."""
    rows = [tuple(F(x) for x in primitive(tuple(P.A[i]) + (P.b[i],))) for i in range(P.m)]
    cols = []
    for c in range(P.n + 1):
        sol = solve_linear(rows, [rows[sigma(i + 1) - 1][c] for i in range(P.m)])
        if sol is None:
            return None
        cols.append(sol)
    return tuple(zip(*cols))


def test_row_realizations_match_solved_actions():
    # the cube's rows in the coordinates of a unimodular image; an integer
    # translation keeps every row primitive, so no symmetry is lost to the
    # row scaling
    _, U, _ = unimodular_image(list(cube_v(3).vertices), "cube-rows")
    t = (F(2), F(-3), F(1))
    Uinv = invert_matrix(U)
    P0 = cube_h(3)
    A = [tuple(mat_vec(list(zip(*Uinv)), a)) for a in P0.A]   # a U^{-1}
    b = [bb + sum(x * y for x, y in zip(a, t)) for a, bb in zip(A, P0.b)]
    P = HPolyhedron.from_rows(A, b)
    G = restricted_symmetries_H(P)
    assert G.order() == 48
    perms = list(G.generators) + [g * h for g in G.generators for h in G.generators]
    assert are_affine_symmetries(P, perms)
    for sigma in perms:
        L = realize_row_permutation(P, sigma)
        assert L is not None
        assert L == solved_row_action(P, sigma)


def test_row_swap_that_breaks_the_system_is_not_realized():
    P = rectangle_h()
    flip = Permutation.from_cycles(4, [(1, 2)])       # x -> -x
    swap = Permutation.from_cycles(4, [(1, 3)])       # x <= 1 with y <= 2
    assert realize_row_permutation(P, flip) == solved_row_action(P, flip) is not None
    assert realize_row_permutation(P, swap) is None
    assert restricted_symmetries_H(P).order() == 4


def test_dropped_candidate_leaves_the_realized_group():
    # the three rows of this triangle have all 3! relabelings as graph
    # automorphisms, but the primitive rows are not all moved onto each other
    # by one linear map: the search's order is 6, and a candidate is dropped
    P = HPolyhedron.from_rows([(1, 0), (-1, 2), (-2, -2)], [1, 3, 1])
    realized = [sigma for sigma in map(Permutation, itertools.permutations((1, 2, 3)))
                if realize_row_permutation(P, sigma) is not None]
    G = restricted_symmetries_H(P)
    assert G.order() == len(realized) == 2
    assert all(sigma in G for sigma in realized)


def test_decomposition_rejects_a_non_symmetric_generator():
    V = parse_polyfile((FIX / "quad-asym.ext").read_text()).to_vpolyhedron()
    with pytest.raises(PolyhedronError, match="not an affine symmetry"):
        adjacency_decomposition(V, PermutationGroup([Permutation.from_cycles(4, [(1, 2)])]))
    P = rectangle_h()
    with pytest.raises(PolyhedronError, match="not an affine symmetry"):
        adjacency_decomposition(P, PermutationGroup([Permutation.from_cycles(4, [(1, 3)])]))


@pytest.mark.parametrize("images", [(1, 2, 3, 4, 5), (5, 2, 3, 4, 1), (2, 1, 3)],
                         ids=["degree-5-fixing-5", "degree-5-moving-5", "degree-3"])
@pytest.mark.parametrize("check, P", [
    (are_affine_symmetries, cube_v(2)), (are_affine_symmetries, cube_h(2)),
    (realize_vertex_permutation, cube_v(2)), (realize_row_permutation, cube_h(2)),
], ids=["any-V", "any-H", "vertex", "row"])
def test_permutation_of_another_degree_is_refused(check, P, images):
    # the square has 4 vertices and 4 rows; a relabeling of 5 or 3 indices
    # once passed when it fixed the extra index and escaped as an IndexError
    # otherwise
    sigma = Permutation(images)
    with pytest.raises(PolyhedronError) as info:
        check(P, [sigma] if check is are_affine_symmetries else sigma)
    assert str(info.value) == f"permutation of degree {len(images)} on 4 indices"


# -- the integer check against the maps --------------------------------------------

def _triangle_rows():
    # rows whose primitive forms no linear map permutes in full: 2 of the
    # 3! relabelings are realized
    return HPolyhedron.from_rows([(1, 0), (-1, 2), (-2, -2)], [1, 3, 1])


CHECK_V = {
    "cube4": lambda: cube_v(4),
    "cross4": lambda: cross_v(4),
    "cut5": lambda: cut_v(5),
    "hypersimplex36": lambda: VPolyhedron.from_points(hypersimplex(3, 6)),
    "prismatoid": santos_prismatoid,
    "quad-asym": lambda: parse_polyfile((FIX / "quad-asym.ext").read_text()).to_vpolyhedron(),
    "segment": lambda: VPolyhedron.from_points([(0, 1, 2), (3, 1, -1)]),
    "point": lambda: VPolyhedron.from_points([(2, -1, 3)]),
}
CHECK_H = {
    "cube_h4": lambda: row_image(cube_h(4), "check/cube_h4"),
    "cross_h3": lambda: row_image(cross_h(3), "check/cross_h3"),
    "simplex_h3": lambda: simplex_h(3),
    "rectangle": rectangle_h,
    "triangle-rows": _triangle_rows,
}


def _checked_permutations(G, name):
    """Seeded members and non-members of G, random transpositions among them."""
    rng = random.Random(f"check/{name}")
    perms = probe_permutations(rng, G, count=6)
    if G.degree > 1:
        perms += [Permutation.from_cycles(G.degree, [tuple(rng.sample(range(1, G.degree + 1), 2))])
                  for _ in range(6)]
    return perms


@pytest.mark.parametrize("name", sorted(CHECK_V))
def test_vertex_check_accepts_exactly_the_realized_permutations(name):
    V, _, _ = unimodular_image(list(CHECK_V[name]().vertices), f"check/{name}")
    accepted = rejected = 0
    for sigma in _checked_permutations(affine_symmetry_group(V), name):
        amap = realize_vertex_permutation(V, sigma)
        assert are_affine_symmetries(V, [sigma]) == (amap is not None)
        if amap is None:
            rejected += 1
            continue
        accepted += 1
        assert all(apply_map(amap, v) == V.vertices[sigma(i + 1) - 1]
                   for i, v in enumerate(V.vertices))
    assert accepted and (rejected or V.k <= 2)


@pytest.mark.parametrize("name", sorted(CHECK_H))
def test_row_check_accepts_exactly_the_realized_permutations(name):
    P = CHECK_H[name]()
    rows = [tuple(F(x) for x in primitive(tuple(P.A[i]) + (P.b[i],))) for i in range(P.m)]
    perms = _checked_permutations(restricted_symmetries_H(P), name)
    if name == "triangle-rows":
        perms += list(map(Permutation, itertools.permutations((1, 2, 3))))
    accepted = rejected = 0
    for sigma in perms:
        L = realize_row_permutation(P, sigma)
        assert are_affine_symmetries(P, [sigma]) == (L is not None)
        if L is None:
            rejected += 1
            continue
        accepted += 1
        # row i times L is row sigma(i)
        assert all(tuple(sum(map(mul, r, col)) for col in zip(*L)) == rows[sigma(i + 1) - 1]
                   for i, r in enumerate(rows))
    assert accepted and (rejected or name == "simplex_h3")


@pytest.mark.parametrize("name", sorted(CHECK_V) + sorted(CHECK_H))
def test_decompositions_reject_a_non_symmetry_with_their_messages(name):
    if name in CHECK_V:
        P = CHECK_V[name]()
        G = affine_symmetry_group(P)
        message = "group generator is not an affine symmetry of the vertex set"
    else:
        P = CHECK_H[name]()
        G = restricted_symmetries_H(P)
        message = "group generator is not an affine symmetry of the rows"
    bad = [sigma for sigma in _checked_permutations(G, name) if sigma not in G]
    if not bad:
        # a simplex's rows, a segment or a point: every relabeling is realized
        assert name in {"simplex_h3", "segment", "point"}
        return
    assert not are_affine_symmetries(P, bad[:1])
    for method in (adjacency_decomposition, incidence_decomposition):
        with pytest.raises(PolyhedronError) as info:
            method(P, PermutationGroup(list(G.generators) + bad[:1], degree=G.degree))
        assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(CHECK_H))
def test_row_check_after_detection_runs_no_elimination(name, monkeypatch):
    # detection records the verdict on each candidate it checks on P.frame,
    # kept or dropped, so the group check of a decomposition eliminates
    # nothing again: symdetect calls no gauss_jordan of its own, and every
    # elimination it reaches runs polycore's
    P = CHECK_H[name]()
    G = restricted_symmetries_H(P)
    candidates = symdetect._automorphism_search(symdetect._gram(P.frame)[0], len)[0]
    calls = []
    real = polycore.gauss_jordan
    assert not hasattr(symdetect, "gauss_jordan")
    monkeypatch.setattr(polycore, "gauss_jordan",
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    assert are_affine_symmetries(P, G.generators)
    assert [are_affine_symmetries(P, [c]) for c in candidates] == [c in G for c in candidates]
    assert calls == []
    # the triangle's rows have candidates that are linear but not affine
    assert all(c in G for c in candidates) == (name != "triangle-rows")


# -- one verification pass per candidate ------------------------------------------

def two_pass_image_matrix(frame, img):
    """The integer T of symdetect._image_matrix, or None where
    symdetect._relabels fails, by the older route: the frame's
    identities D X_img[j] = sum_b L_jb X_img[basis[b]] checked on the pivot
    columns of every row first, then T checked on every row.  frame.R is
    read first: a frame short of full rank rescales D when it makes R."""
    R, D, rows = frame.R, frame.D, frame.rows
    cols = [tuple(rows[img[b]][c] for b in frame.basis) for c in frame.pivots]
    for lam, j in zip(frame.coeffs, img):
        x = rows[j]
        if any(D * x[c] != sum(map(mul, lam, col)) for c, col in zip(frame.pivots, cols)):
            return None
    cols = list(zip(*([rows[img[b]] for b in frame.basis] + frame.units)))
    T = [[sum(map(mul, r, col)) for col in cols] for r in R]
    tcols = list(zip(*T))
    for x, j in zip(rows, img):
        if any(sum(map(mul, x, tc)) != D * a for tc, a in zip(tcols, rows[j])):
            return None
    return T


def candidate_images(G, rng):
    """0-based relabelings from probe_permutations: symmetries and mostly
    non-symmetries."""
    return [[x - 1 for x in sigma.images] for sigma in probe_permutations(rng, G)]


@pytest.mark.parametrize("name", ["cube4", "cross5", "cut5", "hypersimplex36", "prismatoid",
                                  "quad-asym", "segment", "point"])
def test_single_pass_image_matrix_matches_two_passes(name):
    points = {
        "cube4": lambda: list(cube_v(4).vertices),
        "cross5": lambda: list(cross_v(5).vertices),
        "cut5": lambda: list(cut_v(5).vertices),
        "hypersimplex36": lambda: hypersimplex(3, 6),       # 5-dimensional in R^6
        "prismatoid": lambda: list(santos_prismatoid().vertices),
        "quad-asym": lambda: list(parse_polyfile((FIX / "quad-asym.ext").read_text())
                                  .to_vpolyhedron().vertices),
        "segment": lambda: [(F(0), F(1), F(2)), (F(3), F(1), F(-1))],
        "point": lambda: [(F(2), F(-1), F(3))],
    }[name]()
    V, _, _ = unimodular_image(points, f"single/{name}")
    frame = V.frame
    G = affine_symmetry_group(V)
    accepted = rejected = 0
    for img in candidate_images(G, random.Random(name)):
        T = symdetect._image_matrix(frame, img) if symdetect._relabels(frame, img) else None
        assert T == two_pass_image_matrix(frame, img)
        accepted += T is not None
        rejected += T is None
    assert accepted and (rejected or V.k <= 2)


@pytest.mark.parametrize("name", ["cube_h4", "cross_h3", "rectangle", "simplex_h3"])
def test_single_pass_row_image_matrix_matches_two_passes(name):
    P = {"cube_h4": lambda: row_image(cube_h(4), "single/cube_h4"),
         "cross_h3": lambda: row_image(cross_h(3), "single/cross_h3"),
         "rectangle": rectangle_h,
         "simplex_h3": lambda: simplex_h(3)}[name]()
    frame = P.frame
    G = restricted_symmetries_H(P)
    accepted = rejected = 0
    for img in candidate_images(G, random.Random(name)):
        T = symdetect._image_matrix(frame, img) if symdetect._relabels(frame, img) else None
        assert T == two_pass_image_matrix(frame, img)
        accepted += T is not None
        rejected += T is None
    # every row of a simplex is in the frame's basis: each relabeling is a
    # symmetry, and nothing is left to check
    assert accepted and (rejected or name == "simplex_h3")




# -- packed frame rows against the entry-by-entry checks ---------------------------

def _assert_packed(frame, ncols):
    """Each packed row unpacks to its row at the frame's width, the width
    keeps every digit of a checked difference below 2^(w-1), and the span
    check of every row holds entry by entry."""
    assert [unpack_row(K, frame.w, ncols) for K in frame.packed] == frame.rows
    top = max((abs(x) for row in frame.rows for x in row), default=0)
    sums = [sum(map(abs, lam)) for lam in frame.coeffs + vars(frame).get("R", [()])[-1:]]
    assert top * (abs(frame.D) + max(sums)) < 2 ** (frame.w - 1)
    everything = range(len(frame.rows))
    assert reference_relabels(frame, everything, everything)


def _verdict(frame, img) -> bool:
    """symdetect._relabels of img from a cleared record, which equals the
    entry-by-entry reference_relabels."""
    frame.images.clear()
    got = symdetect._relabels(frame, img)
    assert got == reference_relabels(frame, img)
    frame.images.clear()
    return got


def _tampered(img, rng) -> list:
    """img with the images of two random indices swapped."""
    out = list(img)
    a, b = rng.sample(range(len(out)), 2)
    out[a], out[b] = out[b], out[a]
    return out


@pytest.mark.parametrize("seed", range(3))
def test_packed_relabeling_check_matches_entrywise_on_huge_frames(seed):
    # entries up to 10^40 of both signs: the homogenized vertices Y of a
    # 3- or 4-cube times a random integer matrix to m columns, then plain
    # random rows
    rng = random.Random(f"packed/huge/{seed}")
    big = 10 ** 40
    verdicts = []
    for _ in range(12):
        d = rng.randint(3, 4)
        pts = list(itertools.product((-1, 1), repeat=d))
        index = {p: i for i, p in enumerate(pts)}
        m = rng.choice((d + 1, d + 1, d + 3, d))
        A = [[rng.randint(-big // (d + 1), big // (d + 1)) for _ in range(m)]
             for _ in range(d + 1)]
        X = [tuple(sum(map(mul, (1,) + p, col)) for col in zip(*A)) for p in pts]
        assert max(abs(x) for row in X for x in row) <= big
        frame = _IntegerFrame(X, m)
        assert (len(frame.basis) == m) == (m <= d + 1)
        _assert_packed(frame, m)
        for _ in range(6):
            perm, signs = rng.sample(range(d), d), [rng.choice((-1, 1)) for _ in range(d)]
            img = [index[tuple(s * p[c] for s, c in zip(signs, perm))] for p in pts]
            kept, tampered = _verdict(frame, img), _verdict(frame, _tampered(img, rng))
            if m > d:
                # with X as faithful as Y, a relabeling is one of Y's
                # symmetries, and no symmetry of a 3- or 4-cube moves two
                # vertices only
                assert kept and not tampered
            verdicts += [kept, tampered]
        k, m = rng.randint(2, 7), rng.randint(1, 5)
        X = [tuple(rng.randint(-big, big) for _ in range(m)) for _ in range(k)]
        frame = _IntegerFrame(X, m)
        _assert_packed(frame, m)
        verdicts += [_verdict(frame, rng.sample(range(k), k)) for _ in range(6)]
        # rows in general position: a relabeling keeps the frame's identities
        # exactly when it fixes every row outside the basis
        assert _verdict(frame, list(range(k)))
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("name", ["hypersimplex36", "cube3-in-5", "segment", "point"])
def test_packed_relabeling_check_matches_entrywise_before_and_after_R(name):
    # a frame short of full rank packs at the D of its elimination, and
    # again at the D of R once R is read
    points = {
        "hypersimplex36": lambda: hypersimplex(3, 6),       # 5-dimensional in R^6
        "cube3-in-5": lambda: [v + (F(0), F(0)) for v in cube_v(3).vertices],
        "segment": lambda: [(F(0), F(1), F(2)), (F(3), F(1), F(-1))],
        "point": lambda: [(F(2), F(-1), F(3))],
    }[name]()
    V, _, _ = unimodular_image(points, f"packed/{name}")
    frame, ncols = V.frame, V.n + 1
    assert "R" not in vars(frame) and len(frame.basis) < ncols
    G = affine_symmetry_group(V)
    rng = random.Random(f"packed/{name}")
    imgs = candidate_images(G, rng)
    imgs += [_tampered(img, rng) for img in imgs if V.k > 1]
    _assert_packed(frame, ncols)
    before = [_verdict(frame, img) for img in imgs]
    assert before == [Permutation([x + 1 for x in img]) in G for img in imgs]
    assert frame.R and "R" in vars(frame)
    _assert_packed(frame, ncols)
    assert [_verdict(frame, img) for img in imgs] == before
    assert True in before and (False in before or V.k <= 2)


def _row_verdicts(P, sigmas) -> list:
    """Each row relabeling's verdict by _RowRealizer.realize on packed rows,
    from a cleared record, which equals the entry-by-entry checks: the
    frame's identities, then row n of T and n pivots of its linear block."""
    realizer = symdetect._RowRealizer(P)
    frame, n = realizer.frame, P.n
    _assert_packed(frame, n + 1)
    verdicts = []
    for sigma in sigmas:
        img = [x - 1 for x in sigma.images]
        linear = _verdict(frame, img)
        got = realizer.realize(sigma)
        frame.images.clear()
        assert got == (linear and reference_row_affine(frame, img, n))
        verdicts.append((linear, got))
    return verdicts


@pytest.mark.parametrize("name", ["cube_h4", "cross_h3", "simplex_h3", "met_h5"])
def test_packed_row_checks_match_entrywise(name):
    P = row_image({"cube_h4": lambda: cube_h(4), "cross_h3": lambda: cross_h(3),
                   "simplex_h3": lambda: simplex_h(3), "met_h5": lambda: met_h(5)}[name](),
                  f"packed/{name}")
    G = restricted_symmetries_H(P)
    rng = random.Random(f"packed/{name}")
    # members, members times one transposition, and random relabelings
    sigmas = probe_permutations(rng, G)
    verdicts = _row_verdicts(P, sigmas)
    assert [got for _, got in verdicts] == [sigma in G for sigma in sigmas]
    assert any(got for _, got in verdicts)
    # every row of a simplex is in the frame's basis, and every relabeling
    # is a symmetry
    assert not all(got for _, got in verdicts) or name == "simplex_h3"


def test_packed_row_checks_keep_the_triangle_rows_at_order_2(tmp_path, capsys):
    # the triangle H file of three rows whose primitive forms no linear map
    # permutes in full: every relabeling keeps the frame's identities, the
    # affine test keeps 2, and automorphisms prints order 2
    path = tmp_path / "triangle.ine"
    path.write_text("H-representation\nbegin\n3 3 integer\n1 -1 0\n3 1 -2\n1 2 2\nend\n")
    assert main(["automorphisms", str(path)]) == 0
    assert capsys.readouterr().out.startswith("order 2\n")
    P = parse_polyfile(path.read_text()).to_hpolyhedron()
    verdicts = _row_verdicts(P, map(Permutation, itertools.permutations((1, 2, 3))))
    assert [linear for linear, _ in verdicts] == [True] * 6
    assert sum(got for _, got in verdicts) == 2
