"""Tests for symmetric LP reduction, core points and fiber feasibility."""
import math
import random
from fractions import Fraction as F
from itertools import permutations, product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from polyorbit.permgrp import Permutation, PermutationGroup
from polyorbit.polycore import (
    AffineMap,
    EmptyPolyhedronError,
    HPolyhedron,
    PolyhedronError,
    VPolyhedron,
    convert_dd,
    dot,
    integerize,
    invert_matrix,
    nullspace,
    primitive,
    row_space_basis,
    solve_lp,
    vec_sub,
    vector,
    zero_vector,
)
from polyorbit.latcount import first_lattice_point, slice_decomposition
import polyorbit.symilp as symilp
from polyorbit.symilp import (
    CorePoint,
    LinearProgram,
    _block_sum_dd,
    _primitive_rows,
    _row_orbits,
    _sum_ranges,
    _sweep,
    block_group,
    canonical_core_point,
    check_invariance,
    invariant_subspace,
    is_core_point,
    orbit_barycenter,
    solve_lp_reduced,
    symmetric_ilp,
    symmetric_ilp_feasible,
    symmetric_ilp_optimize,
)

from shapes import cube_h, identity_matrix, mat_mul, mat_vec, reference_solve_lp_reduced, transpose

UNBOUNDED = "^projection onto the invariant subspace is unbounded$"
NOT_INVARIANT = "^the system is not invariant under the block group$"
S3 = PermutationGroup([Permutation((2, 1, 3)), Permutation((2, 3, 1))])
SIGN1 = ((F(-1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))


def enum_integral(P, fallback=6):
    """Brute-force oracle: all integral points of P via box scan."""
    ranges = []
    for i in range(P.n):
        e = [0] * P.n
        e[i] = 1
        hi = solve_lp(P, e)
        if hi.status == "infeasible":
            return []
        lo = solve_lp(P, e, maximize=False)
        lo_i = math.ceil(lo.value) if lo.is_optimal else -fallback
        hi_i = math.floor(hi.value) if hi.is_optimal else fallback
        ranges.append(range(lo_i, hi_i + 1))
    return [t for t in product(*ranges) if P.contains(vector(t))]


def lex_first(points, c=None):
    """ILP oracle over the box scan of enum_integral, which lists points in
    lex order: the lex-least point, or with an objective c the lex-least
    maximizer (max keeps the first of equal keys).  None when empty."""
    if not points:
        return None
    return points[0] if c is None else max(points, key=lambda z: dot(c, z))


def apply_perm(p, x):
    out = [None] * len(x)
    for i in range(1, len(x) + 1):
        out[p(i) - 1] = x[i - 1]
    return tuple(out)


def as_group(gens, n):
    """The group a block decomposition or a generator list stands for."""
    if gens and all(isinstance(x, int) for x in gens):
        return block_group(gens)
    return PermutationGroup(gens, degree=n)


def random_permutation_group(rng, max_degree=7):
    """Up to three generators, each permuting a random subset of the points,
    so the orbits need not be intervals."""
    n = rng.randint(1, max_degree)
    gens = []
    for _ in range(rng.randint(0, 3)):
        images = list(range(1, n + 1))
        moved = rng.sample(range(n), rng.randint(1, n))
        targets = [images[i] for i in moved]
        rng.shuffle(targets)
        for i, v in zip(moved, targets):
            images[i] = v
        gens.append(Permutation(images))
    return PermutationGroup(gens, degree=n)


def elimination_subspace(G):
    """Oracle by generic elimination: the fixed space is the null space of
    the stacked g - id, and the projector projects along the span of the
    columns of the g - id, the invariant complement."""
    n = G.degree
    eye = identity_matrix(n)
    diffs = [tuple(vec_sub(g[i], eye[i]) for i in range(n)) for g in perm_matrices(G)]
    if not diffs:
        return eye, eye
    fixed = nullspace([row for d in diffs for row in d], n)
    comp = row_space_basis([col for d in diffs for col in transpose(d)])
    inv = invert_matrix(transpose(fixed + comp))
    return fixed, mat_mul(transpose(fixed), inv[:len(fixed)])


def row_orbits(P, blocks):
    """The row orbits of an invariant P, as symilp's block routines take them."""
    orbits = _row_orbits(_primitive_rows(P), blocks)
    assert orbits is not None
    return orbits


def orbit_mean(G, z):
    """Oracle: the mean of the expanded orbit of z."""
    orbit = {apply_perm(g, vector(z)) for g in G.elements()}
    return tuple(sum(col, F(0)) / len(orbit) for col in zip(*orbit))


def random_invariant_system(rng, blocks, extra_rows=3, box=2):
    """Row-orbit symmetrization plus a bounding box; invariant by construction."""
    n = sum(blocks)
    G = block_group(blocks)
    elems = list(G.elements())
    rows = {}
    for _ in range(extra_rows):
        a = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        bb = F(rng.randint(-2, 7))
        for g in elems:
            rows.setdefault(apply_perm(g, a), bb)
    A = sorted(rows)
    b = [rows[a] for a in A]
    for i in range(n):
        for s in (1, -1):
            e = [F(0)] * n
            e[i] = F(s)
            A.append(tuple(e))
            b.append(F(box))
    return HPolyhedron.from_rows(A, b)


def random_invariant_objective(rng, blocks):
    out = []
    for nb in blocks:
        out.extend([F(rng.randint(-4, 4))] * nb)
    return tuple(out)


class TestInvariantSubspace:
    def test_swap_fixes_diagonal(self):
        sub = invariant_subspace([Permutation((2, 1))])
        assert sub.dim == 1
        assert sub.project((1, 1)) == (1, 1)
        assert sub.project((1, -1)) == (0, 0)

    def test_trivial_group_full_space(self):
        sub = invariant_subspace([], 4)
        assert sub.dim == 4
        assert sub.project((1, 2, 3, 4)) == (1, 2, 3, 4)

    def test_orbit_indicators_match_elimination(self):
        rng = random.Random(23)
        # orbits {2, 3} and {1, 4}, then {2, 5} and {1, 3}: not intervals
        groups = [PermutationGroup([Permutation((4, 3, 2, 1))]),
                  PermutationGroup([Permutation((3, 5, 1, 4, 2))]),
                  PermutationGroup([], degree=3), S3, block_group((2, 1, 3))]
        groups += [random_permutation_group(rng) for _ in range(80)]
        dims = set()
        for G in groups:
            sub = invariant_subspace(G)
            assert (sub.basis, sub.projector) == elimination_subspace(G)
            dims.add((G.degree, sub.dim))
        # full, intermediate and one-dimensional fixed spaces all occur
        assert any(k == n > 1 for n, k in dims) and any(1 < k < n for n, k in dims)
        assert any(k == 1 < n for n, k in dims)

    @pytest.mark.parametrize("gens,n", [
        ([Permutation((2, 1, 3)), Permutation((2, 3, 1))], 3),
        ([Permutation((3, 2, 1))], 3),
        ((2, 2), 4),
        ((3, 1, 2), 6),
    ])
    def test_projector_identities(self, gens, n):
        sub = invariant_subspace(gens, n)
        pr = sub.projector
        assert mat_mul(pr, pr) == pr
        for g in perm_matrices(as_group(gens, n)):
            assert mat_mul(pr, g) == pr
            assert mat_mul(g, pr) == pr

    def test_projector_equals_orbit_barycenter(self):
        rng = random.Random(7)
        cases = [((3,), 3), ((2, 2), 4), ([Permutation((4, 3, 2, 1))], 4)]
        for gens, n in cases:
            sub = invariant_subspace(gens, n)
            for _ in range(5):
                z = tuple(F(rng.randint(-4, 4)) for _ in range(n))
                assert sub.project(z) == orbit_barycenter(gens, z) == \
                    orbit_mean(as_group(gens, n), z)

    def test_non_permutation_generators_rejected(self):
        rot = ((F(0), F(-1)), (F(1), F(0)))
        flip = AffineMap(SIGN1, (F(0),) * 3)
        for gens, z in (([rot], (1, 2)), ([SIGN1, Permutation((2, 3, 1))], (1, 2, 3)),
                        ([flip], (1, 2, 3)), (flip, (1, 2, 3)), ([Permutation((2, 1)), 3], (1, 2))):
            with pytest.raises(PolyhedronError):
                invariant_subspace(gens)
            with pytest.raises(PolyhedronError):
                orbit_barycenter(gens, z)

    def test_wrong_degree_rejected(self):
        for gens, n in ((S3, 4), ([Permutation((2, 1))], 3), ((2, 2), 3),
                        ([Permutation((2, 1)), Permutation((2, 3, 1))], None), ([], None)):
            with pytest.raises(PolyhedronError):
                invariant_subspace(gens, n)

    def test_infinite_order_generator_rejected(self):
        shear = ((F(1), F(1)), (F(0), F(1)))
        with pytest.raises(PolyhedronError):
            invariant_subspace([shear])

    def test_objective_lies_in_fixed_space(self):
        # invariant LP: c is fixed by the group, so the projector fixes c
        lp = LinearProgram(cube_h(3), (1, 1, 1))
        assert check_invariance(lp, S3)
        assert invariant_subspace(S3).project(lp.c) == lp.c


class TestCheckInvariance:
    def test_cube_all_ones(self):
        assert check_invariance(LinearProgram(cube_h(3), (1, 1, 1)), S3)

    def test_cube_skewed_objective(self):
        assert not check_invariance(LinearProgram(cube_h(3), (1, 0, 0)), S3)

    def test_trivial_group_anything(self):
        P = HPolyhedron.from_rows([(1, 2), (3, -1)], [5, 6])
        assert check_invariance(LinearProgram(P, (2, 7)), PermutationGroup([], degree=2))

    def test_matrix_generator_rotation(self):
        # the square is invariant under the rotation, but only coordinate
        # permutations are accepted as group elements
        rot = ((F(0), F(-1)), (F(1), F(0)))
        with pytest.raises(PolyhedronError):
            check_invariance(LinearProgram(cube_h(2), (0, 0)), [rot])

    def test_asymmetric_rows_fail(self):
        P = HPolyhedron.from_rows([(1, 0), (0, 1)], [1, 2])
        assert not check_invariance(LinearProgram(P, (0, 0)), [Permutation((2, 1))])

    def test_equality_marks_must_match(self):
        # same rows, but only one direction is marked as an equality
        P = HPolyhedron.from_rows([(1, -1), (-1, 1)], [0, 0], equality_rows=(1,))
        assert not check_invariance(LinearProgram(P, (0, 0)), [Permutation((2, 1))])
        Q = HPolyhedron.from_rows([(1, -1), (-1, 1)], [0, 0], equality_rows=(1, 2))
        assert check_invariance(LinearProgram(Q, (0, 0)), [Permutation((2, 1))])

    def test_scaled_rows_compare_equal(self):
        P = HPolyhedron.from_rows([(2, 0), (0, 1)], [2, 1])
        assert check_invariance(LinearProgram(P, (1, 1)), [Permutation((2, 1))])


class TestSolveLPReduced:
    def test_cube_sum_objective(self):
        res = solve_lp_reduced(LinearProgram(cube_h(3), (1, 1, 1)), S3)
        assert res.status == "optimal"
        assert res.value == 3 and res.point == (1, 1, 1)

    def test_zero_objective(self):
        res = solve_lp_reduced(LinearProgram(cube_h(3), (0, 0, 0)), S3)
        assert res.status == "optimal" and res.value == 0

    def test_zero_fixed_space(self):
        # the hyperoctahedral group fixes only the origin, but its sign flip
        # is refused; without it the group permutes coordinates and fixes
        # the all-ones vector, so the fixed space is never zero
        G = [SIGN1, Permutation((2, 3, 1)), Permutation((2, 1, 3))]
        with pytest.raises(PolyhedronError):
            solve_lp_reduced(LinearProgram(cube_h(3), (0, 0, 0)), G)
        assert invariant_subspace(G[1:]).basis == ((1, 1, 1),)
        res = solve_lp_reduced(LinearProgram(cube_h(3), (0, 0, 0)), G[1:])
        assert res.status == "optimal"
        assert res.value == 0 and res.point == (0, 0, 0)

    def test_zero_fixed_space_infeasible(self):
        P = HPolyhedron.from_rows([(1, 1), (-1, -1)], [-1, -1])
        res = solve_lp_reduced(LinearProgram(P, (0, 0)), [Permutation((2, 1))])
        assert res.status == "infeasible"

    def test_unbounded_passes_through(self):
        P = HPolyhedron.from_rows([(-1, -1)], [0])
        res = solve_lp_reduced(LinearProgram(P, (1, 1)), [Permutation((2, 1))])
        assert res.status == "unbounded"
        assert solve_lp(P, (1, 1)).status == "unbounded"

    def test_non_invariant_rejected(self):
        with pytest.raises(PolyhedronError):
            solve_lp_reduced(LinearProgram(cube_h(3), (1, 0, 0)), S3)

    def test_matches_full_lp_on_random_instances(self):
        # oracle: exact agreement with the unreduced solver
        rng = random.Random(11)
        for blocks in [(2,), (3,), (2, 2), (2, 3)]:
            for _ in range(4):
                P = random_invariant_system(rng, blocks)
                c = random_invariant_objective(rng, blocks)
                lp = LinearProgram(P, c)
                assert check_invariance(lp, block_group(blocks))
                full = solve_lp(P, c)
                red = solve_lp_reduced(lp, block_group(blocks))
                assert red.status == full.status
                if full.status == "optimal":
                    assert red.value == full.value
                    assert P.contains(red.point)
                    sub = invariant_subspace(block_group(blocks))
                    assert sub.project(red.point) == red.point

    def test_matches_basis_product_reference(self):
        # the orbit folds against A B and B^T c for the orbit indicators B;
        # row orbits are closed under the generators, some of them equalities.
        # With orbits {2} and {1, 3}, the order of the reduced variables
        # decides the point a zero objective gets
        lp = LinearProgram(HPolyhedron.from_rows([(-1, -1, -1)], [-1]), (0, 0, 0))
        G = [Permutation((3, 2, 1))]
        assert solve_lp_reduced(lp, G) == reference_solve_lp_reduced(lp, G)
        assert solve_lp_reduced(lp, G).point == (0, 1, 0)
        rng = random.Random(40)
        seen = set()
        for t in range(300):
            n = rng.randint(2, 4)
            kind = (0, 1, 1, 2)[t % 4]   # half of the groups are permutation lists
            if kind == 0:
                G = H = block_group(rng.choice([(n,), (1, n - 1), (n - 1, 1)]))
            elif kind == 1:   # orbits that need not be intervals
                H = random_permutation_group(rng, 4)
                n, G = H.degree, list(H.generators)
            else:
                G, H = [], PermutationGroup([], degree=n)
            gens = H.generators
            rows = {}
            for _ in range(rng.randint(1, 3)):
                orbit = [tuple(rng.randint(-3, 3) for _ in range(n))]
                for a in orbit:   # the list grows while it is walked, until closed
                    orbit += [b for g in gens if (b := apply_perm(g, a)) not in orbit]
                bb, eq = rng.randint(-3, 6), rng.random() < 0.2
                for a in orbit:
                    rows.setdefault(a, (bb, eq))
            A = list(rows)
            P = HPolyhedron.from_rows(A, [rows[a][0] for a in A],
                                      [i for i, a in enumerate(A, 1) if rows[a][1]])
            orbit_of = {i: min(orb) for orb in H.point_orbits() for i in orb}
            weight = {i: F(rng.choice((0, 0, 1, -1, 2, -3)), rng.choice((1, 2)))
                      for i in set(orbit_of.values())}
            lp = LinearProgram(P, [weight[orbit_of[i]] for i in range(1, n + 1)])
            assert check_invariance(lp, G)
            got, want = solve_lp_reduced(lp, G), reference_solve_lp_reduced(lp, G)
            assert (got.status, got.value, got.point) == (want.status, want.value, want.point)
            seen.add((kind, got.status))
        assert seen == {(k, s) for k in range(3) for s in ("optimal", "infeasible", "unbounded")}


class TestOrbitBarycenter:
    def test_fixed_point(self):
        assert orbit_barycenter(S3, (2, 2, 2)) == (2, 2, 2)

    def test_s3_average(self):
        assert orbit_barycenter(S3, (2, 1, 0)) == (1, 1, 1)

    def test_large_orbit_not_expanded(self):
        # 10! points in the orbit; the mean is taken per coordinate orbit
        z = tuple(range(10))
        assert orbit_barycenter(block_group((10,)), z) == (F(9, 2),) * 10
        assert orbit_barycenter(block_group((4, 6)), z) == (F(3, 2),) * 4 + (F(13, 2),) * 6

    def test_barycenter_stays_feasible(self):
        # convexity: the barycenter of an orbit of feasible points is feasible
        rng = random.Random(3)
        P = random_invariant_system(rng, (2, 3))
        pts = enum_integral(P)
        assert pts
        for z in pts[:8]:
            assert P.contains(orbit_barycenter(block_group((2, 3)), z))


class TestFiberLattice:
    """The anchors of slice_decomposition: on block j the fiber with block
    sums s is anchored at s_j / n_j, the barycenter of each integral orbit
    in it."""

    def test_s3_lattice(self):
        anchors = {fo.sums: fo.anchor for fo in slice_decomposition(cube_h(3), (3,)).fiber_orbits}
        assert sorted(anchors) == [(s,) for s in range(-3, 4)]
        assert anchors[(2,)] == (F(2, 3),) * 3
        assert anchors[(-1,)] == (F(-1, 3),) * 3

    def test_trivial_blocks_integer_lattice(self):
        # singleton blocks stay free directions of every fiber, anchored at 0
        dec = slice_decomposition(cube_h(2), (1, 1))
        assert [fo.anchor for fo in dec.fiber_orbits] == [(0, 0)]
        dec = slice_decomposition(cube_h(3), (1, 2))
        assert [fo.anchor for fo in dec.fiber_orbits] == \
            [(0, F(s, 2), F(s, 2)) for s in range(-2, 3)]

    def test_two_blocks(self):
        dec = slice_decomposition(cube_h(4), (2, 2))
        assert len(dec.fiber_orbits) == 25
        for fo in dec.fiber_orbits:
            s1, s2 = fo.sums
            assert fo.anchor == (F(s1, 2), F(s1, 2), F(s2, 2), F(s2, 2))

    def test_integral_orbit_barycenters_land_on_lattice(self):
        # the barycenter of every integral orbit in [-1, 2]^4 is the anchor
        # of the fiber with its block sums
        blocks = (2, 2)
        G = block_group(blocks)
        box = HPolyhedron.from_rows([row for i in range(4) for row in
                                     ([F(i == t) for t in range(4)],
                                      [-F(i == t) for t in range(4)])], [2, 1] * 4)
        anchors = {fo.sums: fo.anchor for fo in slice_decomposition(box, blocks).fiber_orbits}
        for z in product(range(-1, 3), repeat=4):
            assert orbit_barycenter(G, z) == anchors[(z[0] + z[1], z[2] + z[3])]

    def test_fiber_members_project_to_anchor(self):
        blocks = (2, 2)
        dec = slice_decomposition(cube_h(4).dilate(2), blocks)
        sub = invariant_subspace(blocks, 4)
        for fo in dec.fiber_orbits:
            for y in enum_integral(fo.fiber):
                z = fo.base_point
                for yi, row in zip(y, dec.basis):
                    z = tuple(a + yi * r for a, r in zip(z, row))
                assert sub.project(vector(z)) == fo.anchor


class TestBlockSumImage:
    def test_vertices_are_the_extreme_block_sums_in_their_integer_form(self):
        # block_sum_image against the extreme points of the block sums of P's
        # vertices; its int_points are those from_points gives its vertices,
        # so the scale is the lcm of their denominators
        rng = random.Random(41)
        seen = set()
        for t in range(60):
            blocks = rng.choice([(2,), (3,), (2, 2), (1, 3), (2, 1, 2)])
            P = random_invariant_system(rng, blocks, box=rng.choice((1, 2, 3)))
            V = symilp.block_sum_image(P, blocks)
            try:
                verts = convert_dd(P).vertices
            except EmptyPolyhedronError:
                assert V is None
                continue
            sums = VPolyhedron.from_points(sorted({symilp._block_sums(blocks, v) for v in verts}))
            assert set(V.vertices) == set(convert_dd(convert_dd(sums)).vertices) and not V.rays
            W = VPolyhedron.from_points(V.vertices)
            assert V == W and V.int_points == W.int_points
            seen.add(V.int_points[0] < _block_sum_dd(row_orbits(P, blocks), blocks)[0])
        # the scale of the double description is reduced in some cases
        assert seen == {True, False}


class TestCanonicalCorePoint:
    def test_examples(self):
        assert canonical_core_point((3,), (4,)).z == (2, 1, 1)
        cp = canonical_core_point((2,), (2,))
        assert cp.z == (1, 1) and cp.orbit_size == 1
        cp = canonical_core_point((2, 2), (1, 3))
        assert cp.z == (1, 0, 2, 1) and cp.orbit_size == 4

    def test_negative_sums(self):
        cp = canonical_core_point((3,), (-4,))
        assert cp.z == (-1, -1, -2)
        assert sum(cp.z) == -4

    def test_orbit_size_counts_arrangements(self):
        cp = canonical_core_point((3,), (4,))
        orbit = {p for p in permutations(cp.z)}
        assert cp.orbit_size == len(orbit) == 3

    def test_balanced_and_core_small_sweep(self):
        # every canonical point passes the enumeration-based core test
        for blocks in [(2,), (3,), (4,), (2, 2)]:
            k = len(blocks)
            for sums in product(range(-5, 6), repeat=k):
                cp = canonical_core_point(blocks, sums)
                off = 0
                for nb, s in zip(blocks, sums):
                    blk = cp.z[off:off + nb]
                    assert sum(blk) == s
                    assert sorted(blk, reverse=True) == list(blk)
                    assert max(blk) - min(blk) <= 1
                    off += nb
                assert is_core_point(block_group(blocks), cp.z) is True


class TestIsCorePoint:
    def test_fixed_point_is_core(self):
        assert is_core_point(S3, (3, 3, 3)) is True

    def test_segment_without_midpoint(self):
        assert is_core_point((2,), (1, 0)) is True

    def test_segment_with_interior_point(self):
        assert is_core_point((2,), (2, 0)) is False

    def test_budget_gives_unknown(self):
        assert is_core_point((8,), tuple(range(8)), budget=100) is None

    def test_non_integral_rejected(self):
        with pytest.raises(PolyhedronError):
            is_core_point((2,), (F(1, 2), F(1, 2)))


class TestSymmetricILP:
    def test_cube_feasible(self):
        P = cube_h(3)
        z = symmetric_ilp_feasible(P, (3,))
        assert z is not None and P.contains(z)
        assert all(v.denominator == 1 for v in z)

    def test_slab_infeasible_single_fiber(self):
        # x1 + x2 = 1 with |x1 - x2| <= 1/3 holds no integral point
        P = HPolyhedron.from_rows(
            [(1, 1), (1, -1), (-1, 1)], [1, F(1, 3), F(1, 3)],
            equality_rows=(1,))
        assert symmetric_ilp_feasible(P, (2,)) is None
        assert enum_integral(P) == []

    def test_shifted_slab_feasible(self):
        P = HPolyhedron.from_rows(
            [(1, 1), (1, -1), (-1, 1)], [2, F(1, 3), F(1, 3)],
            equality_rows=(1,))
        assert symmetric_ilp_feasible(P, (2,)) == (1, 1)

    def test_non_invariant_rejected(self):
        P = HPolyhedron.from_rows([(1, 0), (0, 1)], [1, 2])
        with pytest.raises(PolyhedronError):
            symmetric_ilp_feasible(P, (2,))

    def test_unbounded_projection_needs_bounds(self):
        # an unbounded block sum is refused, not truncated; a row of the
        # system that bounds it gets an answer
        P = HPolyhedron.from_rows([(-1, -1)], [F(-1, 2)])
        with pytest.raises(PolyhedronError, match=UNBOUNDED):
            symmetric_ilp_feasible(P, (2,))
        Q = HPolyhedron.from_rows([(-1, -1), (1, 1)], [F(-1, 2), 3])
        z = symmetric_ilp_feasible(Q, (2,))
        assert z is not None and Q.contains(z)

    def test_fiber_budget_refused(self):
        # 101^3 block-sum vectors under singleton blocks
        P = cube_h(3).dilate(50)
        with pytest.raises(PolyhedronError,
                           match="^fiber enumeration exceeds budget 1000000$"):
            symmetric_ilp_feasible(P, (1, 1, 1))
        assert symmetric_ilp_feasible(cube_h(3).dilate(49), (1, 1, 1)) is not None

    def test_empty_input_infeasible(self):
        P = HPolyhedron.from_rows([(1, 1), (-1, -1)], [-1, -1])
        assert symmetric_ilp_feasible(P, (2,)) is None

    def test_agrees_with_enumeration(self):
        # oracle: brute-force box scan over random invariant systems
        rng = random.Random(23)
        hits = misses = 0
        for _ in range(14):
            blocks = rng.choice([(2, 3), (3, 2), (2, 2)])
            P = random_invariant_system(rng, blocks)
            got = symmetric_ilp_feasible(P, blocks)
            brute = enum_integral(P)
            if got is None:
                assert brute == []
                misses += 1
            else:
                assert P.contains(got)
                assert all(v.denominator == 1 for v in got)
                assert tuple(int(v) for v in got) in brute
                hits += 1
        assert hits and misses

    def test_optimize_cube(self):
        assert symmetric_ilp_optimize(cube_h(3), (3,), (1, 1, 1)) == (3, (1, 1, 1))
        val, z = symmetric_ilp_optimize(cube_h(3), (3,), (-1, -1, -1))
        assert val == 3 and z == (-1, -1, -1)

    def test_optimize_agrees_with_enumeration(self):
        rng = random.Random(41)
        for _ in range(8):
            blocks = rng.choice([(2, 2), (2, 3)])
            P = random_invariant_system(rng, blocks, extra_rows=3)
            c = random_invariant_objective(rng, blocks)
            got = symmetric_ilp_optimize(P, blocks, c)
            brute = enum_integral(P)
            if got is None:
                assert brute == []
            else:
                val, z = got
                assert P.contains(z) and dot(c, z) == val
                assert val == max(dot(c, vector(t)) for t in brute)


# ---------------------------------------------------------------------------
# the integer sweep against the Fraction-based definitions it replaces


def block_spans(blocks):
    out, off = [], 0
    for nb in blocks:
        out.append((off, off + nb))
        off += nb
    return out


def block_indicator(n, lo, hi):
    return tuple(F(int(lo <= t < hi)) for t in range(n))


def full_sum_ranges(P, blocks):
    """Block-sum ranges from LPs on the full system; "unbounded" when a
    direction has no LP bound, None when P is empty."""
    out = []
    for j, (lo_i, hi_i) in enumerate(block_spans(blocks)):
        ind = block_indicator(P.n, lo_i, hi_i)
        top = solve_lp(P, ind)
        if top.status == "infeasible":
            return None
        bot = solve_lp(P, ind, maximize=False)
        lo = bot.value if bot.is_optimal else None
        hi = top.value if top.is_optimal else None
        if lo is None or hi is None:
            return "unbounded"
        out.append(range(math.ceil(lo), math.floor(hi) + 1))
    return out


def fraction_sweep_order(P, blocks, c):
    """Fiber candidates in sweep order, listed with Fraction sort keys:
    nearest to the relaxation point first (c None), else by decreasing fiber
    objective; lexicographic ties.  None when P is empty."""
    ranges = full_sum_ranges(P, blocks)
    if ranges is None:
        return None
    spans = block_spans(blocks)
    if c is None:
        rel = solve_lp(P, zero_vector(P.n))
        ref = [sum(rel.point[lo:hi], F(0)) for lo, hi in spans]
        key = lambda s: (sum(abs(F(sj) - rj) for sj, rj in zip(s, ref)), s)
    else:
        cb = [F(c[lo]) for lo, _ in spans]
        key = lambda s: (-sum(cj * sj for cj, sj in zip(cb, s)), s)
    return sorted(product(*ranges), key=key)


def per_block(blocks, values):
    """The vector that holds values[j] on every coordinate of block j."""
    return tuple(v for v, nb in zip(values, blocks) for _ in range(nb))


def rational_invariant_system(rng, blocks, mode):
    """Block-invariant rows with rational entries in A and b, an invariant
    equality row, and a rational box.

    mode "lattice": the equality passes through an integral point of the box;
    "off-lattice": it holds for no integral point; "window": two inequalities
    K + 1/3 <= sum(x) <= K + 2/3, which no integral point meets either.
    """
    n = sum(blocks)
    elems = list(block_group(blocks).elements())
    rows = {}
    for _ in range(2):
        a = tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n))
        bb = F(rng.randint(-1, 9), rng.choice((1, 2)))
        for g in elems:
            rows.setdefault(apply_perm(g, a), bb)
    A = sorted(rows)
    b = [rows[a] for a in A]
    half = F(rng.choice((3, 4, 5)), 2)
    for i in range(n):
        for s in (1, -1):
            e = [F(0)] * n
            e[i] = F(s)
            A.append(tuple(e))
            b.append(half)
    if mode == "window":
        K = rng.randint(-1, 1)
        A += [(F(1),) * n, (F(-1),) * n]
        b += [K + F(2, 3), -(K + F(1, 3))]
        return HPolyhedron.from_rows(A, b)
    w = per_block(blocks, [F(rng.randint(1, 3), rng.choice((1, 2))) for _ in blocks])
    z0 = [rng.randint(-1, 1) for _ in range(n)]
    beta = dot(w, z0)
    if mode == "off-lattice":
        # w.x runs over multiples of 1/2 on integral points
        beta += F(1, 3)
    A.append(w)
    b.append(beta)
    return HPolyhedron.from_rows(A, b, equality_rows=(len(A),))


class TestIntegerSweepOracle:
    SHAPES = [(2,), (3,), (2, 1), (2, 2), (1, 3), (2, 1, 1)]

    def cases(self):
        rng = random.Random(2013)
        for t in range(18):
            blocks = self.SHAPES[t % len(self.SHAPES)]
            mode = ("lattice", "lattice", "off-lattice", "window")[t % 4]
            P = rational_invariant_system(rng, blocks, mode)
            c = None
            if t % 3:
                c = per_block(blocks, [F(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                                       for _ in blocks])
            yield P, blocks, c

    def test_agrees_with_brute_force_and_fraction_order(self):
        seen = set()
        for P, blocks, c in self.cases():
            z, tested = symmetric_ilp(P, blocks, c)
            brute = lex_first(enum_integral(P), c)
            assert (z is None) == (brute is None)
            # the same system without its blocks, as ilp runs it
            assert first_lattice_point(P, c) == brute
            cands = fraction_sweep_order(P, blocks, c)
            if cands is None:
                assert tested == 0
            elif z is None:
                assert tested == len(cands)
            else:
                assert P.contains(z) and all(v.denominator == 1 for v in z)
                sums = tuple(int(sum(z[lo:hi])) for lo, hi in block_spans(blocks))
                assert tested == cands.index(sums) + 1
                assert z == canonical_core_point(blocks, sums).z
            if c is None:
                assert symmetric_ilp_feasible(P, blocks) == z
            else:
                got = symmetric_ilp_optimize(P, blocks, c)
                assert got == (None if z is None else (dot(c, z), z))
                if z is not None:
                    assert dot(c, z) == dot(c, brute)
            seen.add((z is None, c is None, bool(cands)))
        # feasible and infeasible answers, with and without an objective, and
        # infeasible systems whose every fiber was probed
        assert {(False, True, True), (False, False, True),
                (True, True, True), (True, False, True)} <= seen

    def tie_cases(self):
        """Objectives under which many fibers share a key: zero (every fiber
        ties), constant (fibers tie by total sum) and opposite per block."""
        rng = random.Random(2014)
        for t, blocks in enumerate(self.SHAPES * 2):
            P = rational_invariant_system(rng, blocks, ("lattice", "off-lattice")[t % 2])
            for cb in ([0] * len(blocks), [1] * len(blocks),
                       [(-1) ** j * F(1, 2) for j in range(len(blocks))]):
                yield P, blocks, per_block(blocks, cb)

    def test_whole_fiber_order_matches_fraction_keys(self, monkeypatch):
        orders = []
        real = symilp._sweep

        def recording(orbits, blocks, cands):
            orders.append(list(cands))
            return real(orbits, blocks, orders[-1])

        monkeypatch.setattr(symilp, "_sweep", recording)
        all_tied = 0
        for P, blocks, c in [*self.cases(), *self.tie_cases()]:
            del orders[:]
            symmetric_ilp(P, blocks, c)
            want = fraction_sweep_order(P, blocks, c)
            assert orders == ([] if want is None else [want]), (blocks, c)
            if want and c is not None and not any(c) and len(want) > 1:
                # every key ties: the sweep runs in lexicographic order
                assert want == sorted(want)
                all_tied += 1
        assert all_tied


# ---------------------------------------------------------------------------
# the orbit sweep against the row-by-row sweep it replaces


def reference_sweep(P, blocks, cands):
    """Oracle: the row-by-row sweep.  Every row of P, scaled to integers, is
    tested against the balanced point of each candidate in list order."""
    eq = set(P.equality_rows)
    rows = []
    for i, (a, bb) in enumerate(zip(P.A, P.b), start=1):
        *ai, bi = integerize(a + (bb,))
        rows.append((ai, bi, i in eq))
    for tested, s in enumerate(cands, start=1):
        z = canonical_core_point(blocks, s).z
        zi = [v.numerator for v in z]
        for ai, bi, is_eq in rows:
            v = sum(map(mul, ai, zi))
            if (v != bi) if is_eq else (v > bi):
                break
        else:
            return z, tested
    return None, len(cands)


def orbit_system(rng, blocks, mode):
    """A block-invariant system: a rational box, orbits of rational rows and,
    by mode, an equality orbit.

    "ineq": inequalities only; "orbit-eq": the orbit of an equality row that
    is not constant on its blocks, so the orbit has several members, through
    a point constant on every block; "block-eq": an equality row constant on
    each block, an orbit of one row; "window": K + 1/3 <= sum(x) <= K + 2/3,
    which no integral point meets.
    """
    n = sum(blocks)
    elems = list(block_group(blocks).elements())
    rows = {}

    def add_orbit(a, bb, is_eq):
        for g in elems:
            rows.setdefault((apply_perm(g, a), bb, is_eq), None)

    for _ in range(rng.randint(1, 3)):
        add_orbit(tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)),
                  F(rng.randint(-2, 9), rng.choice((1, 2))), False)
    hi, lo = F(rng.randint(2, 6), 2), F(rng.randint(2, 6), 2)
    for i in range(n):
        e = tuple(F(int(i == t)) for t in range(n))
        add_orbit(e, hi, False)
        add_orbit(tuple(-x for x in e), lo, False)
    if mode in ("orbit-eq", "block-eq"):
        z0 = per_block(blocks, [rng.randint(-1, 1) for _ in blocks])
        if mode == "orbit-eq":
            a = tuple(F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(n))
        else:
            a = per_block(blocks, [F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in blocks])
        add_orbit(a, dot(a, z0), True)
    elif mode == "window":
        K = rng.randint(-1, 1)
        add_orbit((F(1),) * n, K + F(2, 3), False)
        add_orbit((F(-1),) * n, -(K + F(1, 3)), False)
    keys = list(rows)
    rng.shuffle(keys)
    return HPolyhedron.from_rows([k[0] for k in keys], [k[1] for k in keys],
                                 tuple(i for i, k in enumerate(keys, start=1) if k[2]))


class TestOrbitSweepOracle:
    SHAPES = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (3, 1),
              (1, 1, 1), (2, 1, 1), (1, 2, 1)]
    MODES = ("ineq", "orbit-eq", "block-eq", "window")

    def test_agrees_with_row_by_row_sweep(self):
        rng = random.Random(2013)
        seen = set()
        # blocks of size 4, so that a remainder s mod n reaches 3
        shapes = self.SHAPES + [(4,), (1, 4)]
        for t in range(700):
            blocks = shapes[t % len(shapes)]
            mode = self.MODES[t // len(shapes) % len(self.MODES)]
            P = orbit_system(rng, blocks, mode)
            assert check_invariance(LinearProgram(P, zero_vector(P.n)), blocks)
            orbits = row_orbits(P, blocks)
            ranges = _sum_ranges(orbits, blocks)
            if ranges is None:
                seen.add((mode, "empty"))
                continue
            cands = list(product(*ranges))
            # shuffled, so that the rejecting orbit changes between probes,
            # with candidates beyond the ranges, negative ones, and repeats,
            # which read the memo tables again
            cands += [tuple(rng.randint(-8, 8) for _ in blocks) for _ in range(3)]
            cands += [tuple(rng.randint(-12, -1) for _ in blocks) for _ in range(2)]
            cands += rng.choices(cands, k=len(cands) // 2)
            rng.shuffle(cands)
            got = _sweep(orbits, blocks, cands)
            assert got == reference_sweep(P, blocks, cands), (t, blocks, mode)
            # again with every balanced point outside P first: each must be rejected
            outside = {s for s in cands if reference_sweep(P, blocks, [s])[0] is None}
            cands.sort(key=lambda s: s not in outside)
            assert _sweep(orbits, blocks, cands) == reference_sweep(P, blocks, cands), (t, blocks)
            seen.add((mode, got[0] is None))
            if any(nb == 4 and sj % 4 == 3 for nb, sj in zip(blocks, cands[0])):
                seen.add("remainder 3")
            if mode == "orbit-eq" and len(P.equality_rows) > 1:
                seen.add(("several equalities", got[0] is None))
        assert {(m, f) for m in self.MODES[:3] for f in (False, True)} <= seen
        assert ("window", True) in seen and ("window", False) not in seen
        assert {("several equalities", False), ("several equalities", True)} <= seen
        assert "remainder 3" in seen

    def test_one_core_point_per_feasible_answer(self, monkeypatch):
        calls = []
        real = symilp.canonical_core_point

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(symilp, "canonical_core_point", counting)
        rng = random.Random(7)
        for t in range(40):
            blocks = self.SHAPES[t % len(self.SHAPES)]
            mode = self.MODES[t % len(self.MODES)]
            P = orbit_system(rng, blocks, mode)
            c = None if t % 2 else per_block(blocks, [rng.randint(-2, 2) for _ in blocks])
            del calls[:]
            z, tested = symmetric_ilp(P, blocks, c)
            assert len(calls) == (z is not None)
            if z is not None:
                assert tested >= 1 and calls[0] == (blocks, tuple(
                    int(sum(z[lo:hi])) for lo, hi in block_spans(blocks)))
            if mode == "window":
                assert z is None and not calls


# ---------------------------------------------------------------------------
# the fiber order: the first fiber without a sort, the rest sorted on demand


def sorted_fiber_order(ranges, terms):
    """The sweep order as one stable sort of every fiber's index by its key,
    the keys summed from the per-block terms in product order."""
    keys = [sum(t) for t in product(*terms)]
    return list(map(list(product(*ranges)).__getitem__,
                    sorted(range(len(keys)), key=keys.__getitem__)))


class TestFiberOrder:
    def test_equals_one_stable_sort_of_the_product(self):
        rng = random.Random(49)
        seen = set()
        for t in range(600):
            ranges = [range(lo, lo + rng.randint(1, 4))
                      for lo in (rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))]
            if t % 40 == 0:
                ranges[rng.randrange(len(ranges))] = range(2, 2)
            if t % 40 == 1:
                ranges = [range(lo, lo + 1) for lo in (rng.randint(-3, 3) for _ in ranges)]
            terms = [[rng.randint(-3, 2) for _ in r] for r in ranges]
            keys = [sum(k) for k in product(*terms)]
            assert list(symilp._fiber_order(ranges, terms)) == \
                sorted_fiber_order(ranges, terms), (ranges, terms)
            seen.add(min(len(keys), 2))
            if keys.count(min(keys, default=0)) > 1:
                seen.add("tied first")
        assert seen == {0, 1, 2, "tied first"}

    def test_small_order_by_hand(self):
        # keys 2 0 -1 4 2 1 in product order
        order = symilp._fiber_order([range(-1, 1), range(3)], [[0, 2], [2, 0, -1]])
        assert next(order) == (-1, 2)
        assert list(order) == [(-1, 1), (0, 2), (-1, 0), (0, 1), (0, 0)]

    def test_first_fiber_accepted_sorts_nothing_and_builds_no_product(self, monkeypatch):
        # a sort of fiber indices sorts a range; _row_orbits sorts tuples
        sorted_types, products = [], []

        def recording_sorted(items, **kw):
            sorted_types.append(type(items))
            return sorted(items, **kw)

        def recording_product(*ranges):
            products.append(ranges)
            return product(*ranges)

        monkeypatch.setattr(symilp, "sorted", recording_sorted, raising=False)
        monkeypatch.setattr(symilp, "product", recording_product)
        P = cube_h(3)   # -1 <= x_i <= 1
        assert symmetric_ilp(P, (2, 1), (1, 1, 1)) == ((1, 1, 1), 1)
        assert symmetric_ilp(P, (3,), (-1, -1, -1)) == ((-1, -1, -1), 1)
        assert symmetric_ilp(P, (1, 2)) == ((0, 0, 0), 1)
        assert sorted_types and range not in sorted_types and not products
        # a sweep past its first fiber builds both: the one fiber of
        # x1 + x2 = 1, |x1 - x2| <= 1/3 is rejected, and then the rest is asked for
        Q = HPolyhedron.from_rows([(1, 1), (1, -1), (-1, 1)], [1, F(1, 3), F(1, 3)],
                                  equality_rows=(1,))
        assert symmetric_ilp(Q, (2,)) == (None, 1)
        assert range in sorted_types and products == [(range(1, 2),)]


# ---------------------------------------------------------------------------
# an ilp answer depends on the polyhedron, not on how its rows are scaled


def rescale_row_orbits(rng, P, blocks):
    """P with each orbit of rows under the block action multiplied by its
    own positive rational factor: the same polyhedron, the same int_rows."""
    elems = list(block_group(blocks).elements())
    eq = set(P.equality_rows)
    factor = {}
    A, b = [], []
    for i, (a, bb) in enumerate(zip(P.A, P.b), start=1):
        orbit = frozenset(primitive(apply_perm(g, a) + (bb,)) for g in elems)
        f = factor.setdefault((orbit, i in eq), F(rng.randint(1, 9), rng.randint(1, 4)))
        A.append(tuple(f * x for x in a))
        b.append(f * bb)
    return HPolyhedron.from_rows(A, b, P.equality_rows)


class TestRowScaleInvariance:
    # x1, x2 in [-3, 1], x3 in [-2, 1], x4 in [-1, 0] with three rows scaled by 5,
    # 4 and 3, a row 2x1 + 2x2 - 3x3 + x4 <= -3, and 3x3 + 3x4 <= -1 scaled
    # by 1/9: a block system whose relaxation point once moved with the scale
    ROWS = [((1, 0, 0, 0), 1), ((-1, 0, 0, 0), 3), ((0, 1, 0, 0), 1), ((0, -1, 0, 0), 3),
            ((0, 0, 5, 0), 5), ((0, 0, -4, 0), 8), ((0, 0, 0, 1), 0), ((0, 0, 0, -3), 3),
            ((2, 2, -3, 1), -3), ((0, 0, 1, 1), F(-1, 3))]

    def test_primitive_copy_gives_the_same_answer(self):
        P = HPolyhedron.from_rows([a for a, _ in self.ROWS], [bb for _, bb in self.ROWS])
        Q = HPolyhedron.from_rows([r[:-1] for r in P.int_rows], [r[-1] for r in P.int_rows])
        assert Q.A != P.A and Q.int_rows == P.int_rows
        assert solve_lp(Q, zero_vector(4)) == solve_lp(P, zero_vector(4))
        assert symmetric_ilp(P, (2, 1, 1)) == symmetric_ilp(Q, (2, 1, 1)) == ((-1, -1, 0, -1), 4)

    def test_rescaled_row_orbits_give_the_same_answer(self):
        # rational systems for the relaxation point that orders a feasibility
        # sweep, orbit systems with objectives for the fiber order by value
        rng = random.Random(1)
        shapes = TestIntegerSweepOracle.SHAPES + [(2, 1, 1), (3, 1), (2, 2, 1)]
        seen = set()
        for t in range(400):
            blocks = shapes[t % len(shapes)]
            if t % 4:
                P = rational_invariant_system(rng, blocks, ("lattice", "off-lattice", "window")[t % 3])
                c = None
            else:
                P = orbit_system(rng, blocks, TestOrbitSweepOracle.MODES[t // 4 % 4])
                c = per_block(blocks, [rng.randint(-2, 2) for _ in blocks])
            Q = rescale_row_orbits(rng, P, blocks)
            assert Q.int_rows == P.int_rows
            got = symmetric_ilp(P, blocks, c)
            assert symmetric_ilp(Q, blocks, c) == got, (t, blocks)
            seen.add((c is None, got[0] is None))
        assert seen == {(a, b) for a in (False, True) for b in (False, True)}


def perm_matrices(G):
    """Generators of a permutation group as matrices, (M x)_{g(i)} = x_i."""
    out = []
    for g in G.generators:
        n = g.degree
        M = [[F(0)] * n for _ in range(n)]
        for i in range(1, n + 1):
            M[g(i) - 1][i - 1] = F(1)
        out.append(tuple(tuple(r) for r in M))
    return out


def matrix_invariance(lp, mats):
    """Oracle: every matrix g fixes c and maps the normalized rows of P onto
    themselves through g^-T."""
    P, c = lp.P, lp.c
    eq = set(P.equality_rows)
    base = sorted((primitive(P.A[i] + (P.b[i],)), (i + 1) in eq) for i in range(P.m))
    for g in mats:
        if mat_vec(transpose(g), c) != c:
            return False
        ginv_t = transpose(invert_matrix(g))
        rows = sorted((primitive(mat_vec(ginv_t, P.A[i]) + (P.b[i],)), (i + 1) in eq)
                      for i in range(P.m))
        if rows != base:
            return False
    return True


class TestFastPathEquivalence:
    def test_permutation_group_matches_matrix_generators(self):
        rng = random.Random(17)
        groups = [block_group((2, 2)), block_group((3, 1)), block_group((1, 1, 2)),
                  PermutationGroup([Permutation((2, 3, 4, 1))]),
                  PermutationGroup([], degree=4)]
        systems = [cube_h(4), random_invariant_system(rng, (2, 2)),
                   random_invariant_system(rng, (3, 1)),
                   rational_invariant_system(rng, (2, 2), "lattice"),
                   rational_invariant_system(rng, (1, 3), "window")]
        P = systems[1]
        # one right-hand side moved: no longer invariant
        systems.append(HPolyhedron(P.A, (P.b[0] + 1,) + P.b[1:]))
        # an orbit with only one of its rows marked as an equality
        systems.append(HPolyhedron.from_rows(
            [(1, -1, 0, 0), (-1, 1, 0, 0)], [0, 0], equality_rows=(1,)))
        objectives = [(0, 0, 0, 0), (1, 1, 1, 1), (F(1, 2), F(1, 2), 3, 3),
                      (2, 2, 2, F(-1, 3)), (1, 2, 3, 4)]
        verdicts = set()
        for G in groups:
            mats = perm_matrices(G)
            for P in systems:
                for c in objectives:
                    lp = LinearProgram(P, c)
                    fast = check_invariance(lp, G)
                    assert fast == matrix_invariance(lp, mats)
                    verdicts.add(fast)
        assert verdicts == {True, False}

    def test_permutation_group_degree_mismatch(self):
        with pytest.raises(PolyhedronError):
            check_invariance(LinearProgram(cube_h(3), (0, 0, 0)), block_group((2, 2)))

    def test_fixed_space_ranges_match_full_lps(self):
        rng = random.Random(29)
        checked = 0
        for t in range(12):
            blocks = [(2, 2), (3, 1), (2, 1, 1), (4,)][t % 4]
            if t % 2:
                P = random_invariant_system(rng, blocks)
            else:
                P = rational_invariant_system(rng, blocks, ("lattice", "window")[t % 4 // 2])
            want = full_sum_ranges(P, blocks)
            assert _sum_ranges(row_orbits(P, blocks), blocks) == want
            checked += want is not None
        assert checked

    def test_empty_system_has_no_ranges(self):
        P = HPolyhedron.from_rows([(1, 1), (-1, -1)], [-1, -1])
        assert full_sum_ranges(P, (2,)) is None
        assert _sum_ranges(row_orbits(P, (2,)), (2,)) is None

    def test_unbounded_ranges_need_user_bounds(self):
        # x1 + x2 >= 1/2 on the first block, a bounded second block
        P = HPolyhedron.from_rows(
            [(-1, -1, 0), (0, 0, 1), (0, 0, -1)], [F(-1, 2), F(5, 2), F(1, 3)])
        assert full_sum_ranges(P, (2, 1)) == "unbounded"
        with pytest.raises(PolyhedronError, match=UNBOUNDED):
            _sum_ranges(row_orbits(P, (2, 1)), (2, 1))
        # the mirror image, x1 + x2 <= -1/2, is unbounded below
        Q = HPolyhedron.from_rows([tuple(-x for x in a) for a in P.A], P.b)
        assert full_sum_ranges(Q, (2, 1)) == "unbounded"
        with pytest.raises(PolyhedronError, match=UNBOUNDED):
            _sum_ranges(row_orbits(Q, (2, 1)), (2, 1))
        # the bounds must come from the system: a row that caps the first
        # block sum gives the LP ranges
        for R, cap in ((P, (1, 1, 0)), (Q, (-1, -1, 0))):
            capped = HPolyhedron(R.A + (cap,), R.b + (F(3),))
            want = full_sum_ranges(capped, (2, 1))
            assert want != "unbounded"
            assert _sum_ranges(row_orbits(capped, (2, 1)), (2, 1)) == want


# ---------------------------------------------------------------------------
# block sizes judged by row orbits against the generator route

PLANT_SHAPES = [(1,), (2,), (3,), (1, 2), (2, 1), (1, 1, 2), (3, 1), (2, 2), (1, 3)]
CHANGES = ("drop", "duplicate", "flip", "b")


@st.composite
def planted_systems(draw):
    """Blocks, integer rows (a, b, equality) made symmetric over the block
    group with a box around them, and an objective, constant on each block
    or not.  Some shapes hold a block of size 1."""
    blocks = draw(st.sampled_from(PLANT_SHAPES))
    n = sum(blocks)
    elems = list(block_group(blocks).elements())
    coord = st.integers(-2, 2)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        a = tuple(draw(st.lists(coord, min_size=n, max_size=n)))
        bb, eq = draw(st.integers(-3, 3)), draw(st.booleans())
        rows += [(x, bb, eq) for x in dict.fromkeys(apply_perm(g, a) for g in elems)]
    rows += [(tuple(s * int(i == t) for t in range(n)), 2, False)
             for i in range(n) for s in (1, -1)]
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        c = per_block(blocks, [draw(coord) for _ in blocks])
    else:
        c = tuple(draw(st.lists(coord, min_size=n, max_size=n)))
    return blocks, rows, c, draw(st.integers(0, len(rows) - 1))


def changed(rows, change, i):
    """rows with one change at row i."""
    a, bb, eq = rows[i]
    if change == "drop":
        return rows[:i] + rows[i + 1:]
    if change == "duplicate":
        return rows[:i + 1] + rows[i:]
    return rows[:i] + [(a, bb, not eq) if change == "flip" else (a, bb + 1, eq)] + rows[i + 1:]


def as_lp(rows, c):
    return LinearProgram(HPolyhedron.from_rows([r[0] for r in rows], [r[1] for r in rows],
                                               [i for i, r in enumerate(rows, 1) if r[2]]), c)


@settings(max_examples=150, deadline=None)
@given(planted_systems())
def test_block_sizes_agree_with_generators(case):
    # the row orbits of _row_orbits against every generator of block_group,
    # on the planted system and on it with one row dropped, duplicated, its
    # equality flag flipped or its b moved; a planted system with a block
    # objective is invariant
    blocks, rows, c, i = case
    G = block_group(blocks)
    assert check_invariance(as_lp(rows, per_block(blocks, [1] * len(blocks))), blocks)
    for variant in [rows] + [changed(rows, change, i) for change in CHANGES]:
        lp = as_lp(variant, c)
        assert check_invariance(lp, blocks) == check_invariance(lp, G), (blocks, variant, c)


def test_block_sum_image_refuses_a_system_that_is_not_invariant():
    # x1 <= 2 twice and x2 <= 2 once: every row's orbit is there, but not
    # equally often
    P = HPolyhedron.from_rows([(-1, 0), (0, -1), (1, 0), (1, 0), (0, 1)], [0, 0, 2, 2, 2])
    with pytest.raises(PolyhedronError, match=NOT_INVARIANT):
        symilp.block_sum_image(P, (2,))
    assert not check_invariance(LinearProgram(P, (0, 0)), (2,))
    assert not check_invariance(LinearProgram(P, (0, 0)), block_group((2,)))
    # listed twice like x1 <= 2, x2 <= 2 makes the system invariant
    Q = HPolyhedron(P.A + P.A[4:], P.b + P.b[4:])
    assert symilp.block_sum_image(Q, (2,)).vertices == ((0,), (4,))
