"""Tests for symmetric LP reduction, core points and fiber feasibility."""
import math
import random
from fractions import Fraction as F
from itertools import permutations, product

import pytest

from polyorbit.permgrp import OrbitBudgetExceeded, Permutation, PermutationGroup
from polyorbit.polycore import (
    HPolyhedron,
    PolyhedronError,
    dot,
    mat_mul,
    mat_vec,
    solve_lp,
    vector,
    zero_vector,
)
from polyorbit.latcount import first_lattice_point, slice_decomposition
from polyorbit.symilp import (
    CorePoint,
    LinearProgram,
    _sum_ranges,
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

from shapes import cube_h

UNBOUNDED = "^projection onto the invariant subspace is unbounded$"
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

    def test_hyperoctahedral_fixes_origin_only(self):
        sub = invariant_subspace([SIGN1, Permutation((2, 3, 1))])
        assert sub.dim == 0
        assert sub.project((5, -2, 7)) == (0, 0, 0)

    def test_trivial_group_full_space(self):
        sub = invariant_subspace([], 4)
        assert sub.dim == 4
        assert sub.project((1, 2, 3, 4)) == (1, 2, 3, 4)

    @pytest.mark.parametrize("gens,n", [
        ([Permutation((2, 1, 3)), Permutation((2, 3, 1))], 3),
        ([SIGN1, Permutation((2, 3, 1)), Permutation((2, 1, 3))], 3),
        ((2, 2), 4),
        ((3, 1, 2), 6),
    ])
    def test_projector_identities(self, gens, n):
        from polyorbit.symilp import _linear_action
        sub = invariant_subspace(gens, n)
        pr = sub.projector
        assert mat_mul(pr, pr) == pr
        mats, _ = _linear_action(gens, n)
        for g in mats:
            assert mat_mul(pr, g) == pr
            assert mat_mul(g, pr) == pr

    def test_projector_equals_orbit_barycenter(self):
        rng = random.Random(7)
        cases = [((3,), 3), ((2, 2), 4), ([SIGN1, Permutation((2, 1, 3))], 3)]
        for G, n in cases:
            sub = invariant_subspace(G, n)
            for _ in range(5):
                z = tuple(F(rng.randint(-4, 4)) for _ in range(n))
                assert sub.project(z) == orbit_barycenter(G, z)

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
        rot = ((F(0), F(-1)), (F(1), F(0)))
        assert check_invariance(LinearProgram(cube_h(2), (0, 0)), [rot])

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
        G = [SIGN1, Permutation((2, 3, 1)), Permutation((2, 1, 3))]
        res = solve_lp_reduced(LinearProgram(cube_h(3), (0, 0, 0)), G)
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


class TestOrbitBarycenter:
    def test_fixed_point(self):
        assert orbit_barycenter(S3, (2, 2, 2)) == (2, 2, 2)

    def test_square_vertex_orbit(self):
        G = [((F(-1), F(0)), (F(0), F(1))), Permutation((2, 1))]
        assert orbit_barycenter(G, (1, 1)) == (0, 0)

    def test_s3_average(self):
        assert orbit_barycenter(S3, (2, 1, 0)) == (1, 1, 1)

    def test_budget_exceeded(self):
        with pytest.raises(OrbitBudgetExceeded):
            orbit_barycenter(block_group((8,)), tuple(range(8)), budget=100)

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
                    assert fast == check_invariance(lp, mats)
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
            assert _sum_ranges(P, blocks) == want
            checked += want is not None
        assert checked

    def test_empty_system_has_no_ranges(self):
        P = HPolyhedron.from_rows([(1, 1), (-1, -1)], [-1, -1])
        assert full_sum_ranges(P, (2,)) is None
        assert _sum_ranges(P, (2,)) is None

    def test_unbounded_ranges_need_user_bounds(self):
        # x1 + x2 >= 1/2 on the first block, a bounded second block
        P = HPolyhedron.from_rows(
            [(-1, -1, 0), (0, 0, 1), (0, 0, -1)], [F(-1, 2), F(5, 2), F(1, 3)])
        assert full_sum_ranges(P, (2, 1)) == "unbounded"
        with pytest.raises(PolyhedronError, match=UNBOUNDED):
            _sum_ranges(P, (2, 1))
        # the mirror image, x1 + x2 <= -1/2, is unbounded below
        Q = HPolyhedron.from_rows([tuple(-x for x in a) for a in P.A], P.b)
        assert full_sum_ranges(Q, (2, 1)) == "unbounded"
        with pytest.raises(PolyhedronError, match=UNBOUNDED):
            _sum_ranges(Q, (2, 1))
        # the bounds must come from the system: a row that caps the first
        # block sum gives the LP ranges
        for R, cap in ((P, (1, 1, 0)), (Q, (-1, -1, 0))):
            capped = HPolyhedron(R.A + (cap,), R.b + (F(3),))
            want = full_sum_ranges(capped, (2, 1))
            assert want != "unbounded"
            assert _sum_ranges(capped, (2, 1)) == want
