"""Core exact-arithmetic layer: linear algebra, LP, incidence, redundancy."""
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyorbit.polycore import (
    EmptyPolyhedronError,
    HPolyhedron,
    LPResult,
    PolyhedronError,
    VPolyhedron,
    adjacent_pairs,
    affine_hull,
    affinely_independent_subset,
    clear_denominators,
    convert_dd_incidence,
    dd_cone,
    det,
    dot,
    gauss_jordan,
    incidence,
    integer_h_to_v,
    integer_kernel_basis,
    integer_v_to_h,
    invert_matrix,
    irredundant_rows,
    matrix,
    nullspace,
    primitive,
    rank,
    remove_redundancy,
    solve_linear,
    solve_lp,
    vec_sub,
    vector,
    zero_vector,
)

from shapes import (affine_coordinates, affine_embed, column_set, cube_h, identity_matrix,
                    polybench_workloads, reference_dd_cone, reference_integer_h_to_v,
                    reference_irredundant_rows, reference_solve_lp, row_set, run_jobs)

F = Fraction

# Beale's degenerate instance, on which the textbook pivoting rule cycles
BEALE = (HPolyhedron.from_rows(
    [[F(1, 4), -60, F(-1, 25), 9],
     [F(1, 2), -90, F(-1, 50), 3],
     [0, 0, 1, 0],
     [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    [0, 0, 1, 0, 0, 0, 0]), (F(3, 4), -150, F(1, 50), -6))


def seeded_lp(rng):
    """(P, c, maximize) for a small rational LP: dimension 1-5, at most 8
    rows with denominators up to 5, some of them a box, some right-hand sides
    negative or zero, about 15% equality rows, and at random one equality
    implied by two others (a repeat, a negated copy or a combination), which
    leaves an artificial basic at zero after phase 1.  One objective in ten
    is zero; many systems are infeasible or unbounded."""
    n = rng.randint(1, 5)

    def q():
        return F(rng.randint(-6, 6), rng.randint(1, 5))
    A, b = [], []
    if rng.random() < 0.5:
        for i in rng.sample(range(n), rng.randint(1, min(n, 3))):
            for sgn in (1, -1):
                A.append([F(sgn * (j == i)) for j in range(n)])
                b.append(F(rng.randint(0, 6), rng.randint(1, 5)))
    A += [[q() if rng.random() < 0.8 else F(0) for _ in range(n)]
          for _ in range(rng.randint(1, 8 - len(A)))]
    b += [q() if rng.random() < 0.8 else F(0) for _ in range(len(A) - len(b))]
    eq = [i + 1 for i in range(len(A)) if rng.random() < 0.15]
    if len(A) < 8 and rng.random() < 0.3:
        i, j = rng.randrange(len(A)), rng.randrange(len(A))
        t, u = rng.choice((1, -1, 2)), q()
        A.append([t * x + u * y for x, y in zip(A[i], A[j])])
        b.append(t * b[i] + u * b[j])
        eq += [i + 1, j + 1, len(A)]
    c = [q() if rng.random() < 0.7 else F(0) for _ in range(n)] if rng.random() < 0.9 \
        else [F(0)] * n
    return HPolyhedron.from_rows(A, b, sorted(set(eq))), c, rng.random() < 0.5


def cube_h(n, half=1):
    """[-half, half]^n as an H-polyhedron."""
    rows, b = [], []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append(list(e))
        b.append(half)
        rows.append([-x for x in e])
        b.append(half)
    return HPolyhedron.from_rows(rows, b)


def cube_vertices(n, half=1):
    verts = [[]]
    for _ in range(n):
        verts = [v + [s] for v in verts for s in (half, -half)]
    return VPolyhedron.from_points(verts)


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50)


class TestRationalArithmetic:
    # Rational is fractions.Fraction; closure and normalization are what the
    # rest of the package leans on, so they are pinned here.

    @given(rationals, rationals)
    def test_field_closure(self, a, b):
        assert isinstance(a + b, Fraction)
        assert isinstance(a * b, Fraction)
        if b != 0:
            q = a / b
            assert isinstance(q, Fraction)
            assert q * b == a

    @given(rationals)
    def test_lowest_terms(self, a):
        from math import gcd
        assert gcd(a.numerator, a.denominator) == 1
        assert a.denominator > 0

    def test_exact_identity(self):
        assert F(1, 3) + F(1, 6) == F(1, 2)
        assert F(1, 10) + F(2, 10) == F(3, 10)  # no float drift

    def test_primitive_rows(self):
        assert primitive([F(2, 3), F(4, 3)]) == (1, 2)
        assert primitive([F(-2), F(4)]) == (-1, 2)
        assert primitive([0, 0]) == (0, 0)

    def test_primitive_edge_rows(self):
        # the gcd of the whole row at once: an empty or all-zero row comes
        # back unchanged, zeros and signs are kept
        assert primitive([]) == ()
        assert primitive([0]) == (0,)
        assert primitive([0, -6, 9]) == (0, -2, 3)
        assert primitive([-4, 0]) == (-1, 0)
        assert primitive([F(-3, 2), 0, F(9, 4)]) == (-2, 0, 3)


class TestLinearAlgebra:
    def test_rank_examples(self):
        assert rank([[1, 0], [0, 1]]) == 2
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]]) == 1
        assert rank([]) == 0
        assert rank([[0, 0, 0]]) == 0

    def test_rank_rectangular(self):
        assert rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
        assert rank([[1], [2], [3]]) == 1

    def test_solve_linear(self):
        x = solve_linear(matrix([[2, 0], [0, 4]]), vector([1, 1]))
        assert x == (F(1, 2), F(1, 4))
        assert solve_linear(matrix([[1, 1], [1, 1]]), vector([0, 1])) is None

    def test_nullspace(self):
        ns = nullspace([[1, 1, 0]], 3)
        assert len(ns) == 2
        for v in ns:
            assert dot((1, 1, 0), v) == 0

    def test_inverse_and_det(self):
        A = matrix([[1, 2], [3, 5]])
        Ai = invert_matrix(A)
        assert Ai == matrix([[-5, 2], [3, -1]])
        assert det(A) == -1
        assert det([[F(1, 2), 0], [0, F(1, 3)]]) == F(1, 6)
        assert det([[1, 2], [2, 4]]) == 0

    def test_affinely_independent_subset(self):
        pts = [(0, 0), (1, 1), (2, 2), (0, 1)]
        assert affinely_independent_subset(pts) == [0, 1, 3]

    def test_integer_kernel_saturated(self):
        # kernel of (2 4) over Z is generated by (2,-1), not (4,-2)
        ker = integer_kernel_basis([[2, 4]], 2)
        assert len(ker) == 1
        v = ker[0]
        assert 2 * v[0] + 4 * v[1] == 0
        from math import gcd
        assert gcd(v[0], v[1]) == 1

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=1, max_size=3))
    def test_integer_kernel_is_kernel(self, rows):
        ker = integer_kernel_basis(rows, 3)
        for v in ker:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0
        # completeness: rank of kernel equals 3 - rank(rows)
        assert len(ker) == 3 - rank(rows)


class TestSolveLP:
    def test_square_corner(self):
        P = cube_h(2)
        res = solve_lp(P, [1, 1])
        assert res.status == "optimal"
        assert res.value == 2
        assert res.point == (1, 1)

    def test_fractional_optimum(self):
        # max x + y st x + 2y <= 1, 2x + y <= 1, x,y >= 0 -> (1/3, 1/3)
        P = HPolyhedron.from_rows(
            [[1, 2], [2, 1], [-1, 0], [0, -1]], [1, 1, 0, 0])
        res = solve_lp(P, [1, 1])
        assert res.value == F(2, 3)
        assert res.point == (F(1, 3), F(1, 3))

    def test_infeasible(self):
        P = HPolyhedron.from_rows([[1], [-1]], [0, -1])  # x <= 0, x >= 1
        assert solve_lp(P, [1]).status == "infeasible"

    def test_unbounded(self):
        P = HPolyhedron.from_rows([[-1]], [0])  # x >= 0
        assert solve_lp(P, [1]).status == "unbounded"
        # but bounded below in the other direction
        assert solve_lp(P, [1], maximize=False).value == 0

    def test_degenerate_cycling_guard(self):
        # classic Beale-style degenerate instance; Bland must terminate
        res = solve_lp(*BEALE)
        assert res.status == "optimal"
        assert res.value == F(1, 20)

    def test_matches_fraction_reference(self):
        # status, value and point equal those of the Fraction simplex on the
        # primitive rows, so every pivot is the same; of the 3,000 seeded
        # systems, 828 are optimal, 1,248 infeasible and 924 unbounded, and
        # 15 drive a leftover artificial out on a negative pivot
        P, c = BEALE
        cases = [(P, c, True), (P, c, False), (P, (0,) * 4, True)]
        rng = random.Random(25)
        cases += [seeded_lp(rng) for _ in range(3000)]
        for P, c, maximize in cases:
            Q = HPolyhedron.from_rows([r[:-1] for r in P.int_rows], [r[-1] for r in P.int_rows],
                                      P.equality_rows)
            assert solve_lp(P, c, maximize) == reference_solve_lp(Q, c, maximize), (P, c, maximize)

    def test_scaled_rows_keep_status_and_value(self):
        # a positive scale per row changes the polyhedron's int_rows not at
        # all, so it changes no LPResult: the tableau is built from the
        # primitive rows, and the argmax among alternative optima is the
        # polyhedron's, not its rows'
        rng = random.Random(27)
        statuses = set()
        for _ in range(1000):
            P, c, maximize = seeded_lp(rng)
            f = [rng.randint(1, 9) for _ in range(P.m)]
            Q = HPolyhedron.from_rows([[g * x for x in a] for a, g in zip(P.A, f)],
                                      [g * x for x, g in zip(P.b, f)], P.equality_rows)
            assert Q.int_rows == P.int_rows
            res = solve_lp(P, c, maximize)
            assert solve_lp(Q, c, maximize) == res
            if res.is_optimal:
                assert P.contains(res.point) and dot(c, res.point) == res.value
            statuses.add(res.status)
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_no_rows_is_the_whole_space(self):
        # a polyhedron with no rows takes its dimension from the objective
        P = HPolyhedron.from_rows([], [])
        assert solve_lp(P, [1]).status == "unbounded"
        assert solve_lp(P, [1], maximize=False).status == "unbounded"
        assert solve_lp(P, [0, 0]) == LPResult("optimal", 0, (0, 0))

    def test_objective_of_another_length_is_refused(self):
        # the refusal the CLI turns into exit 2: a PolyhedronError, for
        # either sense, as latcount.first_lattice_point and symilp raise it
        P = cube_h(2)
        assert solve_lp(P, (1, 0)).value == 1
        for c in ((1,), (1, 0, 5)):
            for maximize in (True, False):
                with pytest.raises(PolyhedronError,
                                   match="objective length does not match dimension"):
                    solve_lp(P, c, maximize)

    def test_equality_via_pair(self):
        # x + y = 1 facet trick, maximize x with x,y >= 0
        P = HPolyhedron.from_rows(
            [[1, 1], [-1, -1], [-1, 0], [0, -1]], [1, -1, 0, 0])
        res = solve_lp(P, [1, 0])
        assert res.value == 1 and res.point == (1, 0)

    def test_equality_rows_enforced(self):
        # marked row held at equality: optimum must sit on x + y = 1
        P = HPolyhedron.from_rows(
            [[1, 1], [1, -1], [-1, 1]], [1, F(1, 3), F(1, 3)],
            equality_rows=(1,))
        res = solve_lp(P, [1, 0])
        assert res.status == "optimal" and res.value == F(2, 3)
        assert solve_lp(P, [1, 0], maximize=False).value == F(1, 3)
        # same set written with a +- pair gives the same optimum
        Q = HPolyhedron.from_rows(
            [[1, 1], [-1, -1], [1, -1], [-1, 1]],
            [1, -1, F(1, 3), F(1, 3)])
        assert solve_lp(Q, [1, 0]).value == res.value
        assert not P.contains((1, 0))

    def test_equality_rows_infeasible(self):
        P = HPolyhedron.from_rows([[1, 1], [1, 1]], [1, 0], equality_rows=(1,))
        assert solve_lp(P, [0, 0]).status == "infeasible"

    @settings(max_examples=40)
    @given(st.lists(rationals, min_size=3, max_size=3))
    def test_optimum_attained_and_feasible(self, c):
        P = cube_h(3)
        res = solve_lp(P, c)
        assert res.status == "optimal"
        assert P.contains(res.point)
        assert res.value == dot(c, res.point)
        # optimum of a linear functional over the cube is sum of |c_i|
        assert res.value == sum(abs(x) for x in c)


class TestIncidence:
    def test_square(self):
        P = cube_h(2)
        V = cube_vertices(2)
        inc = incidence(P, V)
        # every facet of the square contains exactly 2 of the 4 vertices
        assert [len(row_set(inc, i)) for i in range(1, 5)] == [2, 2, 2, 2]
        # every vertex lies on exactly 2 facets
        assert [len(column_set(inc, j)) for j in range(1, 5)] == [2, 2, 2, 2]

    def test_cube_pattern(self):
        P = cube_h(3)
        V = cube_vertices(3)
        inc = incidence(P, V)
        assert all(len(row_set(inc, i)) == 4 for i in range(1, 7))
        assert all(len(column_set(inc, j)) == 3 for j in range(1, 9))

    def test_ray_incidence(self):
        # quadrant x,y >= 0: apex + 2 rays
        P = HPolyhedron.from_rows([[-1, 0], [0, -1]], [0, 0])
        V = VPolyhedron.from_points([(0, 0)], rays=[(1, 0), (0, 1)])
        inc = incidence(P, V)
        # row -x <= 0 is tight at apex and at ray (0,1)
        assert row_set(inc, 1) == frozenset({1, 3})
        assert row_set(inc, 2) == frozenset({1, 2})


class TestAffineHull:
    def test_single_point(self):
        h = affine_hull([(1, 2, 3)])
        assert h.dim == 0

    def test_collinear_points_in_r3(self):
        h = affine_hull([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
        assert h.dim == 1

    def test_h_polyhedron_hull(self):
        # segment x in [0,1] embedded at y = 1/2 via an equality pair
        P = HPolyhedron.from_rows(
            [[0, 1], [0, -1], [1, 0], [-1, 0]], [F(1, 2), F(-1, 2), 1, 0])
        h = affine_hull(P)
        assert h.dim == 1
        assert h.point[1] == F(1, 2)
        # full-dimensional: the null space of no equality rows, the unit rows
        dirs = affine_hull(cube_h(3)).directions
        assert dirs == identity_matrix(3)
        assert all(type(x) is F for row in dirs for x in row)

    def test_coordinates_roundtrip(self):
        h = affine_hull([(0, 0, 1), (1, 0, 1), (0, 1, 1)])
        y = affine_coordinates(h, (F(1, 3), F(1, 3), 1))
        assert affine_embed(h, y) == (F(1, 3), F(1, 3), 1)


class TestRemoveRedundancy:
    def test_drops_redundant_row(self):
        P = HPolyhedron.from_rows([[1], [-1], [1]], [1, 0, 2])  # x <= 2 redundant
        R = remove_redundancy(P)
        assert R.m == 2
        assert not R.equality_rows

    def test_duplicate_rows(self):
        P = HPolyhedron.from_rows([[1, 0], [2, 0], [-1, 0], [0, 1], [0, -1]],
                                  [1, 2, 0, 1, 0])
        R = remove_redundancy(P)
        assert R.m == 4

    def test_implicit_equality_detected(self):
        P = HPolyhedron.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]],
                                  [1, -1, 1, 0])
        R = remove_redundancy(P)
        assert len(R.equality_rows) == 2

    def test_single_row(self):
        # no zero-row subsystem: a lone nonzero row is kept, a lone 0 <= 1 goes
        R = remove_redundancy(HPolyhedron.from_rows([[-1]], [0]))
        assert (R.A, R.b, R.equality_rows) == (((-1,),), (0,), ())
        R = remove_redundancy(HPolyhedron.from_rows([[-1], [0]], [0, 1]))
        assert (R.A, R.b) == (((-1,),), (0,))

    def test_empty_flagged(self):
        P = HPolyhedron.from_rows([[1], [-1]], [0, -1])
        with pytest.raises(EmptyPolyhedronError):
            remove_redundancy(P)

    def test_input_equality_marks_survive(self):
        P = HPolyhedron.from_rows(
            [[1, 1], [1, -1], [-1, 1]], [1, F(1, 3), F(1, 3)],
            equality_rows=(1,))
        R = remove_redundancy(P)
        assert R.m == 3 and R.equality_rows == (1,)

    @pytest.mark.parametrize("seed", range(4))
    def test_irredundant_rows_match_the_scan_of_later_rows(self, seed):
        # seeded tight sets with copies of earlier rows and rows tight on
        # every generator, against the scan of the later rows it replaced
        rng = random.Random(f"irredundant/{seed}")
        for _ in range(5000):
            m, g = rng.randint(1, 9), rng.randint(1, 8)
            tight = []
            for _ in range(m):
                kind = rng.random()
                if tight and kind < 0.25:
                    tight.append(rng.choice(tight))
                elif kind < 0.35:
                    tight.append((1 << g) - 1)
                else:
                    tight.append(rng.getrandbits(g))
            masks = [sum(1 << i for i, t in enumerate(tight) if t >> j & 1) for j in range(g)]
            vertices = rng.randint(1, g)
            equalities, kept, rows = irredundant_rows(masks, m, vertices)
            assert (equalities, kept) == reference_irredundant_rows(masks, m, vertices)
            assert rows == tight   # the masks transposed back to one mask per row

    def test_same_set_after_reduction(self):
        # oracle: a point is in P iff it is in remove_redundancy(P)
        P = HPolyhedron.from_rows(
            [[1, 1], [1, 0], [0, 1], [-1, 0], [0, -1], [2, 2], [1, 1]],
            [2, 1, 1, 0, 0, 5, 3])
        R = remove_redundancy(P)
        assert R.m == 4
        probes = [(F(1, 2), F(1, 2)), (1, 1), (F(3, 2), 0), (0, 0), (1, F(11, 10))]
        for p in probes:
            assert P.contains(p) == R.contains(p)


# ---------------------------------------------------------------------------
# LP references for the double-description canonical forms


def tight_on_all_of(Q, i):
    """Row i (0-based) attains its right-hand side at its minimum over Q."""
    res = solve_lp(Q, Q.A[i], maximize=False)
    return res.is_optimal and res.value == Q.b[i]


def lp_remove_redundancy(P):
    """Reference: duplicates dropped as in remove_redundancy, then one LP per
    row for the implicit equalities and a sequential LP filter."""
    if not solve_lp(P, zero_vector(P.n)).is_optimal:
        raise EmptyPolyhedronError("system is infeasible")
    in_eq = set(P.equality_rows)
    seen, keep, marked = {}, [], []
    for i in range(P.m):
        key = primitive(tuple(P.A[i]) + (P.b[i],))
        if key not in seen:
            seen[key] = len(keep)
            keep.append(i)
            marked.append((i + 1) in in_eq)
        elif (i + 1) in in_eq:
            marked[seen[key]] = True
    A = [P.A[i] for i in keep]
    b = [P.b[i] for i in keep]
    Q = HPolyhedron(tuple(A), tuple(b), tuple(j + 1 for j in range(len(A)) if marked[j]))
    eq_flags = [marked[i] or tight_on_all_of(Q, i) for i in range(len(A))]
    active = list(range(len(A)))
    i = 0
    while i < len(active):
        idx = active[i]
        if eq_flags[idx]:
            i += 1
            continue
        others = [j for j in active if j != idx]
        if others:
            sub = HPolyhedron(tuple(A[j] for j in others), tuple(b[j] for j in others),
                              tuple(pos + 1 for pos, j in enumerate(others) if marked[j]))
            res = solve_lp(sub, A[idx])
            redundant = res.status == "optimal" and res.value <= b[idx]
        else:
            redundant = not any(A[idx])
        if redundant:
            active = others
        else:
            i += 1
    return HPolyhedron(tuple(A[j] for j in active), tuple(b[j] for j in active),
                       tuple(pos + 1 for pos, j in enumerate(active) if eq_flags[j]))


def lp_affine_hull(P):
    """Reference: a feasible point and the null space of the rows whose
    minimum over P is their right-hand side."""
    res = solve_lp(P, zero_vector(P.n))
    if not res.is_optimal:
        raise EmptyPolyhedronError("empty polyhedron has no affine hull")
    x0 = res.point
    eq_rows = [P.A[i] for i in range(P.m) if tight_on_all_of(P, i)]
    return x0, (nullspace(eq_rows, P.n) if eq_rows else identity_matrix(P.n))


def seeded_system(rng):
    """A small rational system: a full or partial box, random rows, and at
    random an equality pair (lower-dimensional), a zero row, a positive
    multiple of a row and marked equalities; a partial box is often
    unbounded or has lines, and some systems are empty."""
    n = rng.randint(1, 4)
    A, b = [], []
    box = rng.random() < 0.6
    for i in range(n):
        for s in (1, -1):
            if box or rng.random() < 0.5:
                A.append(tuple(F(s * (i == j)) for j in range(n)))
                b.append(F(rng.randint(0, 4) if rng.random() < 0.9 else -1, rng.randint(1, 2)))
    for _ in range(rng.randint(0, 5)):
        A.append(tuple(F(rng.randint(-2, 2)) for _ in range(n)))
        b.append(F(rng.randint(-1, 4) if rng.random() < 0.85 else -2, rng.randint(1, 3)))
    if rng.random() < 0.25:
        a = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        c = F(rng.randint(-1, 2))
        A += [a, tuple(-x for x in a)]
        b += [c, -c]
    if rng.random() < 0.2:
        A.append((F(0),) * n)
        b.append(F(rng.randint(0, 1)))
    if rng.random() < 0.3 and A:
        k, f = rng.randrange(len(A)), rng.randint(1, 3)
        A.append(tuple(f * x for x in A[k]))
        b.append(f * b[k])
    order = list(range(len(A)))
    rng.shuffle(order)
    eqs = ()
    if rng.random() < 0.2 and A:
        eqs = sorted(rng.sample(range(1, len(A) + 1), rng.randint(1, min(2, len(A)))))
    return HPolyhedron.from_rows([A[i] for i in order], [b[i] for i in order], eqs)


def outcome(f, P):
    try:
        R = f(P)
        return R.A, R.b, R.equality_rows
    except EmptyPolyhedronError as exc:
        return "empty", str(exc)


class TestDoubleDescriptionCanonicalForms:
    def test_remove_redundancy_and_affine_hull_match_lp_reference(self):
        rng = random.Random(1996)
        seen = dict(empty=0, lower=0, unbounded=0, lines=0, zero=0, marked=0)
        for _ in range(1000):
            P = seeded_system(rng)
            want = outcome(lp_remove_redundancy, P)
            assert outcome(remove_redundancy, P) == want, P
            seen["zero"] += any(not any(a) for a in P.A)
            seen["marked"] += bool(P.equality_rows)
            if want[0] == "empty":
                seen["empty"] += 1
                with pytest.raises(EmptyPolyhedronError, match="no affine hull"):
                    affine_hull(P)
                continue
            x0, dirs = lp_affine_hull(P)
            h = affine_hull(P)
            assert h.directions == dirs
            assert P.contains(h.point)
            assert rank(list(dirs) + [vec_sub(h.point, x0)]) == len(dirs)
            V, _ = convert_dd_incidence(P)
            seen["lower"] += h.dim < P.n
            seen["unbounded"] += bool(V.rays)
            seen["lines"] += any(tuple(-x for x in r) in V.rays for r in V.rays)
        # every kind of system the reference must agree on was generated
        assert min(seen.values()) >= 30, seen

    def test_masks_match_incidence(self):
        rng = random.Random(56)
        for _ in range(300):
            P = seeded_system(rng)
            try:
                V, masks = convert_dd_incidence(P)
            except EmptyPolyhedronError:
                continue
            inc = incidence(P, V)
            assert masks == tuple(sum(1 << (i - 1) for i in column_set(inc, j))
                                  for j in range(1, inc.k + 1))
            H, rows = convert_dd_incidence(V)
            assert tuple(rows) == incidence(H, V).row_masks


# ---------------------------------------------------------------------------
# membership in integers against Fraction dot products


def fraction_contains(P, x):
    """Oracle: each row as a Fraction dot product against b."""
    eq = set(P.equality_rows)
    for i, (a, bb) in enumerate(zip(P.A, P.b), start=1):
        v = sum((F(p) * F(q) for p, q in zip(a, x)), F(0))
        if (v != bb) if i in eq else (v > bb):
            return False
    return True


class TestContains:
    def test_matches_fraction_dot_products(self):
        rng = random.Random(2013)
        seen = set()
        for t in range(400):
            n = rng.randint(1, 5)
            x = tuple(F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7))) for _ in range(n))
            A, b, eq = [], [], []
            for i in range(rng.randint(1, 6)):
                a = [F(rng.randint(-4, 4), rng.choice((1, 2, 5))) for _ in range(n)]
                value = dot(a, x)
                # on the row, just off it on either side, or far from it
                bb = value + rng.choice((0, 0, F(1, 30), -F(1, 30), rng.randint(-3, 3)))
                A.append(a)
                b.append(bb)
                if rng.random() < 0.25:
                    eq.append(i + 1)
            P = HPolyhedron.from_rows(A, b, eq)
            for p in (x, tuple(v.numerator for v in x)):
                got = P.contains(p)
                assert got == fraction_contains(P, p), (t, p)
                seen.add((got, bool(eq), all(v.denominator == 1 for v in p)))
        # accepted and refused points, with and without equality rows,
        # integral and not
        assert seen == {(g, e, i) for g in (True, False) for e in (True, False)
                        for i in (True, False)}

    def test_point_exactly_on_rows(self):
        P = HPolyhedron.from_rows([[F(1, 2), F(1, 3)], [F(-2, 3), 1]], [F(1, 3), F(1, 6)],
                                  equality_rows=(2,))
        x = (F(1, 4), F(1, 3))          # 1/8 + 1/9 < 1/3, and -1/6 + 1/3 = 1/6
        assert P.contains(x)
        assert not P.contains((F(1, 4), F(1, 3) + F(1, 1000)))
        Q = HPolyhedron.from_rows([[F(1, 2), F(1, 3)]], [F(1, 8) + F(1, 9)])
        assert Q.contains(x) and not Q.contains((F(1, 4) + F(1, 10**9), F(1, 3)))

    def test_point_of_the_wrong_length_is_refused(self):
        P = HPolyhedron.from_rows([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0])
        assert P.contains((0, 0))
        for x in ((0, 0, 7), (0,), ()):
            with pytest.raises(PolyhedronError, match=f"point has {len(x)} coordinates, "
                                                      "the polyhedron has dimension 2"):
                P.contains(x)

    @pytest.mark.parametrize("P", [HPolyhedron.from_rows([], []), HPolyhedron.of_rows([])],
                             ids=["from_rows", "of_rows"])
    def test_point_with_coordinates_is_refused_by_a_system_with_no_rows(self, P):
        # with no rows n is 0, and a point of length 2 was once inside
        assert P.n == 0 and P.contains(())
        with pytest.raises(PolyhedronError, match="^point has 2 coordinates, "
                                                  "the polyhedron has dimension 0$"):
            P.contains((1, 2))


# ---------------------------------------------------------------------------
# the integer form each polyhedron carries


def rational(rng):
    return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 35)))


class TestIntegerForm:
    def test_constructor_checks_its_rows(self):
        P = HPolyhedron(((F(1, 2), F(1)),), (F(3),))
        assert (P.m, P.n, P.int_rows) == (1, 2, ((1, 2, 6),))
        with pytest.raises(PolyhedronError, match="^row count mismatch between A and b$"):
            HPolyhedron(((F(1),),), ())
        with pytest.raises(PolyhedronError, match="^ragged inequality matrix$"):
            HPolyhedron(((F(1),), (F(1), F(2))), (F(0), F(0)))

    def test_rows_and_points_match_their_helpers_and_are_made_once(self):
        rng = random.Random(2024)
        seen = set()
        for t in range(300):
            n = rng.randint(1, 4)
            A, b = [], []
            for _ in range(rng.randint(0, 6)):
                zero = rng.random() < 0.15
                A.append([F(0) if zero else rational(rng) for _ in range(n)])
                b.append(rational(rng))
            eq = tuple(i for i in range(1, len(A) + 1) if rng.random() < 0.3)
            pts = [tuple(rational(rng) for _ in range(n)) for _ in range(rng.randint(0, 5))]
            pts += rng.sample(pts, min(len(pts), rng.randint(0, 2)))   # repeated points
            rays = [tuple(rational(rng) for _ in range(n)) for _ in range(rng.choice((0, 0, 1, 2)))]
            P = HPolyhedron.from_rows(A, b, eq)
            V = VPolyhedron.from_points(pts, rays)
            # equal copies whose forms are never read
            P2, V2 = HPolyhedron.from_rows(A, b, eq), VPolyhedron.from_points(pts, rays)
            blank = (repr(P), repr(V))
            rows, points = P.int_rows, V.int_points

            assert rows == tuple(primitive(tuple(a) + (bb,)) for a, bb in zip(P.A, P.b))
            assert all(type(x) is int for r in rows for x in r)
            s, gens = clear_denominators(list(pts) + list(rays))
            assert points == (s, tuple(gens[:len(pts)]), tuple(gens[len(pts):]))
            assert P.int_rows is rows and V.int_points is points
            assert P == P2 and hash(P) == hash(P2) and V == V2 and hash(V) == hash(V2)
            assert (repr(P), repr(V)) == blank
            seen.add((any(not any(a) for a in A), bool(eq), bool(rays),
                      len(set(pts)) < len(pts)))
        # zero rows, equality rows, rays and repeated points each turn up
        for flag in range(4):
            assert {key[flag] for key in seen} == {True, False}

    def test_double_description_and_frames_are_made_once(self):
        rng = random.Random(26)
        built = 0
        for _ in range(200):
            P = seeded_system(rng)
            P2 = HPolyhedron(P.A, P.b, P.equality_rows)   # equal, never converted
            blank = repr(P)
            try:
                first = convert_dd_incidence(P)
            except EmptyPolyhedronError:
                continue
            built += 1
            assert convert_dd_incidence(P) is first and P.dd is first
            assert type(first[1]) is tuple
            assert P.frame is P.frame and P.frame is not P2.frame
            V = first[0]
            V2 = VPolyhedron(V.vertices, V.rays)
            assert V.frame is V.frame and V.frame is not V2.frame
            assert P == P2 and hash(P) == hash(P2) and repr(P) == repr(P2) == blank
            assert V == V2 and hash(V) == hash(V2) and repr(V) == repr(V2)
        assert built > 100

    def test_scaled_rows_share_one_form(self):
        P = HPolyhedron.from_rows([[F(1, 2), F(-3, 4)], [0, 0], [6, 4]], [F(5, 6), F(-2, 3), 10])
        assert P.int_rows == ((6, -9, 10), (0, 0, -1), (3, 2, 5))
        V = VPolyhedron.from_points([(F(1, 2), 0), (0, F(1, 3))], [(F(1, 4), 1)])
        assert V.int_points == (12, ((6, 0), (0, 4)), ((3, 12),))
        assert VPolyhedron.from_points([]).int_points == (1, (), ())


# ---------------------------------------------------------------------------
# the two integer conversions behind every double description


def tight_masks(s, points, rays, rows):
    """Per generator (points over s, then rays), the bitmask of the integer
    rows (a | b) it is tight on, by integer dot products."""
    def tight(g, scale):
        return sum(1 << i for i, (*a, b) in enumerate(rows)
                   if sum(x * y for x, y in zip(a, g)) == scale * b)
    return [tight(p, s) for p in points] + [tight(r, 0) for r in rays]


class TestIntegerConversions:
    def test_no_rows_is_the_whole_space(self):
        assert integer_h_to_v([], 2) == (1, [(0, 0)], [(1, 0), (-1, 0), (0, 1), (0, -1)],
                                         [0, 0, 0, 0, 0])
        # and only the trivial row 0.x <= 1 describes the whole space
        assert integer_v_to_h(1, [(0, 0)], [(1, 0), (-1, 0), (0, 1), (0, -1)]) == ([], [], [])

    def test_empty_system_leaves_its_recession_cone(self):
        # x <= 0 and x >= 1: no points; with y free the recession cone is a line
        assert integer_h_to_v([(1, 0), (-1, -1)], 1)[1:3] == ([], [])
        s, points, rays, masks = integer_h_to_v([(1, 0, 0), (-1, 0, -1)], 2)
        assert (s, points) == (1, [])
        assert sorted(rays) == [(0, -1), (0, 1)] and masks == [0b11, 0b11]
        with pytest.raises(EmptyPolyhedronError, match="no points given"):
            integer_v_to_h(1, [], [(1, 0)])

    def test_rational_vertices_share_one_denominator(self):
        # x >= 0, y >= 0, 2x + 3y <= 1: vertices 0, (1/2, 0) and (0, 1/3)
        rows = [(-1, 0, 0), (0, -1, 0), (2, 3, 1)]
        s, points, rays, masks = integer_h_to_v(rows, 2)
        assert s == 6 and sorted(points) == [(0, 0), (0, 2), (3, 0)] and rays == []
        assert masks == tight_masks(s, points, rays, rows)
        eqs, les, vmasks = integer_v_to_h(s, points)
        assert eqs == [] and sorted(les) == sorted(rows)
        assert vmasks == [sum(1 << j for j, p in enumerate(points)
                              if sum(x * y for x, y in zip(a, p)) == s * b)
                          for *a, b in les]

    def test_lines_come_as_two_opposite_rays(self):
        # x <= 1 in the plane: a point on the line x = 1, the ray -e1 and the line e2
        rows = [(1, 0, 1)]
        s, points, rays, masks = integer_h_to_v(rows, 2)
        assert len(points) == 1 and points[0][0] == s
        assert sorted(rays) == [(-1, 0), (0, -1), (0, 1)]
        assert masks == tight_masks(s, points, rays, rows)
        # the facet is tight on the point and on the line, not on -e1
        assert integer_v_to_h(s, points, rays) == ([], [(1, 0, 1)], [0b1101])

    def test_equality_rows_and_their_pairs_agree(self):
        # 0 <= x <= 1, x + y = 1: a segment, given as an equality or as a pair
        box = [(1, 0, 1), (-1, 0, 0)]
        one = integer_h_to_v(box + [(1, 1, 1)], 2, equalities=[3])
        pair = integer_h_to_v(box + [(1, 1, 1), (-1, -1, -1)], 2)
        assert one[:3] == pair[:3] == (1, [(1, 0), (0, 1)], [])
        assert one[3] == [0b101, 0b110] and pair[3] == [0b1101, 0b1110]
        eqs, les, masks = integer_v_to_h(1, [(0, 1), (1, 0)])
        assert len(eqs) == 1 and eqs[0] in {(1, 1, 1), (-1, -1, -1)}
        assert sorted(zip(les, masks)) == [((-1, 0, 0), 0b01), ((0, -1, 0), 0b10)]

    def test_duplicates_are_tight_together(self):
        rows = [(1, 0, 1), (-1, 0, 0), (2, 0, 2), (0, 1, 1), (0, -1, 0), (0, 1, 1)]
        s, points, rays, masks = integer_h_to_v(rows, 2)
        assert (s, sorted(points), rays) == (1, [(0, 0), (0, 1), (1, 0), (1, 1)], [])
        assert masks == tight_masks(s, points, rays, rows)
        assert all((m >> 0 & 1) == (m >> 2 & 1) and (m >> 3 & 1) == (m >> 5 & 1) for m in masks)
        # a repeated point and a repeated ray: each copy is tight where the other is
        pts = [(0, 0), (2, 0), (0, 0)]
        eqs, les, vmasks = integer_v_to_h(2, pts, [(0, 1), (0, 3)])
        assert eqs == [] and sorted(les) == [(-1, 0, 0), (0, -1, 0), (1, 0, 1)]
        assert all((m & 1) == (m >> 2 & 1) and (m >> 3 & 1) == (m >> 4 & 1) for m in vmasks)

    def test_lower_dimensional_points(self):
        # one point of R^3, and a segment of it
        eqs, les, masks = integer_v_to_h(2, [(1, 2, 3)])
        assert len(eqs) == 3 and les == [] and masks == []
        assert rank([r[:3] for r in eqs]) == 3
        assert all(sum(x * y for x, y in zip(r, (1, 2, 3))) == 2 * r[3] for r in eqs)
        # the trivial row 0.x <= 1 is a ray of the cone tight on no point,
        # here -x1 <= 0 modulo the equalities; the conversion drops it
        H, masks = convert_dd_incidence(VPolyhedron.from_points([(F(1, 2), 1, F(3, 2))]))
        assert (H.m, H.equality_rows, masks) == (3, (1, 2, 3), (1, 1, 1))
        eqs, les, masks = integer_v_to_h(1, [(0, 0, 0), (1, 1, 1)])
        assert len(eqs) == 2 and len(les) == 2 and sorted(masks) == [0b01, 0b10]

    def test_round_trip_gives_the_rows_of_remove_redundancy(self):
        rng = random.Random(1996)
        seen = dict(empty=0, lower=0, full=0, rays=0)
        for _ in range(400):
            P = seeded_system(rng)
            s, points, rays, masks = integer_h_to_v(P.int_rows, P.n, P.equality_rows)
            if not points:
                seen["empty"] += 1
                with pytest.raises(EmptyPolyhedronError):
                    remove_redundancy(P)
                continue
            V, dd_masks = P.dd
            assert V.vertices == tuple(tuple(F(x, s) for x in p) for p in points)
            assert V.rays == tuple(tuple(map(F, r)) for r in rays)
            assert tuple(masks) == dd_masks == tuple(tight_masks(s, points, rays, P.int_rows))
            eqs, les, vmasks = integer_v_to_h(s, points, rays)
            assert vmasks == [sum(1 << j for j, t in enumerate(tight_masks(s, points, rays, [r]))
                                  if t) for r in les]
            R = remove_redundancy(P)
            req = [r for i, r in enumerate(R.int_rows, start=1) if i in R.equality_rows]
            rle = [r for i, r in enumerate(R.int_rows, start=1) if i not in R.equality_rows]
            # the same hull equations, and one row per facet, tight on the
            # same generators; a full-dimensional P has unique facet rows
            assert rank(eqs) == rank(req) == rank(eqs + req)
            assert sorted(vmasks) == sorted(
                sum(1 << j for j, t in enumerate(tight_masks(s, points, rays, [r])) if t)
                for r in rle)
            if eqs:
                seen["lower"] += 1
            else:
                seen["full"] += 1
                assert sorted(les) == sorted(rle)
            seen["rays"] += bool(rays)
        assert min(seen.values()) >= 30, seen


# ---------------------------------------------------------------------------
# the vertices of a conversion, made from its integer form on first read


def assert_same_generators(V, W):
    """V, made from integers, against W = from_points of the same Fractions:
    every form agrees, and V builds its vertices only when they are read."""
    assert "vertices" not in vars(V)
    assert (V.k, V.n, V.rays, V.int_points) == (W.k, W.n, W.rays, W.int_points)
    assert all(type(x) is F for r in V.rays for x in r)
    assert "vertices" not in vars(V)
    assert V == W and hash(V) == hash(W) and repr(V) == repr(W)
    assert V.vertices == W.vertices and V.vertices is V.vertices
    assert all(type(x) is F for p in V.vertices for x in p)
    assert V.frame.rows == W.frame.rows
    for R in (replace(V), replace(V, rays=())):
        S = replace(W, rays=R.rays)
        assert R == S and (R.k, R.n, R.int_points) == (S.k, S.n, S.int_points)


class TestIntegerVertices:
    def test_conversions_match_from_points_of_the_same_fractions(self):
        rng = random.Random(37)
        fixed = [
            # a single point (1/2, 1/3), a segment y = x / 2 over 0 <= x <= 1,
            # and a box with every row twice
            HPolyhedron.from_rows([(2, 0), (-2, 0), (0, 3), (0, -3)], [1, -1, 1, -1]),
            HPolyhedron.from_rows([(1, 0), (-1, 0), (1, -2)], [1, 0, 0], (3,)),
            HPolyhedron.from_rows([(1, 0), (1, 0), (0, -1), (0, -1), (-1, 0), (0, 1)],
                                  [1, 1, 0, 0, 0, F(1, 2)])]
        seen = dict(rays=0, lines=0, equalities=0, repeated=0, point=0, segment=0)
        for P in fixed + [seeded_system(rng) for _ in range(400)]:
            try:
                V, _ = P.dd
            except EmptyPolyhedronError:
                continue
            s, points, rays, _ = integer_h_to_v(P.int_rows, P.n, P.equality_rows)
            W = VPolyhedron.from_points([[F(x, s) for x in p] for p in points], rays)
            assert_same_generators(V, W)
            assert_same_generators(VPolyhedron.of_points(s, points, rays), W)
            seen["rays"] += bool(rays)
            seen["lines"] += any(tuple(-x for x in r) in rays for r in rays)
            seen["equalities"] += bool(P.equality_rows)
            seen["repeated"] += len(set(P.int_rows)) < P.m
            seen["point"] += not rays and len(set(points)) == 1
            seen["segment"] += not rays and len(set(points)) == 2
        assert min(seen.values()) >= 3, seen

    def test_no_generators_and_rays_only_keep_k_and_n(self):
        E = VPolyhedron((), ())
        assert (E.k, E.n, E.int_points) == (0, 0, (1, (), ()))
        assert_same_generators(VPolyhedron.of_points(1, [], []), E)
        R = VPolyhedron.from_points([], [(2, 0, 1)])
        assert (R.k, R.n) == (0, 3)
        assert (replace(R, rays=()).k, replace(R, rays=()).n) == (0, 0)
        assert_same_generators(VPolyhedron.of_points(1, [], [(2, 0, 1)]), R)
        U = VPolyhedron.of_points(6, [(3, 0), (0, 2)], [(1, 1)])
        assert U.int_points == (6, ((3, 0), (0, 2)), ((6, 6),))
        assert U.vertices == ((F(1, 2), 0), (0, F(1, 3)))
        assert (U.k, U.n) == (2, 2)


# ---------------------------------------------------------------------------
# dd_cone and integer_h_to_v against the versions they replaced


def seeded_cone(rng):
    """Rows of a cone in R^n, n = 1..6: random rows with, at random, a
    repeated row, a positive multiple, a zero row and a redundant row (the
    sum of two others), shuffled."""
    n = rng.randint(1, 6)
    rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 2 * n + 2))]
    if rows and rng.random() < 0.4:
        rows.append(rng.choice(rows))
    if rows and rng.random() < 0.3:
        rows.append(tuple(3 * x for x in rng.choice(rows)))
    if rng.random() < 0.3:
        rows.append((0,) * n)
    if len(rows) >= 2 and rng.random() < 0.4:
        u, w = rng.sample(rows, 2)
        rows.append(tuple(map(sum, zip(u, w))))
    rng.shuffle(rows)
    return rows, n


@pytest.fixture(scope="module")
def workload_cones(tmp_path_factory):
    """The arguments of every dd_cone call one seed-1 round of each workload
    of the benchmark makes, by workload."""
    import polyorbit.polycore as pc
    workloads = polybench_workloads()
    real, cones = pc.dd_cone, {}

    def capture(rows, n):
        cones[name].append(([tuple(r) for r in rows], n))
        return real(rows, n)

    with pytest.MonkeyPatch.context() as mp:
        for module in [m for key, m in sys.modules.items() if key.startswith("polyorbit")]:
            if getattr(module, "dd_cone", None) is real:
                mp.setattr(module, "dd_cone", capture)
        for name in sorted(workloads.SETTINGS):
            cones[name] = []
            run_jobs(workloads.build(name, 1, 10, str(tmp_path_factory.mktemp(name))))
    return cones


class TestDoubleDescriptionOracle:
    def test_seeded_cones(self):
        rng = random.Random(1996)
        seen = dict(lines=0, pointed=0, repeated=0, zero=0)
        for _ in range(1500):
            rows, n = seeded_cone(rng)
            got = dd_cone(rows, n)
            assert got == reference_dd_cone(rows, n), (rows, n)
            seen["lines" if got[0] else "pointed"] += 1
            seen["repeated"] += len(set(map(primitive, rows))) < len(rows)
            seen["zero"] += (0,) * n in rows
        assert min(seen.values()) >= 100, seen

    def test_every_cone_of_the_workloads(self, workload_cones):
        for name, cones in workload_cones.items():
            assert len(cones) >= 20, name
            for rows, n in cones:
                assert dd_cone(rows, n) == reference_dd_cone(rows, n), name

    def test_integer_h_to_v_with_equality_rows(self):
        # the negated equality rows come last in the cone: the masks are a
        # direct incidence scan, and the points and rays, each with its mask,
        # are those of the cone that put each negation after its row
        rng = random.Random(3707)
        seen = dict(points=0, rays=0, lines=0, empty=0)
        for _ in range(400):
            P = seeded_system(rng)
            if not P.m:
                continue
            eqs = P.equality_rows or sorted(rng.sample(range(1, P.m + 1), min(2, P.m)))
            rows = P.int_rows
            s, points, rays, masks = got = integer_h_to_v(rows, P.n, eqs)
            want = reference_integer_h_to_v(rows, P.n, eqs)
            assert masks == tight_masks(s, points, rays, rows)
            k = len(points)
            assert s == want[0] and len(masks) == len(want[3])
            assert sorted(zip(points, masks)) == sorted(zip(want[1], want[3][:k]))
            assert sorted(zip(rays, masks[k:])) == sorted(zip(want[2], want[3][k:])), got
            seen["points" if points else "empty"] += 1
            seen["rays"] += bool(rays)
            seen["lines"] += any(tuple(-x for x in r) in rays for r in rays)
        assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# adjacent_pairs against the rank test of adjacency


def rank_adjacent_pairs(rows, n, lin, vals, masks):
    """The pairs (p, q, z) with vals[p] < 0 < vals[q] whose rays span a 2-face
    of the cone {r.x <= 0 for r in rows} modulo its lineality: those whose
    common tight rows have rank n - 2 - dim(lineality), by gauss_jordan.  No
    mask is compared with another."""
    def tight_rank(z):
        return len(gauss_jordan([r for t, r in enumerate(rows) if z >> t & 1])[1])
    return [(p, q, masks[p] & masks[q]) for p, u in enumerate(vals) if u < 0
            for q, w in enumerate(vals) if w > 0
            if tight_rank(masks[p] & masks[q]) == n - 2 - len(lin)]


class TestAdjacentPairs:
    def test_seeded_cones_against_ranks(self):
        # dd_cone, reference_dd_cone and reference_chain's levels all decide
        # adjacency by masks; the rank test shares nothing with them
        rng = random.Random(1996)
        seen = dict(lines=0, flat=0, yielded=0, refused=0)
        for _ in range(1500):
            rows, n = seeded_cone(rng)
            flat = rows and rng.random() < 0.4
            if flat:
                # a row and its negation: the cone lies in a hyperplane
                rows.append(tuple(-x for x in rng.choice(rows)))
            lin, rays, masks = dd_cone(rows, n)
            a = [rng.randint(-3, 3) for _ in range(n)]
            vals = [sum(x * y for x, y in zip(a, r)) for r in rays]
            got = list(adjacent_pairs(vals, masks, n - 2 - len(lin)))
            assert got == rank_adjacent_pairs(rows, n, lin, vals, masks), (rows, n, a)
            seen["lines"] += bool(lin) and bool(got)
            seen["flat"] += bool(flat and any(rows[-1]) and got)
            seen["yielded"] += len(got)
            seen["refused"] += sum(u < 0 for u in vals) * sum(u > 0 for u in vals) - len(got)
        assert min(seen.values()) >= 80, seen

    def test_two_rays_that_share_no_row(self):
        # the quadrant x, y >= 0: each ray is tight on one row, none on both,
        # and the two are adjacent with an empty common mask
        rows = [(-1, 0), (0, -1)]
        lin, rays, masks = dd_cone(rows, 2)
        assert (lin, rays, masks) == ([], [(1, 0), (0, 1)], [0b10, 0b01])
        for vals, want in [([1, -1], [(1, 0, 0)]), ([-1, 1], [(0, 1, 0)]), ([1, 1], [])]:
            assert list(adjacent_pairs(vals, masks, 0)) == want
            assert rank_adjacent_pairs(rows, 2, lin, vals, masks) == want
        # a third ray tight on nothing either: no two of the three are adjacent
        assert list(adjacent_pairs([-1, 1, 1], [0, 0, 0], 0)) == []
