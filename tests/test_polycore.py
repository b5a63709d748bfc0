"""Core exact-arithmetic layer: linear algebra, LP, incidence, redundancy."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyorbit.polycore import (
    EmptyPolyhedronError,
    HPolyhedron,
    PolyhedronError,
    VPolyhedron,
    affine_hull,
    affinely_independent_subset,
    clear_denominators,
    convert_dd_incidence,
    det,
    dot,
    identity_matrix,
    incidence,
    integer_kernel_basis,
    invert_matrix,
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

F = Fraction


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
        P = HPolyhedron.from_rows(
            [[F(1, 4), -60, F(-1, 25), 9],
             [F(1, 2), -90, F(-1, 50), 3],
             [0, 0, 1, 0],
             [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
            [0, 0, 1, 0, 0, 0, 0])
        res = solve_lp(P, [F(3, 4), -150, F(1, 50), -6])
        assert res.status == "optimal"
        assert res.value == F(1, 20)

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
        assert [len(inc.row_set(i)) for i in range(1, 5)] == [2, 2, 2, 2]
        # every vertex lies on exactly 2 facets
        assert [len(inc.column_set(j)) for j in range(1, 5)] == [2, 2, 2, 2]

    def test_cube_pattern(self):
        P = cube_h(3)
        V = cube_vertices(3)
        inc = incidence(P, V)
        assert all(len(inc.row_set(i)) == 4 for i in range(1, 7))
        assert all(len(inc.column_set(j)) == 3 for j in range(1, 9))

    def test_ray_incidence(self):
        # quadrant x,y >= 0: apex + 2 rays
        P = HPolyhedron.from_rows([[-1, 0], [0, -1]], [0, 0])
        V = VPolyhedron.from_points([(0, 0)], rays=[(1, 0), (0, 1)])
        inc = incidence(P, V)
        # row -x <= 0 is tight at apex and at ray (0,1)
        assert inc.row_set(1) == frozenset({1, 3})
        assert inc.row_set(2) == frozenset({1, 2})


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

    def test_coordinates_roundtrip(self):
        h = affine_hull([(0, 0, 1), (1, 0, 1), (0, 1, 1)])
        y = h.coordinates((F(1, 3), F(1, 3), 1))
        assert h.embed(y) == (F(1, 3), F(1, 3), 1)


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
            assert masks == [sum(1 << (i - 1) for i in S) for S in map(inc.column_set, range(1, inc.k + 1))]
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


# ---------------------------------------------------------------------------
# the integer form each polyhedron carries


def rational(rng):
    return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 35)))


class TestIntegerForm:
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

    def test_scaled_rows_share_one_form(self):
        P = HPolyhedron.from_rows([[F(1, 2), F(-3, 4)], [0, 0], [6, 4]], [F(5, 6), F(-2, 3), 10])
        assert P.int_rows == ((6, -9, 10), (0, 0, -1), (3, 2, 5))
        V = VPolyhedron.from_points([(F(1, 2), 0), (0, F(1, 3))], [(F(1, 4), 1)])
        assert V.int_points == (12, ((6, 0), (0, 4)), ((3, 12),))
        assert VPolyhedron.from_points([]).int_points == (1, (), ())
