"""Seeded property tests of the fraction-free Gauss-Jordan kernel.

Every exact elimination of polycore, and the integer frames of symdetect,
run on polycore.gauss_jordan.  The plain Fraction Gauss-Jordan elimination
kept here is the reference: the reduced row echelon form (RREF) is unique,
so each routine must return exactly what the reference reads off it.  The
determinant is checked against the Leibniz formula instead.
"""
import random
from fractions import Fraction
from itertools import permutations
from math import prod
from operator import mul

import pytest

from polyorbit.polycore import (
    EmptyPolyhedronError,
    affine_hull,
    affinely_independent_subset,
    det,
    gauss_jordan,
    hull_coordinates,
    integer_nullspace,
    integerize,
    invert_matrix,
    nullspace,
    primitive,
    rank,
    row_space_basis,
    solve_linear,
    _IntegerFrame,
)

SEEDS = range(12)


def ref_rref(rows, stop=None):
    """(RREF, pivot columns) by Fraction Gauss-Jordan, pivoting only before
    stop."""
    m = [[Fraction(x) for x in r] for r in rows]
    if stop is None:
        stop = len(m[0]) if m else 0
    pivots = []
    for c in range(stop):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def ref_nullspace(rows, n):
    m, pivots = ref_rref(rows)
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][j]
        basis.append(tuple(v))
    return tuple(basis)


def ref_solve(A, b):
    n = len(A[0]) if A else 0
    m, pivots = ref_rref([tuple(r) + (bb,) for r, bb in zip(A, b)], stop=n)
    if any(row[n] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = m[r][n]
    return tuple(x)


def ref_det(A):
    n = len(A)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod((Fraction(A[i][perm[i]]) for i in range(n)),
                                           start=Fraction(1))
    return total


def ref_greedy(rows):
    """Indices of the rows that raise the reference rank, in input order."""
    chosen = []
    for i, row in enumerate(rows):
        if len(ref_rref([rows[j] for j in chosen] + [row])[1]) > len(chosen):
            chosen.append(i)
    return chosen


def random_matrix(rng, m, n, integer=False):
    """Sparse rational m x n matrix, often rank-deficient, sometimes with a
    zero row or a duplicate row."""
    def entry():
        if rng.random() < 0.4:
            return Fraction(0)
        den = 1 if integer else rng.choice((1, 1, 2, 3, 5))
        return Fraction(rng.randint(-5, 5), den)

    r = rng.randint(0, min(m, n))
    basis = [[entry() for _ in range(n)] for _ in range(r)]
    rows = []
    for _ in range(m):
        if basis and rng.random() < 0.5:
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in basis]
            rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0))
                         for j in range(n)])
        else:
            rows.append([entry() for _ in range(n)])
    if m and rng.random() < 0.25:
        rows[rng.randrange(m)] = [Fraction(0)] * n
    if m > 1 and rng.random() < 0.25:
        i, j = rng.sample(range(m), 2)
        rows[i] = list(rows[j])
    return [tuple(row) for row in rows]


def shapes(rng):
    """Square, tall and wide shapes, 1 x 1 included."""
    yield 1, 1
    for _ in range(10):
        n = rng.randint(1, 5)
        yield n, n
        yield rng.randint(n + 1, 7), n
        yield rng.randint(1, n), rng.randint(n + 1, 7)


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_is_scaled_rref(seed):
    rng = random.Random(seed)
    for m, n in shapes(rng):
        A = random_matrix(rng, m, n, integer=True)
        D, pivots, M, sign = gauss_jordan(integerize(r) for r in A)
        ref, ref_pivots = ref_rref(A)
        assert pivots == ref_pivots
        assert M == [[D * x for x in row] for row in ref]
        if m == n and len(pivots) == n:
            assert sign * D == ref_det(A)


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_row_space_nullspace(seed):
    rng = random.Random(seed)
    for m, n in shapes(rng):
        A = random_matrix(rng, m, n)
        ref, pivots = ref_rref(A)
        assert rank(A) == len(pivots)
        assert row_space_basis(A) == tuple(tuple(r) for r in ref[:len(pivots)])
        ns = nullspace(A, n)
        assert ns == ref_nullspace(A, n)
        assert integer_nullspace([integerize(r) for r in A], n) == [primitive(v) for v in ns]
        assert len(ns) == n - len(pivots)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A for v in ns)


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_linear(seed):
    rng = random.Random(seed)
    for m, n in shapes(rng):
        A = random_matrix(rng, m, n)
        # consistent: b = A x0; inconsistent on a rank-deficient A mostly
        x0 = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
        consistent = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in A]
        arbitrary = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        for b in (consistent, arbitrary):
            x = solve_linear(A, b)
            assert x == ref_solve(A, b)
            solvable = rank(A) == rank([tuple(r) + (bb,) for r, bb in zip(A, b)])
            assert (x is not None) == solvable
            if x is not None:
                assert [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in A] == b


@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_and_det(seed):
    rng = random.Random(seed)
    for n in [1] + [rng.randint(1, 5) for _ in range(30)]:
        A = random_matrix(rng, n, n)
        d = ref_det(A)
        assert det(A) == d
        if d == 0:
            with pytest.raises(ValueError, match="singular"):
                invert_matrix(A)
            continue
        ref, _ = ref_rref([tuple(r) + tuple(Fraction(int(i == j)) for j in range(n))
                           for i, r in enumerate(A)], stop=n)
        inv = invert_matrix(A)
        assert inv == tuple(tuple(row[n:]) for row in ref)
        assert [[sum(A[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("seed", SEEDS)
def test_affinely_independent_subset(seed):
    rng = random.Random(seed)
    for m, n in shapes(rng):
        pts = random_matrix(rng, m, n)
        diffs = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]
        assert affinely_independent_subset(pts) == [0] + [i + 1 for i in ref_greedy(diffs)]


@pytest.mark.parametrize("seed", SEEDS)
def test_hull_coordinates_are_affine_hull_coordinates(seed):
    rng = random.Random(seed)
    lift = random.Random(seed + 100)     # the rows lifted, apart from the shapes
    for m, n in shapes(rng):
        for integer in (False, True):
            pts = random_matrix(rng, m, n, integer)
            if integer:
                pts = [tuple(int(x) for x in p) for p in pts]
            hull = affine_hull(pts)
            normals, coords, pivots = hull_coordinates(pts)
            assert coords == [hull.coordinates(p) for p in pts]
            # the pivots are the leading columns of the hull's directions,
            # and a row on the coordinates lifts through them
            assert pivots == [next(j for j, x in enumerate(r) if x) for r in hull.directions]
            a = [lift.randint(-5, 5) for _ in pivots]
            g = [0] * n
            for col, x in zip(pivots, a):
                g[col] = x
            assert all(sum(map(mul, g, p)) - sum(map(mul, g, pts[0])) == sum(map(mul, a, y))
                       for p, y in zip(pts, coords))
            # the normals are the null space of the same differences
            diffs = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]
            assert normals == [primitive(v) for v in ref_nullspace(diffs, n)]
            assert all(len(y) == hull.dim for y in coords)
            if integer:
                assert all(type(x) is int for y in coords for x in y)


def test_empty_and_degenerate_inputs():
    assert gauss_jordan([]) == (1, [], [], 1)
    assert rank([]) == 0 and rank([(0, 0)]) == 0
    assert row_space_basis([]) == ()
    assert nullspace([], 2) == ((1, 0), (0, 1))
    assert nullspace([(0, 0)], 2) == ((1, 0), (0, 1))
    assert integer_nullspace([], 2) == [(1, 0), (0, 1)]
    assert hull_coordinates([(1, 2), (1, 2)]) == ([(1, 0), (0, 1)], [(), ()], [])
    with pytest.raises(EmptyPolyhedronError):
        hull_coordinates([])
    assert solve_linear([], []) == ()
    assert solve_linear([(0,)], [1]) is None
    assert invert_matrix([]) == ()
    assert det([]) == 1
    assert affinely_independent_subset([]) == []
    assert affinely_independent_subset([(1, 2)]) == [0]
    assert affinely_independent_subset([(1, 2), (1, 2)]) == [0]
    assert det([(Fraction(-3, 4),)]) == Fraction(-3, 4)
    assert invert_matrix([(Fraction(-3, 4),)]) == ((Fraction(-4, 3),),)
    with pytest.raises(ValueError, match="singular"):
        invert_matrix([(0,)])


def test_adjugate_block():
    # [N | I] pivoting only in N gives D N^-1 on the right
    N = [(2, 1, 0), (0, 3, 1), (1, 0, 4)]
    D, pivots, M, sign = gauss_jordan(
        [list(r) + [int(i == j) for j in range(3)] for i, r in enumerate(N)], stop=3)
    assert pivots == [0, 1, 2] and sign * D == ref_det(N) == 25
    assert all(row[:3] == [D * int(i == j) for j in range(3)] for i, row in enumerate(M))
    R = [row[3:] for row in M]
    assert [[sum(N[i][k] * R[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)] == [[D * int(i == j) for j in range(3)] for i in range(3)]


def check_frame_inverse(frame, X, n):
    """R = D N^-1 for N = [X_B; units]: from the frame's one elimination at
    its own D when the rows span, else made by adjugate on first read, with
    D and coeffs rescaled to it; coeffs stay the coordinates at D."""
    spans, D = len(frame.basis) == n, frame.D
    assert ("R" in vars(frame)) == spans
    R = frame.R
    assert frame.D == D if spans else frame.D != 0
    N = [X[b] for b in frame.basis] + frame.units
    assert [[sum(N[i][t] * R[t][j] for t in range(n)) for j in range(n)] for i in range(n)] == \
        [[frame.D * int(i == j) for j in range(n)] for i in range(n)]
    for row, lam in zip(X, frame.coeffs):
        assert [frame.D * x for x in row] == [
            sum(c * X[b][j] for c, b in zip(lam, frame.basis)) for j in range(n)]


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_frame_basis_and_pivots(seed):
    rng = random.Random(seed)
    for _ in range(25):
        k, n = rng.randint(1, 8), rng.randint(1, 5)
        X = [tuple(int(x) for x in row) for row in random_matrix(rng, k, n, integer=True)]
        frame = _IntegerFrame(X, n)
        assert list(frame.basis) == ref_greedy(X)
        assert list(frame.pivots) == ref_rref([X[b] for b in frame.basis])[1]
        for row, lam in zip(X, frame.coeffs):
            assert [frame.D * x for x in row] == [
                sum(c * X[b][j] for c, b in zip(lam, frame.basis)) for j in range(n)]
        check_frame_inverse(frame, X, n)
    # rank-deficient frames: k rows in a random subspace of rank r < n
    for _ in range(10):
        k, n = rng.randint(2, 8), rng.randint(2, 5)
        r = rng.randint(1, n - 1)
        Y = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(k)]
        Z = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        X = [tuple(sum(y * z[j] for y, z in zip(row, Z)) for j in range(n)) for row in Y]
        frame = _IntegerFrame(X, n)
        assert len(frame.basis) <= r < n
        assert list(frame.basis) == ref_greedy(X)
        assert list(frame.pivots) == ref_rref([X[b] for b in frame.basis])[1]
        check_frame_inverse(frame, X, n)
