"""Fixture polytopes, their seeded unimodular images, and a reference volume,
lattice-point count, projection chain, Ehrhart quasi-polynomial, LP solver,
reduced invariant LP, symmetry gram, spanning prefix, entry-by-entry
relabeling checks of an integer frame, automorphism search, orbit closure,
set orbit and double description shared across test modules, the Fraction
vector and matrix helpers and the accessors of AffineMap, AffineHull and
IncidenceData that the references and tests use, a copy-with-changes of a
record, a reference polyhedron file parser, the CLI's hand-written argument
parser, and the benchmark's workload builder with a runner for its jobs."""
import argparse
import contextlib
import importlib
import importlib.util
import io
import random
import re
import sys
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd, lcm
from operator import mul
from pathlib import Path
from typing import Optional, Sequence

from polyorbit.cli import (PolyFile, PolyFileError, _parse_rational, _positive_int,
                           cmd_automorphisms, cmd_convert, cmd_count, cmd_ehrhart, cmd_ilp,
                           cmd_volume)
from polyorbit.latcount import QuasiPolynomial
from polyorbit.permgrp import Permutation, PermutationGroup, _inverse
from polyorbit.repconv import _Geometry
from polyorbit.symdetect import _refine_colors
from polyorbit.symilp import check_invariance, invariant_subspace
from polyorbit.polycore import (
    AffineHull,
    AffineMap,
    EmptyPolyhedronError,
    HPolyhedron,
    IncidenceData,
    LPResult,
    Matrix,
    PolyhedronError,
    VPolyhedron,
    Vector,
    adjugate,
    affine_hull,
    convert_dd,
    convert_dd_incidence,
    dd_cone,
    det,
    dot,
    frac,
    gauss_jordan,
    hull_coordinates,
    index_set,
    integer_kernel_basis,
    integer_v_to_h,
    invert_matrix,
    matrix,
    nullspace,
    primitive,
    solve_linear,
    solve_lp,
    vec_sub,
    vector,
)


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> tuple:
    """The matrix product A B of two Fraction matrices given as rows."""
    Bt = list(zip(*B))
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def vec_scale(c, u: Sequence) -> tuple:
    """The vector c u, in Fraction."""
    c = frac(c)
    return tuple(c * a for a in u)


def vec_add(u: Sequence, v: Sequence) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def mat_vec(A: Sequence[Sequence], x: Sequence) -> Vector:
    return tuple(dot(row, x) for row in A)


def transpose(A: Sequence[Sequence]) -> Matrix:
    return tuple(zip(*A))


def identity_matrix(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def apply_map(amap: AffineMap, x: Sequence) -> Vector:
    """x |-> A x + t of amap."""
    return vec_add(mat_vec(amap.A, x), amap.t)


def affine_coordinates(hull: AffineHull, x: Sequence) -> Vector:
    """Coordinates y with x = point + directions^T y (exact; raises if x
    is outside the hull)."""
    diff = vec_sub(x, hull.point)
    cols = transpose(hull.directions)  # n x d
    y = solve_linear(cols, diff)
    if y is None:
        raise ValueError("point not in affine hull")
    return y


def affine_embed(hull: AffineHull, y: Sequence) -> Vector:
    return vec_add(hull.point, mat_vec(transpose(hull.directions), y))


def row_set(inc: IncidenceData, i: int) -> frozenset:
    return frozenset(index_set(inc.row_masks[i - 1]))


def column_set(inc: IncidenceData, j: int) -> frozenset:
    return frozenset(i + 1 for i in range(inc.m)
                     if inc.row_masks[i] >> (j - 1) & 1)


def replace(record, **changes):
    """A copy of a polyorbit record with changes, as dataclasses.replace made
    of a dataclass: built by its constructor from every constructor field,
    hidden ones too, so __post_init__ checks it again."""
    return type(record)(**{**{name: getattr(record, name) for name in record._init},
                           **changes})


def cube_h(n: int) -> HPolyhedron:
    """[-1, 1]^n as 2n inequality rows, +e_i before -e_i."""
    A, b = [], []
    for i in range(n):
        for s in (1, -1):
            row = [Fraction(0)] * n
            row[i] = Fraction(s)
            A.append(tuple(row))
            b.append(Fraction(1))
    return HPolyhedron.from_rows(A, b)


def cube_v(n: int) -> VPolyhedron:
    return VPolyhedron.from_points(
        sorted(product([Fraction(-1), Fraction(1)], repeat=n)))


def cross_v(n: int) -> VPolyhedron:
    pts = []
    for i in range(n):
        for s in (1, -1):
            p = [Fraction(0)] * n
            p[i] = Fraction(s)
            pts.append(tuple(p))
    return VPolyhedron.from_points(sorted(pts))


def cross_h(n: int) -> HPolyhedron:
    A, b = [], []
    for signs in product([1, -1], repeat=n):
        A.append(tuple(Fraction(s) for s in signs))
        b.append(Fraction(1))
    return HPolyhedron.from_rows(A, b)


def cut_v(n: int) -> VPolyhedron:
    """Cut polytope CUT_n: the 2^(n-1) cut vectors of K_n in R^(n choose 2)."""
    pairs = list(combinations(range(n), 2))
    pts = []
    for bits in product((0, 1), repeat=n - 1):
        side = bits + (1,)
        pts.append(tuple(Fraction(int(side[i] != side[j])) for i, j in pairs))
    return VPolyhedron.from_points(pts)


def met_h(n: int) -> HPolyhedron:
    """Metric polytope MET_n in R^(n choose 2): for each triple of K_n, the
    three triangle rows x_e - x_f - x_g <= 0 and the perimeter row
    x_e + x_f + x_g <= 2, 4 C(n, 3) rows in all.  Its rows' symmetry group,
    for n >= 5, has order 2^(n-1) n!: the switchings and the relabelings."""
    index = {e: t for t, e in enumerate(combinations(range(n), 2))}
    A, b = [], []
    for i, j, l in combinations(range(n), 3):
        edges = (index[i, j], index[i, l], index[j, l])
        for signs, rhs in (((1, -1, -1), 0), ((-1, 1, -1), 0), ((-1, -1, 1), 0), ((1, 1, 1), 2)):
            row = [Fraction(0)] * len(index)
            for e, s in zip(edges, signs):
                row[e] = Fraction(s)
            A.append(tuple(row))
            b.append(Fraction(rhs))
    return HPolyhedron.from_rows(A, b)


def simplex_v(n: int) -> VPolyhedron:
    """Standard corner simplex: origin plus the unit points."""
    pts = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n):
        p = [Fraction(0)] * n
        p[i] = Fraction(1)
        pts.append(tuple(p))
    return VPolyhedron.from_points(pts)


def _signed_patterns(base):
    out = set()

    def rec(i, cur):
        if i == len(base):
            out.add(tuple(cur))
            return
        if base[i] == 0:
            rec(i + 1, cur + [0])
        else:
            rec(i + 1, cur + [base[i]])
            rec(i + 1, cur + [-base[i]])

    rec(0, [])
    return sorted(out)


def santos_prismatoid() -> VPolyhedron:
    """The 48-vertex 5-dimensional prismatoid with two 24-vertex base facets
    at x5 = +1 and x5 = -1.  Its dual-graph distance between the bases is 6,
    which is what makes it interesting."""
    top = [(18, 0, 0, 0), (0, 18, 0, 0), (0, 0, 45, 0), (0, 0, 0, 45),
           (15, 15, 0, 0), (0, 0, 30, 30), (0, 10, 40, 0), (10, 0, 0, 40)]
    bottom = [(45, 0, 0, 0), (0, 45, 0, 0), (0, 0, 18, 0), (0, 0, 0, 18),
              (30, 30, 0, 0), (0, 0, 15, 15), (40, 0, 10, 0), (0, 40, 0, 10)]
    pts = set()
    for base in top:
        for s in _signed_patterns(base):
            pts.add(s + (1,))
    for base in bottom:
        for s in _signed_patterns(base):
            pts.add(s + (-1,))
    return VPolyhedron.from_points(sorted(pts))


def simplex_h(n: int) -> HPolyhedron:
    """Standard simplex x >= 0, sum x <= 1."""
    A = [tuple(Fraction(-(i == j)) for j in range(n)) for i in range(n)]
    A.append(tuple(Fraction(1) for _ in range(n)))
    return HPolyhedron.from_rows(A, [Fraction(0)] * n + [Fraction(1)])


def birkhoff(n: int) -> HPolyhedron:
    """Doubly stochastic n x n matrices: x >= 0, unit row and column sums."""
    d = n * n
    A, b, eqs = [], [], []
    for t in range(d):
        row = [Fraction(0)] * d
        row[t] = Fraction(-1)
        A.append(tuple(row))
        b.append(Fraction(0))
    for r in range(n):
        row = [Fraction(0)] * d
        for c in range(n):
            row[n * r + c] = Fraction(1)
        A.append(tuple(row))
        b.append(Fraction(1))
        eqs.append(len(A))
    for c in range(n):
        row = [Fraction(0)] * d
        for r in range(n):
            row[n * r + c] = Fraction(1)
        A.append(tuple(row))
        b.append(Fraction(1))
        eqs.append(len(A))
    return HPolyhedron.from_rows(A, b, eqs)


def hypersimplex_v(k: int, n: int) -> VPolyhedron:
    """Hypersimplex Δ(k, n): the 0/1 points of R^n with exactly k ones."""
    return VPolyhedron.from_points(sorted(
        tuple(Fraction(int(i in S)) for i in range(n)) for S in combinations(range(n), k)))


def _unimodular(rng: random.Random, n: int) -> list:
    """A seeded integer n x n matrix with determinant +-1: shears, sign flips
    and a row shuffle of the identity."""
    U = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    U = [[-x for x in row] if rng.random() < 0.5 else row for row in U]
    rng.shuffle(U)
    return U


def unimodular_image(points, seed):
    """(V, U, t): the points moved by x -> U x + t for a seeded integer U with
    det +-1 and a rational t, and shuffled."""
    rng = random.Random(seed)
    n = len(points[0])
    U = _unimodular(rng, n)
    t = tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(n))
    pts = [tuple(vec_add(mat_vec(U, p), t)) for p in points]
    rng.shuffle(pts)
    return VPolyhedron.from_points(pts), U, t


def row_image(P: HPolyhedron, seed) -> HPolyhedron:
    """The rows of P in the coordinates of its image under x -> U x + t, for
    a seeded unimodular U and an integer t, shuffled: a x <= b becomes
    (a U^-1) y <= b + a U^-1 t.  Integer rows stay primitive."""
    rng = random.Random(seed)
    U = _unimodular(rng, P.n)
    t = tuple(Fraction(rng.randint(-5, 5)) for _ in range(P.n))
    Ut = list(zip(*invert_matrix(U)))
    rows = [(tuple(mat_vec(Ut, a)), b) for a, b in zip(P.A, P.b)]
    rows = [(a, b + sum(x * y for x, y in zip(a, t))) for a, b in rows]
    rng.shuffle(rows)
    return HPolyhedron.from_rows([a for a, _ in rows], [b for _, b in rows])


def probe_permutations(rng: random.Random, G, count: int = 30) -> list:
    """Members of the permutation group G (random words in its generators)
    and mostly non-members (random transpositions, members times one, and
    random permutations)."""
    out = []
    for _ in range(count):
        g = Permutation.identity(G.degree)
        for _ in range(rng.randint(0, 6)):
            g = rng.choice(G.generators) * g if G.generators else g
        out.append(g)
        if G.degree > 1:
            a, b = rng.sample(range(1, G.degree + 1), 2)
            t = Permutation.from_cycles(G.degree, [(a, b)])
            out += [t, g * t]
        images = list(range(1, G.degree + 1))
        rng.shuffle(images)
        out.append(Permutation(images))
    return out


def reference_volume(P: HPolyhedron) -> Fraction:
    """Lattice-relative volume of a polytope by a second, independent route.

    Fans from the vertex centroid over the facets of a fresh V-to-H
    conversion of the vertex list; each facet is triangulated by pulling
    from its least vertex, with one hull_coordinates and one conversion per
    face to find that face's facets.  Measured in the same lattice frame of
    the affine hull as latcount.volume.
    """
    pts = sorted(convert_dd(P).vertices)
    hull = affine_hull(pts)
    d = hull.dim
    if d == 0:
        return Fraction(1)
    if d < P.n:
        normals = [primitive(v) for v in nullspace(hull.directions, P.n)]
        frame = AffineHull(pts[0], matrix(integer_kernel_basis(normals, P.n)))
        pts = [affine_coordinates(frame, p) for p in pts]
    c = tuple(sum(p[t] for p in pts) / len(pts) for t in range(d))
    total = Fraction(0)
    for mask in convert_dd_incidence(VPolyhedron.from_points(pts))[1]:
        for simplex in _reference_pull(pts, sorted(index_set(mask)), d - 1):
            total += abs(det([vec_sub(pts[j - 1], c) for j in simplex]))
    return total / factorial(d)


def _reference_pull(pts, face, fdim):
    """Pulling triangulation of a face given by sorted 1-based indices."""
    if len(face) == fdim + 1:
        return [tuple(face)]
    v = face[0]
    local = hull_coordinates([pts[j - 1] for j in face])[1]
    out = []
    for mask in convert_dd_incidence(VPolyhedron.from_points(local))[1]:
        child = sorted(face[j - 1] for j in index_set(mask))
        if v not in child:
            out.extend(s + (v,) for s in _reference_pull(pts, child, fdim - 1))
    return out


def reference_count(P) -> int:
    """Integer points of a polyhedron by the plain per-value walk.

    The points of P (a V input as given, an H input converted) are
    projected onto the first k coordinates for every k = 1..n, in the given
    order, and each projection is converted back to primitive integer rows
    by its own double description.  The walk then fixes every coordinate
    but the last value by value, reading its integer interval off its
    level's rows, and adds the length of the last interval.  An unbounded
    interval met on the way raises PolyhedronError, as the counting walk
    does; an empty H input counts 0.
    """
    if isinstance(P, HPolyhedron):
        try:
            P = convert_dd(P)
        except EmptyPolyhedronError:
            return 0
    elif not P.vertices:
        raise EmptyPolyhedronError("no points given")
    levels = [_reference_rows(P, k) for k in range(1, P.n + 1)]
    return _reference_walk(levels, []) if levels else 1


def reference_chain(V, order):
    """Projection chain of the polyhedron V generates in the given order, one
    double description per level, in the level format of latcount's
    counting walk.

    Level k holds the facet rows and equalities integer_v_to_h finds for the
    distinct projections of V's points and nonzero projections of its rays
    onto the first k coordinates of the order, k = 1..n, each equality as two
    opposite rows.
    """
    def level(k):
        s, pts, rays = V.int_points
        pts = dict.fromkeys(tuple(p[t] for t in order[:k]) for p in pts)
        rays = dict.fromkeys(r for r in (tuple(r[t] for t in order[:k]) for r in rays)
                             if any(r))
        eqs, les, _ = integer_v_to_h(s, list(pts), list(rays))
        return [(g[:k - 1], g[k - 1], g[k])
                for g in les + eqs + [tuple(-x for x in g) for g in eqs]]

    return [level(k) for k in range(1, len(order) + 1)]


def _reference_rows(V, k):
    gens = dict.fromkeys(tuple(v[:k]) + (-1,) for v in V.vertices)
    gens.update(dict.fromkeys(tuple(r[:k]) + (0,) for r in V.rays if any(r[:k])))
    lin, rays, _ = dd_cone(list(gens), k + 1)
    return ([(g[:k - 1], g[k - 1], g[k]) for g in lin if any(g[:k])],
            [(g[:k - 1], g[k - 1], g[k]) for g in rays if any(g[:k])])


def _reference_walk(levels, prefix):
    bounds = _reference_fiber(*levels[len(prefix)], prefix)
    if bounds is None:
        return 0
    lo, hi = bounds
    if len(prefix) + 1 == len(levels):
        return max(hi - lo + 1, 0)
    return sum(_reference_walk(levels, prefix + [v]) for v in range(lo, hi + 1))


def _reference_fiber(eqs, les, prefix):
    """Integer bounds of the next coordinate over the prefix, or None."""
    pin = None
    for head, c, beta in eqs:
        r = beta - sum(map(mul, head, prefix))
        if c == 0:
            if r != 0:
                return None
            continue
        q, rem = divmod(r, c)
        if rem or (pin is not None and q != pin):
            return None
        pin = q
    lo = hi = None
    for head, c, beta in les:
        r = beta - sum(map(mul, head, prefix))
        if c > 0:
            hi = r // c if hi is None else min(hi, r // c)
        elif c < 0:
            lo = -(r // -c) if lo is None else max(lo, -(r // -c))
        elif r < 0:
            return None
    if pin is not None:
        return None if (lo is not None and pin < lo) or (hi is not None and pin > hi) \
            else (pin, pin)
    if lo is None or hi is None:
        raise PolyhedronError("cannot count lattice points of an unbounded polyhedron")
    return lo, hi


def reference_ehrhart(P) -> QuasiPolynomial:
    """Ehrhart quasi-polynomial of a bounded, full-dimensional polytope by
    interpolation on positive dilates alone.

    The vertices come from a fresh conversion (two for a V input), and the
    period k is the lcm of their denominators.  The plain chain of
    reference_count is built once, and dilate lam is walked on it with every
    right-hand side scaled by lam, since proj(lam P) = lam proj(P).  For each
    residue class i mod k the first d + 1 dilates lam = i mod k, lam > 0,
    are interpolated by Lagrange's formula, and the count at the next one
    must agree with the result.
    """
    V = convert_dd(P if isinstance(P, HPolyhedron) else convert_dd(P))
    d = P.n
    assert not V.rays and affine_hull(V.vertices).dim == d
    k = lcm(*(c.denominator for v in V.vertices for c in v))
    levels = [_reference_rows(V, j) for j in range(1, d + 1)]

    def count(lam):
        if not levels:
            return 1
        return _reference_walk([tuple([(head, c, lam * beta) for head, c, beta in rows]
                                      for rows in level) for level in levels], [])

    comps = []
    for i in range(k):
        lams = [lam for lam in range(i, k * (d + 3), k) if lam > 0][:d + 2]
        ys = [count(lam) for lam in lams]
        coeffs = [Fraction(0)] * (d + 1)
        for j, (xj, yj) in enumerate(zip(lams[:-1], ys)):
            basis, denom = [Fraction(1)], 1
            for m, xm in enumerate(lams[:-1]):
                if m != j:   # times (x - xm)
                    basis = [a - xm * b for a, b in zip([0] + basis, basis + [0])]
                    denom *= xj - xm
            coeffs = [c + Fraction(yj) * b / denom for c, b in zip(coeffs, basis)]
        assert sum(c * lams[-1] ** j for j, c in enumerate(coeffs)) == ys[-1]
        comps.append(tuple(coeffs))
    return QuasiPolynomial(k, tuple(comps), d)


def reference_gram(frame) -> tuple:
    """W = X (X^t X)^+ X^t of a frame's rows X entry by entry, as Fractions,
    by the route of their coefficients.

    With L = frame.coeffs, Q = L^t L and g = L (D_Q Q^{-1}) L^t, the entry
    W_ij = X_i^t (sum_j X_j X_j^t)^+ X_j is g_ij / D_Q."""
    lam = frame.coeffs
    lcols = list(zip(*lam))
    Q = [[sum(map(mul, u, v)) for v in lcols] for u in lcols]
    dq, RQ = adjugate(Q)
    rqcols = list(zip(*RQ))
    Y = [tuple(sum(map(mul, x, col)) for col in rqcols) for x in lam]
    return tuple(tuple(Fraction(sum(map(mul, y, z)), dq) for z in lam) for y in Y)


def reference_spanning_prefix(frame, order: Sequence[int]) -> int:
    """symdetect._spanning_prefix by its former route: one gauss_jordan of
    the frame rows in order, transposed, whose last pivot column is the
    last greedy basis index of the rows in that order."""
    return gauss_jordan(zip(*(frame.rows[i] for i in order)))[1][-1] + 1


def reference_relabels(frame, img: Sequence[int], rows: Optional[Sequence[int]] = None) -> bool:
    """symdetect._relabels entry by entry, as it checked before the frame
    packed its rows, recording nothing: D X_img[j][c] == sum_b L_jb
    X_img[basis[b]][c] in every column c, for every row j outside the
    basis, or every j in rows.  rows = every index, with img the identity,
    is _IntegerFrame's span check at construction."""
    X, D, coeffs = frame.rows, frame.D, frame.coeffs
    bcols = list(zip(*(X[img[b]] for b in frame.basis)))
    return all(D * a == sum(map(mul, coeffs[j], col))
               for j in (frame.others if rows is None else rows)
               for a, col in zip(X[img[j]], bcols))


def reference_row_affine(frame, img: Sequence[int], n: int) -> bool:
    """_RowRealizer.realize's affine test, for a relabeling that passes
    reference_relabels, as it multiplied out T = R [X_img[basis]; units]
    and eliminated T's linear block: row n of T is (0, ..., 0, D) and the
    linear block has n pivots."""
    cols = list(zip(*([frame.rows[img[b]] for b in frame.basis] + frame.units)))
    T = [[sum(map(mul, r, col)) for col in cols] for r in frame.R]
    return T[n] == [0] * n + [frame.D] and len(gauss_jordan(row[:n] for row in T[:n])[1]) == n


def unpack_row(K: int, w: int, ncols: int) -> tuple:
    """The entries of a packed frame row K, entry c at bit c w, each of size
    below 2^(w-1)."""
    out = []
    for _ in range(ncols):
        d = K & ((1 << w) - 1)
        if d >= 1 << (w - 1):
            d -= 1 << w
        out.append(d)
        K = (K - d) >> w
    return tuple(out)


def ledger_facet_rows(ledger) -> set:
    """Every facet of an orbit ledger as a primitive supporting row (a | b),
    recomputed from the incidence sets of its expanded orbits, for
    comparison with a plain conversion."""
    geo = _Geometry(VPolyhedron(ledger.vertices))
    return {geo.ambient_row(S) for e in ledger.entries.values() for S in e.orbit.elements}


def reference_irredundant_rows(masks: Sequence[int], m: int, vertices: int
                               ) -> tuple[frozenset, list[int]]:
    """polycore.irredundant_rows by its first rule: a row whose tight set is
    not strictly inside another's is kept when no later non-equality row has
    the same tight set, found by scanning the later rows."""
    tight = [sum(1 << j for j, mask in enumerate(masks) if mask >> i & 1) for i in range(m)]
    every = (1 << len(masks)) - 1
    on_vertex = (1 << vertices) - 1
    equalities = frozenset(i for i, t in enumerate(tight) if t == every)
    rows = [t for i, t in enumerate(tight) if i not in equalities]
    kept = [i for i, t in enumerate(tight) if i in equalities or (
        t & on_vertex
        and not any(t | u == u and t != u for u in rows)
        and t not in (tight[j] for j in range(i + 1, m) if j not in equalities))]
    return equalities, kept


def reference_solve_lp(P: HPolyhedron, c, maximize: bool = True) -> LPResult:
    """solve_lp by a dense two-phase simplex over Fraction: the same
    variables, artificials and Bland's rule, with every row normalized at
    each pivot.  Maximize (default) or minimize c.x over {A x <= b}.

    Rows listed in P.equality_rows are held at equality (no slack).

    Deterministic: Bland's smallest-index pivoting rule throughout, so reruns
    and alternative-optima situations always yield the same argmax.
    Infeasible and unbounded are ordinary result statuses, not exceptions.
    """
    c = vector(c)
    if not maximize:
        res = reference_solve_lp(P, vec_scale(-1, c), maximize=True)
        if res.status == "optimal":
            return LPResult("optimal", -res.value, res.point)
        return res
    m, n = P.m, P.n
    if n != len(c):
        raise ValueError("objective length does not match dimension")
    # variables: u (n), w (n) with x = u - w, slacks s (m); then artificials.
    total = 2 * n + m

    # rows normalized so the right-hand side is nonnegative
    eq = set(P.equality_rows)
    rows = []
    rhs = []
    for i in range(m):
        a = list(P.A[i])
        bb = P.b[i]
        # equality rows get no slack; phase 1 then starts them on an artificial
        slack = [Fraction(int(j == i and (i + 1) not in eq)) for j in range(m)]
        row = [frac(v) for v in a] + [-frac(v) for v in a] + slack
        if bb < 0:
            row = [-v for v in row]
            bb = -bb
        rows.append(row)
        rhs.append(frac(bb))

    basis = []
    art_cols = []
    for i in range(m):
        # slack column is usable as the initial basis only if its sign survived
        scol = 2 * n + i
        if rows[i][scol] == 1:
            basis.append(scol)
        else:
            col = total + len(art_cols)
            art_cols.append(col)
            basis.append(col)
    ncols = total + len(art_cols)
    # extend rows with artificial columns
    for i in range(m):
        ext = [Fraction(0)] * len(art_cols)
        if basis[i] >= total:
            ext[basis[i] - total] = Fraction(1)
        rows[i] = rows[i] + ext

    def pivot(tab, rhs_, basis_, obj, objval, r, col):
        pv = tab[r][col]
        tab[r] = [v / pv for v in tab[r]]
        rhs_[r] /= pv
        for i in range(len(tab)):
            if i != r and tab[i][col] != 0:
                f = tab[i][col]
                tab[i] = [a - f * bv for a, bv in zip(tab[i], tab[r])]
                rhs_[i] -= f * rhs_[r]
        if obj is not None and obj[col] != 0:
            f = obj[col]
            for j in range(len(obj)):
                obj[j] -= f * tab[r][j]
            objval[0] -= f * rhs_[r]
        basis_[r] = col

    def run_simplex(tab, rhs_, basis_, obj, objval, allowed):
        # minimize obj.z; Bland's rule
        while True:
            enter = next((j for j in allowed if obj[j] < 0), None)
            if enter is None:
                return "optimal"
            ratios = [(rhs_[i] / tab[i][enter], basis_[i], i)
                      for i in range(len(tab)) if tab[i][enter] > 0]
            if not ratios:
                return "unbounded"
            _, _, r = min(ratios, key=lambda t: (t[0], t[1]))
            pivot(tab, rhs_, basis_, obj, objval, r, enter)

    # phase 1: minimize sum of artificials
    if art_cols:
        obj = [Fraction(0)] * ncols
        for col in art_cols:
            obj[col] = Fraction(1)
        objval = [Fraction(0)]
        # price out the basic artificials
        for i, bcol in enumerate(basis):
            if bcol >= total:
                for j in range(ncols):
                    obj[j] -= rows[i][j]
                objval[0] -= rhs[i]
        run_simplex(rows, rhs, basis, obj, objval, range(ncols))
        if objval[0] != 0:
            return LPResult("infeasible")
        # drive leftover artificials out of the basis
        for i in range(m):
            if basis[i] >= total:
                col = next((j for j in range(total) if rows[i][j] != 0), None)
                if col is not None:
                    pivot(rows, rhs, basis, None, None, i, col)
        # Rows still basic in an artificial are identically zero; harmless.

    # phase 2: minimize -c.x = -c.u + c.w
    obj = [Fraction(0)] * ncols
    for j in range(n):
        obj[j] = -c[j]
        obj[n + j] = c[j]
    for col in art_cols:
        obj[col] = Fraction(0)
    objval = [Fraction(0)]
    for i, bcol in enumerate(basis):
        if obj[bcol] != 0:
            f = obj[bcol]
            for j in range(ncols):
                obj[j] -= f * rows[i][j]
            objval[0] -= f * rhs[i]
    allowed = [j for j in range(total)]  # artificials never re-enter
    status = run_simplex(rows, rhs, basis, obj, objval, allowed)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] += rhs[i]
        elif bcol < 2 * n:
            x[bcol - n] -= rhs[i]
    point = tuple(x)
    return LPResult("optimal", dot(c, point), point)


def reference_solve_lp_reduced(lp, G) -> LPResult:
    """symilp.solve_lp_reduced by the basis product: x = B y for the n x k
    matrix B whose columns are invariant_subspace(G).basis, the orbit
    indicators, so the reduced program is max (B^T c).y over {A B y <= b}
    in Fraction, and its argmax maps back as B y."""
    if not check_invariance(lp, G):
        raise PolyhedronError("linear program is not invariant under the group")
    B = transpose(invariant_subspace(G, lp.P.n).basis)
    red = HPolyhedron(mat_mul(lp.P.A, B), lp.P.b, lp.P.equality_rows)
    res = solve_lp(red, mat_vec(transpose(B), lp.c))
    if not res.is_optimal:
        return res
    return LPResult("optimal", res.value, mat_vec(B, res.point))


def reference_automorphism_search(gram: Sequence[Sequence[int]]) -> tuple[list, tuple, int]:
    """(generators, base, order) of the automorphism group of the complete
    graph whose edge {i+1, j+1} has the integer color gram[i][j], by the
    search that filters each candidate image only backwards: against the
    last assigned vertex, then every assigned one, with no domains.

    The search runs along the assignment order and finds every basic orbit
    of the stabilizer chain on that order, so the generators are a strong
    generating set on base, the points of the order whose basic orbit is
    nontrivial, and the order of the group is the product of those orbits'
    sizes."""
    k = len(gram)
    if k <= 1:
        return [], (), 1
    colors = _refine_colors(gram)
    cell_size = {c: colors.count(c) for c in set(colors)}
    # assignment order: smallest color cells first, lowest index first
    order = sorted(range(k), key=lambda i: (cell_size[colors[i]], colors[i], i))
    # near[x][c]: the vertices y with gram[x][y] == c, ascending.  An image w
    # of v agrees with v on its color to the last assigned vertex a, so only
    # near[img[a]][gram[v][a]] is scanned, in the same ascending order.
    near: list = [{} for _ in range(k)]
    for x, row in enumerate(gram):
        for y, c in enumerate(row):
            near[x].setdefault(c, []).append(y)

    def near_last(img: list, v: int, upto: int) -> list:
        a = order[upto - 1]
        return near[img[a]].get(gram[v][a], [])

    def consistent(img: list, v: int, w: int, upto: int) -> bool:
        if colors[v] != colors[w]:
            return False
        gv, gw = gram[v], gram[w]
        for p in range(upto):
            a = order[p]
            if gv[a] != gw[img[a]]:
                return False
        return True

    def complete(level: int, w0: int) -> Optional[list]:
        """Images (0-based) of one automorphism fixing order[:level] and
        sending order[level] to w0.

        Depth-first over the positions order[level+1:], with an explicit
        stack: cands[p] are the images to try at position p, and nxt[p] the
        index of the next one."""
        img = [-1] * k          # img[v] = image of vertex v (0-based)
        used = [False] * k
        for p in range(level):
            img[order[p]] = order[p]
            used[order[p]] = True
        if used[w0]:
            return None         # w0 is a fixed prefix vertex; injectivity fails
        img[order[level]] = w0
        used[w0] = True
        cands = [()] * (k + 1)
        nxt = [0] * (k + 1)
        p = level + 1
        while p > level:
            if p == k:
                return img
            v = order[p]
            if img[v] >= 0:     # back from p + 1: release the last choice
                used[img[v]] = False
                img[v] = -1
            i = nxt[p]
            if i == 0:          # entered from p - 1
                cands[p] = near_last(img, v, p)
            cs = cands[p]
            while i < len(cs) and (used[cs[i]] or not consistent(img, v, cs[i], p)):
                i += 1
            if i < len(cs):
                img[v] = cs[i]
                used[cs[i]] = True
                nxt[p] = i + 1
                p += 1
                nxt[p] = 0
            else:
                p -= 1
        return None

    found: list = []            # image lists (0-based) of the generators

    def orbit_of(v: int) -> set:
        orb, reached = {v}, [v]
        for x in reached:       # reached grows as the loop runs
            for g in found:
                if g[x] not in orb:
                    orb.add(g[x])
                    reached.append(g[x])
        return orb

    base, size = [], 1
    for level in range(k - 2, -1, -1):
        v = order[level]
        prefix = {order[p] for p in range(level)}
        orb = orbit_of(v)
        # every generator found so far fixes the prefix, so an image w that
        # no automorphism reaches rules out the orbit of w as well
        failed: set = set()
        a = order[level - 1]    # the prefix is fixed pointwise
        for w in near[a].get(gram[v][a], []) if level else range(k):
            if w == v or w in orb or w in prefix or w in failed:
                continue
            # prefix is fixed pointwise: check consistency against it directly
            if colors[v] != colors[w] or any(gram[v][x] != gram[w][x] for x in order[:level]):
                continue
            g = complete(level, w)
            if g is None:
                failed |= orbit_of(w)
            else:
                found.append(g)
                orb = orbit_of(v)
        if len(orb) > 1:
            base.append(v + 1)
            size *= len(orb)
    return ([Permutation(tuple(x + 1 for x in g)) for g in found],
            tuple(reversed(base)), size)


def recompute_orbit(G, idx: int) -> None:
    """PermutationGroup._recompute_orbit by closure from scratch: every
    generator of level idx on every known point of its orbit, round by
    round in sorted order, for G's transversal elements and their inverses."""
    lvl = G._levels[idx]
    orbit, inv = lvl.orbit, lvl.inv
    frontier = sorted(orbit)
    while frontier:
        new_frontier = []
        for p in frontier:
            u = orbit[p]._p
            for g in lvl.gens:
                q = g._p[p]
                if q not in orbit:
                    gu = tuple(map(g._p.__getitem__, u))
                    orbit[q] = Permutation._trusted(gu)
                    inv[q] = _inverse(gu)
                    new_frontier.append(q)
        frontier = sorted(new_frontier)


def reference_orbit_of_set(G, S) -> tuple:
    """The orbit of the index set S under G with frozenset members, as
    permgrp.orbit_of_set expanded it before its members became ascending
    tuples: (key, size, members, stabilizer of S).  The expansion is
    breadth-first and keeps a witness u_X with u_X(S) = X for each member X;
    the stabilizer is generated by the Schreier generators u_gX^-1 g u_X
    (Schreier's lemma), each one added by Schreier-Sims with no order given
    unless it is already a member."""
    S = frozenset(S)
    witness = {S: Permutation.identity(G.degree)}
    stab = PermutationGroup((), G.degree)
    frontier = [S]
    while frontier:
        nxt = []
        for X in frontier:
            for g in G.generators:
                Y, gu = g.apply_set(X), g * witness[X]
                if Y not in witness:
                    witness[Y] = gu
                    nxt.append(Y)
                elif (h := witness[Y].inverse() * gu) not in stab:
                    stab = PermutationGroup(stab.generators + (h,), G.degree)
        frontier = nxt
    key = min(tuple(sorted(X)) for X in witness)
    return key, len(witness), frozenset(witness), stab


def reference_dd_cone(rows: Sequence[Sequence], n: int
                      ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """polycore.dd_cone written out in one function: its own pair loop, with
    the third-ray scan by index with any that polycore.adjacent_pairs also
    makes, and the kept rays rebuilt in one loop: the same lineality, rays
    and masks in the same order.  It decides adjacency by the masks as
    dd_cone does; test_polycore.py's TestAdjacentPairs checks that rule
    against the rank of the common tight rows."""
    lin: list[tuple[int, ...]] = [tuple(1 if j == i else 0 for j in range(n))
                                  for i in range(n)]
    rays: list[tuple[int, ...]] = []
    masks: list[int] = []
    for t, a in enumerate(primitive(raw) for raw in rows):
        lin_vals = [sum(map(mul, a, l)) for l in lin]
        if any(lin_vals):
            # the row cuts the lineality space: one direction becomes a ray,
            # the rest of the basis and all rays are projected onto {a.x = 0}
            i0 = next(i for i, v in enumerate(lin_vals) if v != 0)
            l0, v0 = lin[i0], lin_vals[i0]
            s0 = 1 if v0 > 0 else -1
            lin = [l if v == 0 else _combine(abs(v0), l, -s0 * v, l0)
                   for i, (l, v) in enumerate(zip(lin, lin_vals)) if i != i0]
            r0 = l0 if v0 < 0 else tuple(-x for x in l0)
            new_rays, new_masks, seen = [], [], set()
            for r, m in zip(rays, masks):
                vr = sum(map(mul, a, r))
                rp = r if vr == 0 else _combine(abs(v0), r, vr, r0)
                if not any(rp) or rp in seen:
                    continue
                seen.add(rp)
                new_rays.append(rp)
                new_masks.append(m | (1 << t))
            new_rays.append(r0)
            new_masks.append((1 << t) - 1)
            rays, masks = new_rays, new_masks
        else:
            vals = [sum(map(mul, a, r)) for r in rays]
            if any(v > 0 for v in vals):
                plus = [i for i, v in enumerate(vals) if v > 0]
                minus = [i for i, v in enumerate(vals) if v < 0]
                created, created_masks, seen = [], [], set()
                # the common tight rows of an adjacent pair have rank
                # n - 2 - dim(lineality), so a pair tight on fewer rows is
                # not adjacent (Fukuda-Prodon, "Double description method
                # revisited", 1996)
                need = n - 2 - len(lin)
                for ip in minus:
                    for iq in plus:
                        z = masks[ip] & masks[iq]
                        if z.bit_count() < need:
                            continue
                        # combinatorial adjacency: no third ray tight on the
                        # common tight set of the pair
                        if any(masks[ir] & z == z
                               for ir in range(len(rays)) if ir != ip and ir != iq):
                            continue
                        w = _combine(vals[iq], rays[ip], -vals[ip], rays[iq])
                        if w in seen:
                            continue
                        seen.add(w)
                        created.append(w)
                        # a positive combination of two rays is tight exactly
                        # where both are, and on the new row
                        created_masks.append(z | (1 << t))
                kept_rays, kept_masks = [], []
                for i, (r, m) in enumerate(zip(rays, masks)):
                    if vals[i] > 0:
                        continue
                    kept_rays.append(r)
                    kept_masks.append(m | (1 << t) if vals[i] == 0 else m)
                rays = kept_rays + created
                masks = kept_masks + created_masks
            else:
                masks = [m | (1 << t) if vals[i] == 0 else m
                         for i, m in enumerate(masks)]
    return lin, rays, masks


def reference_integer_h_to_v(rows: Sequence[Sequence[int]], n: int, equalities=()
                             ) -> tuple[int, list, list, list[int]]:
    """polycore.integer_h_to_v as it homogenized: each equality row followed
    at once by its negation, every mask bit mapped back through the list of
    cone rows; the same points, rays and masks, in the order of that cone."""
    eq = set(equalities)
    cone_rows: list[tuple] = [(-1,) + (0,) * n]  # x0 >= 0
    pos = []                   # the cone row of each input row
    for i, (*a, bb) in enumerate(rows, start=1):
        pos.append(len(cone_rows))
        cone_rows.append((-bb, *a))
        if i in eq:
            cone_rows.append((bb, *(-x for x in a)))
    lin, gens, cmasks = reference_dd_cone(cone_rows, n + 1)
    masks = [sum(1 << i for i, t in enumerate(pos) if m >> t & 1) for m in cmasks]
    verts = [j for j, g in enumerate(gens) if g[0]]
    recs = [j for j, g in enumerate(gens) if not g[0]]
    s = lcm(*(gens[j][0] for j in verts))
    points = [tuple(x * (s // gens[j][0]) for x in gens[j][1:]) for j in verts]
    rays = [gens[j][1:] for j in recs] + [d for l in lin for d in (l[1:], tuple(-x for x in l[1:]))]
    every = (1 << len(pos)) - 1
    return s, points, rays, [masks[j] for j in verts + recs] + [every] * (2 * len(lin))


def _combine(p: int, u: tuple[int, ...], q: int, w: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive form of p*u + q*w, for integer vectors and multipliers."""
    v = tuple(p * x + q * y for x, y in zip(u, w))
    g = gcd(*v)
    return v if g <= 1 else tuple(x // g for x in v)


_INTEGER = re.compile(r"[+-]?\d+")


def reference_parse_polyfile(text: str) -> PolyFile:
    """cli.parse_polyfile by its earlier route, kept verbatim as the oracle
    of its one-pass read: a body row is read as ints only when _INTEGER
    matches each token, and otherwise token by token by _parse_rational."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), start=1)
             if ln.strip() and not ln.lstrip().startswith("#")]
    pos = 0

    def take() -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 0
            raise PolyFileError(f"line {last}: unexpected end of file")
        pos += 1
        return lines[pos - 1]

    no, head = take()
    if head == "H-representation":
        kind = "H"
    elif head == "V-representation":
        kind = "V"
    else:
        raise PolyFileError(
            f"line {no}: expected H-representation or V-representation, got {head!r}")

    linearity: tuple[int, ...] = ()
    no, ln = take()
    if ln.split() and ln.split()[0] == "linearity":
        toks = ln.split()
        try:
            cnt = int(toks[1])
            idx = [int(t) for t in toks[2:]]
        except (IndexError, ValueError):
            raise PolyFileError(f"line {no}: malformed linearity line")
        if len(idx) != cnt or len(set(idx)) != cnt:
            raise PolyFileError(
                f"line {no}: linearity count does not match its indices")
        linearity = tuple(sorted(idx))
        no, ln = take()
    if ln != "begin":
        raise PolyFileError(f"line {no}: expected begin, got {ln!r}")

    no, ln = take()
    toks = ln.split()
    if len(toks) != 3 or toks[2] not in ("rational", "integer"):
        raise PolyFileError(
            f"line {no}: expected header 'm n rational', got {ln!r}")
    try:
        m, width = int(toks[0]), int(toks[1])
    except ValueError:
        raise PolyFileError(f"line {no}: non-integer sizes in header")
    if m < 0 or width < 1:
        raise PolyFileError(f"line {no}: invalid sizes in header")

    rows = []
    for _ in range(m):
        no, ln = take()
        toks = ln.split()
        if len(toks) != width:
            raise PolyFileError(
                f"line {no}: expected {width} entries, got {len(toks)}")
        if all(map(_INTEGER.fullmatch, toks)):
            row = tuple(map(int, toks))
        else:
            row = tuple(_parse_rational(t, no) for t in toks)
        if kind == "V" and row[0] not in (0, 1):
            raise PolyFileError(
                f"line {no}: V rows must start with 1 (vertex) or 0 (ray)")
        rows.append(row)
    no, ln = take()
    if ln != "end":
        raise PolyFileError(f"line {no}: expected end, got {ln!r}")
    body = PolyFile(kind, tuple(rows), linearity, width=width)   # checks the linearity

    objective = None
    blocks = None
    while pos < len(lines):
        no, ln = take()
        toks = ln.split()
        if toks[0] in ("maximize", "minimize"):
            if objective is not None:
                raise PolyFileError(f"line {no}: duplicate objective line")
            if len(toks) != width + 1:
                raise PolyFileError(
                    f"line {no}: objective needs {width} entries, got {len(toks) - 1}")
            objective = (toks[0], tuple(_parse_rational(t, no) for t in toks[1:]))
        elif toks[0] == "blocks":
            if blocks is not None:
                raise PolyFileError(f"line {no}: duplicate blocks line")
            try:
                blocks = tuple(int(t) for t in toks[1:])
            except ValueError:
                raise PolyFileError(f"line {no}: blocks must be integers")
            if not blocks or any(x < 1 for x in blocks):
                raise PolyFileError(f"line {no}: blocks must be positive integers")
        else:
            raise PolyFileError(f"line {no}: unknown option line {ln!r}")
    return replace(body, objective=objective, blocks=blocks)


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser as it was written by hand before the
    command table, built anew on each call: the oracle of the table-built
    parser and of the one-pass argv reader."""
    top = argparse.ArgumentParser(
        prog="polyorbit",
        description="Exact polyhedral computations up to symmetry.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="polyhedron file (H- or V-representation)")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker count (at least 1); accepted and ignored, "
                            "every subcommand runs serially")
        p.set_defaults(handler=handler)
        return p

    add("automorphisms", cmd_automorphisms,
        "group order and generators on the input rows")
    conv = add("convert", cmd_convert,
               "orbit representatives of the converted representation")
    conv.add_argument("--idm-adm-level", type=int, nargs=2, default=(0, 1),
                      metavar=("L1", "L2"),
                      help="recursion depths for the incidence / adjacency methods"
                           " (V input; checked but unused for an H input)")
    conv.add_argument("--adjacencies", action="store_true",
                      help="also emit the facet adjacency graph as DOT")
    conv.add_argument("--dot", metavar="FILE",
                      help="with --adjacencies, write the DOT graph here instead of stdout")
    cnt = add("count", cmd_count, "exact number of lattice points")
    cnt.add_argument("--symmetric", action="store_true",
                     help="count sorted points of each block, weighted by orbit size"
                          " (blocks header)")
    ehr = add("ehrhart", cmd_ehrhart,
              "Ehrhart quasi-polynomial, one coefficient row per residue class")
    ehr.add_argument("--period-bound", type=_positive_int, default=24,
                     help="largest allowed quasi-polynomial period")
    add("volume", cmd_volume, "exact volume, lattice-relative on the hull")
    add("ilp", cmd_ilp, "integral feasibility / optimization: core-point sweep with blocks,"
        " else the lex-least point or maximizer of the counting walk (10^6 prefixes a level)")
    return top


def polybench_workloads():
    """polybench.workloads of this checkout, loaded by path as _polybench."""
    if "_polybench" not in sys.modules:
        pkg = Path(__file__).parent.parent / "polybench"
        spec = importlib.util.spec_from_file_location(
            "_polybench", pkg / "__init__.py", submodule_search_locations=[str(pkg)])
        sys.modules["_polybench"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["_polybench"])
    return importlib.import_module("_polybench.workloads")


def run_jobs(jobs) -> list:
    """(exit code, stdout) of each benchmark job, run through cli.main."""
    from polyorbit.cli import main
    results = []
    for job in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(job.argv))
            except SystemExit as exc:
                code = exc.code
        results.append((code, out.getvalue()))
    return results
