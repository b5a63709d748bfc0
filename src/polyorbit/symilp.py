"""Symmetric linear and integer linear programming.

A linear program max c.x over P is invariant under a linear group when the
group permutes the inequality system and fixes c.  Every invariant LP attains
its optimum on the fixed space of the group (average an optimal orbit), so it
collapses to a lower-dimensional LP there.  Integral solutions need not lie in
the fixed space, but they are never far from it: fibers of the projection onto
the fixed space carry balanced integral "core points" whose orbit hull holds
no other integral points, and for direct products of symmetric groups acting
on coordinate blocks a single balanced point per fiber decides integral
feasibility of the whole fiber.

The block machinery indexes fibers by integer block sums; the barycenters of
integral orbits form the scaled lattice with steps 1/n_j per block.  An
invariant P holds the barycenter of each of its points, with the same block
sums, so block_sum_image reads the block sums of P off one double
description of P on the fixed space, in one coordinate per block; the ILP
sweep and the slice decomposition of latcount take their ranges from it
without an LP.  The sweep tests each fiber's balanced point against the
rows of P scaled once to integers, so its hot loop is integer arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from operator import mul
from typing import Optional, Sequence, Union

from .polycore import (
    EmptyPolyhedronError,
    HPolyhedron,
    LPResult,
    Matrix,
    PolyhedronError,
    VPolyhedron,
    Vector,
    convert_dd,
    dot,
    identity_matrix,
    integerize,
    invert_matrix,
    mat_mul,
    mat_vec,
    nullspace,
    primitive,
    rank,
    row_space_basis,
    solve_lp,
    transpose,
    vec_sub,
    vector,
    zero_vector,
)
from .polycore import AffineMap
from .permgrp import OrbitBudgetExceeded, Permutation, PermutationGroup

GroupLike = Union[PermutationGroup, Sequence]


@dataclass(frozen=True)
class LinearProgram:
    """max c.x over P."""
    P: HPolyhedron
    c: Vector

    def __post_init__(self):
        object.__setattr__(self, "c", vector(self.c))
        if len(self.c) != self.P.n:
            raise PolyhedronError("objective length does not match dimension")


@dataclass(frozen=True)
class InvariantSubspace:
    """Fixed space of a linear action, with the invariant projector onto it.

    basis spans {x : g x = x for every generator g}.  projector is the
    projection onto that space along the unique invariant complement (the sum
    of the images of g - id); for orthogonal actions, permutation matrices
    included, this is the orthogonal projection.  It satisfies
    projector @ projector = projector and projector @ g = g @ projector =
    projector for every generator.
    """
    basis: Matrix
    projector: Matrix

    @property
    def dim(self) -> int:
        return len(self.basis)

    def project(self, x: Sequence) -> Vector:
        return mat_vec(self.projector, x)


@dataclass(frozen=True)
class CorePoint:
    """Integral point whose orbit hull contains no other integral points."""
    z: Vector
    orbit_size: int


# ---------------------------------------------------------------------------
# normalizing group specifications to lists of rational matrices


def _perm_matrix(p: Permutation) -> Matrix:
    n = p.degree
    rows = [[Fraction(0)] * n for _ in range(n)]
    # x  |->  M x  with (M x)_{p(i)} = x_i
    for i in range(1, n + 1):
        rows[p(i) - 1][i - 1] = Fraction(1)
    return tuple(tuple(r) for r in rows)


def _linear_action(G: GroupLike, n: Optional[int] = None) -> tuple[list, int]:
    """Normalize a group spec to (generator matrices, dimension).

    Accepts a PermutationGroup (coordinate action), a block decomposition
    (sequence of ints), or an iterable of Permutation / AffineMap /
    matrix-like generators.  AffineMap generators must have zero translation.
    """
    if isinstance(G, PermutationGroup):
        if n is not None and G.degree != n:
            raise PolyhedronError("group degree does not match dimension")
        return [_perm_matrix(p) for p in G.generators], G.degree
    items = list(G)
    if items and all(isinstance(x, int) for x in items):
        return _linear_action(block_group(items), n)
    mats = []
    for g in items:
        if isinstance(g, Permutation):
            mats.append(_perm_matrix(g))
        elif isinstance(g, AffineMap):
            if any(v != 0 for v in g.t):
                raise PolyhedronError("generator must act linearly (zero translation)")
            mats.append(g.A)
        else:
            mats.append(tuple(vector(row) for row in g))
    for m in mats:
        if any(len(row) != len(m) for row in m):
            raise PolyhedronError("generator matrix is not square")
    dims = {len(m) for m in mats}
    if len(dims) > 1:
        raise PolyhedronError("generators act on different dimensions")
    if n is None:
        if not mats:
            raise PolyhedronError("dimension required with an empty generator list")
        n = len(mats[0])
    elif dims and dims != {n}:
        raise PolyhedronError("generator dimension does not match")
    return mats, n


# ---------------------------------------------------------------------------
# fixed space and invariant projector


def invariant_subspace(generators: GroupLike, n: Optional[int] = None) -> InvariantSubspace:
    """Fixed space of the generated group and the invariant projector onto it.

    The trivial group fixes the whole space.  Raises PolyhedronError when the
    fixed space has no invariant complement spanned by the images of g - id,
    which happens exactly when some generator has infinite order.
    """
    mats, n = _linear_action(generators, n)
    eye = identity_matrix(n)
    if not mats:
        return InvariantSubspace(eye, eye)
    diffs = [tuple(vec_sub(g[i], eye[i]) for i in range(n)) for g in mats]
    fixed = nullspace([row for d in diffs for row in d], n)
    # complement: the span of all columns of the g - id
    comp = row_space_basis([col for d in diffs for col in transpose(d)])
    k = len(fixed)
    if rank(fixed + comp) != n:
        raise PolyhedronError(
            "fixed space and complement do not span; generators must have finite order")
    if k == 0:
        proj = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
        return InvariantSubspace((), proj)
    M = transpose(fixed + comp)
    Minv = invert_matrix(M)
    proj = mat_mul(transpose(fixed), Minv[:k])
    return InvariantSubspace(fixed, proj)


def check_invariance(lp: LinearProgram, G: GroupLike) -> bool:
    """True iff every generator permutes the normalized rows and fixes c.

    Row i is compared as the primitive vector (a_i | b_i) together with its
    equality flag; c is fixed when c.(g x) = c.x for all x.  A permutation
    matrix is its own inverse transpose, so a PermutationGroup moves row
    coordinates directly instead of multiplying matrices.
    """
    P, c = lp.P, lp.c
    eq = set(P.equality_rows)
    prims = [(primitive(P.A[i] + (P.b[i],)), (i + 1) in eq) for i in range(P.m)]
    base = sorted(prims)
    if isinstance(G, PermutationGroup):
        if G.degree != P.n:
            raise PolyhedronError("group degree does not match dimension")
        for g in G.generators:
            # (g x)_{g(i)} = x_i; rows move the same way, since (g^-1)^T = g
            src = g.inverse().images
            if tuple(c[k - 1] for k in g.images) != c:
                return False
            rows = sorted((tuple(r[k - 1] for k in src) + (r[-1],), flag)
                          for r, flag in prims)
            if rows != base:
                return False
        return True
    mats, _ = _linear_action(G, P.n)
    for g in mats:
        if mat_vec(transpose(g), c) != c:
            return False
        ginv_t = transpose(invert_matrix(g))
        rows = sorted(
            (primitive(mat_vec(ginv_t, P.A[i]) + (P.b[i],)), (i + 1) in eq)
            for i in range(P.m))
        if rows != base:
            return False
    return True


def solve_lp_reduced(lp: LinearProgram, G: GroupLike) -> LPResult:
    """Solve an invariant LP on the fixed space of G.

    Substitutes x = B y for a basis B of the fixed space, solves the reduced
    program exactly and maps the argmax back; the optimum equals the full
    one.  Infeasible and unbounded pass through as statuses.
    """
    mats, n = _linear_action(G, lp.P.n)
    if not check_invariance(lp, G):
        raise PolyhedronError("linear program is not invariant under the group")
    sub = invariant_subspace(mats, n)
    k = sub.dim
    if k == 0:
        origin = zero_vector(n)
        if lp.P.contains(origin):
            return LPResult("optimal", Fraction(0), origin)
        return LPResult("infeasible")
    B = transpose(sub.basis)  # n x k, columns span the fixed space
    red = HPolyhedron(mat_mul(lp.P.A, B), lp.P.b, lp.P.equality_rows)
    res = solve_lp(red, mat_vec(transpose(B), lp.c))
    if not res.is_optimal:
        return res
    return LPResult("optimal", res.value, mat_vec(B, res.point))


# ---------------------------------------------------------------------------
# orbits of points


def _point_orbit(mats: Sequence[Matrix], z: Vector, budget: int) -> set:
    seen = {z}
    frontier = [z]
    while frontier:
        new = []
        for p in frontier:
            for g in mats:
                q = mat_vec(g, p)
                if q not in seen:
                    if len(seen) >= budget:
                        raise OrbitBudgetExceeded(
                            f"point orbit exceeds budget {budget}")
                    seen.add(q)
                    new.append(q)
        frontier = new
    return seen


def orbit_barycenter(G: GroupLike, z: Sequence, budget: int = 200_000) -> Vector:
    """Exact barycenter of the orbit of z; equals the invariant projection."""
    z = vector(z)
    mats, _ = _linear_action(G, len(z))
    orbit = _point_orbit(mats, z, budget)
    total = zero_vector(len(z))
    for p in orbit:
        total = tuple(a + b for a, b in zip(total, p))
    return tuple(v / len(orbit) for v in total)


# ---------------------------------------------------------------------------
# block symmetric-group products


def check_blocks(blocks, n: Optional[int] = None) -> tuple[int, ...]:
    """Validated block sizes (n1, ..., nk), summing to n when n is given."""
    if isinstance(blocks, PermutationGroup):
        raise PolyhedronError(
            "a block decomposition (n1, ..., nk) is required, not a general group")
    out = tuple(blocks)
    if not out or any(not isinstance(x, int) or x < 1 for x in out):
        raise PolyhedronError("blocks must be positive integers")
    if n is not None and sum(out) != n:
        raise PolyhedronError("block sizes must sum to the dimension")
    return out


def block_group(blocks: Sequence[int]) -> PermutationGroup:
    """Direct product of symmetric groups on consecutive coordinate blocks."""
    blocks = check_blocks(blocks)
    n = sum(blocks)
    gens = []
    off = 0
    for nb in blocks:
        if nb >= 2:
            gens.append(Permutation.from_cycles(n, [(off + 1, off + 2)]))
        if nb >= 3:
            gens.append(Permutation.from_cycles(n, [tuple(range(off + 1, off + nb + 1))]))
        off += nb
    return PermutationGroup(gens, degree=n)


def canonical_core_point(blocks: Sequence[int], sums: Sequence[int]) -> CorePoint:
    """Balanced integral point of the fiber with the given block sums.

    Per block, (s mod n) coordinates equal ceil(s/n) and the rest floor(s/n),
    written in descending order.  Its orbit is the set of arrangements within
    each block, of size prod C(n_j, s_j mod n_j).
    """
    blocks = check_blocks(blocks)
    if len(sums) != len(blocks):
        raise PolyhedronError("one integer sum per block is required")
    coords = []
    size = 1
    for nb, s in zip(blocks, sums):
        if not isinstance(s, int):
            raise PolyhedronError("block sums must be integers")
        q, r = divmod(s, nb)
        coords.extend([Fraction(q + 1)] * r + [Fraction(q)] * (nb - r))
        size *= math.comb(nb, r)
    return CorePoint(tuple(coords), size)


def is_core_point(G: GroupLike, z: Sequence, budget: int = 200_000) -> Optional[bool]:
    """Whether conv(orbit of z) contains no integral points beyond the orbit.

    Decides by expanding the orbit, converting its hull and scanning the
    bounding box with exact membership tests.  Returns None when either the
    orbit or the box exceeds the budget: explicitly unknown, never a guess.
    """
    z = vector(z)
    if any(v.denominator != 1 for v in z):
        raise PolyhedronError("a core point candidate must be integral")
    mats, _ = _linear_action(G, len(z))
    try:
        orbit = _point_orbit(mats, z, budget)
    except OrbitBudgetExceeded:
        return None
    pts = sorted(orbit)
    hull = convert_dd(VPolyhedron.from_points(pts))
    ranges = []
    cells = 1
    for i in range(len(z)):
        lo = math.ceil(min(p[i] for p in pts))
        hi = math.floor(max(p[i] for p in pts))
        ranges.append(range(lo, hi + 1))
        cells *= max(hi - lo + 1, 0)
        if cells > budget:
            return None
    for cand in product(*ranges):
        p = vector(cand)
        if p not in orbit and hull.contains(p):
            return False
    return True


# ---------------------------------------------------------------------------
# integral feasibility and optimization by fiber sweep


def _block_sums(blocks: tuple[int, ...], x: Vector) -> tuple[Fraction, ...]:
    return tuple(sum(x[off:off + nb], Fraction(0))
                 for off, nb in zip(accumulate(blocks, initial=0), blocks))


def fixed_space_system(P: HPolyhedron, blocks: Sequence[int]) -> HPolyhedron:
    """P on the fixed space of the block group, in block coordinates y.

    Substitutes x = sum_j y_j 1_{block j}: row i becomes (its sum over each
    block | b_i).  The rows of one orbit coincide there; duplicates are
    dropped.
    """
    blocks = check_blocks(blocks, P.n)
    eq = set(P.equality_rows)
    rows = {}
    for i, (a, bb) in enumerate(zip(P.A, P.b), start=1):
        rows.setdefault((_block_sums(blocks, a), bb, i in eq), None)
    keys = list(rows)
    return HPolyhedron(tuple(k[0] for k in keys), tuple(k[1] for k in keys),
                       tuple(t for t, k in enumerate(keys, start=1) if k[2]))


def block_sum_image(P: HPolyhedron, blocks: Sequence[int]) -> Optional[VPolyhedron]:
    """The block-sum vectors (s_1, ..., s_k) of the points of a block-invariant
    P, as vertices and rays; None when P is empty.

    An invariant convex P holds the barycenter of each of its points, and the
    barycenter has the same block sums, so the block sums of P are those of
    P on the fixed space.  One conversion of fixed_space_system(P, blocks)
    gives that set in y, and s_j = n_j y_j scales it (a line comes as two
    opposite rays).
    """
    try:
        V = convert_dd(fixed_space_system(P, blocks))
    except EmptyPolyhedronError:
        return None
    return VPolyhedron(*(tuple(tuple(nb * x for nb, x in zip(blocks, g)) for g in gens)
                         for gens in (V.vertices, V.rays)))


def coordinate_bounds(V: VPolyhedron) -> list[tuple[Optional[Fraction], Optional[Fraction]]]:
    """(min, max) of each coordinate over a nonempty V; a side is None when
    some ray leaves in that direction."""
    return [(None if any(r[t] < 0 for r in V.rays) else min(v[t] for v in V.vertices),
             None if any(r[t] > 0 for r in V.rays) else max(v[t] for v in V.vertices))
            for t in range(V.n)]


# block-sum vectors a sweep may probe: the product of the block-sum ranges
_FIBER_BUDGET = 1_000_000


def _sum_ranges(P, blocks):
    """Integer ranges of the block sums over P, or None when P is empty.

    The exact extent of each block sum is read off block_sum_image; an
    unbounded direction is an error rather than a truncation, and so is a
    product of ranges past _FIBER_BUDGET.  P must be invariant under the
    block group.
    """
    image = block_sum_image(P, blocks)
    if image is None:
        return None
    ranges = []
    total = 1
    for lo, hi in coordinate_bounds(image):
        if lo is None or hi is None:
            raise PolyhedronError("projection onto the invariant subspace is unbounded")
        ranges.append(range(math.ceil(lo), math.floor(hi) + 1))
        total *= len(ranges[-1])
        if total > _FIBER_BUDGET:
            raise PolyhedronError(f"fiber enumeration exceeds budget {_FIBER_BUDGET}")
    return ranges


def _sweep(P, blocks, cands):
    """First fiber in list order whose balanced point lies in P, and the
    number of fibers probed: (point, its 1-based position), or
    (None, len(cands)) when no balanced point lies in P.

    The candidates are block sums within the ranges of _sum_ranges.  Each
    row (a_i | b_i) of P is scaled once to integers by the lcm of its
    denominators, a positive factor, so a probe of the integral balanced
    point takes integer dot products only.  The sweep is serial.
    """
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


def _require_block_invariance(P, blocks, c):
    G = block_group(blocks)
    if not check_invariance(LinearProgram(P, c), G):
        raise PolyhedronError("the system is not invariant under the block group")


def _scale_to_int(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, d * values) for d the lcm of the denominators: a positive factor,
    so sums and comparisons keep their order and ties."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def symmetric_ilp(P: HPolyhedron, blocks: Sequence[int], c: Optional[Sequence] = None
                  ) -> tuple[Optional[Vector], int]:
    """Integral feasibility (c None) or max c.x over a block-symmetric P.

    Returns (point, fibers tested): the balanced point of the first fiber in
    sweep order that lies in P and its 1-based position in that order, or
    (None, number of fibers) when there is none, (None, 0) when P is empty.

    Fibers are indexed by integer block sums within their exact extent over
    P, read off block_sum_image; an unbounded extent, or more than
    _FIBER_BUDGET fibers, is refused.  Feasibility takes them nearest
    to the point of one LP relaxation first, optimization in decreasing
    fiber objective; ties go to the lexicographically smaller sums.  Per
    fiber only the balanced point needs testing: it is majorized blockwise
    by every integral point with the same sums, so an invariant convex set
    containing any of them contains it.
    """
    blocks = check_blocks(blocks, P.n)
    goal = zero_vector(P.n) if c is None else vector(c)
    _require_block_invariance(P, blocks, goal)
    ranges = _sum_ranges(P, blocks)
    if ranges is None:
        return None, 0
    if c is not None:
        # invariance forces c constant per block, so the objective on a
        # fiber is a linear function of the block sums
        _, cb = _scale_to_int([cs / nb for cs, nb in zip(_block_sums(blocks, goal), blocks)])

        def key(s):
            return -sum(map(mul, cb, s)), s
    else:
        rel = solve_lp(P, zero_vector(P.n))
        if rel.status == "infeasible":
            return None, 0
        # d times the l1 distance of the block sums to the relaxation's
        d, ref = _scale_to_int(_block_sums(blocks, rel.point))

        def key(s):
            return sum(abs(sj * d - rj) for sj, rj in zip(s, ref)), s
    return _sweep(P, blocks, sorted(product(*ranges), key=key))


def symmetric_ilp_feasible(P: HPolyhedron, blocks: Sequence[int]) -> Optional[Vector]:
    """An integral point of a block-symmetric P, or None when there is none.

    The feasibility sweep of symmetric_ilp, nearest to the relaxation point
    first; infeasible only after every fiber is exhausted.
    """
    return symmetric_ilp(P, blocks)[0]


def symmetric_ilp_optimize(P: HPolyhedron, blocks: Sequence[int], c: Sequence
                           ) -> Optional[tuple[Fraction, Vector]]:
    """max c.x over the integral points of a block-symmetric P.

    An invariant objective is constant on each block (so constant on every
    fiber), which turns optimization into the feasibility sweep taken in
    decreasing fiber objective.  Returns (optimum, argmax) or None when no
    integral point exists; the projection bounds rule out unbounded
    objectives.
    """
    c = vector(c)
    hit, _ = symmetric_ilp(P, blocks, c)
    if hit is None:
        return None
    return dot(c, hit), hit
