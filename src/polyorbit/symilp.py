"""Symmetric linear and integer linear programming.

Groups act by permuting coordinates: g sends x to the vector with
(g x)_{g(i)} = x_i.  A linear program max c.x over P is invariant under such
a group when the group permutes the inequality system and fixes c.  The
fixed space of the group is spanned by the indicator vectors of its point
orbits, and the invariant (Reynolds) projection onto it averages x over each
orbit, so both are read off the point orbits without elimination.  Every
invariant LP attains its optimum on the fixed space (average an optimal
orbit), so it collapses to an LP in one variable per orbit.  Integral
solutions need not lie in the fixed space, but they are never far from it:
fibers of the projection onto the fixed space carry balanced integral "core
points" whose orbit hull holds no other integral points, and for direct
products of symmetric groups acting on coordinate blocks a single balanced
point per fiber decides integral feasibility of the whole fiber.

The block machinery indexes fibers by integer block sums; the barycenters of
integral orbits form the scaled lattice with steps 1/n_j per block.  The ILP
reads P.int_rows, the primitive integer rows (a | b), in one pass into row
orbits keyed by their entries sorted within each block; P is invariant when
each orbit lists all its arrangements equally often.  An invariant P holds the
barycenter of each of its points, with the same block sums, so the block sums
of P are read off one integer_h_to_v of P on the fixed space, one row per
orbit in one coordinate per block; the ILP's integer box and block_sum_image,
whence latcount's slice decomposition takes its ranges, come from it, without
an LP.  Fibers are ordered by integer keys summed from per-block terms, as one
stable sort of their indices orders them: the first takes the first least
term of each block, and the keys, the product and the sort of the rest are
built only when the sweep rejects it.  The LP whose point orders a
feasibility sweep pivots P.int_rows too.  The sweep tests each fiber's
balanced point against each row orbit in integers, in closed form by the
rearrangement inequality, from one memo table per orbit and block keyed by
the block sum, the orbit that rejected the last probe first.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, islice, product
from operator import getitem, mul
from typing import Optional, Sequence, Union

from .polycore import (
    HPolyhedron,
    LPResult,
    Matrix,
    PolyhedronError,
    VPolyhedron,
    Vector,
    clear_denominators,
    convert_dd,
    dot,
    integer_h_to_v,
    solve_lp,
    vector,
    zero_vector,
)
from .permgrp import OrbitBudgetExceeded, Permutation, PermutationGroup
from .record import Record

GroupLike = Union[PermutationGroup, Sequence]


class LinearProgram(Record):
    """max c.x over P."""
    P: HPolyhedron
    c: Vector

    def __post_init__(self):
        object.__setattr__(self, "c", vector(self.c))
        if len(self.c) != self.P.n:
            raise PolyhedronError("objective length does not match dimension")


class InvariantSubspace(Record):
    """Fixed space of a coordinate permutation group on n coordinates: its
    point orbits, ordered by their largest point.

    project replaces each coordinate by the mean of x over its orbit, the
    orthogonal projection onto the span of the orbit indicators.  basis
    holds those indicators and projector the projection's matrix, built on
    read: symmetric, so row j projects e_j, and projector @ g = g @
    projector = projector @ projector = projector for every element g.
    """
    orbits: tuple[frozenset, ...]
    n: int

    @property
    def dim(self) -> int:
        return len(self.orbits)

    @property
    def basis(self) -> Matrix:
        return tuple(tuple(Fraction(int(i in orb)) for i in range(1, self.n + 1))
                     for orb in self.orbits)

    @property
    def projector(self) -> Matrix:
        return tuple(self.project([int(i == j) for i in range(self.n)]) for j in range(self.n))

    def project(self, x: Sequence) -> Vector:
        mean = {i: Fraction(sum(x[j - 1] for j in orb), len(orb))
                for orb in self.orbits for i in orb}
        return tuple(mean[i] for i in range(1, self.n + 1))


class CorePoint(Record):
    """Integral point whose orbit hull contains no other integral points."""
    z: Vector
    orbit_size: int


def _generators(G: GroupLike, n: Optional[int] = None) -> tuple[tuple, int]:
    """Generators and degree of a group spec, with nothing built.

    Accepts a PermutationGroup, block sizes (ints, returned validated in place
    of generators) or a sequence of Permutation generators; an empty sequence
    is the trivial group and needs n.  Anything else, or a degree other than
    n, raises PolyhedronError.
    """
    if isinstance(G, PermutationGroup):
        gens, degree = G.generators, G.degree
    else:
        try:
            items = list(G)
        except TypeError:
            raise PolyhedronError("a group, block sizes or permutations are required") from None
        if items and all(isinstance(x, int) for x in items):
            gens, degree = check_blocks(items), sum(items)
        elif not all(isinstance(g, Permutation) for g in items):
            raise PolyhedronError("generators must be permutations of the coordinates")
        elif not items and n is None:
            raise PolyhedronError("dimension required with an empty generator list")
        else:
            gens, degree = tuple(items), items[0].degree if items else n
            if any(g.degree != degree for g in gens):
                raise PolyhedronError("generators act on different dimensions")
    if n is not None and degree != n:
        raise PolyhedronError("group degree does not match dimension")
    return gens, degree


def _permutation_group(G: GroupLike, n: Optional[int] = None) -> PermutationGroup:
    """A group spec, as _generators accepts it, as a PermutationGroup."""
    gens, degree = _generators(G, n)
    if gens and isinstance(gens[0], int):
        gens = _block_generators(gens)
    return G if isinstance(G, PermutationGroup) else PermutationGroup(gens, degree=degree)


# ---------------------------------------------------------------------------
# fixed space and invariant projector


def invariant_subspace(generators: GroupLike, n: Optional[int] = None) -> InvariantSubspace:
    """Fixed space of the generated group and the invariant projector onto it,
    read off the point orbits.  The trivial group fixes the whole space."""
    G = _permutation_group(generators, n)
    return InvariantSubspace(tuple(sorted(G.point_orbits(), key=max)), G.degree)


def _primitive_rows(P: HPolyhedron) -> list[tuple[tuple[int, ...], bool]]:
    """Each primitive integer row (a_i | b_i) of P.int_rows with its equality
    flag: the one form in which symilp reads a system."""
    eq = set(P.equality_rows)
    return [(row, i in eq) for i, row in enumerate(P.int_rows, start=1)]


def _permutes_rows(rows, gens) -> bool:
    """True iff every generator permutes the rows, listed as _primitive_rows."""
    base = sorted(rows)
    for g in gens:
        # (g x)_{g(i)} = x_i; rows move the same way, since (g^-1)^T = g
        src = g.inverse().images
        if sorted((tuple(r[k - 1] for k in src) + (r[-1],), flag)
                  for r, flag in rows) != base:
            return False
    return True


@cache
def _arrangements(e: tuple) -> int:
    """The number of distinct orderings of e: len(e)! / prod_v m_v!, v held m_v times."""
    return math.factorial(len(e)) // math.prod(map(math.factorial, map(e.count, set(e))))


def _row_orbits(rows, blocks: tuple[int, ...]) -> Optional[list]:
    """Orbits of rows = _primitive_rows(P) under the block group, in first-row
    order, as entries sorted descending per block, b and equality flag; None
    unless each orbit lists every arrangement within the blocks, equally often."""
    spans = [slice(off, off + nb) for off, nb in zip(accumulate(blocks, initial=0), blocks)]
    orbits: dict = {}
    for r, is_eq in rows:
        seen = orbits.setdefault(
            (tuple([tuple(sorted(r[sl], reverse=True)) for sl in spans]), r[-1], is_eq), {})
        seen[r] = seen.get(r, 0) + 1
    for (ups, _, _), seen in orbits.items():
        if len(seen) != math.prod(map(_arrangements, ups)) or len(set(seen.values())) > 1:
            return None
    return list(orbits)


def check_invariance(lp: LinearProgram, G: GroupLike) -> bool:
    """True iff the group permutes the normalized rows and fixes c.

    Rows are the primitive (a_i | b_i) with their equality flags, and c the
    one row (c | 0).  Block sizes are judged by _row_orbits, other groups
    generator by generator: a permutation matrix is its own inverse
    transpose, so rows move like points; no matrix or chain is built.
    """
    gens, _ = _generators(G, lp.P.n)
    both = (_primitive_rows(lp.P), [(lp.c + (0,), False)])
    if gens and isinstance(gens[0], int):
        return all(_row_orbits(rows, gens) is not None for rows in both)
    return all(_permutes_rows(rows, gens) for rows in both)


def solve_lp_reduced(lp: LinearProgram, G: GroupLike) -> LPResult:
    """Solve an invariant LP on the fixed space of G.

    Folds each integer row (a | b) of P.int_rows, and c, to their sums over
    each point orbit of invariant_subspace(G), in its order: one variable
    per orbit.  Solves the reduced program exactly and reads the argmax back
    orbit by orbit; the optimum equals the full one.  Infeasible and
    unbounded pass through as statuses.
    """
    G = _permutation_group(G, lp.P.n)
    if not check_invariance(lp, G):
        raise PolyhedronError("linear program is not invariant under the group")
    orbits = invariant_subspace(G).orbits

    def fold(x):
        return tuple(sum(x[i - 1] for i in orb) for orb in orbits)

    red = HPolyhedron.of_rows([fold(r) + r[-1:] for r in lp.P.int_rows], lp.P.equality_rows)
    res = solve_lp(red, fold(lp.c))
    if not res.is_optimal:
        return res
    y = {i: v for orb, v in zip(orbits, res.point) for i in orb}
    return LPResult("optimal", res.value, tuple(y[i] for i in range(1, lp.P.n + 1)))


# ---------------------------------------------------------------------------
# orbits of points


def _point_orbit(G: PermutationGroup, z: Vector, budget: int) -> set:
    """The orbit of z under G, expanded by permuting its coordinates; raises
    OrbitBudgetExceeded past budget points."""
    seen = {z}
    frontier = [z]
    while frontier:
        new = []
        for p in frontier:
            for g in G.generators:
                q = tuple(p[k - 1] for k in g.images)
                if q not in seen:
                    if len(seen) >= budget:
                        raise OrbitBudgetExceeded(
                            f"point orbit exceeds budget {budget}")
                    seen.add(q)
                    new.append(q)
        frontier = new
    return seen


def orbit_barycenter(G: GroupLike, z: Sequence) -> Vector:
    """Exact barycenter of the orbit of z: the mean of z over each coordinate
    orbit, which is the invariant projection of z.  No orbit is expanded."""
    z = vector(z)
    return invariant_subspace(G, len(z)).project(z)


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


def _block_generators(blocks: tuple[int, ...]) -> tuple[Permutation, ...]:
    """A transposition and a full cycle per block (fewer for blocks of size
    under 3): generators of the symmetric groups on consecutive blocks."""
    n = sum(blocks)
    gens = []
    off = 0
    for nb in blocks:
        if nb >= 2:
            gens.append(Permutation.from_cycles(n, [(off + 1, off + 2)]))
        if nb >= 3:
            gens.append(Permutation.from_cycles(n, [tuple(range(off + 1, off + nb + 1))]))
        off += nb
    return tuple(gens)


def block_group(blocks: Sequence[int]) -> PermutationGroup:
    """Direct product of symmetric groups on consecutive coordinate blocks."""
    return _permutation_group(check_blocks(blocks))


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
    try:
        orbit = _point_orbit(_permutation_group(G, len(z)), z, budget)
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
        if cand not in orbit and hull.contains(cand):
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


def _block_sum_dd(orbits, blocks: tuple[int, ...]):
    """P on the fixed space of the block group, in one coordinate y_j per
    block with x = sum_j y_j 1_{block j}, as one integer double description:
    polycore.integer_h_to_v of its rows, (s, points, rays, masks), with no
    points when P is empty.

    orbits are _row_orbits of P; each becomes (its sum over each block | b),
    duplicates are dropped, and a row is an equality when any orbit is.
    """
    sums: dict = {}
    for ups, bb, is_eq in orbits:
        row = tuple(map(sum, ups)) + (bb,)
        sums[row] = sums.get(row, False) or is_eq
    return integer_h_to_v(list(sums), len(blocks), [i for i, e in enumerate(sums.values(), 1) if e])


def block_sum_image(P: HPolyhedron, blocks: Sequence[int]) -> Optional[VPolyhedron]:
    """The block-sum vectors (s_1, ..., s_k) of the points of a block-invariant
    P, as vertices and rays; None when P is empty, an error when not invariant.

    An invariant convex P holds the barycenter of each of its points, and the
    barycenter has the same block sums, so the block sums of P are those of
    P on the fixed space.  One integer double description of that system in
    y gives the set, and s_j = n_j y_j scales it: VPolyhedron.of_points of
    n_j p_j over s in lowest terms (a line comes as two opposite rays).
    """
    blocks = check_blocks(blocks, P.n)
    if (orbits := _row_orbits(_primitive_rows(P), blocks)) is None:
        raise PolyhedronError("the system is not invariant under the block group")
    s, points, rays, _ = _block_sum_dd(orbits, blocks)
    if not points:
        return None
    points = [tuple(map(mul, blocks, p)) for p in points]
    g = math.gcd(s, *(x for p in points for x in p))
    return VPolyhedron.of_points(s // g, [tuple(x // g for x in p) for p in points],
                                 [tuple(map(mul, blocks, r)) for r in rays])


# block-sum vectors a sweep may probe: the product of the block-sum ranges
_FIBER_BUDGET = 1_000_000


def _sum_ranges(orbits, blocks):
    """Integer ranges of the block sums over P, or None when P is empty.

    orbits are _row_orbits of P.  The extent of s_t is read off _block_sum_dd:
    ceil and floor of n_t y_t over its vertices y = p / s, in integers.  An
    unbounded direction is an error rather than a truncation, and so is a
    product of ranges past _FIBER_BUDGET.
    """
    s, points, rays, _ = _block_sum_dd(orbits, blocks)
    if not points:
        return None
    ranges = []
    total = 1
    for t, nb in enumerate(blocks):
        if any(r[t] for r in rays):
            raise PolyhedronError("projection onto the invariant subspace is unbounded")
        ranges.append(range(min(-(-nb * p[t] // s) for p in points),
                            max(nb * p[t] // s for p in points) + 1))
        total *= len(ranges[-1])
        if total > _FIBER_BUDGET:
            raise PolyhedronError(f"fiber enumeration exceeds budget {_FIBER_BUDGET}")
    return ranges


class _BlockValues(dict):
    """A row's entries e in one block, read at the balanced point of block sum
    s = q n + r, where e[:r] take q + 1: q sum(e) + sum(e[:r]), on first read."""

    def __init__(self, e):
        self.t = tuple(accumulate(e, initial=0))

    def __missing__(self, s):
        q, r = divmod(s, len(self.t) - 1)
        self[s] = q * self.t[-1] + self.t[r]
        return self[s]


def _sweep(orbits, blocks, cands):
    """First fiber in list order whose balanced point lies in P, and the
    number of fibers probed: (point, its 1-based position), or
    (None, number of candidates) when no balanced point lies in P.

    orbits are _row_orbits of P; the candidates are integer block sums.  The
    balanced point z lies in P exactly when, for each row orbit, the largest
    value of a row of the orbit at z is at most b, and for an equality orbit
    the smallest is at least b.  By the rearrangement inequality, with s_j =
    q_j n_j + r_j, that largest value sums over the blocks q_j times the
    block's total plus its r_j largest entries (the smallest, its r_j
    smallest), read off one memo table per orbit and block, keyed by s_j; a
    probe builds no point.  The orbit that rejected the last probe is tested
    first, which never changes the fiber accepted.  The sweep is serial.
    """
    tests = [(tuple(map(_BlockValues, ups)),
              tuple(_BlockValues(e[::-1]) for e in ups) if is_eq else None, bi)
             for ups, bi, is_eq in orbits]
    tested = 0
    for tested, s in enumerate(cands, start=1):
        for k, (highs, lows, bi) in enumerate(tests):
            if sum(map(getitem, highs, s)) > bi or \
                    lows is not None and sum(map(getitem, lows, s)) < bi:
                if k:
                    tests.insert(0, tests.pop(k))
                break
        else:
            return canonical_core_point(blocks, s).z, tested
    return None, tested


def symmetric_ilp(P: HPolyhedron, blocks: Sequence[int], c: Optional[Sequence] = None
                  ) -> tuple[Optional[Vector], int]:
    """Integral feasibility (c None) or max c.x over a block-symmetric P.

    Returns (point, fibers tested): the balanced point of the first fiber in
    sweep order that lies in P and its 1-based position in that order, or
    (None, number of fibers) when there is none, (None, 0) when P is empty.

    The invariance check, the fiber ranges and the sweep share the row orbits
    of P.int_rows, read once.  Fibers are indexed by integer block sums within
    their exact extent over P, read off one integer double description of P on
    the fixed space; an unbounded extent, or more than _FIBER_BUDGET fibers,
    is refused.  Feasibility takes them nearest (in l1 distance of the block
    sums) to the point of one LP relaxation first, which solve_lp reads off
    P.int_rows, so the order is the polyhedron's; optimization in decreasing
    fiber objective, by integer keys summed from per-block terms; ties go to
    the lexicographically smaller sums; _fiber_order finds the first fiber
    with no sort, and sorts the rest only if the sweep rejects it.  Per
    fiber only the balanced point needs testing: it is majorized blockwise
    by every integral point with the same sums, so an invariant convex set
    containing any of them contains it.
    """
    blocks = check_blocks(blocks, P.n)
    lp = LinearProgram(P, zero_vector(P.n) if c is None else c)
    if (orbits := _row_orbits(_primitive_rows(P), blocks)) is None:
        raise PolyhedronError("the system is not invariant under the block group")
    if _row_orbits([(lp.c + (0,), False)], blocks) is None:
        raise PolyhedronError("the objective is not constant on each block")
    ranges = _sum_ranges(orbits, blocks)
    if ranges is None:
        return None, 0
    if c is not None:
        # c is constant per block, so the objective on a fiber is linear in the block sums
        _, (cb,) = clear_denominators(
            [[cs / nb for cs, nb in zip(_block_sums(blocks, lp.c), blocks)]])
        terms = [[-cj * s for s in r] for cj, r in zip(cb, ranges)]
    else:
        rel = solve_lp(P, lp.c)
        if rel.status == "infeasible":
            return None, 0
        # d times the l1 distance of the block sums to the relaxation's
        d, (ref,) = clear_denominators([_block_sums(blocks, rel.point)])
        terms = [[abs(s * d - rj) for s in r] for rj, r in zip(ref, ranges)]
    return _sweep(orbits, blocks, _fiber_order(ranges, terms))


def _fiber_order(ranges, terms):
    """The block sums s of product(*ranges) in one stable sort of their
    indices by key, the sum over the blocks j of terms[j][i_j] for s_j =
    ranges[j][i_j]: the fibers in sweep order, as an iterator.

    Product order is lexicographic, so the sort breaks ties as a sort on
    (key, s) would.  A key is least where each term is, so the first fiber
    takes the first least term of each block; the keys, the product and the
    sort of the rest are built only if the sweep asks for a second fiber.
    """
    if not all(terms):
        return iter(())

    def rest():
        keys = [0]
        for tj in terms:
            keys = [k + x for k in keys for x in tj]
        cands = list(product(*ranges))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return map(cands.__getitem__, islice(order, 1, None))

    first = tuple(r[t.index(min(t))] for r, t in zip(ranges, terms))
    # chained without a generator step per fiber
    return chain.from_iterable(part() for part in (lambda: [first], rest))


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
