"""Lattice-point counting, Ehrhart interpolation, and symmetric slicing.

Everything is built on one exact enumeration backbone: integer points are
listed coordinate by coordinate over a chain of projections.  _top converts
the polyhedron once, an H input to its vertices and rays and a V input to
its facet rows (the plain count walks a V input on its own points), and
reads the top of the chain off that one conversion: a basis of the
implicit equalities and the facets, with the generators tight on each.
Every level is one list of integer rows a.x <= beta, an equality entering
as two opposite rows.  The rows of the projection onto the first k
coordinates give the feasible interval of x_k over each fixed prefix in
closed form, so the search never leaves the projection and solves no LP.
Each level below the top is read off the one above by one Fourier-Motzkin
step on its facets and their incidence masks.  Every count runs one
conversion, one chain and one walk.  The walk closes its last two levels in
closed form: over a fixed prefix, the count of the last coordinate is a
difference of two lower envelopes of floor lines in the one before, summed
piece by piece with the floor-sum recursion.  So the plain count and the Ehrhart walk take the
widest coordinate last, spans rounded in integers on int_points; the count
does not depend on the order.  The walk carries an integer weight per point:
the symmetric count walks only the sorted points of each block, a
fundamental domain of the block action, and weighs each by its orbit size;
the plain count is the same walk with singleton blocks, and the same walk
taken depth first solves the ILP without blocks.  On top of that sit the
Ehrhart quasi-polynomial (interpolated per residue class of the dilation
factor on one chain whose right-hand sides scale with the dilate, from the
counts of the least dilates and, by Ehrhart-Macdonald reciprocity, of their
interiors, the same walk on rows made strict, and re-checked at one more
sample; every count is one _count_scaled), the exact volume (a pulling
triangulation whose faces are cut by the facet masks of the top, with the
hull normals of its equalities), and a slice decomposition that splits an
invariant polytope into fibers over the integral anchors of its invariant
subspace.  The slice decomposition takes its block sums from
symilp.block_sum_image and tests each candidate against the level of their
chain that projects them onto the blocks of size >= 2, so no routine here
solves an LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, count, product
from math import factorial, gcd, prod
from operator import and_, mul, sub
from typing import Iterator, Optional, Sequence, Union

from .polycore import (
    EmptyPolyhedronError,
    HPolyhedron,
    Matrix,
    PolyhedronError,
    Vector,
    VerificationError,
    VPolyhedron,
    adjacent_pairs,
    combine,
    dot,
    frac,
    gauss_jordan,
    identity_matrix,
    integer_kernel_basis,
    integer_v_to_h,
    irredundant_rows,
    matrix,
    primitive,
    vec_sub,
    zero_vector,
)
from .symilp import (
    LinearProgram,
    block_sum_image,
    canonical_core_point,
    check_blocks,
    check_invariance,
    fixed_space_system,
)

__all__ = [
    "FiberOrbit",
    "QuasiPolynomial",
    "SliceDecomposition",
    "count_lattice_points",
    "count_with_symmetry",
    "ehrhart",
    "first_lattice_point",
    "slice_decomposition",
    "volume",
]


# ---------------------------------------------------------------------------
# Counting by pruned enumeration


def count_lattice_points(P: Union[HPolyhedron, VPolyhedron]) -> int:
    """Number of integer points of a bounded polyhedron, counted exactly.

    _top converts P once, an H input to vertices and rays and a V input to
    facet rows; a V input is walked on the points and rays it lists and must
    list at least one point, as for convert_dd.  The coordinates are ordered
    by the number of integers the points span on each, widest last, and
    every coordinate a ray moves after them.  Level n of the chain is the
    top's equality basis and facets; for each k = n - 1..1, one
    Fourier-Motzkin step on the facets of level k + 1 and the points tight
    on each gives the primitive integer rows of the projection proj_k(P),
    with no conversion of its own (see _eliminate).  Coordinates are then
    fixed in order:
    for a fixed integer prefix the values of x_k that extend to a point of P
    form the fiber of proj_k(P) over the prefix, an interval read in closed
    form from the level-k rows with integer floor and ceiling.  The last two
    levels are summed in closed form, so no LP is solved.  An empty P
    counts 0.  An unbounded interval met on the way is an error, so an
    unbounded P is rejected unless the walk runs out of integer prefixes
    before it reaches an unbounded coordinate (then it counts 0); the
    coordinates no ray moves come first.  This is the weighted walk of
    count_with_symmetry with every block a singleton, where every weight is 1.
    """
    return _orbit_count(P, (1,) * P.n)


def _orbit_count(P: Union[HPolyhedron, VPolyhedron], blocks: Sequence[int]) -> int:
    """Integer points of P, each weighted by its orbit size under the blocks.

    P must lie in the sorted domain x_{t+1} <= x_t of every block; the one
    DD of _top and the one projection chain read off it feed the weighted
    walk.  With singleton blocks the chain takes the widest coordinate last,
    which does not change the count.  An empty H input counts 0; a V input
    with no points raises EmptyPolyhedronError.
    """
    try:
        V, top = _top(P)
    except EmptyPolyhedronError:
        if isinstance(P, VPolyhedron):
            raise
        return 0
    order = _widest_last(V)[0] if max(blocks, default=1) == 1 else range(P.n)
    levels = _chain(top, order)
    pos = tuple(p for nb in blocks for p in range(nb))
    return _walk(levels, pos, [], 1, 1) if levels else 1


def _widest_last(V: VPolyhedron, lam: int = 1) -> tuple[list[int], list[int]]:
    """The order in which a walk fixes the coordinates, and the spans it
    sorts by.

    spans[t] counts the integers between the least and the greatest
    coordinate t of lam times V's points, floor and ceiling taken in
    integers on V.int_points.  The order sorts the coordinates by span,
    widest last, and puts every coordinate a ray moves after them all; ties
    keep the given order.
    """
    s, pts, rays = V.int_points
    spans = [lam * max(c) // s + -lam * min(c) // s + 1 for c in zip(*pts)]
    moved = [any(r[t] for r in rays) for t in range(V.n)]
    return sorted(range(V.n), key=lambda t: (moved[t], spans[t])), spans


def _top(P: Union[HPolyhedron, VPolyhedron]) -> tuple[VPolyhedron, tuple[list, list, list, int]]:
    """The generators of P and the top of its projection chain, from one
    double description.

    V is P.dd's vertices and rays for an H input and the input itself for a
    V input.  top holds a basis of P's implicit equalities and its facets,
    rows (a | b) in primitive integers, a mask per facet of the generators
    of V tight on it, and the mask of the points among them: for an H input
    read off P.dd by polycore.irredundant_rows, for a V input the rows
    polycore.integer_v_to_h finds for its points and rays.  Raises
    EmptyPolyhedronError for an empty P.
    """
    if isinstance(P, VPolyhedron):
        return P, (*integer_v_to_h(*P.int_points), (1 << P.k) - 1)
    V, gens = P.dd
    equalities, kept, tight = irredundant_rows(gens, P.m, V.k)
    rows = P.int_rows
    eqs = []
    if equalities:
        _, pivots, m, _ = gauss_jordan(rows[i] for i in sorted(equalities))
        eqs = [primitive(r) for r in m[:len(pivots)]]
    kept = [i for i in kept if i not in equalities]
    return V, (eqs, [rows[i] for i in kept], [tight[i] for i in kept], (1 << V.k) - 1)


def _chain(top: tuple[list, list, list, int], order: Sequence[int]) -> list[list]:
    """Projection chain of a polyhedron with its coordinates taken in the
    given order, from the top _top gives.

    Level k holds rows a.x <= beta of the projection onto the first k of
    them, each stored as (a_1..a_{k-1}, a_k, beta) in primitive integers; an
    equality a.x = beta enters as the two rows a.x <= beta and
    -a.x <= -beta.  The top level is the top's rows, and each level below
    is one Fourier-Motzkin step, _eliminate, on the one above, so the chain
    runs no double description.
    """
    eqs, les = ([tuple(g[t] for t in order) + g[-1:] for g in rows] for rows in top[:2])
    masks, points = top[2:]
    levels = []
    for k in range(len(order), 0, -1):
        levels.append([(g[:-2], g[-2], g[-1])
                       for g in les + eqs + [tuple(-x for x in g) for g in eqs]])
        if k > 1:
            eqs, les, masks = _eliminate(eqs, les, masks, points, k)
    return levels[::-1]


def _eliminate(eqs: list, les: list, masks: list, points: int, k: int
               ) -> tuple[list, list, list]:
    """The rows and masks of Q in R^k, as _chain's top holds them, projected
    onto the first k - 1 coordinates.

    An equality that moves x_k is first substituted into every other row.
    Then the facets that do not move x_k stay, and each pair of opposite
    sign on it that adjacent_pairs yields meets in a ridge, which holds at
    least dim Q - 1 generators; when its common mask holds a point (every
    nonempty face does), it gives its combination without x_k.
    """
    j = k - 1
    e = next((e for e in eqs if e[j]), None)
    if e is not None:
        c, s = abs(e[j]), -1 if e[j] > 0 else 1
        eqs = [combine(c, r, s * r[j], e) for r in eqs if r is not e]
        les = [combine(c, r, s * r[j], e) for r in les]
    vals = [r[j] for r in les]
    out = [r[:j] + r[k:] for r, v in zip(les, vals) if not v]
    out_masks = [m for m, v in zip(masks, vals) if not v]
    seen = set(out)
    for p, q, z in adjacent_pairs(vals, masks, k - len(eqs) - 1):
        if z & points:
            w = combine(vals[q], les[p], -vals[p], les[q])
            w = w[:j] + w[k:]
            if w not in seen:
                seen.add(w)
                out.append(w)
                out_masks.append(z)
    return [r[:j] + r[k:] for r in eqs], out, out_masks


def _walk(levels: Sequence[list], pos: Sequence[int], prefix: list[int],
          weight: int, run: int) -> int:
    """Weighted integer points of P whose first coordinates are the prefix.

    pos[k] is the place of coordinate k in its block, and P lies in the
    sorted domain of every block, so a coordinate with pos[k] > 0 is at most
    the one before it.  A sorted point weighs its orbit size under the block
    action, prod n_j! / prod (multiplicity)!, built one coordinate at a
    time: fixing the (p+1)-th coordinate of a block multiplies the weight by
    (p+1)/r, with r the new run length of equal values, and the division is
    exact.  weight belongs to the prefix and run is the run length of its
    last value.  The last level sums its interval in closed form, and so do
    the last two when both start a block.
    """
    k = len(prefix)
    lo, hi = _fiber(levels[k], prefix)
    p = pos[k]
    if k + 1 == len(levels):
        if p == 0:
            return weight * max(hi - lo + 1, 0)
        prev = prefix[-1]
        total = weight * (p + 1) * max(min(hi, prev - 1) - lo + 1, 0)
        if lo <= prev <= hi:
            total += weight * (p + 1) // (run + 1)
        return total
    if k + 2 == len(levels) and p == pos[k + 1] == 0:
        return weight * _plane_count(levels[-1], prefix, lo, hi)
    total = 0
    for v in range(lo, hi + 1):
        if p == 0:
            w, r = weight, 1
        elif v == prefix[-1]:
            w, r = weight * (p + 1) // (run + 1), run + 1
        else:
            w, r = weight * (p + 1), 1
        prefix.append(v)
        total += _walk(levels, pos, prefix, w, r)
        prefix.pop()
    return total


def _fiber(rows: list, prefix: Sequence[int]) -> tuple[int, int]:
    """Integer bounds (lo, hi) of the next coordinate over a fixed prefix,
    from the rows of its level; lo > hi means that no integer fits.  A side
    with no bounding row is unbounded, which is an error.
    """
    lo: Optional[int] = None
    hi: Optional[int] = None
    for head, c, beta in rows:
        r = beta - sum(map(mul, head, prefix))
        if c > 0:
            top = r // c
            if hi is None or top < hi:
                hi = top
        elif c < 0:
            bot = -(r // -c)
            if lo is None or bot > lo:
                lo = bot
        elif r < 0:
            return 1, 0
    if lo is None or hi is None:
        raise PolyhedronError("cannot count lattice points of an unbounded polyhedron")
    return lo, hi


def _plane_count(rows: list, prefix: Sequence[int], lo: int, hi: int) -> int:
    """Integer points of the last level over the prefix whose next to last
    coordinate v lies in [lo, hi], the integer fiber of the level before.

    That level is the exact projection of the last, so every such v has a
    nonempty real fiber: rows without the last coordinate w are implied, and
    the count hi(v) - lo(v) + 1 of w needs no clipping at 0.  A row
    a v + c w <= r over the prefix gives hi(v) <= floor((r - a v) / c) when
    c > 0 and -lo(v) <= floor((r - a v) / |c|) when c < 0, so the count is
    hi - lo + 1 plus one envelope sum per side.  An empty [lo, hi] counts 0
    before any row is read.
    """
    if lo > hi:
        return 0
    above: list = []
    below: list = []
    for head, c, beta in rows:
        if c:
            r = beta - sum(map(mul, head, prefix))
            (above if c > 0 else below).append((head[-1], abs(c), r))
    if not above or not below:
        raise PolyhedronError("cannot count lattice points of an unbounded polyhedron")
    return hi - lo + 1 + _envelope_sum(above, lo, hi) + _envelope_sum(below, lo, hi)


def _envelope_sum(rows: list, lo: int, hi: int) -> int:
    """Sum over the integers lo <= v <= hi of the least floor((r - a v) / c)
    over the rows (a, c, r), every c > 0.

    The floor of the least line is the least floor, and the least line
    changes at most once per row, so [lo, hi] splits into pieces, each
    summed by _floor_sum.  A piece starts with the least row at its first v,
    found by cross-multiplying, ties to the smaller slope -a/c, which stays
    least longer.  Only rows of smaller slope can drop below it, and the
    piece ends at the last v before the first of them does.
    """
    total = 0
    while lo <= hi:
        a, c, r = rows[0]
        for row in rows:
            s = (row[2] - row[0] * lo) * c - (r - a * lo) * row[1]
            if s < 0 or (s == 0 and row[0] * c > a * row[1]):
                a, c, r = row
        rows = [row for row in rows if row[0] * c > a * row[1]]
        end = hi
        for aj, cj, rj in rows:
            end = min(end, (rj * c - r * cj) // (aj * c - a * cj))
        total += _floor_sum(end - lo + 1, c, -a, r - a * lo)
        lo = end + 1
    return total


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a i + b) / m) over 0 <= i < n, for m > 0.

    Each round reduces a and b mod m and trades the roles of a and m, as in
    Euclid's algorithm, so it takes O(log) integer steps.
    """
    total = 0
    while n > 0:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        y = a * n + b
        if y < m:
            break
        n, b = divmod(y, m)
        m, a = a, m
    return total


# integer prefixes a walk may fix on level k, at most those of the bounding box over x_1..x_k
_WALK_BUDGET = 1_000_000


def first_lattice_point(P: HPolyhedron, c: Optional[Sequence] = None) -> Optional[tuple]:
    """Lex-least integer point of a bounded P, or the lex-least maximizer of c.

    The chain is built as for a count, from _top, but in the given
    coordinate order, on which the lex order depends.  It is walked depth
    first over the first n - 1 coordinates, values smallest first, and the
    last one is read off its fiber (the high end when c_n > 0).  Without a
    nonzero c the first leaf is the answer, else the first best leaf.  An
    empty P gives None; rays, and walks past _WALK_BUDGET prefixes on a
    level, are refused, and so is a c of another length than n.
    """
    if c is not None and len(c) != P.n:
        raise PolyhedronError("objective length does not match dimension")
    try:
        V, top = _top(P)
    except EmptyPolyhedronError:
        return None
    if V.rays:
        raise PolyhedronError("integer programming needs a bounded polyhedron")
    levels = _chain(top, range(P.n))
    w = primitive(c) if c is not None and any(c) else None
    leaves = _leaves(levels, [], w is not None and w[-1] > 0, [count(1) for _ in levels])
    if w is None:
        return next(leaves, None)
    return max(leaves, key=lambda z: sum(map(mul, w, z)), default=None)


def _leaves(levels: Sequence[list], prefix: list[int], up: bool,
            fixed: list[Iterator[int]]) -> Iterator[tuple[int, ...]]:
    """Integer points of P over the prefix in lex order, each coordinate
    taking every value of its fiber but the last, which takes only the low
    end (the high end when up).  fixed[k] numbers the values of level k+1."""
    k = len(prefix)
    if k == len(levels):
        yield tuple(prefix)
        return
    lo, hi = _fiber(levels[k], prefix)
    values = range(lo, hi + 1)
    if k + 1 == len(levels):
        values = values[-1:] if up else values[:1]
    for v in values:
        if next(fixed[k]) > _WALK_BUDGET:
            raise PolyhedronError(f"integer point search exceeds budget {_WALK_BUDGET} prefixes")
        prefix.append(v)
        yield from _leaves(levels, prefix, up, fixed)
        prefix.pop()


# ---------------------------------------------------------------------------
# Ehrhart quasi-polynomials


@dataclass(frozen=True)
class QuasiPolynomial:
    """Counting function lam -> p_{lam mod period}(lam) with exact coefficients.

    components[i] holds the coefficients of p_i, constant term first.  Every
    component has the same degree and the same leading coefficient.
    """
    period: int
    components: tuple[tuple[Fraction, ...], ...]
    degree: int

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be a positive integer")
        comps = tuple(tuple(frac(c) for c in comp) for comp in self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.period:
            raise ValueError("one component per residue class is required")
        if any(len(comp) != self.degree + 1 for comp in comps):
            raise ValueError("all components must share the common degree")
        if len({comp[-1] for comp in comps}) != 1:
            raise ValueError("leading coefficients must agree across residue classes")

    @property
    def leading_coefficient(self) -> Fraction:
        return self.components[0][-1]

    def evaluate(self, lam: int) -> Fraction:
        return _eval_poly(self.components[lam % self.period], lam)


def _eval_poly(coeffs: Sequence[Fraction], x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * frac(x) + c
    return acc


def _interpolate(xs: Sequence[int], ys: Sequence[int]) -> tuple[Fraction, ...]:
    """Coefficients c (constant first) of the polynomial through the integer
    points (xs, ys): D c_j ends pivot row j of the Vandermonde rows (x^j | y)."""
    d = len(xs)
    D, pivots, m, _ = gauss_jordan(([x ** j for j in range(d)] + [y] for x, y in zip(xs, ys)),
                                   stop=d)
    if len(pivots) < d:  # distinct abscissae make the Vandermonde invertible
        raise VerificationError("interpolation system was singular")
    return tuple(Fraction(row[d], D) for row in m)


def ehrhart(P: Union[HPolyhedron, VPolyhedron], period_bound: int = 24) -> QuasiPolynomial:
    """Ehrhart quasi-polynomial of a bounded, full-dimensional polytope.

    _top converts P once: an H input to its vertices, a V input, which must
    list a point and no nonzero ray, to its facet rows, and a listed point
    is a vertex when the facets through it meet in its copies alone.  P is
    full-dimensional when the top holds no equality, and the facets and
    incidence masks of that one conversion give every level of the
    projection chain below the top, each by one Fourier-Motzkin step, so no
    level runs a conversion.
    The period k is the lcm of the vertex-coordinate denominators, read in
    integers as s / gcd(s, coordinates) on int_points (an error if it
    exceeds period_bound).  For each residue class i mod k the samples
    are the d + 2 abscissae x = i mod k of least |x|, positive first on a
    tie: x > 0 is the count of xP; x = -t < 0 is (-1)^d times the count of
    the interior of tP, by Ehrhart-Macdonald reciprocity; and x = 0, in class
    0, is 1, the constant term of the Ehrhart polynomial of the integral
    polytope kP.  The first d + 1 samples are interpolated exactly, and the
    last one verifies the component: a mismatch is an error, never a
    silently wrong polynomial.  The largest dilate walked, about k(d + 2)/2,
    may hold at most _WALK_BUDGET integer prefixes in its bounding box over
    all but its widest coordinate, which the walk takes last; that bounds
    the nodes of the counting walk, and a larger input is an error rather
    than a run of hours.  The chain is built once: proj(tP) =
    t proj(P), so every count walks that chain with its right-hand sides
    scaled by t.  An integral polytope yields period 1.
    """
    V, top = _top(P)
    if any(map(any, V.rays)):
        raise PolyhedronError("Ehrhart counting requires a bounded polyhedron")
    if top[0]:
        raise PolyhedronError(
            "Ehrhart interpolation requires a full-dimensional polytope")
    s, pts, _ = V.int_points
    if isinstance(P, VPolyhedron):
        faces = (reduce(and_, (m for m in top[2] if m >> j & 1), (1 << P.k) - 1)
                 for j in range(P.k))
        pts = [pts[j] for j, f in enumerate(faces)
               if all(pts[i] == pts[j] for i in range(P.k) if f >> i & 1)]
    k = s // gcd(s, *(x for p in pts for x in p))
    d = P.n
    if k > period_bound:
        raise PolyhedronError(f"period {k} exceeds the allowed bound {period_bound}")
    plan = [sorted(range(i - k * (d + 2), k * (d + 2), k), key=lambda x: (abs(x), x < 0))[:d + 2]
            for i in range(k)]
    lam = max(abs(x) for xs in plan for x in xs)   # the largest dilate counted below
    order, spans = _widest_last(V, lam)
    prefixes = prod(spans[t] for t in order[:-1])
    if prefixes > _WALK_BUDGET:
        raise PolyhedronError(
            f"Ehrhart counting exceeds budget {_WALK_BUDGET}: dilate {lam}"
            f" spans {prefixes} integer prefixes")
    levels = _chain(top, order)
    components = []
    for xs in plan:
        ys = [_count_scaled(levels, x, 0) if x > 0
              else (-1) ** d * _count_scaled(levels, -x, 1) if x < 0 else 1 for x in xs]
        coeffs = _interpolate(xs[:-1], ys[:-1])
        if _eval_poly(coeffs, xs[-1]) != ys[-1]:
            raise VerificationError(
                f"quasi-polynomial disagrees with the direct count at dilate {xs[-1]}")
        components.append(coeffs)
    return QuasiPolynomial(k, tuple(components), d)


def _count_scaled(levels: Sequence[list], lam: int, cut: int) -> int:
    """Integer points of lam*P (cut 0) or of the interior of lam*P (cut 1),
    from the projection chain of P: the counting walk with every right-hand
    side beta set to lam*beta - cut.

    proj_k(lam P) = lam proj_k(P), so each level keeps its rows and scales
    every right-hand side.  proj_k(int lam P) = int proj_k(lam P), the points
    strictly inside every scaled row of level k; the rows and points are
    integers, so a.x < lam*beta holds exactly when a.x <= lam*beta - 1, and
    _plane_count still needs no clipping.  cut must be 0 when a level holds
    an equality, which enters as two rows.  With no coordinates the count
    is the one point of R^0.
    """
    if not levels:
        return 1
    scaled = [[(head, c, lam * beta - cut) for head, c, beta in rows] for rows in levels]
    return _walk(scaled, (0,) * len(levels), [], 1, 1)


# ---------------------------------------------------------------------------
# Exact volume


def volume(P: Union[HPolyhedron, VPolyhedron]) -> Fraction:
    """Volume of a bounded polytope, relative to the lattice of its hull.

    _top gives the facets of P, each with the points tight on it as a
    bitmask: for H input the vertices of its conversion, for V input the
    given points, duplicates and points that are not vertices included.
    Every face of P is a cut by those masks, so P is triangulated by pulling
    on them alone: a face is coned from its least point over the
    triangulated facets that avoid it, and each simplex s_0..s_d contributes
    |det(s_1 - s_0, ..., s_d - s_0)| / d!, taken on the points scaled once
    to integers and divided once at the end.  A lower-dimensional polytope is
    measured in coordinates of a lattice basis of its direction space, so a
    diagonal unit cell has measure 1, matching the Ehrhart leading
    coefficient: the hull normals are those of the top's equality basis,
    and one elimination gives every point's coordinates in that basis as
    integers over one common determinant, divided out at the end with the
    scale.  A zero ray leaves P bounded.  A zero-dimensional polytope has
    measure 1 by convention.
    """
    V, (eqs, _, masks, _) = _top(P)
    if any(map(any, V.rays)):
        raise PolyhedronError("volume requires a bounded polyhedron")
    scale, pts, _ = V.int_points
    d = P.n - len(eqs)
    if d == 0:
        return Fraction(1)
    if eqs:
        # the integer kernel of the hull normals is a basis B of Z^n restricted
        # to the direction space; [B^T | diffs] reduces to [D I | D Y] with Y
        # the coordinates of every difference in B
        B = integer_kernel_basis([e[:-1] for e in eqs], P.n)
        diffs = [tuple(map(sub, p, pts[0])) for p in pts]
        D, _, m, _ = gauss_jordan((tuple(col) + diff for col, diff in zip(zip(*B), zip(*diffs))),
                                  stop=d)
        pts = list(zip(*(row[d:] for row in m[:d])))
        scale *= abs(D)
    total = 0
    for simplex in _pull((1 << len(pts)) - 1, set(masks), d, {}):
        s0, *rest = (pts[j] for j in simplex)
        D, pivots, _, _ = gauss_jordan([tuple(map(sub, s, s0)) for s in rest])
        if len(pivots) == d:
            total += abs(D)
    return Fraction(total, scale ** d * factorial(d))


def _pull(face: int, rows: set[int], fdim: int, memo: dict) -> list[tuple[int, ...]]:
    """Pulling triangulation of a face of dimension fdim, a point bitmask.

    The apex is the least point of the face; the other simplex vertices come
    from the recursively triangulated facets that avoid it.  Returns tuples of
    fdim + 1 affinely independent 0-based point indices.  memo maps every
    face triangulated so far to its simplices, so a face shared by several
    parents is triangulated once.
    """
    if face.bit_count() == fdim + 1:
        return [tuple(j for j in range(face.bit_length()) if face >> j & 1)]
    apex = face & -face
    v = apex.bit_length() - 1
    out = []
    for child in _facets(face, rows):
        if not child & apex:
            if child not in memo:
                memo[child] = _pull(child, rows, fdim - 1, memo)
            out.extend(s + (v,) for s in memo[child])
    return out


def _facets(face: int, rows: set[int]) -> list[int]:
    """Facets of a face: its inclusion-maximal proper cuts face & row, by
    descending size, then value.  Every face of a polytope is the set of its
    points tight on some rows, so each facet of a face is its cut by one
    row, held by no larger cut, and so by no cut kept before it."""
    kept: list[int] = []
    for c in sorted({face & r for r in rows} - {face}, key=lambda m: (-m.bit_count(), m)):
        if not any(c & o == c for o in kept):
            kept.append(c)
    return kept


# ---------------------------------------------------------------------------
# Slice decomposition along the invariant subspace


@dataclass(frozen=True)
class FiberOrbit:
    """One orbit of fibers over an integral anchor of the invariant subspace.

    The fiber polytope lives in fiber coordinates: x = base_point + B^T y for
    the stored decomposition basis B, and base_point is integral, so integer
    points of the fiber correspond exactly to integer coordinate vectors.
    """
    sums: tuple[int, ...]
    anchor: Vector
    base_point: Vector
    fiber: HPolyhedron


@dataclass(frozen=True)
class SliceDecomposition:
    """An invariant polytope split into fibers over its invariant slice.

    invariant_slice describes P meet the invariant subspace in barycenter
    coordinates t (one per block, x = sum_j t_j over block j).  Each anchor
    orbit is a single anchor, so the total lattice-point count equals the
    sum of the fiber counts.
    """
    blocks: tuple[int, ...]
    invariant_slice: HPolyhedron
    basis: Matrix
    fiber_orbits: tuple[FiberOrbit, ...]


def _invariant_blocks(P: HPolyhedron, blocks: Sequence[int]) -> tuple[int, ...]:
    """Validated block sizes of a block action that leaves P invariant."""
    blocks = check_blocks(blocks, P.n)
    if not check_invariance(LinearProgram(P, zero_vector(P.n)), blocks):
        raise PolyhedronError("polyhedron is not invariant under the block action")
    return blocks


def slice_decomposition(P: HPolyhedron, blocks: Sequence[int]) -> SliceDecomposition:
    """Decompose a block-invariant polytope into fibers over integral anchors.

    Anchors are the integral sum vectors of the blocks of size >= 2 whose
    fiber meets P; singleton blocks already lie inside the invariant subspace
    and stay as free directions of every fiber, so a fully trivial action
    keeps the whole polytope as its one fiber.  Candidate sums range over the
    extent of block_sum_image, and a candidate's fiber meets P exactly when
    it lies in the projection of that image onto the blocks of size >= 2,
    a level of the image's chain that takes those blocks first.  The block
    action fixes every block sum, hence each anchor orbit is a singleton.
    Fibers are written in the difference basis of each block plus the
    singleton axes, a lattice basis of the fiber direction lattice, with an
    integral base point, so counting integer coordinate vectors counts
    integral fiber points.
    """
    blocks = _invariant_blocks(P, blocks)
    n = P.n
    # e_t - e_{t+1} inside a block, e_t for a singleton
    eye = identity_matrix(n)
    basis = tuple(eye[t] if nb == 1 else vec_sub(eye[t], eye[t + 1])
                  for off, nb in zip(accumulate(blocks, initial=0), blocks)
                  for t in range(off, off + max(nb - 1, 1)))
    fiber_rows = matrix([[dot(a, bv) for bv in basis] for a in P.A])
    live = [j for j in range(len(blocks)) if blocks[j] >= 2]

    orbits = []
    image = block_sum_image(P, blocks)
    if image is not None:
        s, pts, rays = image.int_points
        if any(r[j] for r in rays for j in live):
            raise PolyhedronError("slice decomposition requires bounded block sums")
        cands = product(*(range(-(-min(p[j] for p in pts) // s), max(p[j] for p in pts) // s + 1)
                          for j in live))
        if live:
            # the live block sums of P form the image projected onto them
            rest = [j for j in range(len(blocks)) if j not in live]
            rows = _chain(_top(image)[1], live + rest)[len(live) - 1]
            cands = [s for s in cands if (fit := _fiber(rows, s[:-1]))[0] <= s[-1] <= fit[1]]
        for sums in cands:
            full = [0] * len(blocks)
            for j, s in zip(live, sums):
                full[j] = s
            base = canonical_core_point(blocks, full).z
            fiber_b = tuple(bb - dot(a, base) for a, bb in zip(P.A, P.b))
            fiber = HPolyhedron(fiber_rows, fiber_b, P.equality_rows)
            # the barycenter of every integral orbit in the fiber: s_j / n_j on block j
            anchor = tuple(Fraction(s, nb) for s, nb in zip(full, blocks) for _ in range(nb))
            orbits.append(FiberOrbit(tuple(sums), anchor, base, fiber))
    return SliceDecomposition(blocks, fixed_space_system(P, blocks), basis, tuple(orbits))


def count_with_symmetry(P: HPolyhedron, blocks: Sequence[int]) -> int:
    """Lattice-point count of a block-invariant polyhedron on a fundamental domain.

    Every orbit of the block action on integer points meets the sorted
    domain x_{t+1} <= x_t of every block in exactly one point (Kaibel and
    Pfetsch, "Packing and partitioning orbitopes", 2008).  P is cut down to
    that domain by integer rows x_{t+1} - x_t <= 0 put before P.int_rows,
    so that the one conversion meets the domain first and carries fewer
    intermediate rays, and its one projection chain is walked
    with each sorted point weighted by its orbit size, so the count is
    exact in integer arithmetic.  An unbounded P is refused as in
    count_lattice_points.
    """
    blocks = _invariant_blocks(P, blocks)
    sort_rows = tuple(tuple((u == t + 1) - (u == t) for u in range(P.n + 1))
                      for off, nb in zip(accumulate(blocks, initial=0), blocks)
                      for t in range(off, off + nb - 1))
    Q = HPolyhedron.of_rows(sort_rows + P.int_rows, [i + len(sort_rows) for i in P.equality_rows])
    return _orbit_count(Q, blocks)
