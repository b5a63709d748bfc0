"""Lattice-point counting, Ehrhart interpolation, and symmetric slicing.

Everything is built on one exact enumeration backbone: integer points are
listed coordinate by coordinate over a chain of projections.  The polyhedron
is converted once to vertices and rays; their projections onto the first k
coordinates, converted back to integer facet rows, give the feasible interval
of x_k over each fixed prefix in closed form, so the search never leaves the
projection and solves no LP.  Every count runs one conversion, one chain and
one walk.  The walk carries an integer weight per point: the symmetric count
walks only the sorted points of each block, a fundamental domain of the
block action, and weighs each by its orbit size; the plain count is the same
walk with singleton blocks, and the same walk taken depth first solves the
ILP without blocks.  On top of that sit the Ehrhart quasi-polynomial
(interpolated per residue class of the dilation factor on one chain whose
right-hand sides scale with the dilate, and re-checked at one more dilate),
the exact volume (a pulling triangulation whose faces are cut from the
incidence masks of one double description), and a slice decomposition that
splits an invariant polytope into fibers over the integral anchors of its
invariant subspace.  The slice decomposition takes its block sums from
symilp.block_sum_image and tests each candidate against integer facet rows
of their projection, so no routine here solves an LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, product
from math import ceil, factorial, floor, lcm, prod
from operator import mul
from typing import Iterator, Optional, Sequence, Union

from .polycore import (
    AffineHull,
    EmptyPolyhedronError,
    HPolyhedron,
    Matrix,
    PolyhedronError,
    Vector,
    VerificationError,
    VPolyhedron,
    affine_hull,
    convert_dd,
    convert_dd_incidence,
    dd_cone,
    det,
    dot,
    frac,
    identity_matrix,
    integer_kernel_basis,
    matrix,
    nullspace,
    primitive,
    solve_linear,
    vec_sub,
    zero_vector,
)
from .symilp import (
    LinearProgram,
    block_group,
    block_sum_image,
    canonical_core_point,
    check_blocks,
    check_invariance,
    coordinate_bounds,
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


def count_lattice_points(P: HPolyhedron) -> int:
    """Number of integer points of a bounded polyhedron, counted exactly.

    P is converted once to vertices and rays, and for each k = 1..n those are
    projected onto the first k coordinates and converted back to facet rows,
    primitive integer rows of the projection proj_k(P).  Coordinates are then
    fixed in order: for a fixed integer prefix the values of x_k that extend
    to a point of P form the fiber of proj_k(P) over the prefix, an interval
    read in closed form from the level-k rows with integer floor and ceiling.
    The last level adds the number of integers in its interval, so no LP is
    solved.  An empty P counts 0.  An unbounded interval met on the way is an
    error, so an unbounded P is rejected unless the walk runs out of integer
    prefixes before it reaches an unbounded coordinate (then it counts 0).
    This is the weighted walk of count_with_symmetry with every block a
    singleton, where every weight is 1.
    """
    return _orbit_count(P, (1,) * P.n)


def _orbit_count(P: HPolyhedron, blocks: Sequence[int]) -> int:
    """Integer points of P, each weighted by its orbit size under the blocks.

    P must lie in the sorted domain x_{t+1} <= x_t of every block; one DD
    and one projection chain feed the weighted walk.  An empty P counts 0.
    """
    try:
        V = convert_dd(P)
    except EmptyPolyhedronError:
        return 0
    levels = [_projection_rows(V, k) for k in range(1, P.n + 1)]
    pos = tuple(p for nb in blocks for p in range(nb))
    return _walk(levels, pos, [], 1, 1) if levels else 1


def _projection_rows(V: VPolyhedron, k: int) -> tuple[list, list]:
    """Facet rows of the projection of V onto its first k coordinates.

    Returns (equalities, inequalities), each row a.x = beta or a.x <= beta
    stored as (a_1..a_{k-1}, a_k, beta) in primitive integers.
    """
    gens = dict.fromkeys(tuple(v[:k]) + (-1,) for v in V.vertices)
    gens.update(dict.fromkeys(tuple(r[:k]) + (0,) for r in V.rays if any(r[:k])))
    lin, rays, _ = dd_cone(list(gens), k + 1)
    eqs = [(g[:k - 1], g[k - 1], g[k]) for g in lin if any(g[:k])]
    les = [(g[:k - 1], g[k - 1], g[k]) for g in rays if any(g[:k])]
    return eqs, les


def _walk(levels: Sequence[tuple[list, list]], pos: Sequence[int], prefix: list[int],
          weight: int, run: int) -> int:
    """Weighted integer points of P whose first coordinates are the prefix.

    pos[k] is the place of coordinate k in its block, and P lies in the
    sorted domain of every block, so a coordinate with pos[k] > 0 is at most
    the one before it.  A sorted point weighs its orbit size under the block
    action, prod n_j! / prod (multiplicity)!, built one coordinate at a
    time: fixing the (p+1)-th coordinate of a block multiplies the weight by
    (p+1)/r, with r the new run length of equal values, and the division is
    exact.  weight belongs to the prefix and run is the run length of its
    last value.  The last level sums its interval in closed form.
    """
    k = len(prefix)
    bounds = _fiber(*levels[k], prefix)
    if bounds is None:
        return 0
    lo, hi = bounds
    p = pos[k]
    if k + 1 == len(levels):
        if p == 0:
            return weight * max(hi - lo + 1, 0)
        prev = prefix[-1]
        total = weight * (p + 1) * max(min(hi, prev - 1) - lo + 1, 0)
        if lo <= prev <= hi:
            total += weight * (p + 1) // (run + 1)
        return total
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


def _fiber(eqs: list, les: list, prefix: Sequence[int]) -> Optional[tuple[int, int]]:
    """Integer bounds (lo, hi) of the next coordinate over a fixed prefix.

    Equalities pin the value, and None means that no integer fits.  Without a
    pin, a side with no bounding row is unbounded, which is an error.
    """
    pin: Optional[int] = None
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
    lo: Optional[int] = None
    hi: Optional[int] = None
    for head, c, beta in les:
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
            return None
    if pin is not None:
        if (lo is not None and pin < lo) or (hi is not None and pin > hi):
            return None
        return pin, pin
    if lo is None or hi is None:
        raise PolyhedronError("cannot count lattice points of an unbounded polyhedron")
    return lo, hi


# integer prefixes a walk may fix on level k, at most those of the bounding box over x_1..x_k
_WALK_BUDGET = 1_000_000


def first_lattice_point(P: HPolyhedron, c: Optional[Sequence] = None) -> Optional[tuple]:
    """Lex-least integer point of a bounded P, or the lex-least maximizer of c.

    The chain is walked depth first over the first n - 1 coordinates, values
    smallest first, and the last one is read off its fiber (the high end when
    c_n > 0).  Without a nonzero c the first leaf is the answer, else the
    first best leaf.  An empty P gives None; rays, and walks past _WALK_BUDGET
    prefixes on a level, are refused.
    """
    try:
        V = convert_dd(P)
    except EmptyPolyhedronError:
        return None
    if V.rays:
        raise PolyhedronError("integer programming needs a bounded polyhedron")
    levels = [_projection_rows(V, k) for k in range(1, P.n + 1)]
    w = primitive(c) if c is not None and any(c) else None
    leaves = _leaves(levels, [], w is not None and w[-1] > 0, [count(1) for _ in levels])
    if w is None:
        return next(leaves, None)
    return max(leaves, key=lambda z: sum(map(mul, w, z)), default=None)


def _leaves(levels: Sequence[tuple[list, list]], prefix: list[int], up: bool,
            fixed: list[Iterator[int]]) -> Iterator[tuple[int, ...]]:
    """Integer points of P over the prefix in lex order, each coordinate
    taking every value of its fiber but the last, which takes only the low
    end (the high end when up).  fixed[k] numbers the values of level k+1."""
    k = len(prefix)
    if k == len(levels):
        yield tuple(prefix)
        return
    bounds = _fiber(*levels[k], prefix)
    values = range(bounds[0], bounds[1] + 1) if bounds else ()
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
    """Coefficients (constant first) of the polynomial through (xs, ys)."""
    rows = [[frac(x) ** j for j in range(len(xs))] for x in xs]
    sol = solve_linear(rows, [frac(y) for y in ys])
    if sol is None:  # distinct abscissae make the Vandermonde invertible
        raise VerificationError("interpolation system was singular")
    return sol


def ehrhart(P: HPolyhedron, period_bound: int = 24) -> QuasiPolynomial:
    """Ehrhart quasi-polynomial of a bounded, full-dimensional polytope.

    The period is the lcm of the vertex-coordinate denominators (an error if
    it exceeds period_bound).  The bounding box of the largest dilate counted
    may hold at most _WALK_BUDGET integer prefixes over its first
    n - 1 coordinates, which bounds the nodes of the counting walk; a larger
    input is an error rather than a run of hours.  P is converted once and
    its projection chain built once: proj(lam P) = lam proj(P), so every
    dilate is walked on that chain with its right-hand sides scaled by lam.
    For each residue class the dilate counts at degree+1 sample points are
    interpolated exactly, then the component is verified against the count
    at one further dilate; a mismatch is an error, never a silently wrong
    polynomial.  An integral polytope yields period 1.
    """
    V = convert_dd(P)
    if V.rays:
        raise PolyhedronError("Ehrhart counting requires a bounded polyhedron")
    pts = list(V.vertices)
    d = affine_hull(pts).dim
    if d != P.n:
        raise PolyhedronError(
            "Ehrhart interpolation requires a full-dimensional polytope")
    k = 1
    for v in pts:
        for c in v:
            k = lcm(k, c.denominator)
    if k > period_bound:
        raise PolyhedronError(f"period {k} exceeds the allowed bound {period_bound}")
    top = k * (d + 2)   # the largest dilate counted below
    prefixes = prod(floor(max(c)) - ceil(min(c)) + 1
                    for c in ([top * v[t] for v in pts] for t in range(d - 1)))
    if prefixes > _WALK_BUDGET:
        raise PolyhedronError(
            f"Ehrhart counting exceeds budget {_WALK_BUDGET}: dilate {top}"
            f" spans {prefixes} integer prefixes")
    levels = [_projection_rows(V, t) for t in range(1, P.n + 1)]
    components = []
    for i in range(k):
        lams = [i + k * j for j in range(d + 3) if i + k * j > 0]
        samples = lams[: d + 1]
        counts = [_count_dilate(levels, lam) for lam in samples]
        coeffs = _interpolate(samples, counts)
        probe = lams[d + 1]
        expect = _count_dilate(levels, probe)
        if _eval_poly(coeffs, probe) != expect:
            raise VerificationError(
                f"quasi-polynomial disagrees with the direct count at dilate {probe}")
        components.append(coeffs)
    return QuasiPolynomial(k, tuple(components), d)


def _count_dilate(levels: Sequence[tuple[list, list]], lam: int) -> int:
    """Integer points of lam*P, from the projection chain of P.

    proj_k(lam P) = lam proj_k(P), so each level keeps its rows and scales
    every right-hand side beta to lam*beta.  With no coordinates the dilate
    is the one point of R^0.
    """
    if not levels:
        return 1
    scaled = [tuple([(head, c, lam * beta) for head, c, beta in rows] for rows in level)
              for level in levels]
    return _walk(scaled, (0,) * len(levels), [], 1, 1)


# ---------------------------------------------------------------------------
# Exact volume


def volume(P: Union[HPolyhedron, VPolyhedron]) -> Fraction:
    """Volume of a bounded polytope, relative to the lattice of its hull.

    One double description gives, per row of the inequality side, the points
    tight on it as a bitmask: for H input the rows of P cut the vertices of
    its conversion, for V input the rows of its conversion cut the given
    points, duplicates and points that are not vertices included.  Every
    face of P is such a cut, so P is triangulated by pulling on those masks
    alone: a face is coned from its least point over the triangulated facets
    that avoid it, and each simplex s_0..s_d contributes
    |det(s_1 - s_0, ..., s_d - s_0)| / d!.  A lower-dimensional polytope is
    measured in coordinates of a lattice basis of its direction space, so a
    diagonal unit cell has measure 1, matching the Ehrhart leading
    coefficient.  A zero-dimensional polytope has measure 1 by convention.
    """
    Q, masks = convert_dd_incidence(P)
    if isinstance(P, VPolyhedron):
        V, rows = P, set(masks)
    else:
        V = Q
        rows = {sum(1 << j for j, m in enumerate(masks) if m >> i & 1) for i in range(P.m)}
    if V.rays:
        raise PolyhedronError("volume requires a bounded polyhedron")
    pts = V.vertices
    hull = affine_hull(pts)
    d = hull.dim
    if d == 0:
        return Fraction(1)
    if d < P.n:
        # lattice-normalized coordinates on the hull: integer kernel of the
        # hull normals is a basis of Z^n restricted to the direction space
        normals = [primitive(v) for v in nullspace(hull.directions, P.n)]
        frame = AffineHull(pts[0], matrix(integer_kernel_basis(normals, P.n)))
        pts = [frame.coordinates(p) for p in pts]
    total = Fraction(0)
    for simplex in _pull((1 << len(pts)) - 1, rows, d, {}):
        s0, *rest = (pts[j] for j in simplex)
        total += abs(det([vec_sub(s, s0) for s in rest]))
    return total / factorial(d)


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
    """Facets of a face: its inclusion-maximal proper cuts face & row.

    Every face of a polytope is the set of its points tight on some rows,
    so each facet of a face is its cut by one row, and no larger cut holds it.
    """
    cuts = {face & r for r in rows} - {face}
    return [c for c in cuts if not any(c != o and c & o == c for o in cuts)]


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
    if not check_invariance(LinearProgram(P, zero_vector(P.n)), block_group(blocks)):
        raise PolyhedronError("polyhedron is not invariant under the block action")
    return blocks


def slice_decomposition(P: HPolyhedron, blocks: Sequence[int]) -> SliceDecomposition:
    """Decompose a block-invariant polytope into fibers over integral anchors.

    Anchors are the integral sum vectors of the blocks of size >= 2 whose
    fiber meets P; singleton blocks already lie inside the invariant subspace
    and stay as free directions of every fiber, so a fully trivial action
    keeps the whole polytope as its one fiber.  Candidate sums range over the
    extent of block_sum_image, and a candidate's fiber meets P exactly when
    it satisfies the integer facet rows of that image projected onto the
    blocks of size >= 2.  The block action fixes every block sum, hence
    each anchor orbit is a singleton.  Fibers are written in the difference
    basis of each block plus the singleton axes, a lattice basis of the
    fiber direction lattice, with an integral base point, so counting
    integer coordinate vectors counts integral fiber points.
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
        extent = coordinate_bounds(image)
        if any(None in extent[j] for j in live):
            raise PolyhedronError("slice decomposition requires bounded block sums")
        cands = product(*(range(ceil(extent[j][0]), floor(extent[j][1]) + 1)
                          for j in live))
        if live:
            # the live block sums of P form the image projected onto them
            shadow = VPolyhedron(*(tuple(tuple(g[j] for j in live) for g in gens)
                                   for gens in (image.vertices, image.rays)))
            eqs, les = _projection_rows(shadow, len(live))
            cands = [s for s in cands if (fit := _fiber(eqs, les, s[:-1])) is not None
                     and fit[0] <= s[-1] <= fit[1]]
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
    that domain, converted once, and its one projection chain is walked
    with each sorted point weighted by its orbit size, so the count is
    exact in integer arithmetic.  An unbounded P is refused as in
    count_lattice_points.
    """
    blocks = _invariant_blocks(P, blocks)
    eye = identity_matrix(P.n)
    sort_rows = tuple(vec_sub(eye[t + 1], eye[t])
                      for off, nb in zip(accumulate(blocks, initial=0), blocks)
                      for t in range(off, off + nb - 1))
    domain = HPolyhedron(P.A + sort_rows, P.b + (Fraction(0),) * len(sort_rows),
                         P.equality_rows)
    return _orbit_count(domain, blocks)
