"""Affine symmetry detection for polytopes.

The detector reduces geometry to combinatorics, and does its linear algebra
once per polyhedron, in integers, on polycore's fraction-free Gauss-Jordan
kernel.  The homogenized vertices (1, v), scaled by one common denominator,
are integer rows X.  The pivot columns of X^t are a greedy row basis B (an
affine basis of the vertices), and those of X_B are the pivot columns C; the
adjugate of the square matrix [X_B; (0, e_j) for j not in C], read off the
elimination of [N | I], gives integer coefficients L and a scalar D with
D X_j = sum_b L_jb X_b for every vertex j, each identity checked exactly.
This is the integer affine frame of the point set, VPolyhedron.frame, made
once per object in polycore.

The complete graph on vertex indices is edge-colored with the affine
invariant c_i^t Q^{-1} c_j of the vertices c_i centered at their barycenter,
Q = sum c_i c_i^t, read off L in integers.  Color-preserving graph
automorphisms are exactly the candidate symmetries.  A candidate sigma is an
affine symmetry exactly when the frame's identities survive relabeling,
D X_sigma(j) = sum_b L_jb X_sigma(b).  Its map is one integer product with
the frame's adjugate, which moves the basis vertices to their images by
construction, and one verification pass checks it on every other vertex:
that pass holds exactly when the identities survive, so nothing reported can
fail to be a symmetry.  The frame records each relabeling it has checked, so
the group check of a decomposition run after detection on the same object
realizes no generator again.  Detection keeps permutations; a map in
Fractions is built only on request.

The automorphism search runs along one base and finds every basic orbit of
the stabilizer chain on it, so the order of the group is the product of
those orbits' sizes and its generators are a strong generating set.  When
every candidate is realized, the group's chain is built from them at that
order and sifts no Schreier generator.

The same machinery applies to inequality rows: primitive homogenized rows
(a | b) transform linearly under affine maps of the ambient space, so the
uncentered gram of their frame, HPolyhedron.frame, detects the symmetries
visible on the H-side.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Union

from .polycore import (
    AffineMap,
    EmptyPolyhedronError,
    HPolyhedron,
    Matrix,
    PolyhedronError,
    VPolyhedron,
    adjugate,
    gauss_jordan,
    remove_redundancy,
)
from .permgrp import Permutation, PermutationGroup


@dataclass(frozen=True)
class SymmetryGraph:
    """Edge-colored complete graph on k indices; colors are exact rationals.

    gram[i][j] is the color of edge {i+1, j+1}; diagonal entries color the
    vertices themselves.  color_classes groups 1-based index pairs (i, j),
    i <= j, by equal gram value.
    """
    k: int
    gram: tuple
    color_classes: dict


# ---------------------------------------------------------------------------
# Gram graph of an integer frame


def _gram(frame, centered: bool) -> SymmetryGraph:
    """Gram graph of a frame's rows, from their coefficients.

    With L the coefficient matrix, Q = L^t L and g = L (D_Q Q^{-1}) L^t,
    the uncentered value X_i^t (sum_j X_j X_j^t)^+ X_j is g_ij / D_Q.  For
    homogenized vertices (1, v) that value is 1/k plus the centered
    c_i^t Q_c^{-1} c_j, which is what centered=True returns."""
    lam = frame.coeffs
    k = len(lam)
    lcols = list(zip(*lam))
    Q = [[sum(map(mul, u, v)) for v in lcols] for u in lcols]
    dq, RQ = adjugate(Q)
    rqcols = list(zip(*RQ))
    Y = [tuple(sum(map(mul, x, col)) for col in rqcols) for x in lam]
    classes: dict = {}         # g_ij -> pairs (i, j), i <= j; one value per g
    for i in range(k):
        yi = Y[i]
        for j in range(i, k):
            classes.setdefault(sum(map(mul, yi, lam[j])), []).append((i + 1, j + 1))
    gram = [[None] * k for _ in range(k)]
    color_classes = {}
    for g, pairs in classes.items():
        val = Fraction(k * g - dq, k * dq) if centered else Fraction(g, dq)
        for i, j in pairs:
            gram[i - 1][j - 1] = gram[j - 1][i - 1] = val
        color_classes[val] = tuple(pairs)
    return SymmetryGraph(k, tuple(map(tuple, gram)), color_classes)


def _polytope_frame(V: VPolyhedron):
    if V.rays:
        raise PolyhedronError("symmetry graph requires a bounded polytope (no rays)")
    if not V.vertices:
        raise PolyhedronError("symmetry graph requires at least one vertex")
    # the group acts on distinct points; convert refuses repeats too
    if len(set(V.vertices)) != V.k:
        raise PolyhedronError("duplicate points in the input")
    return V.frame


def build_symmetry_graph(V: VPolyhedron) -> SymmetryGraph:
    """Invariant edge-colored graph of a polytope's vertex set.

    Unbounded inputs are rejected: rays have no barycenter to anchor the
    affine-to-linear reduction.
    """
    return _gram(_polytope_frame(V), centered=True)


# ---------------------------------------------------------------------------
# Automorphisms of the colored graph


def _refine_colors(gram: Sequence[Sequence[int]]) -> list:
    """Stable vertex coloring: start from diagonal colors, repeatedly refine
    by the multiset of (neighbor color, edge color) pairs."""
    k = len(gram)
    ranked = sorted(set(gram[i][i] for i in range(k)))
    lookup = {v: r for r, v in enumerate(ranked)}
    colors = [lookup[gram[i][i]] for i in range(k)]
    while True:
        sigs = []
        for i in range(k):
            neigh = tuple(sorted((colors[j], gram[i][j]) for j in range(k) if j != i))
            sigs.append((colors[i], neigh))
        ranked = sorted(set(sigs))
        lookup = {s: r for r, s in enumerate(ranked)}
        new = [lookup[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _automorphism_search(Gr: SymmetryGraph) -> tuple[list, tuple, int]:
    """(generators, base, order) of the automorphism group of Gr.

    The search runs along the assignment order and finds every basic orbit
    of the stabilizer chain on that order, so the generators are a strong
    generating set on base, the points of the order whose basic orbit is
    nontrivial, and the order of the group is the product of those orbits'
    sizes."""
    k = Gr.k
    if k <= 1:
        return [], (), 1
    gram = [[0] * k for _ in range(k)]
    for rank, value in enumerate(sorted(Gr.color_classes)):
        for i, j in Gr.color_classes[value]:
            gram[i - 1][j - 1] = gram[j - 1][i - 1] = rank
    colors = _refine_colors(gram)
    cell_size = {c: colors.count(c) for c in set(colors)}
    # assignment order: smallest color cells first, lowest index first
    order = sorted(range(k), key=lambda i: (cell_size[colors[i]], colors[i], i))
    # near[x][c]: the vertices y with gram[x][y] == c, ascending.  An image w
    # of v agrees with v on its color to the last assigned vertex a, so only
    # near[img[a]][gram[v][a]] is scanned, in the same ascending order.
    near = []
    for row in gram:
        by_color: dict = {}
        for y, c in enumerate(row):
            by_color.setdefault(c, []).append(y)
        near.append(by_color)

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
        orb = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for x in frontier:
                for g in found:
                    y = g[x]
                    if y not in orb:
                        orb.add(y)
                        nxt.append(y)
            frontier = nxt
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
            if colors[v] != colors[w]:
                continue
            ok = all(gram[v][order[p]] == gram[w][order[p]] for p in range(level))
            if not ok:
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


def graph_automorphisms(Gr: SymmetryGraph) -> list:
    """Generators of the automorphism group of the colored complete graph.

    Colors are refined to a stable partition, vertices are individualized
    smallest cell first, and a stabilizer-chain search collects one generator
    per new point reached in each basic orbit.  Pairwise color consistency is
    enforced along every branch, so reported permutations are automorphisms
    by construction.  Edge colors are compared as the integer ranks of the
    color classes, which order and equate exactly as the gram values do.
    Each position scans only the images that share its color to the last
    assigned vertex, and an image that no automorphism reaches rules out its
    whole orbit under the generators found so far, which all fix the points
    before it.
    """
    return _automorphism_search(Gr)[0]


def _detected_group(search: tuple[list, tuple, int], realizer, degree: int
                    ) -> PermutationGroup:
    """The group of the candidates of a search that realizer realizes.  When
    none is dropped they are the search's strong generating set, and its
    order is known."""
    gens, base, order = search
    kept = [sigma for sigma in gens if realizer.realize(sigma) is not None]
    if len(kept) == len(gens):
        return PermutationGroup(kept, degree, base_prefix=base, order=order)
    return PermutationGroup(kept, degree=degree)


# ---------------------------------------------------------------------------
# Affine realization


class _VertexRealizer:
    """Checks vertex permutations on one fixed vertex set: realize returns
    the frame's integer T, or None.  The map (1, x) |-> T^t (1, x) / D moves
    the basis vertices to their images and fixes the directions e_j of the
    non-pivot coordinates, so a lower-dimensional vertex set gets the map
    that is the identity on that complement."""

    def __init__(self, V: VPolyhedron):
        if V.rays:
            raise PolyhedronError("affine realization requires a bounded polytope")
        self.k = V.k
        self.frame = V.frame

    def realize(self, sigma: Permutation) -> Optional[list]:
        return self.frame.image_matrix([sigma(i + 1) - 1 for i in range(self.k)])


def realize_vertex_permutation(V: VPolyhedron, sigma: Permutation) -> Optional[AffineMap]:
    """The affine map carrying vertex i to vertex sigma(i), or None."""
    realizer = _VertexRealizer(V)
    T = realizer.realize(sigma)
    if T is None:
        return None
    n, D = V.n, realizer.frame.D
    # (1, x) |-> T^t (1, x) / D: row 0 of T is the translation
    A = tuple(tuple(Fraction(T[b][a], D) for b in range(1, n + 1)) for a in range(1, n + 1))
    return AffineMap(A, tuple(Fraction(T[0][a], D) for a in range(1, n + 1)))


def affine_symmetry_group(V: VPolyhedron) -> PermutationGroup:
    """Affine symmetry group of a polytope, acting on its vertex indices.

    The integer frame of the vertices, V.frame, gives the gram colors and
    checks every candidate on all vertices, in integers; failed candidates
    are discarded.
    """
    search = _automorphism_search(_gram(_polytope_frame(V), centered=True))
    return _detected_group(search, _VertexRealizer(V), V.k)


class _RowRealizer:
    """Checks row permutations of an H-description: realize returns the
    integer T with (a | b) T / D = (a | b)_sigma on its primitive rows when
    that is the action of an affine map, or None."""

    def __init__(self, P: HPolyhedron):
        self.n = P.n
        self.m = P.m
        self.frame = P.frame
        if len(self.frame.basis) < self.n + 1:
            raise PolyhedronError(
                "homogenized rows do not span; input must be bounded and full-dimensional")

    def realize(self, sigma: Permutation) -> Optional[list]:
        n, frame = self.n, self.frame
        T = frame.image_matrix([sigma(i + 1) - 1 for i in range(self.m)])
        # an affine map acts on (a | b) with last row (0, ..., 0, 1) and an
        # invertible linear block, one with n pivots
        if (T is None or T[n] != [0] * n + [frame.D]
                or len(gauss_jordan(row[:n] for row in T[:n])[1]) < n):
            return None
        return T


def realize_row_permutation(P: HPolyhedron, sigma: Permutation) -> Optional[Matrix]:
    """The homogenized (a | b) action realizing a row permutation, or None.

    P must be irredundant, bounded and full-dimensional so that its primitive
    rows span R^(n+1).
    """
    realizer = _RowRealizer(P)
    T = realizer.realize(sigma)
    return None if T is None else tuple(
        tuple(Fraction(x, realizer.frame.D) for x in row) for row in T)


def are_affine_symmetries(P: Union[HPolyhedron, VPolyhedron],
                          perms: Sequence[Permutation]) -> bool:
    """Whether realize_vertex_permutation (V input) or realize_row_permutation
    (H input) realizes every permutation, checked in integers: no map is
    built."""
    if not isinstance(P, (HPolyhedron, VPolyhedron)):
        raise TypeError("expected an HPolyhedron or VPolyhedron")
    realizer = _VertexRealizer(P) if isinstance(P, VPolyhedron) else _RowRealizer(P)
    return all(realizer.realize(sigma) is not None for sigma in perms)


def restricted_symmetries_H(P: HPolyhedron) -> PermutationGroup:
    """Symmetries detectable from the inequality rows alone.

    Rows are scaled to primitive integer form (positive scaling only, so the
    halfspace is unchanged) and homogenized to (a | b) vectors, on which any
    affine symmetry of the polyhedron acts linearly.  The resulting group
    acts on 1-based row indices.  Requires an irredundant, full-dimensional
    description.
    """
    try:
        cleaned = remove_redundancy(P)
    except EmptyPolyhedronError:
        raise EmptyPolyhedronError("empty polyhedron has no affine hull")
    # an implicit equality lowers the dimension unless it is 0 = 0
    if any(any(cleaned.A[i - 1]) for i in cleaned.equality_rows):
        raise PolyhedronError("restricted symmetry detection needs a full-dimensional input")
    if cleaned.m != P.m or cleaned.equality_rows:
        raise PolyhedronError("restricted symmetry detection needs an irredundant description")
    realizer = _RowRealizer(P)
    search = _automorphism_search(_gram(realizer.frame, centered=False))
    return _detected_group(search, realizer, P.m)
