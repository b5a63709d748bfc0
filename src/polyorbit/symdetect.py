"""Affine symmetry detection for polytopes.

The detector reduces geometry to combinatorics, and does its linear algebra
once per polyhedron, in integers.  Its rows X are the homogenized vertices
(1, v) scaled by one common denominator, or the primitive homogenized rows
(a | b) of an H-description, on which any affine symmetry acts linearly.
Their integer affine frame, VPolyhedron.frame or HPolyhedron.frame, made
once per object in polycore by one elimination of [X^t | I], holds a greedy
row basis B, the pivot columns C of X_B, and integer coefficients L and a
scalar D with D X_j = sum_b L_jb X_b for every row j, each identity checked
exactly.  The frame also packs each row into one int K_j, entry c at bit
c w, for a width w from its own bound, 2 max|x| (|D| + the largest
sum_b |L_jb|): no entry of a difference of two such combinations reaches
2^(w-1), so packed sums are equal exactly when every entry is, and an
identity between rows costs one sum of rank-many ints.

The complete graph on row indices is edge-colored with the invariant of
Bremner, Dutour Sikiric, Pasechnik, Rehn and Schuermann, "Computing
symmetry groups of polyhedra" (2014): W = X (X^t X)^+ X^t, the orthogonal
projection onto the column space of X.  W does not depend on the basis it
is computed from, so it is read off the rows' own pivot columns Y = X[:, C],
which span that space in far smaller integers than L: Q = Y^t Y is positive
definite, and W = g / dq for an integer g = Y adj(Q/c) Y^t / h, c the content
of Q and h the common gcd of adj(Q/c) and c det(Q/c), which keep dq small.
Each column of Y is packed into one int and adj(Q/c) / h folds them into r
packed columns, so a row of g is one sum of r products.  W is an orthogonal
projection, so |g_ij| <= dq: a digit of whole bytes wider than dq, biased by
half its range, holds g_ij and sorts as it does, and one to_bytes cuts the
row into k comparable slices.  The trace of a rank-r projection is r, so
the diagonal must sum to r dq, or detection stops.  The search compares
the ranks of the distinct g, which order as W does, and makes no rational
color.

Color-preserving graph automorphisms are exactly the candidate symmetries.
A candidate sigma is an affine symmetry exactly when the frame's identities
survive relabeling, D K_sigma(j) = sum_b L_jb K_sigma(b), which _relabels
checks for every row outside the basis, so nothing reported can fail to be
a symmetry.  The frame records each verdict, so the group check of a
decomposition run after detection on the same object checks no generator
again.  The affine test of a row relabeling is one more packed sum: row n
of the integer map T with X_j T = D X_sigma(j) must be (0, ..., 0, D), and
the rows span there, so T is invertible and needs no elimination.  T is
multiplied out only by the two realize functions, which alone build a map
in Fractions.  The realizers are
the one shape check of each input form: _VertexRealizer refuses rays, no
points or a repeated point, and _RowRealizer an empty, lower-dimensional or
redundant system (read off HPolyhedron.dd) or rows that do not span.

The automorphism search runs along one base and finds every basic orbit of
the stabilizer chain on it, so the order of the group is the product of
those orbits' sizes and its generators are a strong generating set, from
which the group's chain is built at that order when every one is realized.
It checks consistency one way, by forward checking (Haralick and Elliott,
1980): each unassigned vertex keeps the bitset of the images that agree
with every assignment so far, and an assignment that empties one is undone.
A relabeling that keeps W is the relabeling of a linear map (Bremner et
al.), so once the shortest prefix of the assignment order whose rows span
is assigned, every other image is forced: the search reads each off its
one-element domain, and searches no level past that prefix.  That prefix
is found row by row against an echelon basis, stopping at the frame's
rank, and the bitsets near[w] that narrow the domains once a vertex is
sent to w are made when the search first sends one there.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain
from math import gcd
from operator import add, lshift, mul
from typing import Callable, Optional, Sequence, Union

from .polycore import (
    AffineMap,
    EmptyPolyhedronError,
    HPolyhedron,
    Matrix,
    PolyhedronError,
    VerificationError,
    VPolyhedron,
    adjugate,
    irredundant_rows,
)
from .permgrp import Permutation, PermutationGroup


# ---------------------------------------------------------------------------
# Gram graph of an integer frame


def _gram(frame) -> tuple[list, list, int]:
    """(rank, values, dq) of W = X (X^t X)^+ X^t = g / dq, the orthogonal
    projection onto the column space of a frame's rows X.

    W does not depend on the basis of that space it is computed from, so it
    is computed from the rows' pivot columns Y, which span it: Q = Y^t Y is
    positive definite.  Q is divided by its content c first, and adj(Q/c)
    and c det(Q/c) by their common gcd h, so g = Y adj(Q/c) Y^t / h is an
    integer matrix over dq = c det(Q/c) / h > 0.

    Each column of Y is packed into one int, row j's entry at digit k-1-j
    of width w, and adj(Q/c) / h folds them into r packed columns M_c, so
    row i of g is the one sum sum_c y_ic M_c.  As W is an orthogonal
    projection, |g_ij| <= dq < 2^(w-1) for w the smallest multiple of 8
    above the bit length of dq, so adding 2^(w-1) to every digit makes each
    one nonnegative and below 2^w: the big-endian bytes of the row, cut
    into k slices of w bits, are g_i0, ..., g_i(k-1) biased, and compare as
    they do.  values are the distinct g_ij ascending and rank[i][j] the index
    of g_ij, which orders pairs as W does.  The trace of a rank-r projection
    is r, so the diagonal must sum to r dq; VerificationError if not."""
    Y = [[row[c] for c in frame.pivots] for row in frame.rows]
    k, ycols = len(Y), list(zip(*Y))
    Q = [[sum(map(mul, u, v)) for v in ycols] for u in ycols]
    c = gcd(*chain.from_iterable(Q))
    D, RQ = adjugate([[x // c for x in row] for row in Q])      # symmetric, as Q is
    h = gcd(c * D, *chain.from_iterable(RQ))
    dq, RQ = c * D // h, [[x // h for x in row] for row in RQ]
    if dq <= 0:
        raise VerificationError("gram matrix of the frame is not positive definite")
    b = dq.bit_length() // 8 + 1        # bytes a digit: 2^(8b-1) > dq
    w, n = 8 * b, k * b
    shifts = range((k - 1) * w, -1, -w)
    P = [sum(map(lshift, col, shifts)) for col in ycols]
    M = [sum(map(mul, row, P)) for row in RQ]
    bias = int.from_bytes((b"\x80" + bytes(b - 1)) * k, "big")
    G = []
    for y in Y:
        row = (sum(map(mul, y, M)) + bias).to_bytes(n, "big")
        G.append([row[t:t + b] for t in range(0, n, b)])
    keys = sorted(set().union(*G))
    lookup = {key: r for r, key in enumerate(keys)}
    rank = [list(map(lookup.__getitem__, row)) for row in G]
    values = [int.from_bytes(key, "big") - (1 << w - 1) for key in keys]
    if sum(values[rank[i][i]] for i in range(k)) != len(frame.pivots) * dq:
        raise VerificationError(f"gram of a {k}-row frame fails its trace check")
    return rank, values, dq


# ---------------------------------------------------------------------------
# Automorphisms of the colored graph


def _refine_colors(gram: Sequence[Sequence[int]]) -> list:
    """Stable vertex coloring: start from diagonal colors, repeatedly refine
    by the multiset of (neighbor color, edge color) pairs, each the integer
    color * E + edge for E above every edge color, which orders as pairs do."""
    E = 1 + max(map(max, gram))
    diag = [row[i] for i, row in enumerate(gram)]
    lookup = {v: r for r, v in enumerate(sorted(set(diag)))}
    colors = [lookup[v] for v in diag]
    while True:
        scaled = [c * E for c in colors]
        sigs = []
        for i, row in enumerate(gram):
            neigh = list(map(add, scaled, row))
            del neigh[i]
            neigh.sort()
            sigs.append((colors[i], tuple(neigh)))
        ranked = sorted(set(sigs))
        lookup = {s: r for r, s in enumerate(ranked)}
        new = [lookup[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _automorphism_search(gram: Sequence[Sequence[int]], spans: Callable[[list], int]
                         ) -> tuple[list, tuple, int]:
    """(generators, base, order) of the automorphism group of the complete
    graph whose edge {i+1, j+1} has the integer color gram[i][j].

    The search runs along the assignment order and finds every basic orbit
    of the stabilizer chain on that order, so the generators are a strong
    generating set on base, the points of the order whose basic orbit is
    nontrivial, and the order of the group is the product of those orbits'
    sizes.  Domains drop only images that no completion uses, so each branch
    finds the completion that a plain ascending scan would find.

    spans(order) is the length of a prefix of order whose images force every
    other image: the search reads those off their one-element domains, and
    searches no level past it.  A graph with no rows behind it passes len."""
    k = len(gram)
    if k <= 1:
        return [], (), 1
    colors = _refine_colors(gram)
    cell_size = {c: colors.count(c) for c in set(colors)}
    # assignment order: smallest color cells first, lowest index first
    order = sorted(range(k), key=lambda i: (cell_size[colors[i]], colors[i], i))
    cells: dict = {}
    for x, c in enumerate(colors):
        cells[c] = cells.get(c, 0) | 1 << x
    # near[y][c]: the bitset of the vertices x != y with gram[x][y] == c, made
    # on its first read, as a search reads few of them.  A vertex u sent to
    # its image img[u] leaves x only the images in near[img[u]][gram[x][u]],
    # which keep x's color to u and differ from img[u]
    near: list = [None] * k
    top = min(spans(order), k - 1)    # the levels below top are searched
    # after[p]: the colors of order[p+1:] to order[p], for each p narrowed on
    after = [[gram[x][order[p]] for x in order[p + 1:]] for p in range(top)]

    def narrow(doms: list, p: int, w: int) -> Optional[list]:
        """The domains of order[p+1:], given doms, the domains of order[p:],
        once order[p] is sent to w; None if one empties."""
        nw = near[w]
        if nw is None:
            nw = near[w] = {}
            for x, row in enumerate(gram):
                if x != w:
                    nw[row[w]] = nw.get(row[w], 0) | 1 << x
        out = [d & nw.get(c, 0) for d, c in zip(doms[1:], after[p])]
        return out if all(out) else None

    # fixed[l]: the domains of order[l:] with order[:l] fixed pointwise; a
    # vertex is always in its own, so none empties
    fixed = [[cells[colors[x]] for x in order]]
    for p in range(top - 1):
        fixed.append(narrow(fixed[p], p, order[p]))

    def complete(level: int, w0: int) -> Optional[list]:
        """Images (0-based) of one automorphism fixing order[:level] and
        sending order[level] to w0.

        Depth-first over the positions order[level:], with an explicit
        stack of (untried images, domains from that position on): each
        position takes the images of its domain in ascending order, and an
        image that empties a later domain is not taken.  From position top
        on, each image is the one in its domain."""
        img = list(range(k))    # order[:level] is fixed pointwise
        stack = [(iter((w0,)), fixed[level])]
        while stack:
            cands, doms = stack[-1]
            w = next(cands, None)
            if w is None:
                stack.pop()
                continue
            p = level + len(stack) - 1
            img[order[p]] = w
            doms = narrow(doms, p, w)
            if doms and p + 1 >= top:
                for x, d in zip(order[p + 1:], doms):
                    img[x] = d.bit_length() - 1
                return img
            if doms:
                stack.append((_bits(doms[0]), doms))
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
    for level in range(top - 1, -1, -1):
        v = order[level]
        orb = orbit_of(v)
        # every generator found so far fixes order[:level], so an image w
        # that no automorphism reaches rules out the orbit of w as well
        failed: set = set()
        for w in _bits(fixed[level][0]):
            if w in orb or w in failed:
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


# ---------------------------------------------------------------------------
# Affine realization


def _relabels(frame, img: Sequence[int]) -> bool:
    """Whether D X_img[j] = sum_b L_jb X_img[basis[b]] for every row j of a
    frame outside its basis, for a 0-based relabeling img: exactly when some
    matrix T has X_j T = D X_img[j] for every j, and then _image_matrix is
    one.  Each row is one sum of the frame's packed rows.  The verdict is
    recorded in frame.images."""
    img = tuple(img)
    if img not in frame.images:
        if len(img) != len(frame.rows):
            raise PolyhedronError(f"permutation of degree {len(img)} on {len(frame.rows)} indices")
        frame.images[img] = frame.keeps(img, frame.others)
    return frame.images[img]


def _image_matrix(frame, img: Sequence[int]) -> list:
    """T = R [X_img[basis]; units], which moves each basis row of a frame to
    its image, as N R = D I, and fixes each unit row.  It reads frame.R
    first, which may rescale frame.D."""
    R = frame.R
    cols = list(zip(*([frame.rows[img[b]] for b in frame.basis] + frame.units)))
    return [[sum(map(mul, r, col)) for col in cols] for r in R]


class _VertexRealizer:
    """Checks vertex permutations on one fixed vertex set: realize says
    whether one is the relabeling of an affine map.  The map that
    realize_vertex_permutation builds, (1, x) |-> T^t (1, x) / D, moves the
    basis vertices to their images and fixes the directions e_j of the
    non-pivot coordinates, so a lower-dimensional vertex set gets the map
    that is the identity on that complement."""

    def __init__(self, V: VPolyhedron):
        if V.rays:
            raise PolyhedronError("affine realization requires a bounded polytope")
        if not V.k:
            raise EmptyPolyhedronError("no points given")
        # one positive scale clears every denominator: equal scaled points are equal
        if len(set(V.int_points[1])) != V.k:
            raise PolyhedronError("duplicate points in the input")
        self.frame = V.frame

    def realize(self, sigma: Permutation) -> bool:
        return _relabels(self.frame, [x - 1 for x in sigma.images])


def realize_vertex_permutation(V: VPolyhedron, sigma: Permutation) -> Optional[AffineMap]:
    """The affine map carrying vertex i to vertex sigma(i), or None."""
    frame = _VertexRealizer(V).frame
    img = [x - 1 for x in sigma.images]
    if not _relabels(frame, img):
        return None
    T = _image_matrix(frame, img)
    n, D = V.n, frame.D
    # (1, x) |-> T^t (1, x) / D: row 0 of T is the translation
    A = tuple(tuple(Fraction(T[b][a], D) for b in range(1, n + 1)) for a in range(1, n + 1))
    return AffineMap(A, tuple(Fraction(T[0][a], D) for a in range(1, n + 1)))


def _spanning_prefix(frame, order: Sequence[int]) -> int:
    """The length of the shortest prefix of order whose frame rows span.

    The rows' coefficients over the frame basis span exactly when the rows
    do, so they are reduced one at a time, in order, against an echelon
    basis of those before, each new one kept primitive, until the basis
    reaches the frame's rank: no row past that prefix is read."""
    full, echelon = len(frame.basis), []
    for length, i in enumerate(order, 1):
        v = frame.coeffs[i]
        for p, u in echelon:
            if v[p]:
                a, b = u[p], v[p]
                v = [a * x - b * y for x, y in zip(v, u)]
        p = next((c for c, x in enumerate(v) if x), None)
        if p is not None:
            g = gcd(*v)
            echelon.append((p, [x // g for x in v]))
            if len(echelon) == full:
                return length
    raise VerificationError("frame rows do not reach the rank of their frame")


def _frame_symmetries(realizer, degree: int) -> PermutationGroup:
    """The group of the automorphisms of the frame's gram graph that
    realizer realizes, searched up to the shortest spanning prefix.  When no
    candidate is dropped they are the search's strong generating set, and
    its order is known."""
    frame = realizer.frame
    gens, base, order = _automorphism_search(_gram(frame)[0], partial(_spanning_prefix, frame))
    kept = [sigma for sigma in gens if realizer.realize(sigma)]
    if len(kept) == len(gens):
        return PermutationGroup(kept, degree, base_prefix=base, order=order)
    return PermutationGroup(kept, degree=degree)


def affine_symmetry_group(V: VPolyhedron) -> PermutationGroup:
    """Affine symmetry group of a polytope, acting on its vertex indices.

    The integer frame of the vertices, V.frame, gives the gram colors and
    checks every candidate on all vertices, in integers; failed candidates
    are discarded.
    """
    return _frame_symmetries(_VertexRealizer(V), V.k)


class _RowRealizer:
    """Checks row permutations of an H-description: realize says whether one
    is the action of an affine map on its primitive rows, (a | b) T / D =
    (a | b)_sigma.  Only this check reads an HPolyhedron's frame, and it
    records its verdict there: a relabeling that the frame's identities
    survive but whose T is no affine action is recorded as False."""

    def __init__(self, P: HPolyhedron):
        try:
            V, masks = P.dd
        except EmptyPolyhedronError:
            raise EmptyPolyhedronError("empty polyhedron has no affine hull")
        equalities, kept, _ = irredundant_rows(masks, P.m, V.k)
        # an implicit equality lowers the dimension unless it is 0 = 0
        if any(any(P.int_rows[i][:-1]) for i in equalities):
            raise PolyhedronError("restricted symmetry detection needs a full-dimensional input")
        if equalities or len(kept) != P.m:
            raise PolyhedronError("restricted symmetry detection needs an irredundant description")
        self.n = P.n
        self.frame = P.frame
        if len(self.frame.basis) < self.n + 1:
            raise PolyhedronError(
                "homogenized rows do not span; input must be bounded and full-dimensional")

    def realize(self, sigma: Permutation) -> bool:
        n, frame = self.n, self.frame
        img = tuple(x - 1 for x in sigma.images)
        if img not in frame.images and _relabels(frame, img):
            # an affine map acts on (a | b) with last row (0, ..., 0, 1).  Row n
            # of T = R X_img[basis] is one sum of packed rows, and the spanning
            # rows make T invertible, as X T = D X_img has full rank
            K = frame.packed
            frame.images[img] = sum(map(mul, frame.R[n], (K[img[b]] for b in frame.basis))) \
                == frame.D << n * frame.w
        return frame.images[img]


def realize_row_permutation(P: HPolyhedron, sigma: Permutation) -> Optional[Matrix]:
    """The homogenized (a | b) action realizing a row permutation, or None.

    P must be nonempty, full-dimensional and irredundant, with primitive rows
    that span R^(n+1); it need not be bounded.
    """
    realizer = _RowRealizer(P)
    if not realizer.realize(sigma):
        return None
    frame = realizer.frame
    T = _image_matrix(frame, [x - 1 for x in sigma.images])
    return tuple(tuple(Fraction(x, frame.D) for x in row) for row in T)


def are_affine_symmetries(P: Union[HPolyhedron, VPolyhedron],
                          perms: Sequence[Permutation]) -> bool:
    """Whether realize_vertex_permutation (V input) or realize_row_permutation
    (H input) realizes every permutation, checked in integers: no map is
    built."""
    if not isinstance(P, (HPolyhedron, VPolyhedron)):
        raise TypeError("expected an HPolyhedron or VPolyhedron")
    realizer = _VertexRealizer(P) if isinstance(P, VPolyhedron) else _RowRealizer(P)
    return all(realizer.realize(sigma) for sigma in perms)


def restricted_symmetries_H(P: HPolyhedron) -> PermutationGroup:
    """Symmetries detectable from the inequality rows alone.

    Rows are scaled to primitive integer form (positive scaling only, so the
    halfspace is unchanged) and homogenized to (a | b) vectors, on which any
    affine symmetry of the polyhedron acts linearly.  The resulting group
    acts on 1-based row indices.  P must pass the row check, as in
    realize_row_permutation.
    """
    return _frame_symmetries(_RowRealizer(P), P.m)
