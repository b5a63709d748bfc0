"""Representation conversion for polytopes, plain and up to symmetries.

The base converter is the double description method of polycore, run on a
homogenization cone in integer arithmetic; it also reports which input
elements each output element is tight on, and every facet incidence set
below is read from those masks.  On top of it sit two orbitwise methods for
vertex input: adjacency decomposition (seed one facet, walk to neighbors
across ridges, keep one representative per orbit, record the orbit pairs
crossed, off which the adjacency graph is read) and incidence decomposition
(enumerate the facets through one representative point of each input
orbit).  Both catalog facet orbits in an OrbitLedger keyed by canonical
incident-vertex sets, so any two runs agree key-for-key.  Every facet orbit
is expanded by permgrp.orbit_of_set and keyed by its lexicographically
least member, so an orbit is known exactly when its key is; an orbit past
the set budget stops the conversion.  orbit_of_set expands each orbit once:
a facet that lies in an orbit already expanded is looked up, not expanded
again.  The set_stabilizer call of _ridges still repeats that breadth-first
expansion for each walked orbit, to find its witnesses.  Everything runs
serially on one thread.

The facet walk runs in integer arithmetic.  The points are scaled once per
polytope by the lcm of their denominators, which keeps every incidence set
and every choice of the walk.  Supporting rows are primitive integer rows
from an integer null space, a rotation about a ridge compares the
parameters of the pencil by cross-multiplying integers, and the coordinates
of a facet's vertices in its hull are read off the pivot columns of one
elimination (polycore.hull_coordinates).

For an H-description one double description gives every vertex together
with the rows it is tight on; the row group acts on those tight sets, which
gives the group on vertex indices, and the facet orbits of the input are its
row orbits.  Either way a completed ledger knows the full vertex list, the
group acting on vertex indices, and one supporting row per facet orbit.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul, sub
from typing import Iterable, Iterator, Optional, Sequence, Union

from .polycore import (
    EmptyPolyhedronError,
    HPolyhedron,
    PolyhedronError,
    VPolyhedron,
    Vector,
    affine_hull,
    convert_dd,
    convert_dd_incidence,
    dd_cone,
    dot,
    hull_coordinates,
    index_set,
    integer_nullspace,
    invert_matrix,
    irredundant_rows,
    mat_mul,
    mat_vec,
    primitive,
    transpose,
    vec_sub,
    vector,
)
from .permgrp import (
    Permutation,
    PermutationGroup,
    SetOrbit,
    orbit_of_set,
    set_stabilizer,
)
from .symdetect import realize_row_permutations, realize_vertex_permutations

# convert_dd is polycore's, like dd_cone; both stay importable from here,
# where polybench/spans.py and earlier callers look them up.


# ---------------------------------------------------------------------------
# Facet-orbit engine (vertex side)
#
# All engine functions work on a full-dimensional list of integer points in
# R^d (d >= 1) with 1-based indices; facets are identified with their full
# incident-index sets.  Supporting rows are recovered from incidence sets,
# so recursion only ever passes index sets around.


def _supporting_row(pts: Sequence[Sequence[int]], S: frozenset) -> tuple[tuple[int, ...], int]:
    """(a, delta), primitive, with a.x <= delta over pts and equality
    exactly on S.

    S must be the full incidence set of a facet, so the normal direction is
    unique up to scale and every point off S is strictly below the hyperplane.
    """
    members = sorted(S)
    base = pts[members[0] - 1]
    ns = integer_nullspace([tuple(map(sub, pts[i - 1], base)) for i in members[1:]],
                           len(base))
    if len(ns) != 1:
        raise PolyhedronError("index set does not span a facet")
    a = ns[0]
    delta = sum(map(mul, a, base))
    for j, p in enumerate(pts):
        if (j + 1) in S:
            continue
        val = sum(map(mul, a, p))
        if val == delta:
            raise PolyhedronError("index set is not a full incidence set")
        if val > delta:
            a = tuple(-x for x in a)
            delta = -delta
        break
    return a, delta


def _rotate_about(pts: Sequence[Sequence[int]], face: frozenset, c: tuple[int, ...],
                  delta: int, skip: frozenset, away: Optional[int] = None
                  ) -> Optional[tuple[tuple[int, ...], int, list[int]]]:
    """Rotate the hyperplane c.x = delta about aff(face) to the first points
    outside skip, or None when face already spans a hyperplane.

    The hyperplanes through aff(face) form a pencil spanned by c and any
    second functional g vanishing on the face directions; g is oriented so
    that the point away (if given) is not above it.  The rotated row is
    g + t c at the largest parameter t = (g.p - gamma) / (delta - c.p) over
    the points p outside skip, and the 1-based indices attaining it come
    back with the rotated row, scaled to a primitive (row | rhs).  Every
    point outside skip lies strictly below c.x = delta, so each denominator
    is positive and two parameters compare by cross-multiplying integers.
    """
    members = sorted(face)
    base = pts[members[0] - 1]
    ns = integer_nullspace([tuple(map(sub, pts[i - 1], base)) for i in members[1:]],
                           len(base))
    if len(ns) == 1:
        return None
    k = next(j for j, x in enumerate(c) if x)
    # the first null vector not parallel to c
    g = next(v for v in ns if any(x * c[k] != y * v[k] for x, y in zip(v, c)))
    if away is not None and sum(map(mul, g, pts[away - 1])) > sum(map(mul, g, base)):
        g = tuple(-x for x in g)
    gamma = sum(map(mul, g, base))
    num, den = 0, 0               # t = num / den, den > 0 once a point is seen
    arg: list[int] = []
    for i, p in enumerate(pts):
        if (i + 1) in skip:
            continue
        pn = sum(map(mul, g, p)) - gamma
        pd = delta - sum(map(mul, c, p))
        cmp = pn * den - num * pd
        if not arg or cmp > 0:
            num, den, arg = pn, pd, [i + 1]
        elif cmp == 0:
            arg.append(i + 1)
    row = primitive([den * x + num * y for x, y in zip(g, c)] + [den * gamma + num * delta])
    return row[:-1], row[-1], arg


def _initial_facet(pts: Sequence[Sequence[int]]) -> frozenset:
    """Deterministic seed facet: maximize the first coordinate, then rotate
    the supporting hyperplane to enlarge the optimal face until it spans
    dimension d-1.  Each rotation pivots within the pencil of hyperplanes
    through the current face, so the face grows strictly."""
    c = (1,) + (0,) * (len(pts[0]) - 1)
    delta = max(p[0] for p in pts)
    S = frozenset(i + 1 for i, p in enumerate(pts) if p[0] == delta)
    while True:
        step = _rotate_about(pts, S, c, delta, S)
        if step is None:
            return S
        c, delta, arg = step
        S |= set(arg)


def _neighbor_facet(pts: Sequence[Sequence[int]], F: frozenset, c: tuple[int, ...],
                    delta: int, R: frozenset) -> frozenset:
    """The unique facet other than F containing the ridge R.

    The neighbor is cut out at the extreme admissible parameter of the pencil
    of hyperplanes through aff(R), a finite maximum over the vertices outside
    F, with the second functional oriented to support F.
    """
    f0 = next(i for i in sorted(F) if i not in R)
    return R | set(_rotate_about(pts, R, c, delta, F, away=f0)[2])


def _ridges(G: PermutationGroup, members: list[int], local: Sequence[Sequence[int]],
            levels: tuple[int, int], depth: int) -> list[tuple[int, ...]]:
    """Ridges of the facet on the sorted vertices members (hull coordinates
    local), one per orbit of its stabilizer in G, as indices into members."""
    pos = {v: j + 1 for j, v in enumerate(members)}
    sub_gens = [Permutation(tuple(pos[g(v)] for v in members))
                for g in set_stabilizer(G, frozenset(members)).generators]
    sub_group = PermutationGroup(sub_gens, degree=len(members))
    return [r.representative
            for r in _facet_orbit_engine(local, sub_group, levels, depth + 1)[0]]


def _neighbor_facets(pts: Sequence[Sequence[int]], G: PermutationGroup, key: tuple[int, ...],
                     levels: tuple[int, int], depth: int) -> Iterator[frozenset]:
    """Facets adjacent to the facet key, one per orbit of its ridges under
    its stabilizer.  They reach every neighboring facet orbit, because
    ridges in one stabilizer orbit lead to neighbors in one facet orbit."""
    F = frozenset(key)
    c, delta = _supporting_row(pts, F)
    members = sorted(F)
    local = hull_coordinates([pts[i - 1] for i in members])
    return (_neighbor_facet(pts, F, c, delta, frozenset(members[j - 1] for j in R))
            for R in _ridges(G, members, local, levels, depth))


def _distinct_orbits(G: PermutationGroup, sets: Iterable[frozenset]) -> list[SetOrbit]:
    """The orbits of the given sets under G in discovery order, each
    expanded once: a set in an orbit already expanded is skipped."""
    found = []
    known: set = set()
    for S in sets:
        if S not in known:
            orb = orbit_of_set(G, S)
            found.append(orb)
            known |= orb.elements
    return found


def _plain_orbits(pts: Sequence[Vector], G: PermutationGroup) -> list[SetOrbit]:
    return _distinct_orbits(
        G, map(index_set, convert_dd_incidence(VPolyhedron.from_points(pts))[1]))


def _idm_orbits(pts: Sequence[Vector], G: PermutationGroup) -> list[SetOrbit]:
    """One representative point per point orbit; all facets through it come
    from the dual of its tangent cone.  Every facet contains some vertex, so
    the union over the orbit representatives covers everything."""
    d = len(pts[0])

    def facets():
        for p0 in sorted(min(orb) for orb in G.point_orbits()):
            v0 = pts[p0 - 1]
            rows = [vec_sub(p, v0) for i, p in enumerate(pts) if i + 1 != p0]
            # row t is point t + 1, or t + 2 past p0; a ray of the cone is
            # tight on the rows of the points on its facet
            for mask in dd_cone(rows, d)[2]:
                yield frozenset(j if j < p0 else j + 1 for j in index_set(mask)) | {p0}

    return _distinct_orbits(G, facets())


def _walk(pts: Sequence[Sequence[int]], G: PermutationGroup, start: Iterable[SetOrbit],
          levels: tuple[int, int], depth: int) -> tuple[list[SetOrbit], frozenset]:
    """Breadth-first walk over facet orbits from the start orbits: the
    orbits in discovery order and every (key, neighbor key) pair crossed.
    The frontier is processed in sorted rounds and results are merged in
    batch order, so both are deterministic.  Every facet of an expanded
    orbit is mapped to its key, so only a neighbor in an orbit not yet met
    is expanded."""
    entries = {orb.representative: orb for orb in start}
    key_of = {X: key for key, orb in entries.items() for X in orb.elements}
    pairs = set()
    frontier = list(entries)
    while frontier:
        batch = sorted(frontier)
        frontier = []
        for key in batch:
            for N in _neighbor_facets(pts, G, key, levels, depth):
                if N not in key_of:
                    orb = orbit_of_set(G, N)
                    entries[orb.representative] = orb
                    key_of.update(dict.fromkeys(orb.elements, orb.representative))
                    frontier.append(orb.representative)
                pairs.add((key, key_of[N]))
    return list(entries.values()), frozenset(pairs)


def _facet_orbit_engine(pts: Sequence[Vector], G: PermutationGroup, levels: tuple[int, int],
                        depth: int) -> tuple[list[SetOrbit], Optional[frozenset]]:
    """Facet orbits of conv(pts), one SetOrbit per orbit, discovery order,
    and the (key, neighbor key) pairs of the walk, or None without one.

    pts must be distinct and affinely span their space.  The levels policy
    (l1, l2) picks the method by recursion depth: below l1 incidence
    decomposition, below l2 adjacency decomposition (the walk from the seed
    facet) with the stabilizer, anything deeper is a plain conversion.
    """
    if not pts or not pts[0]:
        return [], None
    l1, l2 = levels
    if len(pts[0]) == 1:
        # a segment's two facets share no ridge, so the walk cannot reach
        # one from the other; enumerate directly
        return _plain_orbits(pts, G), None
    if depth < l1:
        return _idm_orbits(pts, G), None
    if depth < l2:
        return _walk(pts, G, [orbit_of_set(G, _initial_facet(pts))], levels, depth)
    return _plain_orbits(pts, G), None


# ---------------------------------------------------------------------------
# Orbit ledger


class _Geometry:
    """Point list in integer hull coordinates plus the lift back to ambient
    rows.

    The hull coordinates of the points are scaled once by the lcm of their
    denominators.  A positive uniform scale keeps every facet incidence set
    and every argmax of the facet walk, and a row a.x <= delta in the scaled
    coordinates is a.y <= delta / scale in the unscaled ones.
    """

    def __init__(self, points: Sequence[Vector]):
        pts = [vector(p) for p in points]
        if len(set(pts)) != len(pts):
            raise PolyhedronError("duplicate points in the input")
        self.ambient = pts
        local = hull_coordinates(pts)
        self.d = len(local[0])
        if self.d == len(pts[0]):
            local = pts
            self._lift = None
        else:
            self._hull = affine_hull(pts)
            D = self._hull.directions
            gram = mat_mul(D, transpose(D))
            # coordinates(x) = M (x - point) with M the pseudo-inverse below
            self._lift = mat_mul(invert_matrix(gram), D)
        self.scale = lcm(*(x.denominator for p in local for x in p))
        self.local = [tuple(x.numerator * (self.scale // x.denominator) for x in p)
                      for p in local]

    def ambient_row(self, a: Sequence[int], delta: int) -> tuple[int, ...]:
        """Lift a supporting row from scaled hull coordinates to the ambient
        space, normalized to a primitive integer (a | b) tuple."""
        delta = Fraction(delta, self.scale)
        if self._lift is None:
            return primitive(tuple(a) + (delta,))
        a_amb = mat_vec(transpose(self._lift), a)
        b_amb = delta + dot(a_amb, self._hull.point)
        return primitive(tuple(a_amb) + (b_amb,))


@dataclass(frozen=True)
class FacetOrbit:
    """One facet orbit: the orbit itself and a supporting row for its
    representative (primitive, ambient)."""
    orbit: SetOrbit
    row: tuple[int, ...]

    @property
    def key(self) -> tuple[int, ...]:
        """The canonical incident-vertex set: the orbit's lex-least member."""
        return self.orbit.representative

    @property
    def size(self) -> int:
        return self.orbit.size


@dataclass(frozen=True)
class OrbitLedger:
    """Facet orbits keyed by canonical incident-vertex sets (discovery order),
    together with the vertex list the keys index into and the group acting on
    those vertex indices.  A ledger from the facet walk also holds the
    (key, neighbor key) pairs the walk crossed; edges is None otherwise."""
    entries: dict
    vertices: tuple
    vertex_group: PermutationGroup
    edges: Optional[frozenset] = None

    @property
    def orbit_count(self) -> int:
        return len(self.entries)

    @property
    def total_elements(self) -> int:
        return sum(e.orbit.size for e in self.entries.values())

    def keys(self) -> list[tuple[int, ...]]:
        return list(self.entries)

    def vertex_orbits(self) -> list[frozenset]:
        return self.vertex_group.point_orbits()

    def facet_sets(self) -> set:
        """Every facet of the polytope as an incident-vertex frozenset, read
        off the expanded orbits."""
        return set().union(*(e.orbit.elements for e in self.entries.values()))

    def facet_rows(self) -> set:
        """Every facet as a primitive supporting row (a | b), recomputed from
        the expanded incidence sets."""
        geo = _Geometry(list(self.vertices))
        out = set()
        for S in self.facet_sets():
            a, delta = _supporting_row(geo.local, S)
            out.add(geo.ambient_row(a, delta))
        return out


def _check_levels(levels) -> tuple[int, int]:
    try:
        l1, l2 = levels
    except (TypeError, ValueError):
        raise PolyhedronError("levels must be a pair of non-negative integers")
    if not (isinstance(l1, int) and isinstance(l2, int)) or l1 < 0 or l2 < 0:
        raise PolyhedronError("levels must be a pair of non-negative integers")
    return l1, l2


def _decompose_points(V: VPolyhedron, G: PermutationGroup,
                      levels: tuple[int, int]) -> OrbitLedger:
    if V.rays:
        raise PolyhedronError("decomposition requires a polytope, not rays")
    if G.degree != V.k:
        raise PolyhedronError("group degree does not match the number of vertices")
    if any(amap is None for amap in realize_vertex_permutations(V, G.generators)):
        raise PolyhedronError("group generator is not an affine symmetry of the vertex set")
    geo = _Geometry(V.vertices)
    orbits, pairs = _facet_orbit_engine(geo.local, G, levels, 0)
    entries = {}
    for orb in orbits:
        a, delta = _supporting_row(geo.local, frozenset(orb.representative))
        entries[orb.representative] = FacetOrbit(orb, geo.ambient_row(a, delta))
    return OrbitLedger(entries, tuple(geo.ambient), G, pairs)


def _decompose_rows(P: HPolyhedron, G: PermutationGroup) -> OrbitLedger:
    if P.equality_rows:
        raise PolyhedronError("decomposition requires an inequality-only description")
    if G.degree != P.m:
        raise PolyhedronError("group degree does not match the number of rows")
    # every vertex with the rows it is tight on; a row permutation in G maps
    # the tight set of a vertex onto the tight set of its image
    try:
        V, masks = convert_dd_incidence(P)
    except EmptyPolyhedronError:
        # an empty P gives no rays; its recession cone picks the message
        lin, rays, _ = dd_cone(P.A, P.n)
        if lin or rays:
            raise PolyhedronError("decomposition requires a bounded polytope")
        raise EmptyPolyhedronError("empty polyhedron has no affine hull")
    if V.rays:
        raise PolyhedronError("decomposition requires a bounded polytope")
    equalities, kept = irredundant_rows(masks, P.m, len(V.vertices))
    # an implicit equality lowers the dimension unless it is 0 = 0
    if any(any(P.A[i]) for i in equalities):
        raise PolyhedronError("decomposition requires a full-dimensional polytope")
    if equalities or len(kept) != P.m:
        raise PolyhedronError("decomposition requires an irredundant description")
    if any(L is None for L in realize_row_permutations(P, G.generators)):
        raise PolyhedronError("group generator is not an affine symmetry of the rows")

    order = sorted(range(len(V.vertices)), key=V.vertices.__getitem__)
    vert_list = [V.vertices[j] for j in order]
    vert_tight = [masks[j] for j in order]
    vertex_of = {T: j + 1 for j, T in enumerate(vert_tight)}
    vgens = []
    for g in G.generators:
        images = tuple(vertex_of[sum(1 << (g(i) - 1) for i in index_set(T))]
                       for T in vert_tight)
        vgens.append(Permutation(images))
    vertex_group = PermutationGroup(vgens, degree=len(vert_list))

    entries = {}
    for row_orbit in sorted(G.point_orbits(), key=min):
        rep = min(row_orbit)
        S = frozenset(j + 1 for j, T in enumerate(vert_tight) if T >> (rep - 1) & 1)
        orb = orbit_of_set(vertex_group, S)
        if orb.size != len(row_orbit):
            raise PolyhedronError("internal error: row and facet orbits disagree")
        row = primitive(tuple(P.A[rep - 1]) + (P.b[rep - 1],))
        entries[orb.representative] = FacetOrbit(orb, row)
    return OrbitLedger(entries, tuple(vert_list), vertex_group)


def adjacency_decomposition(P: Union[HPolyhedron, VPolyhedron], G: PermutationGroup,
                            levels: tuple[int, int] = (0, 1)) -> OrbitLedger:
    """Facet orbits by the neighbor-walk method.

    Seeds with one facet, then repeatedly takes a pending orbit
    representative, computes its ridges (facets of the facet, up to the
    stabilizer), rotates each ridge to the neighboring facet and inserts
    unseen orbits, until no pending orbit remains.  For an H-description the
    facet orbits are the row orbits and one double description gives the
    vertices, so levels is checked but chooses no method there.

    G must act by affine symmetries on the inequality indices (H input) or
    vertex indices (V input); this is verified up front and violations are
    rejected.  The input must be a bounded polytope, and full-dimensional and
    irredundant when given by rows.
    """
    lv = _check_levels(levels)
    if isinstance(P, VPolyhedron):
        return _decompose_points(P, G, lv)
    if isinstance(P, HPolyhedron):
        return _decompose_rows(P, G)
    raise TypeError("expected an HPolyhedron or VPolyhedron")


def incidence_decomposition(P: Union[HPolyhedron, VPolyhedron], G: PermutationGroup
                            ) -> OrbitLedger:
    """Facet orbits by fixing input orbits.

    For one representative of each input-element orbit, all facets incident
    to it are enumerated through a lower-dimensional conversion (the dual of
    its tangent cone) and canonicalized; the union over the orbit
    representatives covers every facet because each facet touches some input
    element.  For an H-description there is no walk to choose: the ledger
    comes from one double description, as in adjacency_decomposition.
    Preconditions match adjacency_decomposition, and so does the resulting
    ledger.
    """
    if isinstance(P, VPolyhedron):
        return _decompose_points(P, G, (1, 1))   # incidence method at depth 0
    if isinstance(P, HPolyhedron):
        return _decompose_rows(P, G)
    raise TypeError("expected an HPolyhedron or VPolyhedron")


# ---------------------------------------------------------------------------
# Facet adjacency up to symmetry


@dataclass(frozen=True)
class AdjacencyGraphUpToSymmetry:
    """Nodes are facet orbits (discovery order, numbered from 1); an edge
    joins two orbits whenever some facet of one shares a ridge with some
    facet of the other.  Self-loops record adjacency within one orbit."""
    keys: tuple
    sizes: tuple
    edges: frozenset

    @property
    def node_count(self) -> int:
        return len(self.keys)

    def neighbors(self, i: int) -> list[int]:
        if not 1 <= i <= self.node_count:
            raise ValueError(f"unknown node {i}")
        out = set()
        for u, v in self.edges:
            if u == i:
                out.add(v)
            if v == i:
                out.add(u)
        return sorted(out)


def adjacency_graph(ledger: OrbitLedger) -> AdjacencyGraphUpToSymmetry:
    """Facet adjacency graph of a completed ledger, read off the facet walk,
    with nodes numbered in ledger order.

    A ledger from the walk holds the orbit pairs it crossed; any other
    ledger is walked once from its own orbits at the default levels (0, 1).
    Symmetry carries any adjacent pair onto a pair involving a
    representative, so every edge is seen, self-loops included.
    """
    keys = list(ledger.entries)
    node_of = {key: i + 1 for i, key in enumerate(keys)}
    pairs = ledger.edges
    if pairs is None:
        start = [e.orbit for e in ledger.entries.values()]
        pairs = _walk(_Geometry(list(ledger.vertices)).local, ledger.vertex_group,
                      start, (0, 1), 0)[1]
    edges = set()
    for a, b in pairs:
        if a not in node_of or b not in node_of:
            raise PolyhedronError("ledger is not complete: missing neighbor orbit")
        edges.add(tuple(sorted((node_of[a], node_of[b]))))
    sizes = tuple(ledger.entries[k].orbit.size for k in keys)
    return AdjacencyGraphUpToSymmetry(tuple(keys), sizes, frozenset(edges))


def shortest_path(graph: AdjacencyGraphUpToSymmetry, u: int, v: int) -> Optional[int]:
    """Breadth-first distance between two nodes; None when unreachable."""
    for node in (u, v):
        if not 1 <= node <= graph.node_count:
            raise ValueError(f"unknown node {node}")
    if u == v:
        return 0
    adj: dict[int, set] = {i: set() for i in range(1, graph.node_count + 1)}
    for a, b in graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y in sorted(adj[x]):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    if y == v:
                        return dist[y]
                    nxt.append(y)
        frontier = nxt
    return None


def write_dot(graph: AdjacencyGraphUpToSymmetry) -> str:
    """Render the orbit graph as an undirected DOT document."""
    lines = ["graph {"]
    for i, size in enumerate(graph.sizes, start=1):
        lines.append(f'  o{i} [label="orbit {i} (size {size})"];')
    for i, j in sorted(graph.edges):
        lines.append(f"  o{i} -- o{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
