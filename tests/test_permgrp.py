"""Permutation group layer: BSGS orders, membership, set orbits, stabilizers.

Brute-force oracles enumerate group closures directly, so every structural
claim (order, stabilizer, set equivalence) is checked against an independent
computation on small groups.
"""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st
from shapes import (cross_h, cross_v, cube_h, cube_v, cut_v, hypersimplex_v, probe_permutations,
                    recompute_orbit, reference_orbit_of_set, santos_prismatoid)

from polyorbit import permgrp
from polyorbit.permgrp import (
    OrbitBudgetExceeded,
    Permutation,
    PermutationGroup,
    orbit_of_set,
    schreier_sims,
    set_stabilizer,
)
from polyorbit.polycore import convert_dd_incidence, index_set
from polyorbit.symdetect import affine_symmetry_group, restricted_symmetries_H


def brute_closure(gens, degree):
    """All elements of <gens> by breadth-first multiplication."""
    ident = Permutation.identity(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = g * h
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def symmetric_gens(n):
    return [Permutation.from_cycles(n, [(1, 2)]),
            Permutation.from_cycles(n, [tuple(range(1, n + 1))])]


# -- Permutation basics ------------------------------------------------------

def test_identity_and_call():
    e = Permutation.identity(5)
    assert e.is_identity()
    assert [e(i) for i in range(1, 6)] == [1, 2, 3, 4, 5]


def test_from_cycles():
    p = Permutation.from_cycles(5, [(1, 2, 3)])
    assert p(1) == 2 and p(2) == 3 and p(3) == 1 and p(4) == 4


def test_composition_order():
    # (p * q)(x) = p(q(x))
    p = Permutation.from_cycles(3, [(1, 2)])
    q = Permutation.from_cycles(3, [(2, 3)])
    assert (p * q)(3) == p(q(3)) == p(2) == 1
    assert (q * p)(3) == q(p(3)) == q(3) == 2


def test_inverse():
    p = Permutation.from_cycles(6, [(1, 4, 2), (3, 6)])
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


def test_cycle_string_roundtrip():
    p = Permutation.from_cycles(7, [(1, 3, 5), (2, 7)])
    assert p.cycle_string() == "(1 3 5)(2 7)"
    assert Permutation.from_cycles(7, p.cycles()) == p
    assert Permutation.identity(4).cycle_string() == "()"
    assert Permutation.from_cycles(4, []).is_identity()
    assert Permutation((2, 1, 4, 3)).cycle_string() == "(1 2)(3 4)"


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_apply_set():
    p = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    assert p.apply_set({1, 2}) == frozenset({2, 3})


def test_images_degree_and_order():
    p = Permutation((2, 3, 1))
    assert p.images == (2, 3, 1) and p.degree == 3
    assert sorted([Permutation((2, 1, 3)), Permutation((1, 2)), p, Permutation((1, 2, 3))]) == \
        [Permutation((1, 2)), Permutation((1, 2, 3)), Permutation((2, 1, 3)), p]


def test_product_of_different_degrees_rejected():
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(4)


@pytest.mark.parametrize("point", [0, -1, 4])
def test_point_outside_degree_rejected(point):
    with pytest.raises(ValueError):
        Permutation((2, 3, 1))(point)


@pytest.mark.parametrize("points", [{0}, {-1, 2}, {1, 4}])
def test_apply_set_outside_degree_rejected(points):
    with pytest.raises(ValueError):
        Permutation((2, 3, 1)).apply_set(points)


@pytest.mark.parametrize("cycle", [(3, 0), (1, 4)], ids=["(3 0)", "(1 4)"])
def test_cycle_outside_degree_rejected(cycle):
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [cycle])


def test_points_and_sets_outside_degree_rejected():
    G = schreier_sims([Permutation((2, 3, 1))])
    for point in (0, -1, 4):
        with pytest.raises(ValueError):
            G.orbit_of_point(point)
    for S in ({0}, {1, 4}):
        with pytest.raises(ValueError):
            orbit_of_set(G, S)
        with pytest.raises(ValueError):
            set_stabilizer(G, S)


# -- BSGS construction -------------------------------------------------------

def test_symmetric_group_order():
    for n in range(2, 7):
        G = schreier_sims(symmetric_gens(n))
        assert G.order() == len(brute_closure(symmetric_gens(n), n))


def test_trivial_group():
    G = PermutationGroup([], degree=4)
    assert G.order() == 1
    assert list(G.elements()) == [Permutation.identity(4)]
    assert Permutation.identity(4) in G
    assert Permutation.from_cycles(4, [(1, 2)]) not in G


def test_klein_four():
    gens = [Permutation.from_cycles(4, [(1, 2), (3, 4)]),
            Permutation.from_cycles(4, [(1, 3), (2, 4)])]
    G = schreier_sims(gens)
    assert G.order() == 4


def test_membership_matches_closure():
    gens = [Permutation.from_cycles(5, [(1, 2, 3)]),
            Permutation.from_cycles(5, [(3, 4, 5)])]
    G = schreier_sims(gens)   # A5
    closure = brute_closure(gens, 5)
    assert G.order() == 60 == len(closure)
    for images in itertools.permutations(range(1, 6)):
        p = Permutation(images)
        assert (p in G) == (p in closure)


def test_elements_enumeration():
    gens = symmetric_gens(4)
    G = schreier_sims(gens)
    elems = list(G.elements())
    assert len(elems) == 24
    assert len(set(elems)) == 24
    assert set(elems) == brute_closure(gens, 4)


def test_elements_budget():
    G = schreier_sims(symmetric_gens(7))
    with pytest.raises(OrbitBudgetExceeded):
        list(G.elements(budget=100))


def test_base_prefix_preserves_group():
    gens = symmetric_gens(5)
    G = schreier_sims(gens)
    H = G.rebase([4, 2, 5])
    assert H.base[:3] == (4, 2, 5)
    assert H.order() == G.order() == 120
    for g in gens:
        assert g in H


def test_deterministic_chain():
    gens = [Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)]),
            Permutation.from_cycles(6, [(2, 6), (3, 5)])]
    G1 = schreier_sims(gens)
    G2 = schreier_sims(gens)
    assert G1.base == G2.base
    assert list(G1.elements()) == list(G2.elements())


# -- point orbits and stabilizers --------------------------------------------

def test_point_orbits():
    g = Permutation.from_cycles(6, [(1, 2, 3)])
    h = Permutation.from_cycles(6, [(5, 6)])
    G = schreier_sims([g, h])
    assert sorted(sorted(o) for o in G.point_orbits()) == [[1, 2, 3], [4], [5, 6]]


def test_pointwise_stabilizer_s4():
    # the stabilizer of a point is the set stabilizer of its singleton, and
    # fixing a second point stabilizes it inside the first
    G = schreier_sims(symmetric_gens(4))
    S1 = set_stabilizer(G, {1})
    assert S1.order() == 6
    S12 = set_stabilizer(S1, {2})
    assert S12.order() == 2
    oracle = {p for p in brute_closure(symmetric_gens(4), 4) if p(1) == 1 and p(2) == 2}
    assert set(S12.elements()) == oracle


def test_pointwise_stabilizer_of_fixed_point():
    g = Permutation.from_cycles(5, [(1, 2, 3)])
    G = schreier_sims([g])
    assert set_stabilizer(G, {5}).order() == 3   # 5 is already fixed


# -- set orbits ---------------------------------------------------------------

def test_orbit_of_set_s4():
    G = schreier_sims(symmetric_gens(4))
    orb = orbit_of_set(G, {2, 3})
    assert orb.expanded
    assert orb.size == 6
    assert orb.representative == (1, 2)
    assert (1, 4) in orb.elements


def test_orbit_of_set_budget_is_exact():
    G = schreier_sims(symmetric_gens(8))
    # 4-subsets of an 8-set: orbit size C(8,4) = 70
    orb = orbit_of_set(G, {2, 4, 6, 8}, budget=70)
    assert orb.representative == (1, 2, 3, 4)
    assert orb.size == len(orb.elements) == 70
    with pytest.raises(OrbitBudgetExceeded, match="^set orbit exceeded budget 69$"):
        orbit_of_set(G, {2, 4, 6, 8}, budget=69)


def test_canonical_representative():
    # the key of an orbit is its lexicographically least member
    G = schreier_sims(symmetric_gens(5))
    assert orbit_of_set(G, {3, 5}).representative == (1, 2)
    assert orbit_of_set(G, {1, 2}).representative == (1, 2)
    H = PermutationGroup([], degree=5)
    assert orbit_of_set(H, {3, 5}).representative == (3, 5)


def test_set_stabilizer_s4():
    gens = symmetric_gens(4)
    G = schreier_sims(gens)
    stab = set_stabilizer(G, {1, 2})
    oracle = {p for p in brute_closure(gens, 4) if p.apply_set({1, 2}) == frozenset({1, 2})}
    assert stab.order() == len(oracle) == 4
    assert set(stab.elements()) == oracle


def test_set_stabilizer_of_a_regular_orbit_is_trivial(monkeypatch):
    # a set with |G| images has the trivial stabilizer, known from the
    # order alone: no Schreier generator is formed, so nothing is inverted
    def refuse(p):
        raise AssertionError("a Schreier generator was formed")

    C = schreier_sims([Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])])
    P = affine_symmetry_group(santos_prismatoid())
    monkeypatch.setattr(permgrp, "_inverse", refuse)
    for G, S in [(C, {1}), (C, {1, 2, 4}), (P, (1, 2, 4, 9, 18)), (P, (1, 4, 7, 9, 15, 18))]:
        assert orbit_of_set(G, S).size == G.order()
        stab = set_stabilizer(G, S)
        assert stab.generators == () and stab.order() == 1


def test_set_stabilizer_keeps_only_generators_that_grow_it():
    # each kept generator grows the chain, so at least doubles its order
    rng = random.Random(5)
    cases = []
    for _ in range(40):
        degree = rng.randint(3, 9)
        S = rng.sample(range(1, degree + 1), rng.randint(1, degree - 1))
        cases.append((PermutationGroup(_random_gens(rng, degree), degree), S))
    for V in (cube_v(5), cross_v(6), cut_v(5)):
        G = affine_symmetry_group(V)
        cases += [(G, range(1, V.k // 2 + 1)), (G, (1, 2)), (G, (1, V.k))]
    for G, S in cases:
        stab = set_stabilizer(G, S)
        assert 2 ** len(stab.generators) <= stab.order()
        assert orbit_of_set(G, S).size * stab.order() == G.order()
        assert all(g.apply_set(S) == frozenset(S) for g in stab.generators)


def test_set_stabilizer_orbit_product():
    gens = [Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)]),
            Permutation.from_cycles(6, [(2, 6), (3, 5)])]   # dihedral, order 12
    G = schreier_sims(gens)
    for S in [{1}, {1, 2}, {1, 4}, {1, 3, 5}, {2, 3, 5, 6}]:
        orb = orbit_of_set(G, S)
        stab = set_stabilizer(G, S)
        assert orb.size * stab.order() == G.order()


ORACLE_SHAPES = {"cut5": lambda: cut_v(5), "cut6": lambda: cut_v(6), "cross4": lambda: cross_v(4),
                 "cross6": lambda: cross_v(6), "hypersimplex37": lambda: hypersimplex_v(3, 7),
                 "prismatoid": santos_prismatoid}


@pytest.mark.parametrize("name", list(ORACLE_SHAPES))
def test_set_orbits_match_the_frozenset_reference(name):
    # members are ascending tuples and the key is the least of them; the
    # members as sets, the size and the stabilizer are those of the
    # frozenset expansion, on the empty set, singletons and random sets
    # given in random order
    V = ORACLE_SHAPES[name]()
    G = affine_symmetry_group(V)
    rng = random.Random(f"set-orbit/{name}")
    sets = [[], [1], [V.k]] + [rng.sample(range(1, V.k + 1), rng.randint(2, V.k - 1))
                               for _ in range(5)]
    for S in sets:
        orb = orbit_of_set(G, S)
        key, size, members, ref = reference_orbit_of_set(G, S)
        assert all(list(X) == sorted(set(X)) for X in orb.elements)
        assert orb.representative == min(orb.elements) == key
        assert orb.size == len(orb.elements) == size
        assert {frozenset(X) for X in orb.elements} == members
        stab = set_stabilizer(G, S)
        assert stab.order() == ref.order() == G.order() // size
        assert all(g in stab for g in ref.generators)
        assert all(g.apply_set(S) == frozenset(S) for g in stab.generators)
        # the stabilizer of the key, read off the same tree
        assert set_stabilizer(G, orb).order() == stab.order()


# -- set equivalence: two sets share an orbit exactly when their keys agree --

def same_orbit(G, S, T):
    return orbit_of_set(G, S).representative == orbit_of_set(G, T).representative


def test_is_equivalent_s4():
    G = schreier_sims(symmetric_gens(4))
    assert same_orbit(G, {1, 2}, {3, 4})
    assert (3, 4) in orbit_of_set(G, {1, 2}).elements


def test_is_equivalent_negative():
    # <(1 2)(3 4)> cannot map {1} to {3}
    G = schreier_sims([Permutation.from_cycles(4, [(1, 2), (3, 4)])])
    assert not same_orbit(G, {1}, {3})
    assert same_orbit(G, {1}, {2})


def test_is_equivalent_size_mismatch_and_identity():
    G = schreier_sims(symmetric_gens(4))
    assert not same_orbit(G, {1, 2}, {1, 2, 3})
    assert same_orbit(G, {2, 3}, {2, 3})


def test_is_equivalent_matches_brute_force():
    gens = [Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)]),
            Permutation.from_cycles(6, [(2, 6), (3, 5)])]
    G = schreier_sims(gens)
    closure = brute_closure(gens, 6)
    subsets = [frozenset(c) for k in (1, 2, 3) for c in itertools.combinations(range(1, 7), k)]
    for S in subsets:
        orbit = orbit_of_set(G, S).elements
        for T in subsets:
            exists = any(p.apply_set(S) == T for p in closure)
            assert same_orbit(G, S, T) == exists == (tuple(sorted(T)) in orbit)


# -- randomized structural invariants ------------------------------------------

@st.composite
def random_gens(draw):
    degree = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=1, max_value=3))
    gens = []
    for _ in range(k):
        images = draw(st.permutations(list(range(1, degree + 1))))
        gens.append(Permutation(images))
    return degree, gens


@settings(max_examples=40, deadline=None)
@given(random_gens())
def test_order_matches_brute_closure(dg):
    degree, gens = dg
    G = PermutationGroup(gens, degree=degree)
    closure = brute_closure(gens, degree)
    assert G.order() == len(closure)
    for p in closure:
        assert p in G


@settings(max_examples=25, deadline=None)
@given(random_gens(), st.data())
def test_orbit_stabilizer_random(dg, data):
    degree, gens = dg
    G = PermutationGroup(gens, degree=degree)
    S = frozenset(data.draw(st.sets(st.integers(min_value=1, max_value=degree),
                                    min_size=1, max_size=degree)))
    orb = orbit_of_set(G, S)
    stab = set_stabilizer(G, S)
    assert orb.size * stab.order() == G.order()
    assert orb.representative in orb.elements
    for el in stab.elements():
        assert el.apply_set(S) == S


# -- chain identity against the list-of-images construction -------------------
#
# _RefPermutation and _RefGroup are the earlier construction: images in a
# plain tuple, every product validated, every transversal inverse recomputed,
# every Schreier generator re-sifted on each re-close.  The current chain must
# match it level by level.


class _RefPermutation:
    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError("not a permutation of 1..n")

    @classmethod
    def identity(cls, degree):
        return cls(range(1, degree + 1))

    def __call__(self, point):
        return self.images[point - 1]

    def apply_set(self, points):
        return frozenset(self.images[p - 1] for p in points)

    def __mul__(self, other):
        oi, si = other.images, self.images
        return _RefPermutation(tuple(si[oi[i] - 1] for i in range(len(si))))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return _RefPermutation(inv)

    def is_identity(self):
        return all(img == i + 1 for i, img in enumerate(self.images))


class _RefLevel:
    def __init__(self, base_point, degree):
        self.base_point = base_point
        self.gens = []
        self.orbit = {base_point: _RefPermutation.identity(degree)}


class _RefGroup:
    def __init__(self, generators, degree, base_prefix=()):
        gens = [g for g in generators if not g.is_identity()]
        self.degree = degree
        self.generators = tuple(gens)
        self.levels = []
        for p in dict.fromkeys(base_prefix):
            self.levels.append(_RefLevel(p, degree))
        for g in gens:
            self._add_generator(g, 0)

    def _recompute_orbit(self, idx):
        lvl = self.levels[idx]
        frontier = sorted(lvl.orbit)
        while frontier:
            new_frontier = []
            for p in frontier:
                u = lvl.orbit[p]
                for g in lvl.gens:
                    q = g(p)
                    if q not in lvl.orbit:
                        lvl.orbit[q] = g * u
                        new_frontier.append(q)
            frontier = sorted(new_frontier)

    def _strip(self, g, start):
        h = g
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            img = h(lvl.base_point)
            if img not in lvl.orbit:
                return h, i
            h = lvl.orbit[img].inverse() * h
        return h, len(self.levels)

    def _add_generator(self, g, level):
        h, idx = self._strip(g, level)
        if h.is_identity():
            return
        if idx == len(self.levels):
            moved = next(p for p in range(1, self.degree + 1) if h(p) != p)
            self.levels.append(_RefLevel(moved, self.degree))
        for i in range(level, idx + 1):
            self.levels[i].gens.append(h)
            self._recompute_orbit(i)
        for i in range(idx, level - 1, -1):
            lvl = self.levels[i]
            for p in sorted(lvl.orbit):
                u = lvl.orbit[p]
                for s in list(lvl.gens):
                    schreier = lvl.orbit[s(p)].inverse() * (s * u)
                    if not schreier.is_identity():
                        self._add_generator(schreier, i + 1)

    def order(self):
        n = 1
        for lvl in self.levels:
            n *= len(lvl.orbit)
        return n

    def elements(self):
        def rec(i, acc):
            if i == len(self.levels):
                yield acc
                return
            lvl = self.levels[i]
            for p in sorted(lvl.orbit):
                yield from rec(i + 1, acc * lvl.orbit[p])

        yield from rec(0, _RefPermutation.identity(self.degree))


def _ref_expand(G, S, budget):
    witnesses = {S: _RefPermutation.identity(G.degree)}
    frontier = [S]
    while frontier:
        nxt = []
        for X in frontier:
            for g in G.generators:
                Y = g.apply_set(X)
                if Y not in witnesses:
                    if len(witnesses) >= budget:
                        raise OrbitBudgetExceeded(budget)
                    witnesses[Y] = g * witnesses[X]
                    nxt.append(Y)
        frontier = nxt
    return witnesses


def _ref_set_stabilizer(G, S, budget):
    witnesses = _ref_expand(G, S, budget)
    gens, seen = [], set()
    for X in sorted(witnesses, key=sorted):
        u = witnesses[X]
        for a in G.generators:
            w = witnesses[a.apply_set(X)].inverse() * (a * u)
            if not w.is_identity() and w.images not in seen:
                seen.add(w.images)
                gens.append(w)
    return _RefGroup(gens, G.degree)


def _ref_orbit_of_set(G, S, budget):
    """(representative, size, elements), as orbit_of_set returns them; past
    the budget _ref_expand raises."""
    elements = frozenset(_ref_expand(G, S, budget))
    return min(tuple(sorted(X)) for X in elements), len(elements), elements


def _assert_same_chain(gens, degree, base_prefix=(), elements=True):
    G = PermutationGroup(gens, degree, base_prefix=base_prefix)
    R = _RefGroup([_RefPermutation(g.images) for g in gens], degree, base_prefix)
    assert G.base == tuple(lvl.base_point for lvl in R.levels)
    for lvl, ref in zip(G._levels, R.levels):
        assert [g.images for g in lvl.gens] == [g.images for g in ref.gens]
        assert {p: u.images for p, u in lvl.orbit.items()} == \
            {p: u.images for p, u in ref.orbit.items()}
        assert list(lvl.orbit) == list(ref.orbit)
    if elements:
        assert [g.images for g in G.elements()] == [g.images for g in R.elements()]
    return G, R


def _random_gens(rng, degree):
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(1, degree + 1))
        if rng.random() < 0.5:
            rng.shuffle(images)
        else:   # a product of a few transpositions keeps some groups small
            for _ in range(rng.randint(1, 3)):
                a, b = rng.sample(range(degree), 2)
                images[a], images[b] = images[b], images[a]
        gens.append(Permutation(images))
    return gens


def _orbit_outcome(orbit, G, S, budget):
    """orbit(G, S, budget) as (representative, size, elements), or the
    exception type when the orbit has more than budget sets."""
    try:
        return orbit(G, S, budget)
    except OrbitBudgetExceeded:
        return OrbitBudgetExceeded


def _current_orbit(G, S, budget):
    orb = orbit_of_set(G, S, budget=budget)
    return orb.representative, orb.size, frozenset(map(frozenset, orb.elements))


def _assert_same_orbits(G, R, sets, budgets):
    for S in sets:
        for budget in budgets:
            outcome = _orbit_outcome(_current_orbit, G, S, budget)
            assert outcome == _orbit_outcome(_ref_orbit_of_set, R, S, budget)
        # outcome is the last budget's, which expands the orbit; the reference
        # stabilizer sifts one Schreier generator per set and generator
        if outcome[1] > 1_000:
            continue
        # the same group, from whatever generators
        stab, ref = set_stabilizer(G, S), _ref_set_stabilizer(R, S, 2_000_000)
        assert stab.order() == ref.order()
        assert all(Permutation(g.images) in stab for g in ref.generators)
        assert all(g.apply_set(S) == S for g in stab.generators)


def _assert_orbits_as_from_scratch(monkeypatch, gens, degree, **kw):
    """The chain that grows each orbit by its newest generator has, level by
    level, the base point, generators, transversal elements in the same
    insertion order, and, once each is read, inverses of the chain that
    closes every orbit from scratch and inverts every element as it adds it
    (shapes.recompute_orbit)."""
    G = PermutationGroup(gens, degree, **kw)
    with monkeypatch.context() as m:
        m.setattr(PermutationGroup, "_recompute_orbit", recompute_orbit)
        R = PermutationGroup(gens, degree, **kw)
    assert len(G._levels) == len(R._levels)
    for lvl, ref in zip(G._levels, R._levels):
        assert lvl.base_point == ref.base_point
        assert [g.images for g in lvl.gens] == [g.images for g in ref.gens]
        assert [(p, u.images) for p, u in lvl.orbit.items()] == \
            [(p, u.images) for p, u in ref.orbit.items()]
        # inverses are stored on first read: each one stored inverts its
        # transversal element, and sifting every element of the reference's
        # transversal from this level reads, and so stores, all of them
        for p, ui in lvl.inv.items():
            assert tuple(map(ui.__getitem__, lvl.orbit[p]._p)) == G._identity
            assert ui == ref.inv[p]
        for u in ref.orbit.values():
            assert G._strip(u._p, G._levels.index(lvl))[0] == G._identity
        assert lvl.inv == ref.inv
    return G


@pytest.mark.parametrize("seed", range(4))
def test_orbits_grown_by_the_newest_generator_match_a_closure_from_scratch(seed, monkeypatch):
    rng = random.Random(f"orbit-closure/{seed}")
    for _ in range(20):
        degree = rng.randint(2, 12)
        gens = _random_gens(rng, degree)
        prefix = tuple(rng.sample(range(1, degree + 1), rng.randint(0, min(3, degree))))
        _assert_orbits_as_from_scratch(monkeypatch, gens, degree, base_prefix=prefix)


@pytest.mark.parametrize("name", ["cut5", "cut6", "cross4", "cross6", "hypersimplex37"])
def test_detected_groups_grow_orbits_as_a_closure_from_scratch(name, monkeypatch):
    V = {"cut5": lambda: cut_v(5), "cut6": lambda: cut_v(6), "cross4": lambda: cross_v(4),
         "cross6": lambda: cross_v(6), "hypersimplex37": lambda: hypersimplex_v(3, 7)}[name]()
    D = affine_symmetry_group(V)
    gens, degree, order = list(D.generators), D.degree, D.order()
    # as detection builds it, at the search's base and order, and by
    # Schreier-Sims with no order known
    G = _assert_orbits_as_from_scratch(monkeypatch, gens, degree, base_prefix=D.base, order=order)
    assert _assert_orbits_as_from_scratch(monkeypatch, gens, degree).order() == G.order() == order


@pytest.mark.parametrize("seed", range(6))
def test_chain_matches_reference_on_random_generators(seed):
    rng = random.Random(seed)
    for _ in range(20):
        degree = rng.randint(2, 12)
        gens = _random_gens(rng, degree)
        small = PermutationGroup(gens, degree).order() <= 5_000
        prefix = tuple(rng.sample(range(1, degree + 1), rng.randint(1, min(3, degree))))
        _assert_same_chain(gens, degree, prefix, elements=small)
        G, R = _assert_same_chain(gens, degree, elements=small)
        sets = [frozenset(rng.sample(range(1, degree + 1), rng.randint(0, degree)))
                for _ in range(3)]
        _assert_same_orbits(G, R, sets, (3, 200_000))


SHAPES = {
    "cube5": cube_v(5),
    "cross6": cross_v(6),
    "cut5": cut_v(5),
    "hypersimplex37": hypersimplex_v(3, 7),
    "prismatoid": santos_prismatoid(),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_chain_matches_reference_on_vertex_groups(name):
    V = SHAPES[name]
    gens = list(affine_symmetry_group(V).generators)
    G, R = _assert_same_chain(gens, V.k)
    _assert_same_chain(gens, V.k, base_prefix=(V.k, 2, 1), elements=False)
    rng = random.Random(name)
    sets = [frozenset(rng.sample(range(1, V.k + 1), size)) for size in (1, 2, V.k // 3, V.k // 2)]
    _assert_same_orbits(G, R, sets, (5, 200_000))


# -- chains built at a known order ------------------------------------------

def _assert_same_group(known, full, rng):
    assert known.order() == full.order()
    assert known.generators == full.generators
    assert all((g in known) == (g in full) for g in probe_permutations(rng, full))


def _schreier_sifts(monkeypatch) -> list:
    """Levels of the _add_generator calls below the top of the chain, that
    is the Schreier generators sifted, from here on."""
    levels = []
    add = PermutationGroup._add_generator

    def counted(self, g, level, *args, **kwargs):
        if level > 0:
            levels.append(level)
        return add(self, g, level, *args, **kwargs)

    monkeypatch.setattr(PermutationGroup, "_add_generator", counted)
    return levels


H_SHAPES = {"cube_h6": cube_h(6), "cross_h4": cross_h(4), "cube_h3": cube_h(3)}


def _detected(name):
    if name in SHAPES:
        return affine_symmetry_group(SHAPES[name])
    return restricted_symmetries_H(H_SHAPES[name])


@pytest.mark.parametrize("name", sorted(SHAPES) + sorted(H_SHAPES))
def test_detected_group_sifts_no_schreier_generator(name, monkeypatch):
    # the search's generators are a strong generating set on its own base,
    # so the chain reaches the search's order without any closure
    sifts = _schreier_sifts(monkeypatch)
    G = _detected(name)
    assert sifts == []
    monkeypatch.undo()
    _assert_same_group(G, PermutationGroup(G.generators, G.degree), random.Random(name))


@pytest.mark.parametrize("seed", range(4))
def test_known_order_chain_matches_full_closure(seed):
    rng = random.Random(f"known/{seed}")
    for _ in range(25):
        degree = rng.randint(1, 12)
        gens = _random_gens(rng, degree) if degree > 1 else []
        prefix = tuple(rng.sample(range(1, degree + 1), rng.randint(0, min(3, degree))))
        for base_prefix in ((), prefix):
            full = PermutationGroup(gens, degree, base_prefix=base_prefix)
            known = PermutationGroup(gens, degree, base_prefix=base_prefix, order=full.order())
            assert known.base[:len(base_prefix)] == base_prefix
            _assert_same_group(known, full, rng)


@pytest.mark.parametrize("name", ["cube5", "cut5", "prismatoid"])
def test_relabelled_stabilizer_at_known_order(name):
    # as the facet walk builds it: the set stabilizer of a facet's vertices,
    # acting on those vertices, whose order is the stabilizer's
    V = SHAPES[name]
    G = affine_symmetry_group(V)
    rng = random.Random(name)
    for facet in convert_dd_incidence(V)[1][:6]:
        members = sorted(index_set(facet))
        pos = {v: j + 1 for j, v in enumerate(members)}
        stab = set_stabilizer(G, members)
        gens = [Permutation(tuple(pos[g(v)] for v in members)) for g in stab.generators]
        known = PermutationGroup(gens, len(members), order=stab.order())
        _assert_same_group(known, PermutationGroup(gens, len(members)), rng)


def test_wrong_known_order_raises():
    gens = symmetric_gens(5)
    assert PermutationGroup(gens, 5, order=120).order() == 120
    for order in (60, 121, 240, 1):
        with pytest.raises(ValueError):
            PermutationGroup(gens, 5, order=order)
    # an order larger than the group's, after the closure
    G = _detected("cube5")
    with pytest.raises(ValueError):
        PermutationGroup(G.generators, G.degree, order=2 * G.order())
    with pytest.raises(ValueError):
        PermutationGroup([], 4, order=2)


# -- stabilizers read off an expanded orbit -----------------------------------

@pytest.mark.parametrize("name", sorted(SHAPES) + sorted(H_SHAPES))
def test_stabilizer_read_off_an_orbit_expanded_from_another_member(name, monkeypatch):
    # as the facet walk reads it: the orbit was expanded from some member,
    # and the stabilizer is the representative's
    G = _detected(name)
    rng = random.Random(f"tree/{name}")

    def refuse(*args, **kwargs):
        raise AssertionError("the orbit was expanded again")

    for size in (1, 2, G.degree // 3, G.degree // 2):
        S = frozenset(rng.sample(range(1, G.degree + 1), size))
        members = sorted(orbit_of_set(G, S).elements, key=sorted)
        start = members[rng.randrange(1, len(members))] if len(members) > 1 else S
        orb = orbit_of_set(G, start)
        rep = frozenset(orb.representative)
        assert start != rep or orb.size == 1
        ref = set_stabilizer(G, orb.representative)
        monkeypatch.setattr(permgrp, "orbit_of_set", refuse)
        stab = set_stabilizer(G, orb)
        monkeypatch.undo()
        assert stab.order() == ref.order() == G.order() // orb.size
        assert all(g.apply_set(rep) == rep for g in stab.generators)
        assert all(g in stab for g in ref.generators)


def test_stabilizer_of_an_orbit_of_other_generators_raises():
    G = _detected("cube5")
    # the same group from other generators, and a subgroup
    for H in (PermutationGroup(G.generators[::-1], G.degree), set_stabilizer(G, {1})):
        orb = orbit_of_set(H, {1, 2})
        with pytest.raises(ValueError, match="other generators"):
            set_stabilizer(G, orb)
        assert set_stabilizer(H, orb).order() == H.order() // orb.size
    # an orbit that kept no expansion tree
    orb = orbit_of_set(G, {1, 2})
    with pytest.raises(ValueError, match="other generators"):
        set_stabilizer(G, permgrp.SetOrbit(orb.representative, orb.size, orb.elements))
