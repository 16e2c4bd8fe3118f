"""Linear morphism certification, composition, and enumeration.

The enumeration oracle lives here: filter every total map through the
definitional validator and compare against the factorized enumeration.
"""

import copy
import gc
import itertools
import pickle
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab import config
from latticelab import fixtures as fx
from latticelab import morphisms
from latticelab.abelian import AbelianGroup, induced_monoid, subgroup_lattice
from latticelab.conformance import random_corpus, random_modular_lattice
from latticelab.errors import (
    DomainMismatchError,
    LinearValidationError,
    NoKernelError,
    NotAComplementError,
    NotIntervalIsoError,
    SizeLimitExceededError,
)
from latticelab.lattice import (IntervalView, Lattice, _bits, _covers_from_masks, _ranks,
                                _structure_key, build_lattice, complemented_elements,
                                complements_of, direct_product, interval, lattice_from_json,
                                lattice_to_json)
from latticelab.morphisms import (
    LinearMorphism,
    certify_tables,
    compose,
    enumerate_interval_isos,
    enumerate_linmors,
    extend_from_interval,
    fully_invariant_elements,
    identity_morphism,
    interval_inclusion,
    interval_quotient,
    morphism_from_json,
    morphism_to_json,
    projection,
    table_verdicts,
    validate_linear,
    zero_morphism,
)
from latticelab.monoid import full_monoid
from latticelab.properties import check_condition

from test_duality import LATTICES, ROOTS
from test_pair_index import iso_composites, monoids, random_lattice


def brute_force_linmors(L, M):
    """Independent oracle: every total map, filtered by the definition."""
    out = []
    for table in itertools.product(range(M.n), repeat=L.n):
        try:
            out.append(validate_linear(L, M, table).map)
        except LinearValidationError:
            pass
    return sorted(out)


class TestValidate:
    def test_collapse_morphism_on_chain(self, c3):
        phi = validate_linear(c3, c3, (0, 0, 1))
        assert c3.names[phi.kernel] == "n"
        assert c3.names[phi.image_top] == "n"

    def test_identity(self, excip):
        phi = validate_linear(excip, excip, tuple(range(excip.n)))
        assert phi.kernel == excip.bottom

    def test_constant_collapse_is_not_interval_iso(self, m3):
        a = m3.id_of("a")
        table = tuple(m3.bottom if x == m3.bottom else a for x in range(m3.n))
        with pytest.raises(NotIntervalIsoError):
            validate_linear(m3, m3, table)

    def test_meet_map_on_diamond_has_no_kernel(self, m3):
        a = m3.id_of("a")
        table = tuple(m3.meet_of(a, x) for x in range(m3.n))
        with pytest.raises(NoKernelError):
            validate_linear(m3, m3, table)

    def test_nothing_maps_to_bottom(self, c2):
        with pytest.raises(NoKernelError):
            validate_linear(c2, c2, (1, 1))

    @pytest.mark.parametrize("table,message", [
        ((0, 0), "length does not match"),
        ((0, 0, 3), "out-of-range values"),
        ((0, -1, 1), "out-of-range values"),
        ((0, 0.0, 1.0), r"non-integer values: \[0.0, 1.0\]"),
        (("0", 0, 1), r"non-integer values: \['0'\]"),
    ])
    def test_malformed_tables_raise_value_error(self, c3, table, message):
        with pytest.raises(ValueError, match=message):
            validate_linear(c3, c3, table)

    def test_zero_morphism_kernel_is_top(self, m3):
        assert zero_morphism(m3).kernel == m3.top


class TestCompose:
    def test_collapse_squares_to_zero(self, c3):
        phi = validate_linear(c3, c3, (0, 0, 1))
        sq = compose(phi, phi)
        assert sq.map == (0, 0, 0)
        assert sq.kernel == c3.top

    def test_orthogonal_projections(self, b2):
        a, b = b2.id_of("a"), b2.id_of("b")
        pia = projection(b2, a, b)
        pib = projection(b2, b, a)
        z = compose(pib, pia)
        assert z.map == (b2.bottom,) * b2.n
        assert z.kernel == b2.top

    def test_identity_is_neutral(self, excip):
        phi = enumerate_linmors(excip)[5]
        assert compose(identity_morphism(excip), phi) == phi
        assert compose(phi, identity_morphism(excip)) == phi

    def test_domain_mismatch(self, c2, c3):
        with pytest.raises(DomainMismatchError):
            compose(identity_morphism(c2), identity_morphism(c3))


class TestProjection:
    def test_square(self, b2):
        a, b = b2.id_of("a"), b2.id_of("b")
        pia = projection(b2, a, b)
        assert pia.map[b] == b2.bottom
        assert pia.map[b2.top] == a
        assert pia.kernel == b

    def test_diamond_projection_saturates(self, m3):
        a, b, c = (m3.id_of(x) for x in "abc")
        pia = projection(m3, a, b)
        assert pia.map[c] == a  # (c v b) ^ a = top ^ a

    def test_top_projection_is_identity(self, excip):
        pi = projection(excip, excip.top, excip.bottom)
        assert pi.map == tuple(range(excip.n))

    def test_not_a_complement(self, m3):
        with pytest.raises(NotAComplementError):
            projection(m3, m3.id_of("a"), m3.id_of("1"))


class TestIntervalIsos:
    def test_diamond_automorphisms(self, m3):
        whole = interval(m3, m3.bottom, m3.top)
        isos = enumerate_interval_isos(whole, whole)
        assert len(isos) == 6  # the atom permutations
        tables = [iso.forward for iso in isos]
        assert tables == sorted(tables)

    def test_size_mismatch(self, c3, c2):
        a = interval(c3, c3.bottom, c3.top)
        b = interval(c2, c2.bottom, c2.top)
        assert enumerate_interval_isos(a, b) == []

    def test_excip_has_unique_upper_lower_iso(self, excip):
        up = interval(excip, excip.id_of("k"), excip.top)
        dn = interval(excip, excip.bottom, excip.id_of("ac"))
        isos = enumerate_interval_isos(up, dn)
        assert len(isos) == 1
        iso = isos[0]
        for i, v in enumerate(iso.forward):
            assert iso.backward[v] == i

    def test_forward_backward_order_preserving(self, b3):
        up = interval(b3, b3.bottom, b3.top)
        for iso in enumerate_interval_isos(up, up):
            sub = up.as_lattice
            for x in range(sub.n):
                for y in range(sub.n):
                    assert sub.leq(x, y) == sub.leq(iso.forward[x], iso.forward[y])


class TestEnumeration:
    @pytest.mark.parametrize("name,count", [
        ("c2", 2), ("c3", 3), ("b2", 7), ("m3", 16),
    ])
    def test_counts_against_oracle(self, name, count):
        L = fx.build_fixture(name)
        fast = sorted(phi.map for phi in enumerate_linmors(L))
        assert len(fast) == count
        assert fast == brute_force_linmors(L, L)

    def test_cross_lattice_oracle(self, c3, b2):
        assert sorted(p.map for p in enumerate_linmors(c3, b2)) == \
            brute_force_linmors(c3, b2)
        assert sorted(p.map for p in enumerate_linmors(b2, c3)) == \
            brute_force_linmors(b2, c3)

    def test_six_element_oracle(self, c2, c3):
        from latticelab.lattice import direct_product
        P = direct_product([c2, c3]).lattice  # 6 elements, 46656 candidates
        assert sorted(p.map for p in enumerate_linmors(P)) == \
            brute_force_linmors(P, P)

    def test_sorted_and_duplicate_free(self, excip):
        maps = [phi.map for phi in enumerate_linmors(excip)]
        assert maps == sorted(maps)
        assert len(set(maps)) == len(maps)

    def test_factorization_triple_recoverable(self, b2):
        for phi in enumerate_linmors(b2):
            assert phi.kernel == max(x for x in range(b2.n)
                                     if phi.map[x] == b2.bottom)
            assert phi.image_top == phi.map[b2.top]

    def test_size_cap(self):
        big = fx.chain(config.DEFAULT_ENUM_CAP + 1)
        with pytest.raises(SizeLimitExceededError):
            enumerate_linmors(big)


class TestExtension:
    def test_excip_interval_morphism(self, excip):
        va = interval(excip, excip.bottom, excip.id_of("a"))
        vb = interval(excip, excip.bottom, excip.id_of("b"))
        sub_a, sub_b = va.as_lattice, vb.as_lattice
        phi = validate_linear(sub_a, sub_b,
                              (sub_b.bottom, sub_b.bottom, sub_b.id_of("f")))
        ext = extend_from_interval(phi, va, vb, excip.id_of("b"))
        want = excip.join_of(excip.id_of("k"), excip.id_of("b"))
        assert ext.kernel == want

    def test_identity_extends_to_projection(self, b2):
        a, b = b2.id_of("a"), b2.id_of("b")
        va = interval(b2, b2.bottom, a)
        sub = va.as_lattice
        ident = identity_morphism(sub)
        ext = extend_from_interval(ident, va, va, b)
        assert ext.map == projection(b2, a, b).map
        assert ext.kernel == b

    def test_zero_extends_to_zero(self, m3):
        a, b = m3.id_of("a"), m3.id_of("b")
        va = interval(m3, m3.bottom, a)
        z = zero_morphism(va.as_lattice)
        ext = extend_from_interval(z, va, va, b)
        assert ext.map == (m3.bottom,) * m3.n

    def test_rejects_non_complement(self, m3):
        a = m3.id_of("a")
        va = interval(m3, m3.bottom, a)
        with pytest.raises(NotAComplementError):
            extend_from_interval(identity_morphism(va.as_lattice), va, va, m3.top)


def fully_invariant_by_loop(L, morphisms):
    """The elements x with phi(x) <= x for every morphism, one at a time."""
    members = list(morphisms)
    return tuple(x for x in range(L.n)
                 if all(L.leq(phi.map[x], x) for phi in members))


class TestFullyInvariant:
    def test_chain_everything_invariant(self, c3):
        tables = [phi.map for phi in enumerate_linmors(c3)]
        assert fully_invariant_elements(c3, tables) == (0, 1, 2)

    def test_diamond_only_bounds(self, m3):
        got = fully_invariant_elements(m3, [phi.map for phi in enumerate_linmors(m3)])
        assert got == (m3.bottom, m3.top)

    def test_id_zero_leave_everything(self, excip):
        got = fully_invariant_elements(
            excip, [identity_morphism(excip).map, zero_morphism(excip).map])
        assert got == tuple(range(excip.n))

    def test_matches_the_loop_on_the_duality_corpus(self):
        """The whole-table gather against the per-morphism loop, on End(L)
        and on the seeded generated monoids of the pair-index tests."""
        for i, L in enumerate(LATTICES):
            for m in monoids(L, i):
                assert fully_invariant_elements(L, m.tables) == \
                    fully_invariant_by_loop(L, m.members), L.name


class TestDerivedInvariants:
    def test_join_preservation(self, excip):
        for phi in enumerate_linmors(excip):
            assert phi.map[excip.bottom] == excip.bottom
            for x in range(excip.n):
                for y in range(excip.n):
                    assert phi.map[excip.join_of(x, y)] == \
                        excip.join_of(phi.map[x], phi.map[y])

    def test_kernel_uniqueness(self, m3):
        for phi in enumerate_linmors(m3):
            for x in range(m3.n):
                assert (phi.map[x] == m3.bottom) == m3.leq(x, phi.kernel)

    def test_idempotent_decomposition(self, b3):
        for phi in enumerate_linmors(b3):
            if compose(phi, phi) == phi:
                assert b3.meet_of(phi.kernel, phi.image_top) == b3.bottom
                assert b3.join_of(phi.kernel, phi.image_top) == b3.top

    def test_kernel_of_composed_projections(self, b3):
        from latticelab.lattice import complemented_elements
        for x in complemented_elements(b3):
            for xp in complements_of(b3, x):
                for y in complemented_elements(b3):
                    for yp in complements_of(b3, y):
                        got = compose(projection(b3, y, yp),
                                      projection(b3, x, xp)).kernel
                        assert got == b3.join_of(b3.meet_of(x, yp), xp)

    def test_inclusion_and_quotient_are_linear(self, excip):
        k = excip.id_of("k")
        inc = interval_inclusion(interval(excip, excip.bottom, k))
        assert inc.kernel == 0
        quo = interval_quotient(interval(excip, k, excip.top))
        assert quo.kernel == k


class TestMorphismJson:
    def test_roundtrip(self, c3):
        phi = validate_linear(c3, c3, (0, 0, 1))
        text = morphism_to_json(phi)
        again = morphism_from_json(text, c3)
        assert again == phi

    def test_packaged_fig1_fixture(self, c3):
        phi = morphism_from_json(fx.fig1_morphism_json(), c3)
        assert phi.map == (0, 0, 1)
        assert c3.names[phi.kernel] == "n"

    def test_kernel_never_trusted(self, c3):
        doc = {"domain": "c3", "codomain": "c3",
               "map": {"0": "n", "n": "n", "1": "n"}}
        with pytest.raises(LinearValidationError):
            morphism_from_json(doc, c3)

    def test_wrong_lattice_name(self, c3, b2):
        phi = validate_linear(c3, c3, (0, 0, 1))
        with pytest.raises(ValueError):
            morphism_from_json(morphism_to_json(phi), b2)

    @pytest.mark.parametrize("doc", [
        {"domain": "c3", "codomain": "c3", "map": {"0": "0", "n": "0", "1": "zz"}},
        {"domain": "c3", "codomain": "c3", "map": {"0": "0", "n": "0", "1": ["n"]}},
        {"domain": "c3", "codomain": "c3", "map": ["0", "0", "n"]},
        {"domain": "c3", "codomain": "c3"},
        ["c3", "c3"],
    ])
    def test_malformed_documents_raise_value_error(self, c3, doc):
        with pytest.raises(ValueError):
            morphism_from_json(doc, c3)


def brute_force_isos(A, B):
    """Independent oracle: all bijections preserving order both ways."""
    sa, sb = A.as_lattice, B.as_lattice
    if sa.n != sb.n:
        return []
    out = []
    for perm in itertools.permutations(range(sb.n)):
        if all(sa.leq(x, y) == sb.leq(perm[x], perm[y])
               for x in range(sa.n) for y in range(sa.n)):
            out.append(perm)
    return sorted(out)


def iso_profile(L):
    """Per element: rank, corank, upper and lower cover counts, and the
    sizes of the up-set and the down-set; an isomorphism keeps all six."""
    corank = [0] * L.n
    up_deg = [0] * L.n
    down_deg = [0] * L.n
    for a, b in reversed(L.covers()):
        corank[a] = max(corank[a], corank[b] + 1)
        up_deg[a] += 1
        down_deg[b] += 1
    return [(L.rank[i], corank[i], up_deg[i], down_deg[i],
             L.up_mask(i).bit_count(), L.down_mask(i).bit_count())
            for i in range(L.n)]


def iso_tables_by_leq(A, B):
    """The interval-iso search that prunes candidates by the six-part
    profile and tests each one against every assigned position with `leq`,
    both ways, assigning positions in id order."""
    out = []
    if A.n == B.n:
        pa = iso_profile(A)
        pb = iso_profile(B)
        if sorted(pa) == sorted(pb):
            n = A.n
            cand = [tuple(j for j in range(n) if pb[j] == pa[i]) for i in range(n)]
            assign = [-1] * n
            used = [False] * n

            def bt(i):
                if i == n:
                    out.append(tuple(assign))
                    return
                for v in cand[i]:
                    if used[v]:
                        continue
                    if all(A.leq(u, i) == B.leq(assign[u], v)
                           and A.leq(i, u) == B.leq(v, assign[u]) for u in range(i)):
                        assign[i] = v
                        used[v] = True
                        bt(i + 1)
                        used[v] = False

            bt(0)
    return tuple(out)


def iso_products():
    """M3 x M3, B2 x C2 x C4, C2^5, C4 x C8 and M7, freshly built."""
    return [direct_product([fx.build_fixture("m3")] * 2).lattice,
            direct_product([fx.build_fixture("b2"), fx.chain(2), fx.chain(4)]).lattice,
            direct_product([fx.chain(2)] * 5).lattice,
            direct_product([fx.chain(4), fx.chain(8)]).lattice,
            fx.mk(7)]


def non_graded_lattices():
    """ng, which is not graded: in [lo, top], y < z1, z2, while x1 and x2
    sit above longer chains from the bottom, so they have rank one in the
    interval but larger ids than z1 and z2. m has the same ranks as
    [lo, top], but its r1 of rank two lies above two elements of rank one."""
    L = build_lattice(
        ["0", "lo", "y", "z1", "z2", "u1", "u2", "u3", "x1", "v1", "v2", "v3",
         "x2", "1"],
        [("0", "lo"), ("lo", "y"), ("y", "z1"), ("y", "z2"), ("z1", "1"),
         ("z2", "1"), ("0", "u1"), ("u1", "u2"), ("u2", "u3"), ("u3", "x1"),
         ("0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "x2"), ("lo", "x1"),
         ("lo", "x2"), ("x1", "1"), ("x2", "1")], name="ng")
    M = build_lattice(["0", "p", "q1", "q2", "r1", "r2", "t"],
                      [("0", "p"), ("0", "q1"), ("0", "q2"), ("p", "r1"),
                       ("q1", "r1"), ("p", "r2"), ("r1", "t"), ("r2", "t"),
                       ("q2", "t")], name="m")
    return L, M


def test_iso_tables_match_the_leq_search(monkeypatch):
    """Every equal-size pair ([k, top], [bottom, a]) of the duality corpus,
    M3 x M3, B2 x C2 x C4, C2^5, C4 x C8 and M7 gives the same tables in the
    same order."""
    monkeypatch.setattr(morphisms, "_ISO_CACHE", {})
    pairs = {}
    for L in ROOTS + iso_products():
        ups = [interval(L, k, L.top).as_lattice for k in range(L.n)]
        downs = [interval(L, L.bottom, a).as_lattice for a in range(L.n)]
        for A in ups:
            for B in downs:
                if A.n == B.n:
                    pairs.setdefault((A.structure_key, B.structure_key), (A, B))
    found = 0
    for A, B in pairs.values():
        want = iso_tables_by_leq(A, B)
        assert morphisms._iso_tables(A, B).tolist() == list(map(list, want)), \
            (A.name, B.name)
        found += len(want)
    assert found


def test_iso_tables_are_one_read_only_array_per_pair(monkeypatch):
    """`_iso_tables` returns the cached read-only (count, n) array of the
    smallest unsigned dtype for n - 1, an empty one of shape (0, n), with
    the rows of the leq search; the search leaves no cyclic garbage."""
    monkeypatch.setattr(morphisms, "_ISO_CACHE", {})
    m5, c5, b3 = fx.mk(5), fx.chain(5), fx.build_fixture("b3")
    for A, B in [(m5, m5), (m5, c5), (b3, b3), (m5, b3)]:
        got = morphisms._iso_tables(A, B)
        assert isinstance(got, np.ndarray) and not got.flags.writeable
        assert got.dtype == np.min_scalar_type(A.n - 1)
        assert got.shape == (len(iso_tables_by_leq(A, B)), A.n)
        assert got.tolist() == list(map(list, iso_tables_by_leq(A, B)))
        assert morphisms._iso_tables(A, B) is got
    assert morphisms._iso_tables(m5, c5).shape == morphisms._iso_tables(m5, b3).shape \
        == (0, m5.n)
    morphisms._ISO_CACHE.clear()
    gc.collect()
    gc.disable()
    try:
        assert len(morphisms._iso_tables(m5, m5)) == 120  # 5! permutations of the atoms
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_iso_search_on_an_interval_whose_ids_do_not_follow_rank():
    """[lo, top] of the non-graded ng and the lattice m are not isomorphic
    (see non_graded_lattices). Positions filled in id order would take
    [lo, top] onto m; filled in rank order they do not, and the four
    automorphisms come out in table order although rank order visits x1
    and x2 before z1 and z2."""
    L, M = non_graded_lattices()
    upper = interval(L, L.id_of("lo"), L.top)
    A = upper.as_lattice
    assert list(A.rank) != sorted(A.rank)
    assert enumerate_interval_isos(upper, interval(M, M.bottom, M.top)) == []
    autos = [iso.forward for iso in enumerate_interval_isos(upper, upper)]
    assert len(autos) == 4 and autos == brute_force_isos(upper, upper)
    for phi in enumerate_linmors(L, M):
        assert validate_linear(L, M, phi.map).kernel == phi.kernel


# -- index-level interval views ------------------------------------------------


def interval_lattice_by_tables(L, lo, hi):
    """[lo, hi] re-indexed as a lattice from L's order, join and meet tables,
    in L's element order, as `interval` once built it for every view: the
    oracle for `IntervalView.as_lattice`."""
    members = tuple(sorted(_bits(L.up_mask(lo) & L.down_mask(hi))))
    pos = {p: i for i, p in enumerate(members)}
    m = len(members)
    up = [0] * m
    down = [0] * m
    for i, p in enumerate(members):
        for j, q in enumerate(members):
            if L.leq(p, q):
                up[i] |= 1 << j
                down[j] |= 1 << i
    join = [[pos[L.join_of(p, q)] for q in members] for p in members]
    meet = [[pos[L.meet_of(p, q)] for q in members] for p in members]
    covers = _covers_from_masks(m, up, down)
    full = (1 << m) - 1
    sub = Lattice(name=f"{L.name}[{L.names[lo]},{L.names[hi]}]",
                  names=[L.names[p] for p in members], up=up, down=down, join=join,
                  meet=meet, bottom=up.index(full), top=down.index(full),
                  rank=_ranks(m, covers), covers=covers)
    sub._modular = L._modular or None
    return members, sub


LATTICE_FIELDS = ("name", "names", "_up", "_down", "_join", "_meet", "_covers",
                  "rank", "bottom", "top", "_modular")


def view_corpus():
    """Fresh copies of the duality roots, the iso products and ng, so that
    no interval view of theirs has built its lattice yet."""
    return ([lattice_from_json(lattice_to_json(L)) for L in ROOTS]
            + iso_products() + [non_graded_lattices()[0]])


def test_interval_views_match_the_eager_build():
    """Every interval of the view corpus: a view reads n, rank, its down
    masks and its structure key off the parent without building a lattice,
    they equal those of `as_lattice`, and `as_lattice` is the eager build,
    field by field."""
    count = 0
    for L in view_corpus():
        for lo in range(L.n):
            for hi in _bits(L.up_mask(lo)):
                view = interval(L, lo, hi)
                facts = (view.n, view.rank, view.structure_key,
                         [view.down_mask(i) for i in range(view.n)])
                assert view._lattice is None
                sub = view.as_lattice
                assert facts == (sub.n, sub.rank, sub.structure_key,
                                 [sub.down_mask(i) for i in range(sub.n)])
                members, want = interval_lattice_by_tables(L, lo, hi)
                assert view.members == members
                assert view.from_parent == {p: i for i, p in enumerate(members)}
                for field in LATTICE_FIELDS:
                    assert getattr(sub, field) == getattr(want, field), \
                        (L.name, L.names[lo], L.names[hi], field)
                assert sub.structure_key == want.structure_key
                count += 1
    assert count > 5000


def view_fields_by_compress(L, lo, hi):
    """[lo, hi] as `interval` once read it, one view at a time: the members
    off the parent's masks, each member's up, down and upper-cover sets
    compressed bit by bit to member indices, ranks by `_ranks` over the
    compressed covers, and the key by `_structure_key`. The oracle for the
    batched views."""
    inside = L.up_mask(lo) & L.down_mask(hi)
    members = tuple(_bits(inside))
    pos = {p: i for i, p in enumerate(members)}

    def compress(m):
        out = 0
        for b in _bits(m & inside):
            out |= 1 << pos[b]
        return out

    masks = tuple(tuple(compress(table[p]) for p in members)
                  for table in (L._up, L._down, L._upper_covers))
    covers = [(a, b) for a, m in enumerate(masks[2]) for b in _bits(m)]
    return members, masks, tuple(_ranks(len(members), covers)), _structure_key(masks[0])


def graded(L):
    return all(L.rank[b] == L.rank[a] + 1 for a, b in L.covers())


def batch_corpus():
    """The fixtures, random_corpus(200, 8, 42) and (60, 10, 5), products of
    up to 64 elements, ten subgroup lattices, non-graded random lattices
    and ng, each as a fresh copy whose modularity is not yet decided."""
    rng = random.Random(5)
    draws = [random_lattice(rng, f"d{i}", 5 + i % 2) for i in range(80)]
    c2, c3, c4, b2, b3, m3 = (fx.chain(2), fx.chain(3), fx.chain(4), fx.build_fixture("b2"),
                              fx.build_fixture("b3"), fx.build_fixture("m3"))
    products = [direct_product(fs).lattice for fs in (
        [b3, b3], [c2] * 6, [c4] * 3, [m3, m3], [m3, c4, c3], [b2, c2, c4, c2], [c4, fx.chain(16)])]
    groups = ("2", "4", "6", "8", "9", "12", "2,2", "2,4", "3,3", "2,2,2")
    corpus = ([fx.build_fixture(name) for name in fx.FIXTURE_NAMES]
              + random_corpus(200, 8, 42) + random_corpus(60, 10, 5) + products
              + [subgroup_lattice(AbelianGroup.from_spec(g)) for g in groups]
              + [L for L in draws if not graded(L)] + [non_graded_lattices()[0]])
    return [lattice_from_json(lattice_to_json(L)) for L in corpus]


def test_batched_views_match_the_compress_route():
    """Every lower and upper view of the batch corpus, and every interval of
    its lattices of at most 10 elements, field by field against the
    one-view route: members, masks, rank, structure key; `as_lattice` of
    the lower and upper views against the build from the parent's tables."""
    corpus = batch_corpus()
    assert sum(not graded(L) for L in corpus) >= 10
    assert max(L.n for L in corpus) == 64
    views = 0
    for L in corpus:
        pairs = [(L.bottom, x) for x in range(L.n)] + [(x, L.top) for x in range(L.n)]
        if L.n <= 10:
            pairs += [(lo, hi) for lo in range(L.n) for hi in _bits(L.up_mask(lo))]
        for lo, hi in pairs:
            view = interval(L, lo, hi)
            assert_view_fields(view, view_fields_by_compress(L, lo, hi))
            if lo == L.bottom or hi == L.top:
                sub = view.as_lattice
                want = interval_lattice_by_tables(L, lo, hi)[1]
                for field in LATTICE_FIELDS:
                    assert getattr(sub, field) == getattr(want, field), (L.name, field)
            views += 1
    assert views > 10000


def assert_view_fields(view, fields):
    members, masks, rank, key = fields
    where = (view.parent.name, view.lo, view.hi)
    assert view.members == members, where
    assert view.from_parent == {p: i for i, p in enumerate(members)}, where
    assert view._order == masks, where
    assert view.rank == rank, where
    assert view.structure_key == key, where


def test_views_of_more_than_64_members_match_the_compress_route(monkeypatch):
    """The subgroup lattice of 2,2,2,2 has 67 elements, more than a word:
    its whole-lattice view and the two sides of a middle element keep every
    bit, as does the 81-element product c3^4 under a raised cap."""
    monkeypatch.setattr(config, "DEFAULT_LATTICE_CAP", 81)
    for L in (subgroup_lattice(AbelianGroup.from_spec("2,2,2,2")),
              direct_product([fx.chain(3)] * 4).lattice):
        assert L.n > 64
        mid = L.n // 2
        for lo, hi in ((L.bottom, L.top), (L.bottom, mid), (mid, L.top), (L.bottom, 1)):
            assert_view_fields(interval(L, lo, hi), view_fields_by_compress(L, lo, hi))
        assert interval(L, L.bottom, L.top).n == L.n


def test_views_are_made_a_side_at_a_time_and_filled_together():
    """Asking for one lower (upper) view makes all of them; reading a field
    of one view fills in every view of the lattice made so far, and a view
    made later waits for its own first read."""
    L = direct_product([fx.build_fixture("m3"), fx.chain(3)]).lattice
    lower = interval(L, L.bottom, 3)
    assert len(L._interval_cache) == L.n
    upper = interval(L, 3, L.top)
    assert len(L._interval_cache) == 2 * L.n - 1
    assert interval(L, L.bottom, L.top) is interval(L, L.bottom, L.top)
    assert lower.rank == view_fields_by_compress(L, L.bottom, 3)[2]
    assert not any(view._masks is None for view in L._interval_cache.values())
    assert upper.structure_key == view_fields_by_compress(L, 3, L.top)[3]
    middle = interval(L, 3, L.id_of("(b,2)"))
    assert middle._masks is None and len(L._interval_cache) == 2 * L.n
    assert middle._order == view_fields_by_compress(L, 3, L.id_of("(b,2)"))[1]
    with pytest.raises(AttributeError):
        upper.no_such_field


def test_views_survive_pickle_and_copy():
    """A lattice whose cache holds filled and unfilled views pickles and
    copies; the copies' views fill in and read like the originals."""
    L = direct_product([fx.build_fixture("m3"), fx.chain(3)]).lattice
    filled = interval(L, L.bottom, 3)
    filled.rank
    pending = interval(L, 3, L.top)
    assert pending._masks is None
    for copied in (pickle.loads(pickle.dumps(L)), copy.deepcopy(L)):
        for pair, view in L._interval_cache.items():
            twin = copied._interval_cache[pair]
            assert twin.parent is copied
            assert_view_fields(twin, view_fields_by_compress(L, *pair))
    twin = copy.copy(interval(L, L.bottom, L.top))
    assert twin.structure_key == L.structure_key
    with pytest.raises(AttributeError):
        IntervalView.__new__(IntervalView).rank


def test_views_read_from_many_threads_agree_with_the_compress_route():
    """Threads that make and read the views of one fresh lattice at once,
    with a short switch interval, each see every field filled in."""
    L0 = direct_product([fx.build_fixture("m3"), fx.chain(4)]).lattice
    pairs = [(L0.bottom, x) for x in range(L0.n)] + [(x, L0.top) for x in range(L0.n)]
    want = {pair: view_fields_by_compress(L0, *pair) for pair in pairs}
    interval_switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            L = lattice_from_json(lattice_to_json(L0))
            errors = []

            def read(offset):
                try:
                    for pair in pairs[offset:] + pairs[:offset]:
                        assert_view_fields(interval(L, *pair), want[pair])
                except AssertionError as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(k * 7 + round_,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert not errors, errors[0]
    finally:
        sys.setswitchinterval(interval_switch)


def test_iso_tables_read_views_as_their_lattices(monkeypatch):
    """Every equal-size pair ([k, top], [bottom, a]) of the view corpus and
    every equal-size pair of intervals of ng: the search on the two views
    gives the tables the search on their lattices gives, with the cache
    emptied before each search."""
    monkeypatch.setattr(morphisms, "_ISO_CACHE", {})
    pairs = {}
    for L in view_corpus():
        ups = [interval(L, k, L.top) for k in range(L.n)]
        downs = [interval(L, L.bottom, a) for a in range(L.n)]
        for A in ups:
            for B in downs:
                if A.n == B.n:
                    pairs.setdefault((A.structure_key, B.structure_key), (A, B))
    ng = non_graded_lattices()[0]
    views = [interval(ng, lo, hi) for lo in range(ng.n) for hi in _bits(ng.up_mask(lo))]
    for A in views:
        for B in views:
            if A.n == B.n:
                pairs.setdefault((A.structure_key, B.structure_key), (A, B))
    found = 0
    for A, B in pairs.values():
        morphisms._ISO_CACHE.clear()
        got = morphisms._iso_tables(A, B)
        morphisms._ISO_CACHE.clear()
        want = morphisms._iso_tables(A.as_lattice, B.as_lattice)
        assert got.dtype == want.dtype and np.array_equal(got, want), (A, B)
        found += len(got)
    assert found


# -- Hom(L, M) gathered per (kernel, image top) block ------------------------------


def linmor_tables_by_flat_list(L, M):
    """Hom(L, M) as `_linmor_tables` once collected it: the composites of
    each (kernel, image top) pair appended to one flat list of values, the
    isomorphisms searched on the interval lattices."""
    flat, kernels = [], []
    for k in range(L.n):
        up_view = interval(L, k, L.top)
        row = [up_view.from_parent[L.join_of(x, k)] for x in range(L.n)]
        for a in range(M.n):
            dn_view = interval(M, M.bottom, a)
            if len(dn_view.members) == len(up_view.members):
                start = len(flat)
                for fwd in morphisms._iso_tables(up_view.as_lattice, dn_view.as_lattice):
                    flat.extend(dn_view.members[fwd[i]] for i in row)
                count = (len(flat) - start) // L.n
                kernels += [k] * count
    tables = np.array(flat, dtype=np.min_scalar_type(M.n - 1)).reshape(-1, L.n)
    order = np.lexsort(tables.T[::-1])
    return tables[order], np.array(kernels, dtype=np.intp)[order]


def test_hom_tables_match_the_flat_list(monkeypatch):
    """Hom(L, L) and Hom([bottom, x], L) for every L of the view corpus and
    every x below its top, with both caches emptied before each
    enumeration: equal tables and kernels, in equal dtypes. The
    cap is raised to the 32 elements of the largest products."""
    monkeypatch.setattr(config, "DEFAULT_ENUM_CAP", 32)
    monkeypatch.setattr(morphisms, "_LINMOR_CACHE", {})
    monkeypatch.setattr(morphisms, "_ISO_CACHE", {})
    count = 0
    for L in view_corpus():
        for D in [L] + [interval(L, L.bottom, x).as_lattice for x in range(L.n) if x != L.top]:
            morphisms._LINMOR_CACHE.clear()
            morphisms._ISO_CACHE.clear()
            want = linmor_tables_by_flat_list(D, L)
            morphisms._ISO_CACHE.clear()
            got = morphisms._linmor_tables(D, L)
            assert len(got) == len(want) == 2
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), (D.name, L.name)
            count += 1
    assert count > 1500


def test_full_monoid_and_c1_build_no_interval_lattice(monkeypatch):
    """End(L) reads only the views' masks and members, and C1 only their
    members: on a fresh 20-element product, with cold caches, no view
    builds its lattice."""
    monkeypatch.setattr(morphisms, "_LINMOR_CACHE", {})
    monkeypatch.setattr(morphisms, "_ISO_CACHE", {})
    P = direct_product([fx.build_fixture("m3"), fx.chain(4)]).lattice
    assert P.n == 20
    full_monoid(P)
    check_condition(P, None, "c1")
    assert len(P._interval_cache) == 2 * P.n - 1
    assert all(view._lattice is None for view in P._interval_cache.values())


@pytest.mark.parametrize("L,size", [
    pytest.param(L, size, id=L.name) for L, size in
    [*[(fx.build_fixture(name), 5) for name in ("c3", "b2", "m3", "excip")],
     *[(L, 6) for L in random_corpus(10, 7, 1)]]])
def test_interval_isos_match_permutation_oracle(L, size):
    """Every pair of intervals of L with at most `size` elements."""
    views = [interval(L, lo, hi)
             for lo in range(L.n) for hi in range(L.n) if L.leq(lo, hi)]
    small = [v for v in views if len(v.members) <= size]
    for a in small:
        for b in small:
            got = sorted(iso.forward for iso in enumerate_interval_isos(a, b))
            assert got == brute_force_isos(a, b)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_enumeration_matches_oracle_on_random_lattices(seed):
    L = random_modular_lattice(seed, 4)
    fast = sorted(phi.map for phi in enumerate_linmors(L))
    assert fast == brute_force_linmors(L, L)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_members_preserve_joins_on_random_lattices(seed):
    L = random_modular_lattice(seed, 6)
    for phi in enumerate_linmors(L):
        for x in range(L.n):
            for y in range(L.n):
                assert phi.map[L.join_of(x, y)] == L.join_of(phi.map[x], phi.map[y])


def definition_outcome(domain, codomain, table):
    """Independent route: the definition with an all-pairs order check.

    Returns ("linear", kernel, image top) or the name of the exception class
    that `validate_linear` must raise for the same table.
    """
    m = tuple(table)
    if len(m) != domain.n or any(not (0 <= v < codomain.n) for v in m):
        return "ValueError"
    zero_pre = [x for x in range(domain.n) if m[x] == codomain.bottom]
    if not zero_pre:
        return "NoKernelError"
    k = domain.join_all(zero_pre)
    if m[k] != codomain.bottom or any(m[domain.join_of(x, k)] != m[x]
                                      for x in range(domain.n)):
        return "NoKernelError"
    upper = domain.up_set(k)
    a = m[domain.top]
    if sorted(m[u] for u in upper) != codomain.down_set(a):
        return "NotIntervalIsoError"
    if any(domain.leq(u, v) != codomain.leq(m[u], m[v])
           for u in upper for v in upper):
        return "NotIntervalIsoError"
    return ("linear", k, a)


def certified_outcome(domain, codomain, table):
    try:
        phi = validate_linear(domain, codomain, table)
    except (LinearValidationError, ValueError) as exc:
        return type(exc).__name__
    return ("linear", phi.kernel, phi.image_top)


def raised(fn, *args):
    """(class name, message) of the error fn raises, or None if it returns."""
    try:
        fn(*args)
    except (LinearValidationError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return None


def assert_batch_agrees(domain, codomain, tables):
    """certify_tables and table_verdicts against validate_linear: the linear
    tables certify as one batch with the same kernels, each
    rejected table, as a one-row batch, raises the same class and message,
    and table_verdicts on the whole mixed batch rejects exactly those."""
    linear = []
    rejects = []
    for table in tables:
        want = raised(validate_linear, domain, codomain, table)
        rejects.append(want is not None)
        if want is None:
            linear.append(validate_linear(domain, codomain, table))
        else:
            assert raised(certify_tables, domain, codomain, [table]) == want, table
    kernels = certify_tables(
        domain, codomain, np.array([phi.map for phi in linear]).reshape(-1, domain.n))
    assert kernels.tolist() == [phi.kernel for phi in linear]
    rejected, kernels = table_verdicts(
        domain, codomain, np.array(tables).reshape(-1, domain.n))
    assert rejected.tolist() == rejects
    assert kernels[~rejected].tolist() == [phi.kernel for phi in linear]
    return len(linear)


def validate_linear_by_bits(domain, codomain, mapping):
    """validate_linear with its clauses read off the bit masks on every
    call: the up-set and each upper-cover set are walked bit by bit."""
    m = tuple(mapping)
    if len(m) != domain.n:
        raise ValueError("map table length does not match the domain")
    if any(not (0 <= v < codomain.n) for v in m):
        raise ValueError("map table has out-of-range values")
    zero_pre = [x for x in range(domain.n) if m[x] == codomain.bottom]
    if not zero_pre:
        raise NoKernelError("nothing maps to bottom, so no kernel exists")
    k = domain.join_all(zero_pre)
    if m[k] != codomain.bottom:
        raise NoKernelError(
            f"join of the zero preimage ({domain.names[k]!r}) does not map to bottom")
    for x in range(domain.n):
        if m[domain.join_of(x, k)] != m[x]:
            raise NoKernelError(
                f"map({domain.names[x]!r}) differs from map(x v kernel)")
    upper = domain.up_set(k)
    a = m[domain.top]
    target = codomain.down_set(a)
    images = [m[u] for u in upper]
    if len(set(images)) != len(upper) or set(images) != set(target):
        raise NotIntervalIsoError(
            f"restriction above {domain.names[k]!r} is not a bijection onto "
            f"[bottom, {codomain.names[a]!r}]")
    down_a = codomain.down_mask(a)
    for u in upper:
        got = 0
        for v in _bits(domain.upper_covers_mask(u)):
            got |= 1 << m[v]
        if got != codomain.upper_covers_mask(m[u]) & down_a:
            raise NotIntervalIsoError(
                f"upper covers of {domain.names[u]!r} do not map onto the upper "
                f"covers of {codomain.names[m[u]]!r} below {codomain.names[a]!r}")
    return LinearMorphism(domain=domain, codomain=codomain, map=m,
                          kernel=k, image_top=a)


def test_batch_matches_validate_linear_on_monoid_rows():
    """table_verdicts against validate_linear, row by row, on the rows of
    full monoids, single-entry perturbations of them and random rows: the
    modular fixtures, random_corpus(60, 10, 5) and three induced monoids,
    the last of them more than one block of rows."""
    rng = random.Random(26)
    cases = [(L, full_monoid(L).tables) for L in
             [fx.build_fixture(name) for name in fx.FIXTURE_NAMES if name != "n5"]
             + random_corpus(60, 10, 5)]
    for spec in ("2,2,2", "3,9", "2,4,4"):
        mono = induced_monoid(AbelianGroup.from_spec(spec))
        cases.append((mono.lattice, mono.tables))
    rows_seen = linear_seen = 0
    for L, members in cases:
        rows = members.tolist()
        if len(rows) < 4096:
            rows = rng.sample(rows, min(len(rows), 120))
        for base in rng.sample(rows, min(len(rows), 60)):
            one = list(base)
            one[rng.randrange(L.n)] = rng.randrange(L.n)
            rows.append(one)
        rows += [[rng.randrange(L.n) for _ in range(L.n)] for _ in range(20)]
        rng.shuffle(rows)
        linear_seen += assert_batch_agrees(L, L, rows)
        rows_seen += len(rows)
    assert 0 < linear_seen < rows_seen
    assert max(len(members) for _, members in cases) > 4096


def test_memoized_covers_match_the_bit_loops():
    """validate_linear against validate_linear_by_bits: the same morphism,
    or the same error class and message, on member tables, single-entry
    perturbations of them and random tables, into the lattice itself and
    into a lower interval, over the fixtures and the duality corpus."""
    from test_duality import ROOTS
    lattices = [fx.build_fixture(name) for name in fx.FIXTURE_NAMES] + ROOTS
    seen = set()
    for i, L in enumerate(lattices):
        rng = random.Random(i)
        for M in (L, interval(L, L.bottom, rng.randrange(L.n)).as_lattice):
            members = [phi.map for phi in enumerate_linmors(L, M)]
            tables = rng.sample(members, min(len(members), 20))
            for base in list(tables):
                one = list(base)
                one[rng.randrange(L.n)] = rng.randrange(M.n)
                tables.append(one)
            tables += [[rng.randrange(M.n) for _ in range(L.n)] for _ in range(10)]
            for table in tables:
                want = raised(validate_linear_by_bits, L, M, table)
                assert raised(validate_linear, L, M, table) == want, (L.name, M.name, table)
                if want is None:
                    got = validate_linear(L, M, table)
                    ref = validate_linear_by_bits(L, M, table)
                    assert (got.map, got.kernel, got.image_top) == \
                        (ref.map, ref.kernel, ref.image_top)
                seen.add("linear" if want is None else want[0])
    assert seen == {"NoKernelError", "NotIntervalIsoError", "linear"}


class TestCoverCertificate:
    """validate_linear decides linearity by covers; the definition checks
    every pair. Both must give the same outcome on every table, and the
    batched certify_tables must agree with validate_linear."""

    def test_every_table_between_small_fixtures(self):
        small = [fx.build_fixture(name) for name in ("c2", "c3", "b2", "m3", "n5")]
        seen = set()
        for L in small:
            for M in small:
                for table in itertools.product(range(M.n), repeat=L.n):
                    want = definition_outcome(L, M, table)
                    assert certified_outcome(L, M, table) == want, (L.name, M.name, table)
                    seen.add(want if isinstance(want, str) else "linear")
        assert seen == {"NoKernelError", "NotIntervalIsoError", "linear"}

    def test_batches_between_small_fixtures(self):
        small = [fx.build_fixture(name) for name in ("c2", "c3", "b2", "m3", "n5")]
        for L in small:
            for M in small:
                tables = list(itertools.product(range(M.n), repeat=L.n))
                assert assert_batch_agrees(L, M, tables) == \
                    sum(not isinstance(definition_outcome(L, M, t), str) for t in tables)

    def test_first_bad_row_decides_the_batch(self, b2, c3):
        ident = list(range(b2.n))
        zero = [b2.bottom] * b2.n
        no_kernel = [b2.top] * b2.n  # nothing maps to bottom
        atoms = b2.atoms()
        not_iso = list(ident)  # both atoms to one: the first clause holds
        not_iso[atoms[1]] = atoms[0]
        out_of_range = [b2.n] * b2.n
        for bad_rows in ([no_kernel, not_iso], [not_iso, no_kernel],
                         [out_of_range, not_iso], [not_iso, out_of_range]):
            batch = [ident, zero, bad_rows[0], ident, bad_rows[1]]
            want = raised(validate_linear, b2, b2, bad_rows[0])
            assert want is not None
            assert raised(certify_tables, b2, b2, batch) == want
            assert table_verdicts(b2, b2, batch)[0].tolist() == \
                [False, False, True, False, True]
        # a first bad row beyond the first block of rows
        batch = [ident] * 5000 + [not_iso, no_kernel]
        assert raised(certify_tables, b2, b2, batch) == \
            raised(validate_linear, b2, b2, not_iso)
        kernels = certify_tables(b2, b2, [ident] * 5000 + [zero])
        assert kernels.tolist() == [b2.bottom] * 5000 + [b2.top]
        # a table of the wrong length
        assert raised(certify_tables, b2, c3, [[0, 1, 2]]) == \
            raised(validate_linear, b2, c3, [0, 1, 2])
        assert len(certify_tables(b2, c3, np.zeros((0, b2.n), dtype=int))) == 0

    @pytest.mark.parametrize("covers, target_covers", [
        # N5 onto 0 < x, y < z < 1: order-preserving, as many covers, and
        # the cover (b, 1) lands on the non-cover (y, 1)
        ([("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
         [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "c")]),
        # a hexagon into the hexagon with a < d: every cover lands on a
        # cover, but the target has one cover more
        ([("0", "a"), ("0", "b"), ("a", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
         [("0", "a"), ("0", "b"), ("a", "c"), ("b", "d"), ("c", "1"), ("d", "1"),
          ("a", "d")]),
        # the inverse: the hexagon with a < d onto the hexagon; every upper
        # cover of a lands on an upper cover of a, but not onto them all
        ([("0", "a"), ("0", "b"), ("a", "c"), ("b", "d"), ("c", "1"), ("d", "1"),
          ("a", "d")],
         [("0", "a"), ("0", "b"), ("a", "c"), ("b", "d"), ("c", "1"), ("d", "1")]),
    ], ids=["same_cover_count", "more_target_covers", "fewer_target_covers"])
    def test_order_preserving_bijection_that_is_not_an_isomorphism(
            self, covers, target_covers):
        names = sorted({nm for pair in covers for nm in pair})
        L = build_lattice(names, covers, name="source")
        M = build_lattice(names, target_covers, name="target")
        table = [M.id_of(nm) for nm in L.names]
        assert definition_outcome(L, M, table) == "NotIntervalIsoError"
        assert certified_outcome(L, M, table) == "NotIntervalIsoError"
        want = raised(validate_linear, L, M, table)
        assert raised(certify_tables, L, M, [table]) == want
        assert want[0] == "NotIntervalIsoError"

    @pytest.mark.parametrize("build", [
        lambda: direct_product([fx.build_fixture("c3"), fx.build_fixture("m3")]).lattice,
        lambda: direct_product([fx.build_fixture("b2"), fx.build_fixture("c2"), fx.build_fixture("c3")]).lattice,
        lambda: subgroup_lattice(AbelianGroup.from_spec("2,2,2")),
        lambda: subgroup_lattice(AbelianGroup.from_spec("2,2,4")),
    ], ids=["c3xm3", "b2xc2xc3", "sub_2,2,2", "sub_2,2,4"])
    def test_random_and_perturbed_tables_on_larger_lattices(self, build, monkeypatch):
        monkeypatch.setattr(config, "DEFAULT_ENUM_CAP", 32)
        L = build()
        rng = random.Random(L.n)
        targets = [L] + [interval(L, L.bottom, b).as_lattice
                         for b in rng.sample(range(L.n), 3)]
        seen = set()
        for M in targets:
            linear = [phi.map for phi in enumerate_linmors(L, M)]
            tables = rng.sample(linear, min(len(linear), 60))
            for base in list(tables):
                one = list(base)
                one[rng.randrange(L.n)] = rng.randrange(M.n)
                two = list(base)
                i, j = rng.sample(range(L.n), 2)
                two[i], two[j] = two[j], two[i]
                tables += [one, two]
            tables += [[rng.randrange(M.n) for _ in range(L.n)] for _ in range(40)]
            if M is L:
                # bijections fixing bottom and top pass the first clause and
                # leave the order check to decide
                middle = [x for x in range(L.n) if x not in (L.bottom, L.top)]
                for _ in range(40):
                    shuffled = rng.sample(middle, len(middle))
                    table = list(range(L.n))
                    for x, y in zip(middle, shuffled):
                        table[x] = y
                    tables.append(table)
            for table in tables:
                want = definition_outcome(L, M, table)
                assert certified_outcome(L, M, table) == want, (L.name, M.name, table)
                seen.add(want if isinstance(want, str) else "linear")
            assert_batch_agrees(L, M, tables)
        assert seen == {"NoKernelError", "NotIntervalIsoError", "linear"}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_batches_match_the_definition_on_random_lattices(seed, data):
    """A batch of linear tables, perturbed ones and order-scrambling
    bijections certifies exactly when every row is linear by the
    definition, and otherwise raises the definition's error class for its
    first non-linear row."""
    L = random_modular_lattice(seed, 7)
    M = L if data.draw(st.booleans()) else random_modular_lattice(seed + 1, 7)
    linear = [phi.map for phi in enumerate_linmors(L, M)]
    index = st.integers(0, L.n - 1)
    tables = []
    for _ in range(data.draw(st.integers(1, 12))):
        table = list(data.draw(st.sampled_from(linear)))
        kind = data.draw(st.sampled_from(["linear", "set", "swap", "scramble"]))
        if kind == "set":
            table[data.draw(index)] = data.draw(st.integers(0, M.n - 1))
        elif kind == "swap":
            i, j = data.draw(index), data.draw(index)
            table[i], table[j] = table[j], table[i]
        elif kind == "scramble" and M is L:
            # fixes bottom and top, so only the order check can reject it
            middle = [x for x in range(L.n) if x not in (L.bottom, L.top)]
            table = list(range(L.n))
            for x, y in zip(middle, data.draw(st.permutations(middle))):
                table[x] = y
        tables.append(table)
    outcomes = [definition_outcome(L, M, t) for t in tables]
    failed = [o for o in outcomes if isinstance(o, str)]
    if failed:
        with pytest.raises(LinearValidationError) as info:
            certify_tables(L, M, tables)
        assert type(info.value).__name__ == failed[0]
    else:
        kernels = certify_tables(L, M, tables)
        assert [("linear", k, t[L.top]) for k, t in zip(kernels.tolist(), tables)] \
            == outcomes


class TestIsoComposites:
    """iso_composites against composites read off enumerate_interval_isos
    by explicit indexing, for the quotient and projection pre-maps."""

    @staticmethod
    def explicit(src, dst, pre):
        return [tuple(dst.members[iso.forward[src.from_parent[p]]] for p in pre)
                for iso in enumerate_interval_isos(src, dst)]

    def test_quotient_and_projection_premaps(self):
        corpus = ([fx.build_fixture(name) for name in fx.FIXTURE_NAMES]
                  + random_corpus(40, 8, 3))
        premaps = 0
        composites = 0
        for L in corpus:
            lower = [interval(L, L.bottom, b) for b in range(L.n)]
            # y -> y v a, from [a, top]
            cases = [(interval(L, a, L.top), [L.join_of(y, a) for y in range(L.n)])
                     for a in range(L.n)]
            # y -> (y v x') ^ x, from [bottom, x]
            cases += [(lower[x], [L.meet_of(L.join_of(y, xp), x) for y in range(L.n)])
                      for x in complemented_elements(L) for xp in complements_of(L, x)]
            for src, pre in cases:
                premaps += 1
                for dst in lower:
                    got = list(iso_composites(src, dst, pre))
                    assert got == self.explicit(src, dst, pre), (L.name, src.lo, dst.hi)
                    composites += len(got)
        assert premaps > 500 and composites > premaps
