"""Finite abelian groups, subgroup lattices, and the induced monoid.

The bridge rests on one theorem: every subgroup of a finite abelian group M
is both a kernel and an image of an endomorphism. Two independent routes
check it here. The quotient and subgroup types below say that every M/K
and every K embeds in M, for every group of order at most 64; and the
kernels and images read off the endomorphism tables are every subgroup, for
every group whose endomorphisms can be enumerated up to order 32.
"""

import itertools
from functools import cache
from math import gcd, lcm, prod
from types import SimpleNamespace

import numpy as np
import pytest

from latticelab import config
from latticelab.abelian import (
    AbelianGroup,
    GroupHom,
    _gen_images,
    _group_data,
    _hom_tables,
    _cyclic,
    _induced_rows,
    _subgroup_lattice,
    _subgroup_masks,
    _subgroup_names,
    endomorphisms,
    hom_compose,
    induced_map,
    induced_monoid,
    rickart_module_direct,
    subgroup_lattice,
)
from latticelab.errors import DomainMismatchError, SizeLimitExceededError
from latticelab.cli import run as cli_run
from latticelab.lattice import _assemble, _bits, close_under, complemented_elements, is_modular
from latticelab.morphisms import compose, enumerate_linmors
from latticelab.properties import RICKART_KINDS

ENUMERATION_NOTE = "lattice side via induced monoid enumeration"
COMPLEMENT_NOTE = "lattice side via complements of all subgroups, each a kernel and an image"


def invariant_factor_chains(max_order, chain=()):
    """Every chain d1 | d2 | ... with product at most max_order, once each."""
    yield chain
    step = chain[-1] if chain else 1
    d = chain[-1] if chain else 2
    while prod(chain) * d <= max_order:
        yield from invariant_factor_chains(max_order, chain + (d,))
        d += step


def group_data_by_loops(fs):
    """The group tables by a loop over pairs of element tuples: the oracle
    for _group_data's coordinate arithmetic."""
    n = prod(fs)
    elements = tuple(itertools.product(*[range(d) for d in fs])) or ((),)
    index = {e: i for i, e in enumerate(elements)}
    add = np.empty((n, n), dtype=np.int16)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            add[i, j] = index[tuple((a + b) % d for a, b, d in zip(x, y, fs))]
    sc_mul = np.empty((n + 1, n), dtype=np.int16)
    for c in range(n + 1):
        for i, x in enumerate(elements):
            sc_mul[c, i] = index[tuple((c * a) % d for a, d in zip(x, fs))]
    coords = np.array([[e[j] for e in elements] for j in range(len(fs))],
                      dtype=np.int16).reshape(len(fs), n)
    orders = tuple(lcm(*(d // gcd(d, a) for a, d in zip(x, fs))) if fs else 1
                   for x in elements)
    gen_ids = tuple(index[tuple(1 if i == j else 0 for i in range(len(fs)))]
                    for j in range(len(fs)))
    return SimpleNamespace(elements=elements, add=add, sc_mul=sc_mul, coords=coords,
                           orders=orders, gen_ids=gen_ids)


def _primes_of(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _partition_from_counts(counts, p):
    """Descending exponent partition from the tower counts[i] = number of
    elements killed by p^i.

    For a p-group of type (p^l1, p^l2, ...), counts[i]/counts[i-1] equals p
    to the number of parts >= i; the partition is the conjugate of that
    sequence.
    """
    mults = []
    for i in range(1, len(counts)):
        ratio = counts[i] // counts[i - 1]
        e = 0
        while ratio > 1:
            ratio //= p
            e += 1
        mults.append(e)  # number of parts >= i
    width = mults[0] if mults else 0
    return tuple(sum(1 for a in mults if a > j) for j in range(width))


def _type_embeds(sub, amb):
    """Componentwise domination of descending partitions, prime by prime."""
    for p, parts in sub.items():
        other = amb.get(p, ())
        for j, lam in enumerate(parts):
            if j >= len(other) or lam > other[j]:
                return False
    return True


def _type(g, within, kmask=1):
    """Per-prime descending exponent partitions of within/K, for subgroup
    masks K <= within (the default K is the zero subgroup).

    p^i kills the coset of x exactly when p^i x lands in K, so the tower is
    the number of such x in `within`, over |K|. Scalars reduce modulo the
    group exponent.
    """
    data = _group_data(g)
    ksize = kmask.bit_count()
    exponent = g.invariant_factors[-1] if g.invariant_factors else 1
    elems = list(_bits(within))
    in_k = np.zeros(g.order, dtype=bool)
    in_k[list(_bits(kmask))] = True
    out = {}
    for p in _primes_of(len(elems) // ksize):
        counts = [1]  # counts[i]: cosets of K in `within` killed by p^i
        while len(counts) < 2 or counts[-1] > counts[-2]:
            sc = data.sc_mul[pow(p, len(counts), exponent)]
            counts.append(int(np.count_nonzero(in_k[sc[elems]])) // ksize)
        out[p] = _partition_from_counts(counts, p)
    return out


def kernel_image_sets_by_type(g):
    """Masks of subgroups K whose quotient M/K embeds in M (the kernels) and
    of subgroups that embed as a quotient of M (the images; the same test,
    since a finite abelian group and its subgroups match their quotients)."""
    full = (1 << g.order) - 1
    amb = _type(g, full)
    masks = _subgroup_masks(g)
    return ({m for m in masks if _type_embeds(_type(g, full, m), amb)},
            {m for m in masks if _type_embeds(_type(g, m), amb)})


def kernel_image_sets_by_tables(g):
    """Masks of the kernels and the images of every endomorphism, read off
    the homomorphism tables as uint64 element masks (order at most 64)."""
    tables = _hom_tables(g, _gen_images(g))
    powers = np.left_shift(np.uint64(1), np.arange(g.order, dtype=np.uint64))
    kernels = np.bitwise_or.reduce(np.where(tables == 0, powers, np.uint64(0)), axis=1)
    images = np.bitwise_or.reduce(powers[tables], axis=1)
    return {int(v) for v in np.unique(kernels)}, {int(v) for v in np.unique(images)}


def pair_sum(g, a, b):
    """Sum of two subgroups given as masks, as the union of the cosets
    A + y for y in B, via the addition table."""
    add = _group_data(g).add
    ea = list(_bits(a))
    out = 0
    for y in _bits(b):
        if not out >> y & 1:  # y starts a coset not yet in the sum
            row = add[y].tolist()
            for x in ea:
                out |= 1 << row[x]
    return out


@cache
def subgroup_lattice_by_sums(g):
    """(lattice, masks in lattice order) by the sum route: the subgroups are
    the sum closure of the cyclic subgroups, the order and the meets come
    from O(s^2) loops over mask pairs, and each join is the first common
    upper bound in (size, mask) order. The oracle for the duality builder."""
    cyclic = dict.fromkeys((_cyclic(g, e) for e in range(g.order)), ())
    masks = sorted(close_under(cyclic, lambda a, b: pair_sum(g, a, b)),
                   key=lambda m: (m.bit_count(), m))
    idx = {m: i for i, m in enumerate(masks)}
    s = len(masks)
    up = [0] * s
    down = [0] * s
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            if mi & mj == mi:
                up[i] |= 1 << j
                down[j] |= 1 << i
    meet = [[idx[masks[i] & masks[j]] for j in range(s)] for i in range(s)]
    join = [[0] * s for _ in range(s)]
    for i in range(s):
        for j in range(s):
            cand = up[i] & up[j]
            join[i][j] = (cand & -cand).bit_length() - 1
    lat, order = _assemble(f"sub({g.spec_string()})", _subgroup_names(g, masks),
                           up, down, join, meet)
    return lat, tuple(masks[o] for o in order)


def type_from_invariant_factors(g):
    """Per-prime descending exponent partitions, read off the factors."""
    out = {}
    for p in _primes_of(g.order):
        parts = []
        for d in g.invariant_factors:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                parts.append(e)
        out[p] = tuple(sorted(parts, reverse=True))
    return out


class TestGroups:
    def test_spec_parsing(self):
        assert AbelianGroup.from_spec("4").invariant_factors == (4,)
        assert AbelianGroup.from_spec("2,4").invariant_factors == (2, 4)
        assert AbelianGroup.from_spec("1").invariant_factors == ()
        for spec in (",", "2,,2", "4,", ""):
            with pytest.raises(ValueError, match="empty field"):
                AbelianGroup.from_spec(spec)

    @pytest.mark.parametrize("spec", ["1_6", "+4", "-4", "\u0664", "2,\uff14", "4.0",
                                      "0x4", "2,4x"])
    def test_fields_must_be_ascii_decimal_digits(self, spec):
        with pytest.raises(ValueError, match="not a decimal number"):
            AbelianGroup.from_spec(spec)

    def test_padded_fields_still_parse(self):
        assert AbelianGroup.from_spec(" 2 , 04").invariant_factors == (2, 4)

    def test_divisibility_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroup.from_spec("4,2")
        with pytest.raises(ValueError):
            AbelianGroup.from_spec("2,3")

    def test_order_cap(self):
        with pytest.raises(SizeLimitExceededError):
            AbelianGroup.from_spec("128")

    def test_elements(self):
        g = AbelianGroup.from_spec("2,4")
        assert len(g.elements) == 8
        assert g.elements[0] == (0, 0)

    def test_group_tables_match_the_tuple_loops(self):
        """The coordinate arithmetic of _group_data gives the tables of a
        loop over element tuples, for every group of order at most 64."""
        for chain in invariant_factor_chains(64):
            got, want = _group_data(AbelianGroup(chain)), group_data_by_loops(chain)
            assert got.elements == want.elements, chain
            for field in ("add", "sc_mul", "coords"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.shape == b.shape, (chain, field)
                assert np.array_equal(a, b), (chain, field)
                assert not a.flags.writeable, (chain, field)
            assert got.orders == want.orders and got.gen_ids == want.gen_ids, chain

    def test_type_matches_the_invariant_factors(self):
        chains = list(invariant_factor_chains(64))
        assert len(chains) == len(set(chains)) == 117
        for chain in chains:
            g = AbelianGroup(chain)
            assert _type(g, (1 << g.order) - 1) == type_from_invariant_factors(g), chain

    def test_every_quotient_and_subgroup_embeds(self):
        """By type, every M/K and every K embeds in M, for every group of
        order at most 64: every subgroup is a kernel and an image."""
        for chain in invariant_factor_chains(64):
            g = AbelianGroup(chain)
            masks = set(_subgroup_masks(g))
            assert kernel_image_sets_by_type(g) == (masks, masks), chain

    def test_every_subgroup_is_a_kernel_and_an_image(self):
        """Read off the endomorphism tables, the kernels and the images are
        every subgroup, for every enumerable group of order at most 32."""
        groups = [AbelianGroup(c) for c in invariant_factor_chains(32)]
        groups = [g for g in groups if g.endo_count() <= config.DEFAULT_ENDO_CAP]
        assert len(groups) == 54
        for g in groups:
            masks = set(_subgroup_masks(g))
            assert kernel_image_sets_by_tables(g) == (masks, masks), g


class TestSubgroupLattice:
    def test_cyclic_four_is_a_chain(self):
        lat = subgroup_lattice(AbelianGroup.from_spec("4"))
        assert lat.n == 3
        assert lat.names == ("0", "<2>", "M")
        assert lat.covers() == ((0, 1), (1, 2))

    def test_klein_group_is_a_diamond(self):
        lat = subgroup_lattice(AbelianGroup.from_spec("2,2"))
        assert lat.n == 5
        assert len(lat.atoms()) == 3
        assert lat.atoms() == lat.coatoms()

    def test_two_element_group(self):
        lat = subgroup_lattice(AbelianGroup.from_spec("2"))
        assert lat.n == 2

    def test_always_modular(self):
        for spec in ("6", "8", "2,4", "9", "12", "2,2,2"):
            assert is_modular(subgroup_lattice(AbelianGroup.from_spec(spec))).holds

    def test_pair_sums_are_the_sets_of_sums(self):
        g = AbelianGroup.from_spec("2,2,4")
        add = _group_data(g).add
        masks = _subgroup_lattice(g).masks
        for a in masks:
            for b in masks:
                want = 0
                for x in range(g.order):
                    for y in range(g.order):
                        if a >> x & 1 and b >> y & 1:
                            want |= 1 << int(add[x, y])
                assert pair_sum(g, a, b) == want, (a, b)

    def test_duality_builder_matches_the_sum_route(self):
        """Field by field, for every group of order at most 64 but
        2,2,2,2,2,2, whose 2,825 subgroups take the O(s^2) loops too long."""
        chains = [c for c in invariant_factor_chains(64) if c != (2,) * 6]
        assert len(chains) == 116
        for chain in chains:
            g = AbelianGroup(chain)
            got = _subgroup_lattice(g)
            lat, masks = subgroup_lattice_by_sums(g)
            assert got.masks == masks, chain
            assert got.mask_index == {m: i for i, m in enumerate(masks)}, chain
            for field in ("name", "names", "n", "bottom", "top", "rank", "_up", "_down",
                          "_join", "_meet", "_covers", "_upper_covers"):
                assert getattr(got.lattice, field) == getattr(lat, field), (chain, field)

    @pytest.mark.parametrize("rank, count", [
        (0, 1), (1, 2), (2, 5), (3, 16), (4, 67), (5, 374), (6, 2825)])
    def test_galois_numbers(self, rank, count):
        """(Z/2)^k has as many subgroups as GF(2)^k has subspaces: the
        Galois numbers, OEIS A006116."""
        masks = _subgroup_masks(AbelianGroup((2,) * rank))
        assert len(masks) == len(set(masks)) == count
        assert masks == tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))

    def test_masks_are_limited_to_one_word(self, monkeypatch, capsys):
        """A raised group order cap admits groups above the 64 bits of a
        subgroup mask: they raise SizeLimitExceededError, and `module`
        exits 2, instead of building wrapped masks."""
        monkeypatch.setattr(config, "DEFAULT_GROUP_ORDER_CAP", 128)
        for spec in ("128", "2,64", "5,20"):
            g = AbelianGroup.from_spec(spec)
            with pytest.raises(SizeLimitExceededError, match="64-element word limit"):
                _subgroup_masks(g)
            with pytest.raises(SizeLimitExceededError, match="64-element word limit"):
                subgroup_lattice(g)
            assert cli_run(["module", "--group", spec]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "64-element word limit" in captured.err
        # order 64 itself fills the word: its last element is bit 63
        assert _subgroup_masks(AbelianGroup((64,)))[-1] == (1 << 64) - 1

    def test_subgroup_counts(self):
        # chains: divisor counts; elementary abelian: Gaussian binomial sums
        assert subgroup_lattice(AbelianGroup.from_spec("12")).n == 6
        assert subgroup_lattice(AbelianGroup.from_spec("2,2,2")).n == 16
        assert subgroup_lattice(AbelianGroup.from_spec("3,3")).n == 6


class TestEndomorphisms:
    @pytest.mark.parametrize("spec,count", [
        ("4", 4), ("2,2", 16), ("1", 1), ("6", 6), ("2,4", 32), ("3,3", 81),
    ])
    def test_counts_match_closed_form(self, spec, count):
        g = AbelianGroup.from_spec(spec)
        endos = endomorphisms(g)
        assert len(endos) == count == g.endo_count()
        assert len({e.gen_images for e in endos}) == count
        assert len(set(endos)) == count

    def test_homs_compare_by_group_and_images(self):
        g = AbelianGroup.from_spec("4")
        f, h = GroupHom(g, (1,)), GroupHom(AbelianGroup((4,)), (1,))
        assert f == h and hash(f) == hash(h)
        assert f != GroupHom(g, (3,))
        assert f != GroupHom(AbelianGroup.from_spec("2"), (1,))

    def test_tables_are_homomorphisms(self):
        g = AbelianGroup.from_spec("2,4")
        add = _group_data(g).add
        for f in endomorphisms(g):
            t = f.table()
            for x in range(g.order):
                for y in range(g.order):
                    assert t[add[x, y]] == add[t[x], t[y]]
        # every row of the batched tables, for every group of order <= 16
        groups = [AbelianGroup(c) for c in invariant_factor_chains(16)]
        assert len(groups) == 25
        for g in groups:
            data = _group_data(g)
            images = _gen_images(g)
            tables = _hom_tables(g, images)
            assert tables.shape == (g.endo_count(), g.order)
            assert len(np.unique(tables, axis=0)) == len(tables), g
            assert (tables[:, list(data.gen_ids)] == images).all(), g
            for x in range(g.order):
                # f(x + y) == f(x) + f(y) for every y, in every row
                assert (tables[:, data.add[x]]
                        == data.add[tables[:, [x]], tables]).all(), (g, x)

    @pytest.mark.parametrize("images", [(-1,), (1, 2), (), (4,), (7,)])
    def test_generator_images_are_element_ids_one_per_generator(self, images):
        g = AbelianGroup.from_spec("4")
        with pytest.raises(ValueError):
            GroupHom(g, images)

    def test_generator_images_must_respect_orders(self):
        g = AbelianGroup.from_spec("2,4")
        with pytest.raises(ValueError, match="does not divide"):
            GroupHom(g, (g.elements.index((0, 1)), 0))

    def test_composition_needs_one_group(self):
        f = GroupHom(AbelianGroup.from_spec("4"), (1,))
        h = GroupHom(AbelianGroup.from_spec("2"), (1,))
        for outer, inner in ((f, h), (h, f)):
            with pytest.raises(DomainMismatchError):
                hom_compose(outer, inner)

    def test_matrix_shape(self):
        g = AbelianGroup.from_spec("2,4")
        f = endomorphisms(g)[5]
        assert len(f.matrix) == 2
        assert all(len(row) == 2 for row in f.matrix)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(config, "DEFAULT_ENDO_CAP", 1000)
        g = AbelianGroup.from_spec("2,2,2,2")
        with pytest.raises(SizeLimitExceededError):
            endomorphisms(g)


class TestInducedMonoid:
    def test_cyclic_four(self, c3):
        g = AbelianGroup.from_spec("4")
        mono = induced_monoid(g)
        assert len(mono) == 3
        assert {phi.map for phi in mono.members} == {(0, 0, 0), (0, 0, 1), (0, 1, 2)}
        # the doubling endomorphism induces the collapse morphism
        doubling = GroupHom(g, (g.elements.index((2,)),))
        phi = induced_map(doubling)
        assert phi.map == (0, 0, 1)

    def test_klein_group_induces_full_monoid(self):
        g = AbelianGroup.from_spec("2,2")
        lat = subgroup_lattice(g)
        mono = induced_monoid(g)
        assert len(mono) == 16
        assert {p.map for p in mono.members} == \
            {p.map for p in enumerate_linmors(lat)}

    def test_trivial_group(self):
        mono = induced_monoid(AbelianGroup.from_spec("1"))
        assert len(mono) == 1

    def test_functoriality(self):
        g = AbelianGroup.from_spec("2,4")
        endos = endomorphisms(g)
        sample = endos[:6] + endos[-6:]
        for f in sample:
            for h in sample:
                lhs = induced_map(hom_compose(f, h))
                rhs = compose(induced_map(f), induced_map(h))
                assert lhs.map == rhs.map

    def test_rows_are_the_subgroup_images(self):
        """Each induced row, read off the join recurrence, names the set
        image f(H) of every subgroup H, for every endomorphism of every group
        of order at most 16; induced_map is the one-row case."""
        for chain in invariant_factor_chains(16):
            g = AbelianGroup(chain)
            tables = _hom_tables(g, _gen_images(g))
            rows = _induced_rows(g, tables)
            sub = _subgroup_lattice(g)
            masks = np.array(sub.masks, dtype=np.uint64)
            powers = np.left_shift(np.uint64(1), np.arange(g.order, dtype=np.uint64))
            for s, mask in enumerate(sub.masks):
                elems = [e for e in range(g.order) if mask >> e & 1]
                image = np.bitwise_or.reduce(powers[tables[:, elems]], axis=1)
                assert (masks[rows[:, s]] == image).all(), (chain, s)
            for f, row in zip(endomorphisms(g)[:20], rows.tolist()):
                assert induced_map(f).map == tuple(row), (chain, f)

    def test_projections_are_induced(self):
        """Every lattice projection onto a complemented subgroup arises from
        a module projection."""
        from latticelab.lattice import complemented_elements, complements_of
        from latticelab.morphisms import projection as lat_projection

        for spec in ("2,2", "6", "2,4"):
            g = AbelianGroup.from_spec(spec)
            lat = subgroup_lattice(g)
            mono = induced_monoid(g)
            pis = [lat_projection(lat, a, ap).map for a in complemented_elements(lat)
                   for ap in complements_of(lat, a)]
            assert (mono.find(pis) >= 0).all()

    def test_monoid_is_cached(self):
        g = AbelianGroup.from_spec("2,2")
        assert induced_monoid(g) is induced_monoid(g)

    def test_group_facts_are_cached_by_group_value(self):
        assert _group_data(AbelianGroup.from_spec("2,4")) is _group_data(AbelianGroup((2, 4)))
        assert induced_monoid(AbelianGroup.from_spec("2,4")) is \
            induced_monoid(AbelianGroup((2, 4)))

    def test_over_cap_group_raises_on_every_call(self):
        g = AbelianGroup.from_spec("2,2,2,2,2")
        for _ in range(2):
            with pytest.raises(SizeLimitExceededError):
                induced_monoid(g)

    def test_closure_on_small_groups(self):
        for spec in ("4", "2,2", "6"):
            mono = induced_monoid(AbelianGroup.from_spec(spec))
            mono.comp  # materializes and verifies closure


class TestBridgeVerdicts:
    def test_cyclic_four_fails_everywhere(self):
        g = AbelianGroup.from_spec("4")
        for kind in ("rickart", "baer", "dual_rickart", "dual_baer"):
            v = rickart_module_direct(g, kind)
            assert not v.holds
            assert v.witness["subgroup"] == "<2>"

    def test_klein_group_semisimple(self):
        g = AbelianGroup.from_spec("2,2")
        for kind in ("rickart", "baer", "dual_rickart", "dual_baer"):
            assert rickart_module_direct(g, kind).holds

    def test_simple_group(self):
        assert rickart_module_direct(AbelianGroup.from_spec("2"), "rickart").holds

    def test_squarefree_cyclic(self):
        assert rickart_module_direct(AbelianGroup.from_spec("6"), "rickart").holds
        assert not rickart_module_direct(AbelianGroup.from_spec("12"), "rickart").holds

    def test_complement_route_agrees_with_induced_monoid(self, monkeypatch):
        """With the endomorphism cap forced to 0, every group takes the
        route that asks for every subgroup to be complemented; verdict and
        witness match the induced-monoid route on every enumerable group of
        order at most 32."""
        groups = [AbelianGroup(c) for c in invariant_factor_chains(32)]
        groups = [g for g in groups if g.endo_count() <= config.DEFAULT_ENDO_CAP]
        assert len(groups) == 54
        enumerated = {}
        for g in groups:
            for kind in RICKART_KINDS:
                v = rickart_module_direct(g, kind)
                assert v.notes == ENUMERATION_NOTE
                enumerated[g, kind] = (v.holds, v.witness)
        monkeypatch.setattr(config, "DEFAULT_ENDO_CAP", 0)
        for g in groups:
            for kind in RICKART_KINDS:
                v = rickart_module_direct(g, kind)
                assert v.notes == COMPLEMENT_NOTE
                assert (v.holds, v.witness) == enumerated[g, kind], (g, kind)

    @pytest.mark.parametrize("spec", ["2,2,2,2,2", "2,2,4,4", "2,2,2,2,4"])
    def test_over_cap_groups_use_complement_route(self, spec):
        """Above the cap: every subgroup is a direct summand exactly when
        every invariant factor is squarefree, and the witness is the first
        subgroup, in mask order, with no complement in the lattice."""
        g = AbelianGroup.from_spec(spec)
        assert g.endo_count() > config.DEFAULT_ENDO_CAP
        sub = _subgroup_lattice(g)
        comp = set(complemented_elements(sub.lattice))
        first = next((m for m in sorted(sub.masks) if sub.mask_index[m] not in comp),
                     None)
        squarefree = all(all(d % (p * p) for p in _primes_of(d))
                         for d in g.invariant_factors)
        for kind in RICKART_KINDS:
            v = rickart_module_direct(g, kind)
            assert v.notes == COMPLEMENT_NOTE
            assert v.holds == squarefree == (first is None), kind
            if not v.holds:
                assert v.witness == {
                    "subgroup": sub.lattice.names[sub.mask_index[first]]}, kind

    def test_induced_kernel_is_the_kernel_subgroup(self):
        """The lattice kernel of f_* is exactly Ker f as a subgroup."""
        for spec in ("4", "2,2", "2,4", "6"):
            g = AbelianGroup.from_spec(spec)
            subgroup_lattice(g)
            idx = _subgroup_lattice(g).mask_index
            for f in endomorphisms(g):
                table = f.table()
                kmask = 0
                for x in range(g.order):
                    if table[x] == 0:
                        kmask |= 1 << x
                assert induced_map(f).kernel == idx[kmask]

    def test_cyclic_and_rank_two_sweep(self):
        """Agreement of both routes for every cyclic group of order up to 64
        and every rank-2 group fitting the order cap."""
        specs = [str(n) for n in range(1, 65)]
        specs += [f"{a},{b}" for a in range(2, 9) for b in range(a, 65)
                  if b % a == 0 and a * b <= 64]
        for spec in specs:
            g = AbelianGroup.from_spec(spec)
            for kind in ("rickart", "baer", "dual_rickart", "dual_baer"):
                rickart_module_direct(g, kind)  # raises on route disagreement
