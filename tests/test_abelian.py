"""Finite abelian groups, subgroup lattices, and the induced monoid."""

from math import prod

import numpy as np
import pytest

from latticelab import config
from latticelab.abelian import (
    AbelianGroup,
    GroupHom,
    _endo_sweep,
    _kernel_image_sets_by_type,
    _primes_of,
    _type,
    endomorphisms,
    hom_compose,
    induced_map,
    induced_monoid,
    rickart_module_direct,
    subgroup_lattice,
)
from latticelab.errors import SizeLimitExceededError
from latticelab.lattice import is_modular
from latticelab.morphisms import compose, enumerate_linmors

KINDS = ("rickart", "baer", "dual_rickart", "dual_baer")


def invariant_factor_chains(max_order, chain=()):
    """Every chain d1 | d2 | ... with product at most max_order, once each."""
    yield chain
    step = chain[-1] if chain else 1
    d = chain[-1] if chain else 2
    while prod(chain) * d <= max_order:
        yield from invariant_factor_chains(max_order, chain + (d,))
        d += step


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

    def test_divisibility_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroup.from_spec("4,2")
        with pytest.raises(ValueError):
            AbelianGroup.from_spec("2,3")

    def test_order_cap(self):
        with pytest.raises(SizeLimitExceededError):
            AbelianGroup.from_spec("128")

    def test_order_cap_fits_uint64_masks(self):
        # _endo_sweep packs subgroups into np.uint64 masks, one bit per element
        assert config.DEFAULT_GROUP_ORDER_CAP <= np.iinfo(np.uint64).bits
        g = AbelianGroup.from_spec(str(config.DEFAULT_GROUP_ORDER_CAP))
        sweep = _endo_sweep(g)
        assert (1 << g.order) - 1 in sweep.kernel_masks  # the zero map
        assert (1 << g.order) - 1 in sweep.image_masks  # the identity

    def test_elements(self):
        g = AbelianGroup.from_spec("2,4")
        assert len(g.elements) == 8
        assert g.elements[0] == (0, 0)

    def test_type_matches_the_invariant_factors(self):
        chains = list(invariant_factor_chains(64))
        assert len(chains) == len(set(chains)) == 117
        for chain in chains:
            g = AbelianGroup(chain)
            assert _type(g, (1 << g.order) - 1) == type_from_invariant_factors(g), chain


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
        from latticelab.abelian import _group_data
        add = _group_data(g).add
        for f in endomorphisms(g):
            t = f.table()
            for x in range(g.order):
                for y in range(g.order):
                    assert t[add[x, y]] == add[t[x], t[y]]

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

    def test_projections_are_induced(self):
        """Every lattice projection onto a complemented subgroup arises from
        a module projection."""
        from latticelab.lattice import complemented_elements, complements_of
        from latticelab.morphisms import projection as lat_projection

        for spec in ("2,2", "6", "2,4"):
            g = AbelianGroup.from_spec(spec)
            lat = subgroup_lattice(g)
            mono = induced_monoid(g)
            for a in complemented_elements(lat):
                for ap in complements_of(lat, a):
                    assert mono.contains_map(lat_projection(lat, a, ap).map)

    def test_monoid_is_cached(self):
        g = AbelianGroup.from_spec("2,2")
        assert induced_monoid(g) is induced_monoid(g)

    def test_group_facts_are_cached_by_group_value(self):
        from latticelab.abelian import _group_data
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

    def test_type_route_agrees_with_enumeration(self, monkeypatch):
        groups = [AbelianGroup(c) for c in invariant_factor_chains(32)]
        groups = [g for g in groups if g.endo_count() <= config.DEFAULT_ENDO_CAP]
        assert len(groups) == 54
        enumerated = {}
        for g in groups:
            sweep = _endo_sweep(g)
            kernels, images = _kernel_image_sets_by_type(g)
            assert kernels == set(sweep.kernel_masks), g
            assert images == set(sweep.image_masks), g
            for kind in KINDS:
                v = rickart_module_direct(g, kind)
                assert "enumeration" in v.notes
                enumerated[g, kind] = (v.holds, v.witness)
        monkeypatch.setattr(config, "DEFAULT_ENDO_CAP", 0)
        for g in groups:
            for kind in KINDS:
                v = rickart_module_direct(g, kind)
                assert "quotient-type" in v.notes
                assert (v.holds, v.witness) == enumerated[g, kind], (g, kind)

    def test_over_cap_group_uses_type_route(self):
        g = AbelianGroup.from_spec("2,2,2,2,2")
        v = rickart_module_direct(g, "rickart")
        assert v.holds
        assert "quotient-type" in v.notes

    def test_induced_kernel_is_the_kernel_subgroup(self):
        """The lattice kernel of f_* is exactly Ker f as a subgroup."""
        from latticelab.abelian import _subgroup_lattice
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
