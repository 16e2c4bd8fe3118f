"""Submonoids with zero: construction, annihilators, monoid predicates."""

import itertools

import pytest

from latticelab import fixtures as fx
from latticelab.errors import NotClosedError
from latticelab.monoid import (
    annihilator,
    build_monoid,
    full_monoid,
    monoid_from_spec,
    monoid_predicate,
)
from latticelab.morphisms import identity_morphism, projection, zero_morphism


class TestBuild:
    def test_full_chain(self, c3):
        m = full_monoid(c3)
        assert len(m) == 3
        assert m.members[m.zero_idx].map == (0, 0, 0)
        assert m.members[m.id_idx].map == (0, 1, 2)

    def test_generated_with_projections(self, b2):
        m = build_monoid(b2, "generated", with_projections=True)
        assert len(m) == 4
        a, b = b2.id_of("a"), b2.id_of("b")
        assert m.contains_map(projection(b2, a, b).map)
        assert m.contains_map(projection(b2, b, a).map)
        assert m.has_all_projections

    def test_explicit_must_contain_zero(self, c3):
        with pytest.raises(NotClosedError):
            build_monoid(c3, "explicit", members=[identity_morphism(c3)])

    def test_explicit_must_be_closed(self, b2):
        a, b = b2.id_of("a"), b2.id_of("b")
        members = [identity_morphism(b2), zero_morphism(b2),
                   projection(b2, a, b)]  # composing misses nothing here
        m = build_monoid(b2, "explicit", members=members)
        assert len(m) == 3

    def test_minimal_monoid(self, excip):
        m = build_monoid(excip, "generated")
        assert len(m) == 2

    def test_members_sorted(self, m3):
        m = full_monoid(m3)
        maps = [phi.map for phi in m.members]
        assert maps == sorted(maps)

    def test_spec_json(self, c3):
        m = monoid_from_spec(c3, {"kind": "full"})
        assert len(m) == 3
        g = monoid_from_spec(c3, {
            "kind": "generated",
            "generators": [{"domain": "c3", "codomain": "c3",
                            "map": {"0": "0", "n": "0", "1": "n"}}],
            "with_projections": False})
        assert len(g) == 3
        e = monoid_from_spec(c3, {
            "kind": "explicit",
            "members": [
                {"domain": "c3", "codomain": "c3",
                 "map": {"0": "0", "n": "0", "1": "0"}},
                {"domain": "c3", "codomain": "c3",
                 "map": {"0": "0", "n": "n", "1": "1"}},
            ]})
        assert len(e) == 2


class TestIdempotents:
    def test_chain(self, c3):
        m = full_monoid(c3)
        assert set(m.idempotent_indices()) == {m.zero_idx, m.id_idx}

    def test_square_includes_projections(self, b2):
        m = full_monoid(b2)
        idem_maps = {m.members[i].map for i in m.idempotent_indices()}
        a, b = b2.id_of("a"), b2.id_of("b")
        assert projection(b2, a, b).map in idem_maps
        assert projection(b2, b, a).map in idem_maps

    def test_always_contains_zero_and_id(self, m3):
        m = full_monoid(m3)
        assert m.zero_idx in m.idempotent_indices()
        assert m.id_idx in m.idempotent_indices()


class TestAnnihilator:
    def test_collapse_on_chain_is_not_principal(self, c3):
        m = full_monoid(c3)
        phi_idx = next(i for i, phi in enumerate(m.members)
                       if phi.map == (0, 0, 1))
        ann = annihilator(m, "right", (phi_idx,))
        assert set(ann.members) == {m.zero_idx, phi_idx}
        assert ann.principal_idempotent is None

    def test_zero_annihilates_everything(self, b2):
        m = full_monoid(b2)
        ann = annihilator(m, "right", (m.zero_idx,))
        assert len(ann.members) == len(m)
        assert ann.principal_idempotent == m.id_idx

    def test_identity_annihilated_only_by_zero(self, b2):
        m = full_monoid(b2)
        ann = annihilator(m, "right", (m.id_idx,))
        assert ann.members == (m.zero_idx,)
        assert ann.principal_idempotent == m.zero_idx

    def test_coset_membership_is_absorption(self, b2):
        """psi lies in eps*m exactly when eps absorbs it from the left."""
        m = full_monoid(b2)
        comp = m.comp
        for eps in m.idempotent_indices():
            coset = {int(v) for v in comp[eps, :]}
            for j in range(len(m)):
                assert (j in coset) == (comp[eps, j] == j)


class TestPredicates:
    def test_chain_not_right_rickart(self, c3):
        v = monoid_predicate(full_monoid(c3), "right_rickart")
        assert not v.holds
        assert v.witness["target"] == {"0": "0", "n": "0", "1": "n"}

    def test_square_right_baer(self, b2):
        assert monoid_predicate(full_monoid(b2), "right_baer").holds

    def test_minimal_monoid_all_kinds(self, excip):
        m = build_monoid(excip, "generated")
        for kind in ("right_rickart", "left_rickart", "right_baer", "left_baer"):
            assert monoid_predicate(m, kind).holds

    def test_baer_symmetry_on_fixtures(self):
        for name in ("c2", "c3", "b2", "b3", "m3", "excip"):
            m = full_monoid(fx.build_fixture(name))
            assert monoid_predicate(m, "right_baer").holds == \
                monoid_predicate(m, "left_baer").holds


class TestCompositionTable:
    def test_associativity_exhaustive(self):
        for name in ("c3", "b2", "m3"):
            m = full_monoid(fx.build_fixture(name))
            comp = m.comp
            size = len(m)
            for i, j, k in itertools.product(range(size), repeat=3):
                assert comp[comp[i, j], k] == comp[i, comp[j, k]]

    def test_identity_and_zero_laws(self, excip):
        m = full_monoid(excip)
        comp = m.comp
        for i in range(len(m)):
            assert comp[m.id_idx, i] == i == comp[i, m.id_idx]
            assert comp[m.zero_idx, i] == m.zero_idx == comp[i, m.zero_idx]

    def test_matches_map_composition(self, b2):
        m = full_monoid(b2)
        comp = m.comp
        for i, phi in enumerate(m.members):
            for j, psi in enumerate(m.members):
                composed = tuple(phi.map[v] for v in psi.map)
                assert m.members[int(comp[i, j])].map == composed
