"""Construction, validation, and structural queries."""

import json

import pytest

from latticelab import config
from latticelab import fixtures as fx
from latticelab.errors import (
    EmptyLatticeError,
    NotALatticeError,
    NotAPosetError,
    NotComparableError,
    NotModularError,
    SizeLimitExceededError,
)
from latticelab.lattice import (
    build_lattice,
    complemented_elements,
    complements_of,
    decompose,
    direct_product,
    essential_superfluous,
    interval,
    is_boolean,
    is_distributive,
    is_modular,
    lattice_from_json,
    lattice_to_dot,
    lattice_to_json,
    socle_radical,
)


class TestBuild:
    def test_three_chain(self, c3):
        assert c3.n == 3
        assert c3.names == ("0", "n", "1")
        assert c3.bottom == 0 and c3.top == 2

    def test_two_element_lattice(self, c2):
        assert c2.n == 2
        assert c2.covers() == ((0, 1),)

    def test_v_shape_is_not_a_lattice(self):
        with pytest.raises(NotALatticeError):
            build_lattice(["a", "b", "c"], [("a", "b"), ("a", "c")])

    def test_cycle_is_not_a_poset(self):
        with pytest.raises(NotAPosetError):
            build_lattice(["a", "b"], [("a", "b"), ("b", "a")])

    def test_empty(self):
        with pytest.raises(EmptyLatticeError):
            build_lattice([], [])

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            build_lattice(["a", "a"], [])

    def test_size_cap(self, monkeypatch):
        names = [f"e{i}" for i in range(5)]
        covers = [(names[i], names[i + 1]) for i in range(4)]
        monkeypatch.setattr(config, "DEFAULT_LATTICE_CAP", 3)
        with pytest.raises(SizeLimitExceededError):
            build_lattice(names, covers)

    def test_env_var_overrides_cap(self, monkeypatch):
        names = [f"e{i}" for i in range(5)]
        covers = [(names[i], names[i + 1]) for i in range(4)]
        monkeypatch.setenv("LATTICELAB_MAX_SIZE", "3")
        with pytest.raises(SizeLimitExceededError):
            build_lattice(names, covers)
        monkeypatch.setenv("LATTICELAB_MAX_SIZE", "10")
        assert build_lattice(names, covers).n == 5

    def test_cover_roundtrip(self, excip):
        """Rebuilding from the extracted covers reproduces the cover set."""
        got = {(excip.names[a], excip.names[b]) for a, b in excip.covers()}
        rebuilt = build_lattice(excip.names, got, name="again")
        again = {(rebuilt.names[a], rebuilt.names[b]) for a, b in rebuilt.covers()}
        assert got == again

    def test_canonical_order_is_rank_then_name(self, b3):
        ranks = [b3.rank[i] for i in range(b3.n)]
        assert ranks == sorted(ranks)
        for r in set(ranks):
            names = [b3.names[i] for i in range(b3.n) if b3.rank[i] == r]
            assert names == sorted(names)


class TestOrderQueries:
    def test_chain_join_absorbs(self, c3):
        assert c3.join_of(c3.id_of("n"), c3.id_of("1")) == c3.id_of("1")

    def test_m3_atoms(self, m3):
        a, b = m3.id_of("a"), m3.id_of("b")
        assert m3.join_of(a, b) == m3.top
        assert m3.meet_of(a, b) == m3.bottom

    def test_excip_join_of_atoms(self, excip):
        k, f = excip.id_of("k"), excip.id_of("f")
        assert excip.join_of(k, f) == excip.id_of("c")

    def test_leq(self, c3):
        assert c3.leq(0, 2)
        assert not c3.leq(2, 0)


class TestModular:
    def test_pentagon_fails_with_witness(self, n5):
        v = is_modular(n5)
        assert not v.holds
        assert set(v.witness) == {"a", "b", "c"}

    def test_diamond(self, m3):
        assert is_modular(m3).holds

    def test_excip(self, excip):
        assert is_modular(excip).holds


class TestBoolean:
    def test_square(self, b2):
        assert is_boolean(b2).holds

    def test_diamond_not_distributive(self, m3):
        assert not is_boolean(m3).holds
        assert not is_distributive(m3).holds
        assert complemented_elements(m3) == tuple(range(m3.n))

    def test_chain_lacks_complements(self, c3):
        assert not is_boolean(c3).holds

    def test_requires_modularity(self, n5):
        with pytest.raises(NotModularError):
            is_boolean(n5)

    def test_dual_routes_agree_on_every_fixture(self):
        """is_boolean cross-checks the complemented-distributive definition
        against the meet-maps-are-linear route and raises on divergence."""
        for name in fx.MODULAR_FIXTURES:
            v = is_boolean(fx.build_fixture(name))
            assert "routes agree" in v.notes


class TestComplements:
    def test_chain_middle_has_none(self, c3):
        assert complements_of(c3, c3.id_of("n")) == ()

    def test_excip_complemented_set(self, excip):
        got = {excip.names[i] for i in complemented_elements(excip)}
        assert got == {"0", "1", "a", "b"}

    def test_m3_atom(self, m3):
        got = {m3.names[i] for i in complements_of(m3, m3.id_of("a"))}
        assert got == {"b", "c"}


class TestEssentialSuperfluous:
    def test_chain_middle_essential(self, c3):
        assert essential_superfluous(c3, c3.id_of("n"), "essential")

    def test_chain_middle_superfluous(self, c3):
        assert essential_superfluous(c3, c3.id_of("n"), "superfluous")

    def test_square_atom_not_essential(self, b2):
        assert not essential_superfluous(b2, b2.id_of("a"), "essential")

    def test_relative_scope(self, excip):
        view = interval(excip, excip.bottom, excip.id_of("a"))
        assert essential_superfluous(excip, excip.id_of("k"), "essential",
                                     within=view)


class TestSocleRadical:
    def test_chain(self, c3):
        n = c3.id_of("n")
        assert socle_radical(c3) == (n, n)

    def test_square(self, b2):
        assert socle_radical(b2) == (b2.top, b2.bottom)

    def test_excip(self, excip):
        c = excip.id_of("c")
        assert socle_radical(excip) == (c, c)


class TestInterval:
    def test_excip_lower(self, excip):
        view = interval(excip, excip.bottom, excip.id_of("a"))
        assert [excip.names[p] for p in view.members] == ["0", "k", "a"]
        assert view.as_lattice.n == 3

    def test_degenerate(self, m3):
        view = interval(m3, m3.id_of("a"), m3.id_of("a"))
        assert view.as_lattice.n == 1

    def test_excip_upper(self, excip):
        view = interval(excip, excip.id_of("k"), excip.top)
        assert len(view.members) == 6

    def test_not_comparable(self, m3):
        with pytest.raises(NotComparableError):
            interval(m3, m3.id_of("a"), m3.id_of("b"))

    def test_view_is_cached(self, b2):
        assert interval(b2, 0, b2.top) is interval(b2, 0, b2.top)


class TestProduct:
    def test_square_is_two_by_two(self, c2, b2):
        prod = direct_product([c2, fx.c2()])
        covers_by_name = {(prod.lattice.names[a], prod.lattice.names[b])
                          for a, b in prod.lattice.covers()}
        assert prod.lattice.n == 4
        assert len(covers_by_name) == len(b2.covers())
        assert is_boolean(prod.lattice).holds

    def test_two_times_chain(self, c2, c3):
        prod = direct_product([c2, c3])
        assert prod.lattice.n == 6
        assert is_modular(prod.lattice).holds

    def test_product_of_modular_is_modular(self, b2, m3, c3):
        for factors in ([b2, m3], [m3, c3], [c3, c3, c3]):
            assert is_modular(direct_product(factors).lattice).holds

    def test_singleton_product(self, c3):
        prod = direct_product([c3])
        assert prod.lattice.n == 3
        assert prod.lattice.names == ("(0)", "(n)", "(1)")

    def test_size_cap(self, b3, monkeypatch):
        monkeypatch.setattr(config, "DEFAULT_LATTICE_CAP", 32)
        with pytest.raises(SizeLimitExceededError):
            direct_product([b3, b3])

    def test_coords_track_reindexing(self, c2, c3):
        prod = direct_product([c2, c3])
        for i, cs in enumerate(prod.coords):
            expect = "(" + ",".join(f.names[c] for f, c in zip(prod.factors, cs)) + ")"
            assert prod.lattice.names[i] == expect


class TestDecompose:
    def test_square(self, b2):
        dec = decompose(b2)
        assert {b2.names[b] for b in dec.blocks} == {"a", "b"}
        assert dec.independent

    def test_chain_is_indecomposable(self, c3):
        dec = decompose(c3)
        assert [c3.names[b] for b in dec.blocks] == ["1"]

    def test_cube_has_three_atom_blocks(self, b3):
        dec = decompose(b3)
        assert {b3.names[b] for b in dec.blocks} == {"a", "b", "c"}
        for b in dec.blocks:
            assert len(interval(b3, b3.bottom, b).members) == 2

    def test_trivial_lattice(self):
        one = build_lattice(["*"], [])
        assert decompose(one).blocks == ()

    def test_requires_modularity(self, n5):
        with pytest.raises(NotModularError):
            decompose(n5)


class TestModularityWitnessIsos:
    def test_complement_interval_maps_are_inverse(self, excip):
        """For a complement pair (a, a'), meeting with a and joining with a'
        are mutually inverse between [a', top] and [bottom, a]."""
        for L in (excip, fx.m3(), fx.b3()):
            for a in complemented_elements(L):
                for ap in complements_of(L, a):
                    upper = interval(L, ap, L.top).members
                    for u in upper:
                        down = L.meet_of(u, a)
                        assert L.join_of(down, ap) == u
                    lower = interval(L, L.bottom, a).members
                    for v in lower:
                        up = L.join_of(v, ap)
                        assert L.meet_of(up, a) == v


def test_lemmaret_on_fixtures(c3, b2, b3, m3, excip):
    for L in (c3, b2, b3, m3, excip):
        for a in range(L.n):
            for b in range(L.n):
                if L.meet_of(a, b) != L.bottom:
                    continue
                for c in range(L.n):
                    if L.meet_of(L.join_of(a, b), c) == L.bottom:
                        assert L.meet_of(a, L.join_of(b, c)) == L.bottom


class TestRandomStructuralInvariants:
    """Table axioms and round trips over the seeded random generator."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_table_axioms(self, seed):
        from latticelab.conformance import random_modular_lattice
        L = random_modular_lattice(seed, 7)
        for a in range(L.n):
            assert L.join_of(a, a) == a == L.meet_of(a, a)
            assert L.leq(L.bottom, a) and L.leq(a, L.top)
            for b in range(L.n):
                j, m = L.join_of(a, b), L.meet_of(a, b)
                assert j == L.join_of(b, a) and m == L.meet_of(b, a)
                assert L.meet_of(a, j) == a and L.join_of(a, m) == a
                assert L.leq(a, b) == (m == a) == (j == b)
                for c in range(L.n):
                    assert L.join_of(j, c) == L.join_of(a, L.join_of(b, c))
                    assert L.meet_of(m, c) == L.meet_of(a, L.meet_of(b, c))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_json_roundtrip_random(self, seed):
        from latticelab.conformance import random_modular_lattice
        L = random_modular_lattice(seed, 7)
        again = lattice_from_json(lattice_to_json(L))
        assert lattice_to_json(again) == lattice_to_json(L)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_decompose_revalidates(self, seed):
        from latticelab.conformance import random_modular_lattice
        L = random_modular_lattice(seed, 7)
        dec = decompose(L)  # internal certificate checks raise on violation
        assert L.join_all(dec.blocks) == L.top


class TestSerialization:
    def test_json_roundtrip(self, excip):
        text = lattice_to_json(excip)
        again = lattice_from_json(text)
        assert again.names == excip.names
        assert again.covers() == excip.covers()
        assert lattice_to_json(again) == text

    def test_json_is_byte_stable(self, b3):
        assert lattice_to_json(b3) == lattice_to_json(fx.b3())

    def test_malformed_json(self):
        with pytest.raises(ValueError):
            lattice_from_json(json.dumps({"name": "x"}))

    @pytest.mark.parametrize("elements, covers", [
        (["0", "1"], ["01"]),                 # a string is not a cover pair
        (["0", "1"], [["0", "1", "1"]]),
        (["0", "1"], [["0", 1]]),
        (["0", "1"], {"0": "1"}),
        ("01", [["0", "1"]]),                 # a string is not an element list
        ([["0"], "1"], [["1", "1"]]),
        ([0, 1], [[0, 1]]),
    ])
    def test_malformed_shapes_rejected(self, elements, covers):
        doc = {"name": "x", "elements": elements, "covers": covers}
        with pytest.raises(ValueError):
            lattice_from_json(json.dumps(doc))

    def test_dot_export(self, c3):
        dot = lattice_to_dot(c3)
        assert dot.startswith('digraph "c3"')
        assert '"0" -> "n";' in dot and '"n" -> "1";' in dot
        assert dot == lattice_to_dot(fx.c3())

    def test_packaged_fixtures_match_builders(self):
        for name in fx.FIXTURE_NAMES:
            assert fx.fixture_json(name) == lattice_to_json(fx.build_fixture(name))
