"""Construction, validation, and structural queries."""

import itertools
import json
import random
import re
from collections import Counter

import numpy as np
import pytest

from latticelab import config
from latticelab import fixtures as fx
from latticelab import lattice as lattice_mod
from latticelab.abelian import AbelianGroup, subgroup_lattice
from latticelab.conformance import random_corpus
from latticelab.errors import (
    ConsistencyError,
    EmptyLatticeError,
    NotALatticeError,
    NotAPosetError,
    NotComparableError,
    NotModularError,
    SizeLimitExceededError,
)
from latticelab.lattice import (
    Lattice,
    ProductLattice,
    _assemble,
    _birkhoff,
    _bits,
    _closure_masks,
    _modular_law,
    _tables_from_masks,
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
from latticelab.verdict import Verdict
from test_pair_index import random_lattice


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


def is_graded(L):
    return all(L.rank[b] == L.rank[a] + 1 for a, b in L.covers())


class TestBirkhoff:
    """Birkhoff's rank criterion decides modularity; the modular law is the
    independent route, and names the witness."""

    def test_criterion_matches_the_modular_law(self):
        rng = random.Random(26)
        randoms = [random_lattice(rng, f"r{i}", 4 + i % 2) for i in range(600)]
        groups = [AbelianGroup.from_spec(spec) for spec in
                  ("1", "8", "2,2", "2,4", "3,3", "2,2,2", "2,8", "4,4", "2,2,4", "2,2,2,2")]
        lattices = ([fx.build_fixture(name) for name in fx.FIXTURE_NAMES]
                    + random_corpus(200, 8, 42) + random_corpus(60, 10, 5)
                    + [subgroup_lattice(g) for g in groups] + randoms)
        kinds = set()
        for L in lattices:
            law = _modular_law(L).holds
            assert _birkhoff(L) == law, L.name
            kinds.add((law, is_graded(L)))
        assert kinds == {(True, True), (False, True), (False, False)}
        assert sum(not _modular_law(L).holds for L in randoms) > 200

    def test_refutation_without_a_witness_raises(self, monkeypatch):
        monkeypatch.setattr(lattice_mod, "_modular_law",
                            lambda L: Verdict("modular", True))
        with pytest.raises(ConsistencyError, match="n5 fails Birkhoff"):
            is_modular(fx.build_fixture("n5"))


def tables_by_scan(n, up, down, names):
    """Join and meet tables by scanning the common bounds for the one that
    lies below (or above) all of them, pairs in order; the oracle for the
    up-set lookup."""
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            ub = up[a] & up[b]
            j = next((y for y in _bits(ub) if up[y] & ub == ub), None)
            if j is None:
                raise NotALatticeError(
                    f"elements {names[a]!r} and {names[b]!r} have no least upper bound")
            join[a][b] = join[b][a] = j
            lb = down[a] & down[b]
            m = next((y for y in _bits(lb) if down[y] & lb == lb), None)
            if m is None:
                raise NotALatticeError(
                    f"elements {names[a]!r} and {names[b]!r} have no greatest lower bound")
            meet[a][b] = meet[b][a] = m
    return join, meet


def test_bound_lookup_matches_the_scan():
    """On random posets, lattices or not: the same tables, or the same
    error text for the same first pair."""
    rng = random.Random(7)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 9)
        names = [f"e{i}" for i in range(n)]
        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.3:
                    succ[a].append(b)
                    pred[b].append(a)
        up, down = _closure_masks(n, succ, pred)
        results = []
        for build in (_tables_from_masks, tables_by_scan):
            try:
                results.append(build(n, up, down, names))
            except NotALatticeError as exc:
                results.append(str(exc))
        assert results[0] == results[1]
        outcomes.add(results[0].split(" have ")[1] if isinstance(results[0], str)
                     else "lattice")
    assert outcomes == {"lattice", "no least upper bound", "no greatest lower bound"}


def test_numpy_tables_match_the_masks():
    """tables_np against the scalar queries: leq bit by bit from the up-set
    masks, join and meet entry by entry, on lattices of up to 67 elements,
    so the masks run past one 64-bit word."""
    rng = random.Random(5)
    lattices = ([fx.build_fixture(name) for name in fx.FIXTURE_NAMES]
                + random_corpus(40, 12, 3)
                + [random_lattice(rng, f"r{i}", 6) for i in range(20)]
                + [subgroup_lattice(AbelianGroup.from_spec("2,2,2,2"))])
    assert max(L.n for L in lattices) == 67
    for L in lattices:
        leq, join, meet = L.tables_np
        assert leq.dtype == bool and leq.shape == (L.n, L.n)
        assert leq.tolist() == [[bool(L.up_mask(a) >> b & 1) for b in range(L.n)]
                                for a in range(L.n)]
        assert join.tolist() == [[L.join_of(a, b) for b in range(L.n)] for a in range(L.n)]
        assert meet.tolist() == [[L.meet_of(a, b) for b in range(L.n)] for a in range(L.n)]


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
        prod = direct_product([c2, fx.build_fixture("c2")])
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

    def test_names_that_read_alike_are_refused(self):
        """Factor names with commas: ("1,0", "1") and ("1", "0,1") would
        both be named "(1,0,1)"."""
        E = build_lattice(["0", "1,0", "1"], [("0", "1,0"), ("1,0", "1")], name="E")
        F = build_lattice(["0", "0,1", "1"], [("0", "0,1"), ("0,1", "1")], name="F")
        with pytest.raises(ValueError, match=re.escape("'(1,0,1)' is repeated")):
            direct_product([E, F])
        assert direct_product([E, E]).lattice.n == 9

    def test_coords_track_reindexing(self, c2, c3):
        prod = direct_product([c2, c3])
        for i, cs in enumerate(prod.coords):
            expect = "(" + ",".join(f.names[c] for f, c in zip(prod.factors, cs)) + ")"
            assert prod.lattice.names[i] == expect


def product_by_double_loop(factors):
    """The direct product as `direct_product` once built it: order masks
    from a double loop over coordinate tuples, join and meet tables by
    tuple lookups, then `_assemble`. The oracle for the broadcast build."""
    tuples = list(itertools.product(*[range(f.n) for f in factors]))
    pos = {t: i for i, t in enumerate(tuples)}
    names = ["(" + ",".join(f.names[c] for f, c in zip(factors, t)) + ")"
             for t in tuples]
    repeated = next((nm for nm, c in Counter(names).items() if c > 1), None)
    if repeated is not None:
        raise ValueError(f"product element name {repeated!r} is repeated")
    n = len(tuples)
    up = [0] * n
    down = [0] * n
    for i, t in enumerate(tuples):
        for j, s in enumerate(tuples):
            if all(f.leq(a, b) for f, a, b in zip(factors, t, s)):
                up[i] |= 1 << j
                down[j] |= 1 << i
    join = [[pos[tuple(f.join_of(a, b) for f, a, b in zip(factors, t, s))]
             for s in tuples] for t in tuples]
    meet = [[pos[tuple(f.meet_of(a, b) for f, a, b in zip(factors, t, s))]
             for s in tuples] for t in tuples]
    lat, order = _assemble("x".join(f.name for f in factors), names,
                           up, down, join, meet)
    return ProductLattice(lattice=lat, factors=tuple(factors),
                          coords=tuple(tuples[o] for o in order))


PRODUCT_FIELDS = ("name", "names", "n", "bottom", "top", "rank", "_up", "_down", "_join",
                  "_meet", "_covers", "_upper_covers")


def test_products_match_the_double_loop():
    """Every pair of fixtures and small random lattices, some triples, and
    products of 64 elements: the broadcast build equals the double loop
    field by field, coords included, and its stored numpy tables are the
    ones the lattice would unpack from its masks. Over the cap, both
    refuse."""
    smalls = ([fx.build_fixture(name) for name in fx.FIXTURE_NAMES]
              + random_corpus(8, 6, 3) + [random_lattice(random.Random(2), "r", 5)])
    cases = [[A, B] for A in smalls for B in smalls]
    cases += [[A] for A in smalls] + [[fx.chain(2)] * 6, [fx.chain(4)] * 3,
                                      [fx.build_fixture("b3")] * 2, smalls[:3], smalls[4:7]]
    built = 0
    for factors in cases:
        total = np.prod([f.n for f in factors])
        if total > config.DEFAULT_LATTICE_CAP:
            with pytest.raises(SizeLimitExceededError):
                direct_product(factors)
            continue
        got, want = direct_product(factors), product_by_double_loop(factors)
        for field in PRODUCT_FIELDS:
            assert getattr(got.lattice, field) == getattr(want.lattice, field), field
        assert got.coords == want.coords and got.factors == want.factors
        plain = Lattice(name="p", names=got.lattice.names, up=got.lattice._up,
                        down=got.lattice._down, join=got.lattice._join,
                        meet=got.lattice._meet, bottom=0, top=got.lattice.n - 1,
                        rank=got.lattice.rank, covers=got.lattice.covers())
        for stored, unpacked in zip(got.lattice.tables_np, plain.tables_np):
            assert stored.dtype == unpacked.dtype and np.array_equal(stored, unpacked)
        built += 1
    assert built > 150


def test_products_over_a_raised_cap_match_the_double_loop(monkeypatch):
    """Above 64 elements the order masks are wider than a word and an
    element can have more than 255 elements below it: c3^4 (81 elements),
    b2 x c2^5 (128) and c2^8 (256, 256 elements below its top) still equal
    the double loop field by field."""
    monkeypatch.setattr(config, "DEFAULT_LATTICE_CAP", 256)
    b2, c2, c3 = fx.build_fixture("b2"), fx.chain(2), fx.chain(3)
    for factors in ([c3] * 4, [b2] + [c2] * 5, [c2] * 8):
        got, want = direct_product(factors), product_by_double_loop(factors)
        assert got.lattice.n > 64
        for field in PRODUCT_FIELDS:
            assert getattr(got.lattice, field) == getattr(want.lattice, field), field
        assert got.coords == want.coords


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
        for L in (excip, fx.build_fixture("m3"), fx.build_fixture("b3")):
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
        assert lattice_to_json(b3) == lattice_to_json(fx.build_fixture("b3"))

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
        assert dot == lattice_to_dot(fx.build_fixture("c3"))

    def test_dot_export_escapes_quotes_and_backslashes(self):
        """Each quoted DOT token reads back as its name: a double quote or a
        backslash in a name is escaped, and the lines keep their shape."""
        names = ['0', 'q"x', 'a"b', 'c\\', '\\"d', '1']
        doc = {"name": 'l"\\t', "elements": names,
               "covers": [["0", n] for n in names[1:5]] + [[n, "1"] for n in names[1:5]]}
        L = lattice_from_json(json.dumps(doc))
        token = r'"((?:[^"\\]|\\.)*)"'
        lines = lattice_to_dot(L).splitlines()
        read = [[re.sub(r"\\(.)", r"\1", t) for t in re.findall(token, line)]
                for line in lines]
        assert re.fullmatch(rf"digraph {token} {{", lines[0])
        assert read[0] == [L.name]
        assert all(re.fullmatch(rf"  {token};", line) for line in lines[3:3 + L.n])
        assert read[3:3 + L.n] == [[nm] for nm in L.names]
        covers = [[L.names[a], L.names[b]] for a, b in L.covers()]
        assert all(re.fullmatch(rf"  {token} -> {token};", line)
                   for line in lines[3 + L.n:-1])
        assert read[3 + L.n:-1] == covers and lines[-1] == "}"

    def test_packaged_fixtures_match_builders(self):
        """build_fixture reads the packaged JSON; serializing its lattice
        gives back the same bytes."""
        for name in fx.FIXTURE_NAMES:
            assert fx.fixture_json(name) == lattice_to_json(fx.build_fixture(name))
