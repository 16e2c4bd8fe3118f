"""Submonoids with zero: construction, annihilators, monoid predicates."""

import ast
import itertools
import json
import pathlib
import random
import tracemalloc

import numpy as np
import pytest

from latticelab import fixtures as fx
from latticelab import monoid as monoid_module
from latticelab import morphisms as morphisms_module
from latticelab.abelian import AbelianGroup, induced_monoid, subgroup_lattice
from latticelab.conformance import (LatticeContext, chk_baercar, chk_kercompkergenann,
                                    random_corpus)
from latticelab.errors import NotClosedError, NotModularError, SizeLimitExceededError
from latticelab.lattice import (close_under, complemented_elements, complements_of,
                                direct_product, is_modular)
from latticelab.monoid import (
    MAX_GENERATED_MEMBERS,
    EndoMonoid,
    _all_projections,
    _mask_and,
    annihilator,
    coset_index,
    explicit_monoid,
    full_monoid,
    generated_monoid,
    monoid_from_spec,
    monoid_predicate,
)
from latticelab.morphisms import (identity_morphism, morphism_to_json, projection,
                                  validate_linear, zero_morphism)

from test_duality import LATTICES
from test_pair_index import monoids


class TestBuild:
    def test_full_chain(self, c3):
        m = full_monoid(c3)
        assert len(m) == 3
        assert m.members[m.zero_idx].map == (0, 0, 0)
        assert m.members[m.id_idx].map == (0, 1, 2)

    def test_generated_with_projections(self, b2):
        m = generated_monoid(b2, with_projections=True)
        assert len(m) == 4
        a, b = b2.id_of("a"), b2.id_of("b")
        assert (m.find([projection(b2, a, b).map, projection(b2, b, a).map]) >= 0).all()
        assert m.has_all_projections

    def test_explicit_must_contain_zero(self, c3):
        with pytest.raises(NotClosedError):
            explicit_monoid(c3, [identity_morphism(c3)])

    def test_not_closed_names_the_first_failing_row(self, m3):
        a, b, c = (m3.id_of(x) for x in "abc")
        members = [identity_morphism(m3), zero_morphism(m3),
                   projection(m3, a, b), projection(m3, b, c)]
        with pytest.raises(NotClosedError, match=r"^member 3 composes outside the set$"):
            explicit_monoid(m3, members)

    def test_explicit_must_be_closed(self, b2):
        a, b = b2.id_of("a"), b2.id_of("b")
        members = [identity_morphism(b2), zero_morphism(b2),
                   projection(b2, a, b)]  # composing misses nothing here
        m = explicit_monoid(b2, members)
        assert len(m) == 3

    def test_explicit_member_list_over_the_cap(self, c3, monkeypatch):
        """The cap counts the list as given; a spec's list is counted before
        any member is certified."""
        members = list(full_monoid(c3))
        docs = [json.loads(morphism_to_json(phi)) for phi in members]
        monkeypatch.setattr(monoid_module, "MAX_GENERATED_MEMBERS", 3)
        assert len(explicit_monoid(c3, members)) == 3
        assert len(monoid_from_spec(c3, {"kind": "explicit", "members": docs})) == 3
        monkeypatch.setattr(monoid_module, "MAX_GENERATED_MEMBERS", 2)
        refusal = r"^3 explicit members exceeds cap 2$"
        with pytest.raises(SizeLimitExceededError, match=refusal):
            explicit_monoid(c3, members)
        for listed in (docs, [7, 7, 7]):
            with pytest.raises(SizeLimitExceededError, match=refusal):
                monoid_from_spec(c3, {"kind": "explicit", "members": listed})

    def test_members_of_another_lattice_are_rejected(self, b2):
        """End(c4) has four tables of length 4, and two of them are not
        linear on b2: neither builder takes another lattice's morphisms."""
        foreign = full_monoid(fx.chain(4)).members
        assert len(foreign) == 4
        refusal = r"^generators must be endomorphisms of the lattice$"
        with pytest.raises(ValueError, match=refusal):
            explicit_monoid(b2, foreign)
        with pytest.raises(ValueError, match=refusal):
            generated_monoid(b2, foreign[1:2])

    def test_minimal_monoid(self, excip):
        m = generated_monoid(excip)
        assert len(m) == 2

    def test_members_sorted(self, m3):
        m = full_monoid(m3)
        maps = [phi.map for phi in m.members]
        assert maps == sorted(maps)

    def test_repeated_member_is_one_member(self, c3):
        docs = [json.loads(morphism_to_json(phi)) for phi in full_monoid(c3)]
        zero = json.loads(morphism_to_json(zero_morphism(c3)))
        once = monoid_from_spec(c3, {"kind": "explicit", "members": docs})
        twice = monoid_from_spec(c3, {"kind": "explicit", "members": docs + [zero]})
        assert len(twice) == len(once) == 3
        for kind in ("right_rickart", "left_rickart", "right_baer", "left_baer"):
            assert monoid_predicate(twice, kind) == monoid_predicate(once, kind)

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


def triples(morphisms):
    """(map, kernel, image top) of each morphism: LinearMorphism equality
    compares maps only."""
    return [(phi.map, phi.kernel, phi.image_top) for phi in morphisms]


def pair_index_monoids():
    """Every monoid of the pair-index tests over the duality corpus, and two
    induced monoids."""
    for i, L in enumerate(LATTICES):
        yield from monoids(L, i)
    for spec in ("2,2,2", "2,4,4"):  # past the cache, so members start unbuilt
        yield induced_monoid.__wrapped__(AbelianGroup.from_spec(spec))


def builder_monoids():
    """(label, monoid) from every builder on each modular fixture and each
    lattice of `random_corpus(30, 8, 7)`: the full monoid, generated ones
    with and without projections, an explicit list with a repeated member,
    each spec kind, and the induced monoids of 2,2 and 2,4."""
    lattices = [L for L in map(fx.build_fixture, fx.FIXTURE_NAMES) if is_modular(L).holds]
    for L in lattices + random_corpus(30, 8, 7):
        full = full_monoid(L)
        gens = [phi for phi in full.members if phi.kernel not in (L.bottom, L.top)][:2]
        generated = generated_monoid(L, gens)
        docs = [json.loads(morphism_to_json(phi)) for phi in generated.members]
        yield from ((f"{L.name} {label}", m) for label, m in (
            ("full", full),
            ("generated", generated),
            ("generated with projections", generated_monoid(L, gens, True)),
            ("explicit", explicit_monoid(L, generated.members + generated.members[-1:])),
            ("spec full", monoid_from_spec(L, {"kind": "full"})),
            ("spec generated", monoid_from_spec(L, {
                "kind": "generated", "generators": docs[:2], "with_projections": True})),
            ("spec explicit", monoid_from_spec(L, {"kind": "explicit",
                                                   "members": docs + docs[:1]}))))
    for spec in ("2,2", "2,4"):
        yield spec, induced_monoid.__wrapped__(AbelianGroup.from_spec(spec))


class TestArrayBacked:
    """The array-backed monoid: the constructor on shuffled rows sets up the
    same monoid, and members are built on demand from the rows."""

    NOT_CLOSED = r"^a submonoid with zero must contain the zero morphism and the identity$"

    def test_shuffled_rows_give_the_same_monoid(self):
        rng = np.random.default_rng(3)
        count = 0
        for m in pair_index_monoids():
            L = m.lattice
            assert m._members is None, L.name
            by_index = triples(m[i] for i in range(len(m)))
            assert m._members is None, L.name  # m[i] builds no member list
            perm = rng.permutation(len(m))
            other = EndoMonoid(L, m.tables[perm], m.member_kernels[perm])
            assert other.tables.dtype == m.tables.dtype
            for name in ("tables", "member_kernels", "member_image_tops"):
                assert np.array_equal(getattr(other, name), getattr(m, name)), name
                assert not getattr(other, name).flags.writeable
            assert other.member_image_tops.dtype == other.tables.dtype
            assert (other.zero_idx, other.id_idx) == (m.zero_idx, m.id_idx)
            assert other.pairs == m.pairs
            for side in ("kernel", "image"):
                assert dict(other.first_with(side)) == dict(m.first_with(side))
            assert triples(other.members) == triples(m.members)
            assert by_index == triples(m.members)
            assert triples(m[i] for i in range(len(m))) == triples(m.members)
            count += 1
        assert count == 3 * len(LATTICES) + 2

    def test_members_agree_with_the_rows(self):
        """Every row of every builder's monoid certifies with its kernel and
        image top, is found at its own index, and the zero and identity
        indices name the zero map and the identity."""
        count = 0
        for label, m in builder_monoids():
            L = m.lattice
            assert np.array_equal(m.find(m.tables), np.arange(len(m))), label
            assert m.tables[m.zero_idx].tolist() == [L.bottom] * L.n, label
            assert m.tables[m.id_idx].tolist() == list(range(L.n)), label
            for i, phi in enumerate(m.members):
                assert phi.map == tuple(m.tables[i].tolist())
                ref = validate_linear(L, L, phi.map)
                assert (phi.kernel, phi.image_top) == (ref.kernel, ref.image_top) == \
                    (m.member_kernels[i], m.member_image_tops[i]), (label, i)
            count += 1
        assert count == 7 * (6 + 30) + 2  # six fixtures are modular

    def test_repeated_row_is_refused(self):
        for m in pair_index_monoids():
            if len(m) < 2:
                continue
            rows = np.r_[np.arange(len(m)), len(m) // 2]
            with pytest.raises(ValueError, match=r"^a member table is repeated$"):
                EndoMonoid(m.lattice, m.tables[rows], m.member_kernels[rows])

    def test_sorted_rows_are_kept_as_they_come(self):
        """End(L) keeps the enumeration's read-only arrays, top column
        included; rows in order from a caller are kept only when read-only
        and owning their data, and copied otherwise; a repeated row in
        sorted position is refused as well."""
        L = direct_product([fx.build_fixture("m3"), fx.chain(3)]).lattice
        m = full_monoid(L)
        tables, kernels = morphisms_module._linmor_tables(L, L)
        assert np.shares_memory(m.tables, tables)
        assert np.shares_memory(m.member_kernels, kernels)
        assert np.shares_memory(m.member_image_tops, tables)
        rows, kernels = m.tables.copy(), m.member_kernels.copy()
        again = EndoMonoid(L, rows, kernels)
        assert not np.shares_memory(again.tables, rows)
        assert not np.shares_memory(again.member_kernels, kernels)
        assert rows.flags.writeable and kernels.flags.writeable
        rows[:] = 0  # the caller's arrays are theirs to change
        assert np.array_equal(again.tables, m.tables)
        for arr in (rows, kernels):
            arr[:] = m.tables if arr is rows else m.member_kernels
            arr.setflags(write=False)
        again = EndoMonoid(L, rows, kernels)
        assert again.tables is rows and again.member_kernels is kernels
        frozen_view = m.tables.copy()[:]  # read-only, but its base is writable
        frozen_view.setflags(write=False)
        assert not np.shares_memory(EndoMonoid(L, frozen_view, kernels).tables, frozen_view)
        repeated = np.r_[np.arange(len(m)), len(m) - 1]
        with pytest.raises(ValueError, match=r"^a member table is repeated$"):
            EndoMonoid(L, m.tables[repeated], m.member_kernels[repeated])

    @pytest.mark.parametrize("missing", ["zero_idx", "id_idx"])
    def test_set_without_zero_or_identity_is_refused(self, missing):
        for m in pair_index_monoids():
            keep = np.arange(len(m)) != getattr(m, missing)
            with pytest.raises(NotClosedError, match=self.NOT_CLOSED):
                EndoMonoid(m.lattice, m.tables[keep], m.member_kernels[keep])
            with pytest.raises(NotClosedError, match=self.NOT_CLOSED):
                explicit_monoid(m.lattice, [phi for phi, k in zip(m.members, keep) if k])


def find_by_dict(m, rows):
    """The member index of each row, or -1, through a dict with one tuple
    per member."""
    index = {tuple(row): i for i, row in enumerate(m.tables.tolist())}
    return [index.get(tuple(row), -1) for row in rows]


def find_queries(m, rng):
    """Rows to look up in m: every member, shuffled; each member with its
    last value changed, a miss sharing the longest prefix with a member or
    a hit; and each member with one value set to n, 256, 300 or -1, at a
    position holding what that value wraps to in the tables' dtype, so a
    lookup that casts without a range check would hit."""
    tables = m.tables.astype(np.int64)
    n = tables.shape[1]
    wrap = 1 << (8 * m.tables.itemsize)
    rows = [tables[rng.permutation(len(tables))]]
    for shift in range(1, n):
        changed = tables.copy()
        changed[:, -1] = (changed[:, -1] + shift) % n
        rows.append(changed)
    for bad in (n, 256, 300, -1):
        changed = tables.copy()
        at = np.where((tables == bad % wrap).any(axis=1),
                      (tables == bad % wrap).argmax(axis=1), n - 1)
        changed[np.arange(len(tables)), at] = bad
        rows.append(changed)
    return np.concatenate(rows)


class TestFind:
    """`EndoMonoid.find` against a dict of member tuples."""

    def check(self, m, rng):
        rows = find_queries(m, rng)
        got = m.find(rows)
        assert got.tolist() == find_by_dict(m, rows.tolist()), m.lattice.name
        assert (got >= 0).sum() >= len(m)
        return rows, got

    def test_pinned_corpora(self):
        rng = np.random.default_rng(5)
        count = 0
        for m in itertools.chain(pair_index_monoids(),
                                 (m for _, m in corpus_monoids())):
            self.check(m, rng)
            count += 1
        assert count > 3 * len(LATTICES)

    def test_uint16_tables(self):
        lat = subgroup_lattice(AbelianGroup.from_spec("2,2,2,2,2"))
        comp = complemented_elements(lat)
        gens = [projection(lat, a, complements_of(lat, a)[-1]) for a in comp[250:256]]
        m = generated_monoid(lat, gens)
        assert (lat.n, len(m), m.tables.dtype) == (374, 23, np.uint16)
        assert {256, 300} <= set(m.tables.ravel().tolist())
        rows, got = self.check(m, np.random.default_rng(6))
        # 256 and 300 are values of this lattice: rows holding them can be hits
        assert (got[np.isin(rows, (256, 300)).any(axis=1)] >= 0).any()

    def test_out_of_range_values_are_absent(self, m3):
        m = full_monoid(m3)
        for bad in (m3.n, 256, 300, 256 + 3, -1, -256):
            rows = m.tables.astype(np.int64)
            rows[:, 0] = bad
            assert (m.find(rows) == -1).all(), bad

    def test_empty_input(self, m3):
        m = full_monoid(m3)
        got = m.find(np.empty((0, m3.n), dtype=np.intp))
        assert got.shape == (0,)

    @pytest.mark.parametrize("shape", [(1, 4), (2, 6), (5,), (1, 1, 5)])
    def test_wrong_width_raises(self, m3, shape):
        with pytest.raises(ValueError, match=r"^map tables must form an \(N, n\) array"):
            full_monoid(m3).find(np.zeros(shape, dtype=np.intp))


def test_row_format_lives_in_row_keys():
    """The void row keys and their byte order are written in one place,
    `morphisms.row_keys`, so every lookup sorts rows the same way."""
    src = pathlib.Path(morphisms_module.__file__).parent
    row_keys = next(node for node in ast.parse((src / "morphisms.py").read_text()).body
                    if isinstance(node, ast.FunctionDef) and node.name == "row_keys")
    hits = [(path.name, number)
            for path in sorted(src.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "np.void" in line or "newbyteorder" in line]
    assert hits
    assert all(name == "morphisms.py" and row_keys.lineno <= number <= row_keys.end_lineno
               for name, number in hits), hits


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

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_target_outside_the_monoid_is_rejected(self, b2, side):
        m = full_monoid(b2)
        for targets in ((-1,), (0, len(m)), (99,), (1.5,), ("1",)):
            with pytest.raises(ValueError, match=rf"^annihilator targets must be "
                                                 rf"member indices in \[0, {len(m)}\): "):
                annihilator(m, side, targets)

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
        m = generated_monoid(excip)
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

    def test_cache_is_keyed_by_structure_and_member_tables(self, monkeypatch):
        """Equal member sets on two equal-structure lattices share one cached
        table; a different member set gets its own."""
        monkeypatch.setattr(monoid_module, "_COMP_CACHE", {})
        first, second = fx.build_fixture("b2"), fx.build_fixture("b2")
        assert first is not second and first.structure_key == second.structure_key
        full = [full_monoid(L) for L in (first, second)]
        assert full[0].comp is full[1].comp
        assert len(monoid_module._COMP_CACHE) == 1
        generated = generated_monoid(first, with_projections=True)
        assert len(generated) < len(full[0])
        assert generated.comp is not full[0].comp
        assert len(monoid_module._COMP_CACHE) == 2
        assert {key[1] for key in monoid_module._COMP_CACHE} == {
            full[0].tables.tobytes(), generated.tables.tobytes()}


def two_sided_closure(seed_maps, n, cap):
    """Independent route: add every product of two members, in both orders,
    until nothing new appears or there are more than `cap` members."""
    members = np.unique(np.array(seed_maps, dtype=np.int64), axis=0)
    weights = n ** np.arange(n, dtype=np.int64)
    while True:
        keys = [members @ weights]
        for lo in range(0, len(members), 64):
            # block[i, j] = members[lo + i] after members[j]
            block = members[lo:lo + 64][:, members]
            keys.append(np.unique(block @ weights))
        keys = np.unique(np.concatenate(keys))
        if len(keys) == len(members) or len(keys) > cap:
            return {tuple(int(k) // n ** p % n for p in range(n)) for k in keys}
        members = np.array([[int(k) // n ** p % n for p in range(n)] for k in keys],
                           dtype=np.int64)


def right_closure(seed_maps):
    """The one-pair-at-a-time route: close the seed tables under composing
    each frontier table after each seed, with the generated monoid's cap."""
    return close_under(dict.fromkeys(seed_maps, ()),
                       lambda phi, psi: tuple(phi[v] for v in psi),
                       limit=MAX_GENERATED_MEMBERS)


class TestGeneratedClosure:
    """generated_monoid against a two-sided closure and the full monoid."""

    CAPPED = r"^closure exceeded 5000 elements$"

    def test_matches_two_sided_closure(self, monkeypatch):
        """Also with 64-byte blocks, one frontier row per block, and against
        the one-pair-at-a-time close_under route."""
        lattices = [fx.build_fixture(name) for name in fx.FIXTURE_NAMES]
        rng = random.Random(5)
        capped = 0
        block_sizes = (monoid_module._BLOCK_BYTES, 64)

        def generated(gens, with_projections):
            """The monoid built with the default blocks and with 64-byte ones,
            which must agree."""
            built = []
            for block_bytes in block_sizes:
                monkeypatch.setattr(monoid_module, "_BLOCK_BYTES", block_bytes)
                built.append(generated_monoid(L, gens, with_projections))
            for name in ("tables", "member_kernels", "member_image_tops"):
                assert np.array_equal(getattr(built[0], name), getattr(built[1], name))
            return built[0]

        for L in lattices + random_corpus(40, 9, 5):
            if not is_modular(L).holds:  # n5
                for with_projections in (False, True):
                    with pytest.raises(NotModularError, match="n5 is not modular: "):
                        generated_monoid(L, (), with_projections)
                continue
            full = full_monoid(L)
            for with_projections in (False, True):
                for count in range(4):
                    gens = rng.sample(full.members, min(count, len(full)))
                    seeds = [identity_morphism(L).map, zero_morphism(L).map,
                             *(g.map for g in gens)]
                    if with_projections:
                        seeds += [pi.map for pi in _all_projections(L)]
                    want = two_sided_closure(seeds, L.n, MAX_GENERATED_MEMBERS)
                    if len(want) > MAX_GENERATED_MEMBERS:
                        capped += 1
                        with pytest.raises(SizeLimitExceededError, match=self.CAPPED):
                            right_closure(seeds)
                        for block_bytes in block_sizes:
                            monkeypatch.setattr(monoid_module, "_BLOCK_BYTES", block_bytes)
                            with pytest.raises(SizeLimitExceededError, match=self.CAPPED):
                                generated_monoid(L, gens, with_projections)
                        continue
                    assert set(right_closure(seeds)) == want, (L.name, count)
                    got = generated(gens, with_projections)
                    assert {phi.map for phi in got} == want, (L.name, count)
                    at = full.find(got.tables)
                    assert (at >= 0).all()
                    assert np.array_equal(got.member_kernels, full.member_kernels[at])
                    assert np.array_equal(got.member_image_tops,
                                          full.member_image_tops[at])
                    for phi, i in zip(got, at.tolist()):
                        ref = full.members[i]
                        assert (phi.kernel, phi.image_top) == (ref.kernel, ref.image_top)
        assert capped > 0

    def test_member_cap_on_all_permutations_of_seven_atoms(self):
        L = fx.mk(7)
        atoms = [f"a{i}" for i in range(7)]

        def atom_map(perm):
            return {"domain": L.name, "codomain": L.name,
                    "map": {"0": "0", "1": "1",
                            **{a: atoms[p] for a, p in zip(atoms, perm)}}}

        spec = {"kind": "generated", "with_projections": False,
                "generators": [atom_map([1, 0, 2, 3, 4, 5, 6]),
                               atom_map([1, 2, 3, 4, 5, 6, 0])]}
        # the atom permutations alone are 7! = 5040 members
        with pytest.raises(SizeLimitExceededError):
            monoid_from_spec(L, spec)


# -- the per-row, per-target routes the whole-table arrays replace ----------


def comp_by_rows(tables):
    """comp of sorted, distinct member tables, one member row at a time: the
    row's composites looked up in the sorted tables, compared as whole rows."""
    arr = np.array(tables, dtype=np.int32)
    size = len(arr)
    view = arr.view(np.dtype((np.void, arr.itemsize * arr.shape[1]))).ravel()
    table = np.empty((size, size), dtype=np.int32)
    for i in range(size):
        composed = np.ascontiguousarray(arr[i][arr]).view(view.dtype).ravel()
        pos = np.searchsorted(view, composed)
        if (pos >= size).any() or (view[np.minimum(pos, size - 1)] != composed).any():
            raise NotClosedError(f"member {i} composes outside the set")
        table[i] = pos
    return table


def ann_mask_by_targets(m, comp, side, targets):
    mask = np.ones(len(m), dtype=bool)
    for t in targets:
        mask &= (comp[t, :] if side == "right" else comp[:, t]) == m.zero_idx
    return mask


def coset_index_by_idempotents(m, comp, side):
    idem = [i for i, phi in enumerate(m.members)
            if tuple(phi.map[v] for v in phi.map) == phi.map]
    index = {}
    for eps in idem:
        mask = np.zeros(len(m), dtype=bool)
        mask[comp[eps, :] if side == "right" else comp[:, eps]] = True
        index.setdefault(mask.tobytes(), eps)
    return idem, index


def predicate_by_targets(m, kind, singles, cosets):
    """monoid_predicate from the single-target masks and the coset index of
    the kind's side."""
    if kind.endswith("rickart"):
        for i, mask in enumerate(singles):
            if mask.tobytes() not in cosets:
                return False, {"target": m.members[i].as_name_map(),
                               "annihilator_size": int(mask.sum())}
        return True, None
    seeds = {}
    for i, mask in enumerate(singles):
        seeds.setdefault(mask.tobytes(), (i,))
    closed = close_under(seeds, _mask_and)
    for key in sorted(closed, key=lambda k: (k.count(1), k)):
        if key not in cosets:
            return False, {"generators": [m.members[g].as_name_map() for g in closed[key]],
                           "annihilator_size": key.count(1)}
    return True, None


class MonoidContext(LatticeContext):
    """A registry context whose monoid is the one given."""

    def __init__(self, L, m):
        super().__init__(L)
        self._monoid = m

    @property
    def monoid(self):
        return self._monoid


def kercompkergenann_by_annihilators(ctx, singles, cosets):
    """chk_kercompkergenann with one right annihilator per member."""
    for phi, mask in zip(ctx.monoid.members, singles):
        lhs = phi.kernel in ctx.comp_set
        rhs = ctx.generated(phi.kernel) and mask.tobytes() in cosets
        if lhs != rhs:
            return "fail", {"morphism": phi.as_name_map(), "kernel_complemented": lhs,
                            "generated_and_principal": rhs}
    return "pass", None


def baercar_by_members(ctx, cosets, right_baer):
    """chk_baercar with the pointwise masks built member by member."""
    L, m = ctx.L, ctx.monoid
    a_side = ctx.fact("baer")
    b_side = True
    for a in range(L.n):
        mask = np.zeros(len(m), dtype=bool)
        for i, phi in enumerate(m.members):
            mask[i] = phi.map[a] == L.bottom
        b_side = b_side and mask.tobytes() in cosets
    closure = close_under(dict.fromkeys(m.kernels, ()), L.meet_of)
    c_side = right_baer and all(ctx.generated(e) for e in sorted(closure))
    if not (a_side == b_side == c_side):
        return "fail", {"baer": a_side, "pointwise_annihilators": b_side,
                        "monoid_and_generated": c_side}
    return "pass", None


def corpus_monoids():
    """The full monoid, the projections' monoid and a seeded one generated by
    two members and the projections, on each root of the duality corpus."""
    from test_duality import ROOTS
    for i, L in enumerate(ROOTS):
        full = full_monoid(L)
        gens = random.Random(i).sample(full.members, min(2, len(full)))
        for m in (full, generated_monoid(L, (), True), generated_monoid(L, gens, True)):
            yield L, m


class TestWholeTableOracle:
    """The trie-walk comp build and the annihilator calculus read from
    whole-table arrays, against the per-row build and per-target mask
    loops."""

    def test_corpus_matches_the_per_target_routes(self):
        failing = set()
        for L, m in corpus_monoids():
            comp = comp_by_rows(m.tables)
            assert np.array_equal(m.comp, comp), (L.name, len(m))
            rng = random.Random(len(m))
            singles, cosets, verdicts = {}, {}, {}
            for side in ("right", "left"):
                idem, cosets[side] = coset_index_by_idempotents(m, comp, side)
                assert coset_index(m, side) == cosets[side]
                assert m.idempotent_indices() == tuple(idem)
                singles[side] = [ann_mask_by_targets(m, comp, side, (i,))
                                 for i in range(len(m))]
                subsets = [tuple(rng.sample(range(len(m)), min(size, len(m))))
                           for size in (1, 1, 1, 2, 3, 3)]
                for targets in subsets:
                    mask = ann_mask_by_targets(m, comp, side, targets)
                    ann = annihilator(m, side, targets)
                    assert ann.members == tuple(np.flatnonzero(mask).tolist())
                    assert ann.principal_idempotent == cosets[side].get(mask.tobytes())
            for kind in ("right_rickart", "left_rickart", "right_baer", "left_baer"):
                side = kind.split("_")[0]
                v = monoid_predicate(m, kind)
                verdicts[kind] = predicate_by_targets(m, kind, singles[side], cosets[side])
                assert (v.holds, v.witness) == verdicts[kind], (L.name, len(m), kind)
                if not v.holds:
                    failing.add(kind)
            ctx = MonoidContext(L, m)
            assert chk_kercompkergenann(ctx) == kercompkergenann_by_annihilators(
                ctx, singles["right"], cosets["right"]), (L.name, len(m))
            assert chk_baercar(ctx) == baercar_by_members(
                ctx, cosets["left"], verdicts["right_baer"][0]), (L.name, len(m))
        assert failing == {"right_rickart", "left_rickart", "right_baer", "left_baer"}

    def test_transformation_monoids_match_the_per_row_build(self):
        """All k^k maps on k points, sorted, for k = 1..4: closed, with long
        shared prefixes. Of them and 200 seeded random subsets of each, 348
        of 804 sets are closed; the others must fail on the same first row."""
        closed = 0
        for k in range(1, 5):
            full = np.array(list(itertools.product(range(k), repeat=k)),
                            dtype=np.min_scalar_type(k - 1))
            rng = random.Random(k)
            subsets = [full] + [full[sorted(rng.sample(range(len(full)),
                                                       rng.randint(1, len(full))))]
                                for _ in range(200)]
            for tables in subsets:
                try:
                    want = comp_by_rows(tables)
                except NotClosedError as e:
                    with pytest.raises(NotClosedError, match=f"^{e}$"):
                        monoid_module._composition_table(tables)
                else:
                    closed += 1
                    assert np.array_equal(monoid_module._composition_table(tables),
                                          want), (k, len(tables))
        assert closed == 348

    def test_comp_build_memory_is_bounded(self, monkeypatch):
        """Building comp for M6's full monoid (757 members) allocates the
        table and at most about 2 MiB of block temporaries."""
        monkeypatch.setattr(monoid_module, "_COMP_CACHE", {})
        m = full_monoid(fx.mk(6))
        assert len(m) == 757
        m.tables  # built before tracing: not part of the comp build
        tracemalloc.start()
        try:
            table = m.comp
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table.nbytes + 2 * 2 ** 20

    def test_wide_comp_build_memory_is_bounded(self, monkeypatch):
        """On M22 (24 elements, 486 members with the projections) the trie
        index of at most n * (2 + N(n-1)) intp entries outgrows the table;
        the build allocates the two and at most about 2 MiB more."""
        monkeypatch.setattr(monoid_module, "_COMP_CACHE", {})
        m = generated_monoid(fx.mk(22), with_projections=True)
        size, n = m.tables.shape
        assert (size, n) == (486, 24)
        index = n * (2 + size * (n - 1)) * np.dtype(np.intp).itemsize
        tracemalloc.start()
        try:
            table = m.comp
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index > table.nbytes
        assert peak <= table.nbytes + index + 2 * 2 ** 20
