"""Linear morphism certification, composition, and enumeration.

The enumeration oracle lives here: filter every total map through the
definitional validator and compare against the factorized enumeration.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab import config
from latticelab import fixtures as fx
from latticelab.abelian import AbelianGroup, subgroup_lattice
from latticelab.conformance import random_corpus, random_modular_lattice
from latticelab.errors import (
    DomainMismatchError,
    LinearValidationError,
    NoKernelError,
    NotAComplementError,
    NotIntervalIsoError,
    SizeLimitExceededError,
)
from latticelab.lattice import (build_lattice, complemented_elements, complements_of,
                                direct_product, interval)
from latticelab.morphisms import (
    compose,
    enumerate_interval_isos,
    enumerate_linmors,
    extend_from_interval,
    fully_invariant_elements,
    identity_morphism,
    interval_inclusion,
    interval_quotient,
    iso_composites,
    morphism_from_json,
    morphism_to_json,
    projection,
    validate_linear,
    zero_morphism,
)


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


class TestFullyInvariant:
    def test_chain_everything_invariant(self, c3):
        assert fully_invariant_elements(c3, enumerate_linmors(c3)) == (0, 1, 2)

    def test_diamond_only_bounds(self, m3):
        got = fully_invariant_elements(m3, enumerate_linmors(m3))
        assert got == (m3.bottom, m3.top)

    def test_id_zero_leave_everything(self, excip):
        got = fully_invariant_elements(
            excip, [identity_morphism(excip), zero_morphism(excip)])
        assert got == tuple(range(excip.n))


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


@pytest.mark.parametrize("name", ["c3", "b2", "m3", "excip"])
def test_interval_isos_match_permutation_oracle(name):
    L = fx.build_fixture(name)
    views = [interval(L, lo, hi)
             for lo in range(L.n) for hi in range(L.n) if L.leq(lo, hi)]
    small = [v for v in views if len(v.members) <= 5]
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


class TestCoverCertificate:
    """validate_linear decides linearity by covers; the definition checks
    every pair. Both must give the same outcome on every table."""

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

    @pytest.mark.parametrize("build", [
        lambda: direct_product([fx.c3(), fx.m3()]).lattice,
        lambda: direct_product([fx.b2(), fx.c2(), fx.c3()]).lattice,
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
        assert seen == {"NoKernelError", "NotIntervalIsoError", "linear"}


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
