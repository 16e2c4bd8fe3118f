"""Property checkers: kernel/image complement families, summand properties,
C1/D1 and the monoid-relative C2/D2, nonsingularity, retractability,
generation, and cross-lattice checks."""

import collections
import random

import pytest

from latticelab import config
from latticelab import fixtures as fx
from latticelab.conformance import random_corpus
from latticelab.errors import MissingProjectionsError
from latticelab.lattice import (build_lattice, complemented_elements, complements_of,
                                essential_superfluous, interval, lattice_from_json)
from latticelab.monoid import MAX_GENERATED_MEMBERS, full_monoid, generated_monoid
from latticelab.morphisms import enumerate_linmors, projection
from latticelab.properties import (
    check_condition,
    check_cross_rickart,
    check_generation,
    check_nonsingularity,
    check_retractable,
    check_rickart_family,
    check_rickpix,
    check_summand_property,
)
from latticelab.verdict import Verdict
from test_cli import product_json
from test_duality import ROOTS
from test_pair_index import random_lattice


def rickpix_by_tables(L, m):
    """check_rickpix by composing: a member phi factors when phi o pi, read
    off the tables, equals phi for some projection pi onto a complemented x
    meeting ker phi trivially."""
    lhs = check_rickart_family(L, m, "rickart").holds
    comp = complemented_elements(L)
    failing = next((phi for phi in m.members if not any(
        all(phi.map[p] == v for p, v in zip(projection(L, x, xp).map, phi.map))
        for x in comp if L.meet_of(x, phi.kernel) == L.bottom
        for xp in complements_of(L, x))), None)
    rhs = failing is None
    return Verdict("rickpix", lhs == rhs,
                   witness=None if failing is None else {"morphism": failing.as_name_map()},
                   notes=f"kernel-complement side={lhs}, projection side={rhs}")


def condition_by_scans(L, kind):
    """check_condition's C1 and D1 by the element scans of
    essential_superfluous, trying every complemented c in id order and, for
    D1, every complement of each c."""
    comp = complemented_elements(L)
    certs = {}
    for x in range(L.n):
        found = None
        for c in comp:
            if kind == "c1":
                if L.leq(x, c) and essential_superfluous(
                        L, x, "essential", within=interval(L, L.bottom, c)):
                    found = L.names[c]
                    break
            elif L.leq(c, x):
                cp = next((cp for cp in complements_of(L, c) if essential_superfluous(
                    L, L.meet_of(x, cp), "superfluous")), None)
                if cp is not None:
                    found = [L.names[c], L.names[cp]]
                    break
        if found is None:
            return Verdict(kind, False, witness={"element": L.names[x]})
        certs[L.names[x]] = found
    return Verdict(kind, True, witness={"certificates": certs})


def nonsingularity_by_scans(L, m, kind):
    """check_nonsingularity by essential_superfluous on each member kernel
    or image top, and on each element no nonzero member reaches."""
    side, trivial, sense = (("kernel", L.top, "essential") if kind[0] == "k"
                            else ("image", L.bottom, "superfluous"))
    first = m.first_with(side)
    if kind in ("k", "t"):
        for e, i in first.items():
            if e != trivial and essential_superfluous(L, e, sense):
                return Verdict(kind, False, witness={
                    "morphism": m[i].as_name_map(), side: L.names[e]})
        return Verdict(kind, True)
    for a in range(L.n):
        reached = any(e != trivial and (L.leq(a, e) if side == "kernel" else L.leq(e, a))
                      for e in first)
        if not reached and not essential_superfluous(L, a, sense):
            return Verdict(kind, False, witness={"element": L.names[a]})
    return Verdict(kind, True)


def retractable_by_scans(L, m):
    """check_retractable by testing every image top against each b below
    each kernel."""
    for k in m.kernels:
        for b in L.down_set(k):
            if not any(L.leq(b, img) and L.leq(img, k) for img in m.image_tops):
                return Verdict("retractable", False, witness={
                    "morphism": m[m.first_with("kernel")[k]].as_name_map(),
                    "kernel": L.names[k], "element": L.names[b]})
    return Verdict("retractable", True)


def rickpix_by_scans(L, m):
    """check_rickpix with the per-kernel test run over every complemented x
    and every complement of it."""
    lhs = check_rickart_family(L, m, "rickart").holds
    unfactored = {k for k in m.kernels if not any(
        L.meet_of(x, k) == L.bottom and any(L.leq(xp, k) for xp in complements_of(L, x))
        for x in complemented_elements(L))}
    failing = next((i for k, i in m.first_with("kernel").items() if k in unfactored), None)
    rhs = failing is None
    return Verdict("rickpix", lhs == rhs,
                   witness=None if rhs else {"morphism": m[failing].as_name_map()},
                   notes=f"kernel-complement side={lhs}, projection side={rhs}")


# the benchmark's analyze products of at most 32 elements
CLI_PRODUCTS = (
    "c2xc3", "c2xc4", "c2xc5", "c2xc6", "c3xc3", "c3xc4", "c3xc5", "c4xc4", "c2xc2xc3",
    "c4xc5", "c2xc2xc2xc2", "m3xc2", "m3xc3", "m3xc4", "b2xc3", "b2xc4", "m3xb2",
    "c2xc2xc2xc2xc2", "c4xc8", "c3xc3xc3", "m3xm3", "b2xc2xc4", "m3xc2xc3", "m3xc6",
    "m3xc2xc2")


def oracle_monoids(L, seed):
    """The full monoid of L, when it can be enumerated, and seeded generated
    monoids with and without the projections. Their generators are drawn
    from the full monoid, or from the projections' monoid above the
    enumeration cap; none is drawn when the full monoid is over the closure
    cap, where a generated monoid could be too."""
    proj = generated_monoid(L, (), True)
    if L.n > config.DEFAULT_ENUM_CAP:
        monoids, pool = [proj], proj
    else:
        pool = full_monoid(L)
        monoids = [pool, proj]
        if len(pool) > MAX_GENERATED_MEMBERS:
            return monoids
    gens = random.Random(seed).sample(pool.members, min(2, len(pool)))
    return monoids + [generated_monoid(L, gens), generated_monoid(L, gens, True)]


class TestMaskRoutes:
    """The checkers on `Lattice.bound_masks` against the element scans of
    `essential_superfluous`, verdict, witness and notes alike."""

    MODULAR = ([fx.build_fixture(nm) for nm in fx.MODULAR_FIXTURES]
               + random_corpus(200, 8, 42) + random_corpus(60, 10, 5))

    def check_lattice(self, L):
        for kind in ("c1", "d1"):
            got = check_condition(L, None, kind).to_json_dict()
            assert got == condition_by_scans(L, kind).to_json_dict(), (L.name, kind)

    def check_monoid(self, L, m):
        for kind in ("k", "t", "k_co", "t_co"):
            got = check_nonsingularity(L, m, kind).to_json_dict()
            assert got == nonsingularity_by_scans(L, m, kind).to_json_dict(), (L.name, kind)
        got = check_retractable(L, m).to_json_dict()
        assert got == retractable_by_scans(L, m).to_json_dict(), L.name
        if m.has_all_projections:
            got = check_rickpix(L, m).to_json_dict()
            assert got == rickpix_by_scans(L, m).to_json_dict(), L.name

    def test_modular_corpora(self):
        failed = collections.Counter()
        for i, L in enumerate(self.MODULAR):
            self.check_lattice(L)
            for m in oracle_monoids(L, i):
                self.check_monoid(L, m)
                failed.update(kind for kind in ("k", "t", "k_co", "t_co")
                              if not check_nonsingularity(L, m, kind).holds)
                failed["retractable"] += not check_retractable(L, m).holds
        # every checker fails somewhere, so the witnesses are compared too
        assert set(failed) == {"k", "t", "k_co", "t_co", "retractable"}, failed

    def test_benchmark_products(self):
        for i, name in enumerate(CLI_PRODUCTS):
            L = lattice_from_json(product_json(name))
            assert L.n <= 32
            self.check_lattice(L)
            for m in oracle_monoids(L, i):
                self.check_monoid(L, m)

    def test_non_modular_lattices(self, n5):
        rng = random.Random(3)
        lattices = [n5] + [random_lattice(rng, f"r{i}", 4 + i % 3) for i in range(150)]
        failed = collections.Counter()
        for L in lattices:
            self.check_lattice(L)
            failed.update(kind for kind in ("c1", "d1")
                          if not check_condition(L, None, kind).holds)
        assert set(failed) == {"c1", "d1"}, failed


class TestRickartFamily:
    def test_chain_fails_with_kernel_witness(self, c3):
        v = check_rickart_family(c3, full_monoid(c3), "rickart")
        assert not v.holds
        assert v.witness["kernel"] == "n"

    def test_complemented_lattice_is_baer(self, m3):
        for kind in ("rickart", "baer", "dual_rickart", "dual_baer"):
            assert check_rickart_family(m3, full_monoid(m3), kind).holds

    def test_excip_not_rickart(self, excip):
        assert not check_rickart_family(excip, full_monoid(excip), "rickart").holds

    def test_baer_witness_carries_generators(self, c3):
        v = check_rickart_family(c3, full_monoid(c3), "baer")
        assert not v.holds
        assert v.witness["generators"]

    def test_minimal_monoid_always_fine(self, excip):
        m = generated_monoid(excip)
        for kind in ("rickart", "baer", "dual_rickart", "dual_baer"):
            assert check_rickart_family(excip, m, kind).holds


class TestSummand:
    def test_excip_has_cip(self, excip):
        assert check_summand_property(excip, "cip").holds

    def test_cube_both_properties(self, b3):
        assert check_summand_property(b3, "cip").holds
        assert check_summand_property(b3, "csp").holds

    def test_diamond(self, m3):
        assert check_summand_property(m3, "cip").holds

    def test_finite_strong_equals_plain(self, excip, b3, m3, c3):
        for L in (excip, b3, m3, c3):
            assert check_summand_property(L, "cip").holds == \
                check_summand_property(L, "scip").holds
            assert check_summand_property(L, "csp").holds == \
                check_summand_property(L, "scsp").holds

    def test_failing_pair_witness(self):
        # two complemented coatoms meeting in an uncomplemented element
        L = build_lattice(
            ["0", "p", "q", "x", "a", "b", "1"],
            [("0", "p"), ("0", "q"), ("p", "a"), ("q", "a"), ("p", "x"),
             ("q", "b"), ("x", "1"), ("a", "1"), ("b", "1")])
        v = check_summand_property(L, "cip")
        if not v.holds:
            assert set(v.witness) == {"pair", "result"}


class TestConditions:
    def test_chain_c1(self, c3):
        v = check_condition(c3, None, "c1")
        assert v.holds
        assert v.witness["certificates"]["n"] == "1"

    def test_chain_d1(self, c3):
        assert check_condition(c3, None, "d1").holds

    def test_chain_md2_holds_vacuously(self, c3):
        """The middle element admits an iso onto [bottom, n], but n is not
        complemented, so the condition imposes nothing."""
        assert check_condition(c3, full_monoid(c3), "md2").holds

    def test_chain_mc2(self, c3):
        assert check_condition(c3, full_monoid(c3), "mc2").holds

    def test_diamond_all_conditions(self, m3):
        m = full_monoid(m3)
        for kind in ("c1", "d1", "mc2", "md2"):
            assert check_condition(m3, m, kind).holds

    def test_md2_failure_has_witness(self):
        # chain x 2: the upper interval over (n,1) is a two-chain, matching
        # [bottom, (0,1)] with (0,1) complemented, yet (n,1) has no complement
        from latticelab.lattice import direct_product
        L = direct_product([fx.build_fixture("c3"), fx.build_fixture("c2")]).lattice
        v = check_condition(L, full_monoid(L), "md2")
        assert not v.holds
        assert v.witness["a"] == "(n,1)"
        assert set(v.witness) >= {"a", "x", "composite"}

    def test_mc2_failure_on_product(self):
        from latticelab.lattice import direct_product
        L = direct_product([fx.build_fixture("c3"), fx.build_fixture("c2")]).lattice
        assert not check_condition(L, full_monoid(L), "mc2").holds

    def test_monoid_required(self, c3):
        with pytest.raises(ValueError):
            check_condition(c3, None, "md2")


class TestNonsingularity:
    def test_chain_k_fails(self, c3):
        v = check_nonsingularity(c3, full_monoid(c3), "k")
        assert not v.holds
        assert v.witness["kernel"] == "n"

    def test_square_k(self, b2):
        assert check_nonsingularity(b2, full_monoid(b2), "k").holds

    def test_chain_k_co(self, c3):
        assert check_nonsingularity(c3, full_monoid(c3), "k_co").holds

    def test_chain_t_fails(self, c3):
        assert not check_nonsingularity(c3, full_monoid(c3), "t").holds

    def test_chain_t_co(self, c3):
        assert check_nonsingularity(c3, full_monoid(c3), "t_co").holds


class TestRetractable:
    def test_chain(self, c3):
        assert check_retractable(c3, full_monoid(c3)).holds

    def test_minimal_monoid(self, excip):
        assert check_retractable(excip, generated_monoid(excip)).holds

    def test_square(self, b2):
        assert check_retractable(b2, full_monoid(b2)).holds


class TestGeneration:
    def test_chain_middle_generated(self, c3):
        assert check_generation(c3, full_monoid(c3), c3.id_of("n"), "generated").holds

    def test_bottom_generated_by_zero(self, excip):
        m = generated_monoid(excip)
        assert check_generation(excip, m, excip.bottom, "generated").holds

    def test_top_cogenerated_by_zero(self, excip):
        m = generated_monoid(excip)
        assert check_generation(excip, m, excip.top, "cogenerated").holds

    def test_ungenerated_element(self, excip):
        m = generated_monoid(excip)  # only identity and zero
        v = check_generation(excip, m, excip.id_of("k"), "generated")
        assert not v.holds
        assert v.witness["reached"] == "0"


def cross_rickart_by_loop(L, M):
    """Each enumerated morphism L -> M in turn: the first whose kernel is not
    complemented is the witness."""
    comp = set(complemented_elements(L))
    for phi in enumerate_linmors(L, M):
        if phi.kernel not in comp:
            return Verdict("cross_rickart", False, witness={
                "morphism": phi.as_name_map(), "kernel": L.names[phi.kernel]})
    return Verdict("cross_rickart", True)


class TestCrossRickart:
    def test_excip_intervals_fail(self, excip):
        sub_a = interval(excip, excip.bottom, excip.id_of("a")).as_lattice
        sub_b = interval(excip, excip.bottom, excip.id_of("b")).as_lattice
        v = check_cross_rickart(sub_a, sub_b)
        assert not v.holds
        assert v.witness["kernel"] == "k"

    def test_one_element_codomain(self, excip):
        one = build_lattice(["*"], [])
        assert check_cross_rickart(excip, one).holds

    def test_two_element_domain(self, c2, excip):
        assert check_cross_rickart(c2, excip).holds

    def test_matches_the_per_morphism_loop(self):
        """The kernel-array read against a loop over the enumerated
        morphisms, on the lower intervals of the duality roots, in pairs
        within one lattice, including failing pairs."""
        failing = 0
        for L in ROOTS[:80]:
            subs = [interval(L, L.bottom, x).as_lattice for x in range(L.n)]
            for A in subs[-4:]:
                for B in subs[:4]:
                    want = cross_rickart_by_loop(A, B)
                    assert check_cross_rickart(A, B) == want, (A.name, B.name)
                    failing += not want.holds
        assert failing


class TestRickpix:
    def test_square_both_sides_true(self, b2):
        v = check_rickpix(b2, full_monoid(b2))
        assert v.holds
        assert "True" in v.notes

    def test_chain_both_sides_false(self, c3):
        v = check_rickpix(c3, full_monoid(c3))
        assert v.holds
        assert "False" in v.notes

    def test_one_element(self):
        one = build_lattice(["*"], [])
        assert check_rickpix(one, full_monoid(one)).holds

    def test_requires_projections(self, b2):
        m = generated_monoid(b2)  # identity and zero only
        with pytest.raises(MissingProjectionsError):
            check_rickpix(b2, m)

    def test_kernels_match_the_projection_tables(self):
        """On each corpus root: the full monoid, the projections' monoid and
        a seeded one generated by two members and the projections."""
        witnessed = 0
        for i, L in enumerate(ROOTS):
            full = full_monoid(L)
            gens = random.Random(i).sample(full.members, min(2, len(full)))
            for m in (full, generated_monoid(L, (), True),
                      generated_monoid(L, gens, True)):
                v = check_rickpix(L, m)
                assert v == rickpix_by_tables(L, m), (L.name, len(m))
                witnessed += v.witness is not None
        assert 0 < witnessed < 3 * len(ROOTS)
