"""Property checkers: kernel/image complement families, summand properties,
C1/D1 and the monoid-relative C2/D2, nonsingularity, retractability,
generation, and cross-lattice checks."""

import random

import pytest

from latticelab import fixtures as fx
from latticelab.errors import MissingProjectionsError
from latticelab.lattice import build_lattice, complemented_elements, complements_of, interval
from latticelab.monoid import full_monoid, generated_monoid
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
from test_duality import ROOTS


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
