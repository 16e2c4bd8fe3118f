"""The conformance registry and random corpus generation."""

import dataclasses
import gc
import weakref

import pytest

from latticelab import fixtures as fx
from latticelab import morphisms
from latticelab.conformance import (
    REGISTRY,
    LatticeContext,
    chk_exmorf,
    chk_projection_linear,
    random_corpus,
    random_modular_lattice,
    run_conformance,
)
from latticelab.lattice import is_modular, lattice_to_json

# every check id named by the acceptance gate must exist
ACCEPTANCE_CHECKS = [
    "riccipssp", "baerricscip", "ricendoric", "dricendodric", "baercar",
    "dbaercar", "ricd2", "dricc2", "kercompkergenann", "imcompintkercogen",
    "baercarK", "dbaercarT", "acc_rickart_eq_baer", "kerpi", "idemcomp",
    "fipi1", "fidis", "lemmaret", "splits", "isolin", "boolean_meetmaps",
    "compintric", "complbaer", "compldbaer", "ricind2", "if2", "sumric",
    "decomp_fi", "prod_projections_linear", "prod_rickart_pairs",
    "ricdirsumsub",
]

# the remaining registered facts, one per covered statement
EXTRA_CHECKS = [
    "linmor_joins", "projection_linear", "exmorf", "fi_join",
    "booluniqb_exists", "booluniqb_unique", "splitcor", "cbool", "clcomp",
    "retractable", "rickpix", "cip_prod_rickart", "artif", "baer_symmetry",
    "c1_kco", "d1_tco", "knonsing_c1_baer", "tnonsing_d1_dbaer",
    "ric_knonsing", "dric_tnonsing", "baer_kco_c1", "dbaer_tco_d1",
    "fig1_example", "excip_example", "lricmric",
]


def test_registry_is_complete():
    assert set(ACCEPTANCE_CHECKS) <= set(REGISTRY)
    assert set(REGISTRY) == set(ACCEPTANCE_CHECKS) | set(EXTRA_CHECKS)
    for check in REGISTRY.values():
        assert check.description
        assert check.kind in ("lattice", "pair", "global")


class TestRandomLattice:
    def test_deterministic(self):
        a = random_modular_lattice(1, 5)
        b = random_modular_lattice(1, 5)
        assert lattice_to_json(a) == lattice_to_json(b)

    def test_single_element(self):
        assert random_modular_lattice(7, 1).n == 1

    def test_always_modular(self):
        for seed in range(40):
            assert is_modular(random_modular_lattice(seed, 7)).holds

    def test_corpus_reproducible(self):
        a = random_corpus(10, 6, 3)
        b = random_corpus(10, 6, 3)
        assert [lattice_to_json(x) for x in a] == [lattice_to_json(x) for x in b]


class TestRunner:
    def test_fixture_corpus_all_green(self):
        corpus = [fx.build_fixture(nm) for nm in fx.MODULAR_FIXTURES]
        report = run_conformance(corpus)
        assert report.total_failures == 0
        assert report.lattice_count == len(corpus)

    def test_non_modular_lattices_are_set_aside(self, n5):
        report = run_conformance([n5], checks=["lemmaret"])
        assert report.lattice_count == 0
        assert report.skipped_lattices == ["n5"]

    def test_small_random_corpus(self):
        corpus = random_corpus(25, 7, 11)
        report = run_conformance(corpus, seed=11)
        assert report.total_failures == 0

    def test_unknown_check_rejected(self, c3):
        with pytest.raises(ValueError):
            run_conformance([c3], checks=["nope"])

    def test_report_json_is_deterministic(self):
        corpus = [fx.build_fixture("c3"), fx.build_fixture("b2")]
        r1 = run_conformance(corpus, checks=["kerpi", "splits"], seed=5)
        r2 = run_conformance([fx.build_fixture("c3"), fx.build_fixture("b2")], checks=["kerpi", "splits"], seed=5)
        assert r1.to_json() == r2.to_json()
        doc = r1.to_json_dict()
        assert doc["schema_version"] == 1
        assert set(doc["checks"]) == {"kerpi", "splits"}

    def test_selected_checks_only(self, b2):
        report = run_conformance([b2], checks=["kerpi"])
        assert list(report.counts) == ["kerpi"]
        assert report.counts["kerpi"]["pass"] == 1

    def test_repeated_checks_run_once_in_first_seen_order(self, b2):
        report = run_conformance([b2], checks=["splits", "kerpi", "splits"])
        assert list(report.counts) == ["splits", "kerpi"]
        assert report.counts["splits"]["pass"] == 1

    def test_context_generation_matches_public_checker(self, excip, m3):
        from latticelab.conformance import LatticeContext
        from latticelab.lattice import opposite
        from latticelab.properties import check_generation
        for L in (excip, m3):
            ctx = LatticeContext(L)
            for x in range(L.n):
                assert ctx.generated(x) == check_generation(
                    L, ctx.monoid, x, "generated").holds
                assert ctx.op.generated(opposite(L).id_of(L.names[x])) == \
                    check_generation(L, ctx.monoid, x, "cogenerated").holds


def test_exmorf_reports_a_wrong_extension_kernel_as_an_error(monkeypatch):
    """An extension certified with a kernel other than ker v x' is rejected
    by extend_from_interval, and exmorf reports that error."""
    certify = morphisms.validate_linear

    def wrong_kernel(domain, codomain, table):
        phi = certify(domain, codomain, table)
        other = domain.top if phi.kernel == domain.bottom else domain.bottom
        return dataclasses.replace(phi, kernel=other)

    monkeypatch.setattr(morphisms, "validate_linear", wrong_kernel)
    status, detail = chk_exmorf(LatticeContext(fx.build_fixture("b2")))
    assert status == "fail"
    assert detail == {"x": "0", "y": "0", "x_prime": "1",
                      "error": "extension has kernel '0', not ker v x' = '1'"}


def test_projection_linear_reports_a_wrong_projection_kernel_as_an_error(monkeypatch):
    """A projection certified with a kernel other than x' is rejected by
    projection itself, and projection_linear reports that error."""
    certify = morphisms.validate_linear

    def wrong_kernel(domain, codomain, table):
        phi = certify(domain, codomain, table)
        other = domain.top if phi.kernel == domain.bottom else domain.bottom
        return dataclasses.replace(phi, kernel=other)

    monkeypatch.setattr(morphisms, "validate_linear", wrong_kernel)
    status, detail = chk_projection_linear(LatticeContext(fx.build_fixture("b2")))
    assert status == "fail"
    assert detail == {"x": "0", "x_prime": "1",
                      "error": "projection onto '0' along '1' certified with kernel '0'"}


def test_a_self_dual_context_is_freed_by_reference_counting():
    """A context that is its own opposite holds no reference to itself, so
    its monoid arrays go as soon as the context does."""
    ctx = LatticeContext(fx.build_fixture("m3"))
    assert ctx.op is ctx
    ctx.monoid.zero_products  # the arrays a pass over the registry builds
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx
        assert ref() is None
    finally:
        gc.enable()
