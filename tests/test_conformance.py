"""The conformance registry and random corpus generation."""

import collections
import dataclasses
import gc
import hashlib
import random
import sys
import weakref

import numpy as np
import pytest

from latticelab import conformance
from latticelab import fixtures as fx
from latticelab import morphisms
from latticelab.conformance import (
    REGISTRY,
    LatticeContext,
    chk_exmorf,
    chk_isolin,
    chk_kerpi,
    chk_linmor_joins,
    chk_projection_linear,
    chk_splits,
    random_corpus,
    random_modular_lattice,
    run_conformance,
)
from latticelab.errors import (LatticeLabError, LinearValidationError, NotIntervalIsoError,
                               SizeLimitExceededError)
from latticelab.lattice import (complements_of, direct_product, interval, is_modular,
                               lattice_to_json, opposite)
from latticelab.monoid import EndoMonoid, full_monoid, generated_monoid
from latticelab.morphisms import compose, enumerate_linmors, table_verdicts, validate_linear
from latticelab.properties import (PROPERTY_NAMES, check_generation, check_property,
                                   check_rickart_family)

from test_duality import ROOTS
from test_pair_index import iso_composites

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

    def test_context_generation_matches_public_checker(self):
        """The context's generation and facts are the public checkers' with
        the full monoid, and a fact is read with it even where the checker
        needs none: on the 21-element c3xr3_39, over the enumeration cap,
        c1_kco cannot run."""
        corpus = [fx.build_fixture(nm) for nm in fx.MODULAR_FIXTURES] + random_corpus(30, 8, 7)
        for L in corpus:
            ctx = LatticeContext(L)
            for x in range(L.n):
                assert ctx.generated(x) == check_generation(
                    L, ctx.monoid, x, "generated").holds
                assert ctx.op.generated(opposite(L).id_of(L.names[x])) == \
                    check_generation(L, ctx.monoid, x, "cogenerated").holds
            m = full_monoid(L)
            for name in PROPERTY_NAMES:
                assert ctx.fact(name) == check_property(L, m, name).holds, (L.name, name)
        P = direct_product([fx.build_fixture("c3"), random_corpus(40, 8, 3)[39]]).lattice
        assert (P.name, P.n) == ("c3xr3_39", 21)
        with pytest.raises(SizeLimitExceededError):
            run_conformance([P], checks=["c1_kco"])


def inject_verdict(monkeypatch, bad=None, reject=False):
    """Fault the context's batch verdicts on End(L): mark the rows whose
    tables are in `bad` rejected, or give them (every row, when `bad` is
    None) a wrong kernel, the top for bottom and bottom for any other."""
    def faulty(domain, codomain, tables):
        rejected, kernels = (v.copy() for v in table_verdicts(domain, codomain, tables))
        hit = np.array([bad is None or tuple(row) in bad
                        for row in np.asarray(tables).tolist()], dtype=bool)
        if reject:
            rejected |= hit
        else:
            kernels[hit] = np.where(kernels[hit] == domain.bottom, domain.top,
                                    domain.bottom)
        return rejected, kernels

    monkeypatch.setattr(conformance, "table_verdicts", faulty)


def test_exmorf_reports_a_wrong_extension_kernel_as_an_error(monkeypatch):
    """An extension certified with a kernel other than ker v x' is reported
    with the error text of extend_from_interval."""
    inject_verdict(monkeypatch)
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


def test_contexts_in_no_pair_are_released_before_the_pair_checks(monkeypatch):
    """The pairs are chosen before the lattice checks run, and a lattice in
    no pair drops its context once its checks are done. The 16-element
    chain is in a pair: 16 * 1 fits the cap next to the 1-element chain."""
    corpus = [fx.build_fixture("m3"), fx.chain(6), fx.chain(16), fx.chain(1),
              fx.build_fixture("n5"), fx.chain(5), fx.chain(2)]
    made = []

    def tracked(L):
        ctx = LatticeContext(L)
        made.append(weakref.ref(ctx))
        return ctx

    live = []

    def pair_check(a, b):
        live.append(sorted(ref().L.name for ref in made if ref() is not None))
        return "pass", None

    monkeypatch.setattr(conformance, "LatticeContext", tracked)
    monkeypatch.setitem(REGISTRY, "prod_rickart_pairs", dataclasses.replace(
        REGISTRY["prod_rickart_pairs"], fn=pair_check))
    gc.disable()
    try:
        report = run_conformance(corpus, checks=["rickpix", "prod_rickart_pairs"])
    finally:
        gc.enable()
    assert report.counts["rickpix"]["pass"] == report.lattice_count == 6
    assert len(made) == 6
    # c1 and c2 against themselves, then (c16, c1), (c1, c5) and (c5, c2)
    assert live == [["c1", "c16", "c2", "c5"]] * 5


def test_the_top_interval_reads_the_lattice_verdict(monkeypatch):
    """[bottom, top] is L itself, so interval_family_prop at the top reads
    the context's own verdict: each context builds one full monoid of its
    lattice's size, and the report is the one a fresh monoid for every
    interval gives."""
    corpus = [fx.build_fixture(nm) for nm in fx.FIXTURE_NAMES] + random_corpus(200, 8, 42)

    def every_interval_anew(self, hi, kind):
        sub = interval(self.L, self.L.bottom, hi).as_lattice
        return check_rickart_family(sub, full_monoid(sub), kind).holds

    with monkeypatch.context() as patch:
        patch.setattr(LatticeContext, "interval_family_prop", every_interval_anew)
        expected = run_conformance(corpus, seed=42).to_json()

    contexts, active, builds, top_reads = [], [], {}, []

    class Tracked(LatticeContext):
        def __init__(self, L):
            super().__init__(L)
            contexts.append(self)  # also keeps each id unique

        def interval_family_prop(self, hi, kind):
            top_reads.append(hi == self.L.top)
            active.append(self)
            try:
                return super().interval_family_prop(hi, kind)
            finally:
                active.pop()

    def counted(L):
        owner = next((c for c in contexts if c.L is L), active[-1] if active else None)
        builds.setdefault(id(owner), []).append(L.n)
        return full_monoid(L)

    monkeypatch.setattr(conformance, "LatticeContext", Tracked)
    monkeypatch.setattr(conformance, "full_monoid", counted)
    assert run_conformance(corpus, seed=42).to_json() == expected
    assert any(top_reads)
    for ctx in contexts:
        assert builds.get(id(ctx), []).count(ctx.L.n) <= 1, ctx.L.name


# the checks that read interval_family_prop, and the sha256 of their report
# on the modular fixtures and random_corpus(200, 8, 42) when every interval
# verdict builds its own monoid
INTERVAL_FAMILY_CHECKS = ["compintric", "complbaer", "compldbaer", "sumric", "decomp_fi"]
INTERVAL_FAMILY_REPORT = "e2b181dc5a3a23307e410c964c70186539a60e55291a4b316165a995dc1672fc"


def test_each_interval_monoid_is_built_once_per_context(monkeypatch):
    """rickart and baer of one interval [bottom, hi] share its full monoid:
    at most one build per (context, hi), and the report bytes are those of
    a fresh monoid per verdict."""
    corpus = [fx.build_fixture(nm) for nm in fx.MODULAR_FIXTURES] + random_corpus(200, 8, 42)
    contexts, asking, verdicts, builds = [], [], set(), collections.Counter()

    class Tracked(LatticeContext):
        def __init__(self, L):
            super().__init__(L)
            contexts.append(self)  # also keeps each id unique

        def interval_family_prop(self, hi, kind):
            verdicts.add((id(self), hi, kind))
            asking.append((id(self), hi))
            try:
                return super().interval_family_prop(hi, kind)
            finally:
                asking.pop()

    def counted(L):
        if asking:
            builds[asking[-1]] += 1
        return full_monoid(L)

    monkeypatch.setattr(conformance, "LatticeContext", Tracked)
    monkeypatch.setattr(conformance, "full_monoid", counted)
    report = run_conformance(corpus, checks=INTERVAL_FAMILY_CHECKS).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == INTERVAL_FAMILY_REPORT
    assert max(builds.values()) == 1
    # some intervals are asked under both kinds, so the sharing saves builds
    assert any((c, hi, "rickart") in verdicts for c, hi, k in verdicts if k == "baer")


# -- the five morphism checks against their plain loops -----------------------
# The loops below certify every extension and every composite anew, with
# validate_linear, test each join in Python, and enumerate the Hom-sets of
# each interval and the isomorphisms of each pair of intervals; the
# registry's checks must report the same first failure, or pass, wherever
# these do.


def exmorf_every_y(ctx):
    L = ctx.L
    for x in ctx.comp:
        vx = interval(L, L.bottom, x)
        xps = complements_of(L, x)
        for y in range(L.n):
            vy = interval(L, L.bottom, y)
            for phi in enumerate_linmors(vx.as_lattice, vy.as_lattice):
                for xp in xps:
                    try:
                        ext = morphisms.extend_from_interval(phi, vx, vy, xp)
                    except LatticeLabError as exc:
                        return "fail", {"x": L.names[x], "y": L.names[y],
                                        "x_prime": L.names[xp], "error": str(exc)}
                    restr = all(ext.map[vx.members[t]] == vy.members[phi.map[t]]
                                for t in range(vx.as_lattice.n))
                    if not restr:
                        return "fail", {"x": L.names[x], "y": L.names[y],
                                        "clause": "restriction"}
    return "pass", None


def kerpi_by_compose(ctx):
    L = ctx.L
    for x in ctx.comp:
        for xp in complements_of(L, x):
            pix = morphisms.projection(L, x, xp)
            for y in ctx.comp:
                for yp in complements_of(L, y):
                    piy = morphisms.projection(L, y, yp)
                    got = compose(piy, pix).kernel
                    want = L.join_of(L.meet_of(x, yp), xp)
                    if got != want:
                        return "fail", {"x": L.names[x], "x_prime": L.names[xp],
                                        "y": L.names[y], "y_prime": L.names[yp],
                                        "got": L.names[got], "want": L.names[want]}
    return "pass", None


def isolin_by_composites(ctx):
    L = ctx.L
    for a in range(L.n):
        vu = interval(L, a, L.top)
        for x in range(L.n):
            vx = interval(L, L.bottom, x)
            for table in iso_composites(vu, vx, (L.join_of(y, a) for y in range(L.n))):
                try:
                    phi = morphisms.validate_linear(L, L, table)
                except LinearValidationError as exc:
                    return "fail", {"a": L.names[a], "x": L.names[x], "error": str(exc)}
                if phi.kernel != a:
                    return "fail", {"a": L.names[a], "x": L.names[x],
                                    "kernel": L.names[phi.kernel]}
    return "pass", None


def linmor_joins_by_pairs(ctx):
    L = ctx.L
    for phi in ctx.monoid.members:
        if phi.map[L.bottom] != L.bottom:
            return "fail", {"morphism": phi.as_name_map(), "clause": "bottom"}
        for x in range(L.n):
            for y in range(x, L.n):
                if phi.map[L.join_of(x, y)] != L.join_of(phi.map[x], phi.map[y]):
                    return "fail", {"morphism": phi.as_name_map(),
                                    "x": L.names[x], "y": L.names[y]}
    return "pass", None


def splits_by_hom_sets(ctx):
    L = ctx.L
    for a in range(L.n):
        va = interval(L, L.bottom, a)
        sub = va.as_lattice
        retracts = any(
            all(phi.map[va.members[t]] == t for t in range(sub.n))
            for phi in enumerate_linmors(L, sub))
        vu = interval(L, a, L.top)
        squ = vu.as_lattice
        sections = any(
            all(vu.from_parent[L.join_of(a, phi.map[u])] == u for u in range(squ.n))
            for phi in enumerate_linmors(squ, L))
        is_comp = a in ctx.comp_set
        if not (is_comp == retracts == sections):
            return "fail", {"a": L.names[a], "complemented": is_comp,
                            "inclusion_splits": retracts, "quotient_splits": sections}
    return "pass", None


ORACLES = ((chk_exmorf, exmorf_every_y), (chk_kerpi, kerpi_by_compose),
           (chk_isolin, isolin_by_composites),
           (chk_linmor_joins, linmor_joins_by_pairs), (chk_splits, splits_by_hom_sets))

# small lattices with complements to spare, for the injected faults
FAULT_LATTICES = [fx.build_fixture(nm) for nm in ("b2", "b3", "m3", "excip")] + [
    fx.mk(4), *random_corpus(4, 8, 42)]


def _picks(items, count=8):
    """Up to `count` items spread over the list, its first and last included."""
    items = list(items)
    if len(items) <= count:
        return items
    return [items[round(i * (len(items) - 1) / (count - 1))] for i in range(count)]


def test_checks_match_their_loops_on_the_duality_corpus():
    for L in ROOTS:
        ctx = LatticeContext(L)
        for check, oracle in ORACLES:
            assert check(ctx) == oracle(ctx) == ("pass", None), (L.name, check)


def inject_scalar(monkeypatch, bad, reject=False):
    """The same fault in validate_linear, which the loops call: reject each
    table in `bad`, naming it, or certify it with the wrong kernel of
    `inject_verdict`."""
    def faulty(domain, codomain, table):
        if reject and tuple(table) in bad:
            raise NotIntervalIsoError(f"rejected on purpose: {tuple(table)}")
        phi = validate_linear(domain, codomain, table)
        if phi.map not in bad:
            return phi
        other = domain.top if phi.kernel == domain.bottom else domain.bottom
        return dataclasses.replace(phi, kernel=other)

    monkeypatch.setattr(morphisms, "validate_linear", faulty)
    monkeypatch.setattr(conformance, "validate_linear", faulty)


@pytest.mark.parametrize("L", FAULT_LATTICES, ids=lambda L: L.name)
def test_exmorf_reports_a_rejected_extension_like_its_loop(monkeypatch, L):
    seen = []

    def record(domain, codomain, table):
        phi = validate_linear(domain, codomain, table)
        if domain is L:
            seen.append(phi.map)
        return phi

    monkeypatch.setattr(morphisms, "validate_linear", record)
    exmorf_every_y(LatticeContext(L))
    tables = _picks(dict.fromkeys(seen))
    assert tables
    for bad in tables:
        inject_verdict(monkeypatch, {bad}, reject=True)
        inject_scalar(monkeypatch, {bad}, reject=True)
        ctx = LatticeContext(L)
        got = chk_exmorf(ctx)
        assert got[0] == "fail" and got[1]["error"] == f"rejected on purpose: {bad}"
        assert got == exmorf_every_y(ctx), bad
    # several at once, all those whose image top has rank r or more for
    # each r: the first in the loop's order, by x, then y, is named
    distinct = list(dict.fromkeys(seen))
    for r in range(1, max(L.rank) + 1):
        bad = {t for t in distinct if L.rank[t[L.top]] >= r}
        inject_verdict(monkeypatch, bad, reject=True)
        inject_scalar(monkeypatch, bad, reject=True)
        ctx = LatticeContext(L)
        assert chk_exmorf(ctx) == exmorf_every_y(ctx), r


@pytest.mark.parametrize("L", FAULT_LATTICES, ids=lambda L: L.name)
def test_tables_outside_the_monoid_are_certified_on_their_own(monkeypatch, L):
    """With the context's monoid cut down to the closure of the
    projections, extensions outside it go through validate_linear: exmorf
    still passes, and reports a rejected one like its loop."""
    seen = []

    def record(domain, codomain, table):
        phi = validate_linear(domain, codomain, table)
        if domain is L:
            seen.append(phi.map)
        return phi

    monkeypatch.setattr(morphisms, "validate_linear", record)
    exmorf_every_y(LatticeContext(L))
    small = generated_monoid(L, with_projections=True)
    distinct = list(dict.fromkeys(seen))
    outside = [t for t, i in zip(distinct, small.find(distinct)) if i < 0]
    assert outside
    for bad in [None] + _picks(outside):
        faults = set() if bad is None else {bad}
        inject_scalar(monkeypatch, faults, reject=True)
        ctx = LatticeContext(L)
        ctx._cache["monoid"] = small
        got = chk_exmorf(ctx)
        assert got == exmorf_every_y(ctx), bad
        assert (got == ("pass", None)) == (bad is None)
        assert chk_kerpi(ctx) == ("pass", None)


@pytest.mark.parametrize("name", ["b2", "b3", "m3"])
def test_exmorf_reports_a_wrong_restriction_like_its_loop(monkeypatch, name):
    """An automorphism whose extension table comes out as the identity
    certifies, with the right kernel, and fails the restriction clause.
    The fault is injected where each route builds its tables: the gather of
    exmorf and extend_from_interval of the loop."""
    L = fx.build_fixture(name)
    gather = conformance._composite_tables
    extend = morphisms.extend_from_interval
    identity = validate_linear(L, L, range(L.n))
    autos = [phi.map for phi in full_monoid(L) if phi.kernel == L.bottom
             and phi.image_top == L.top and phi != identity]
    assert autos
    for bad in _picks(autos):
        def wrong_tables(outer, inner, bad=bad):
            tables = gather(outer, inner).copy()
            tables[(tables == bad).all(axis=-1)] = identity.map
            return tables

        def wrong_extension(*args, bad=bad):
            ext = extend(*args)
            return identity if ext.map == bad else ext

        monkeypatch.setattr(conformance, "_composite_tables", wrong_tables)
        monkeypatch.setattr(morphisms, "extend_from_interval", wrong_extension)
        ctx = LatticeContext(L)
        got = chk_exmorf(ctx)
        assert got == ("fail", {"x": L.names[L.top], "y": L.names[L.top],
                                "clause": "restriction"})
        assert got == exmorf_every_y(ctx), bad


@pytest.mark.parametrize("L", FAULT_LATTICES, ids=lambda L: L.name)
def test_kerpi_reports_a_wrong_composite_kernel_like_its_loop(monkeypatch, L):
    seen = []

    def record(phi, psi):
        out = morphisms.compose(phi, psi)
        seen.append(out.map)
        return out

    module = sys.modules[__name__]
    monkeypatch.setattr(module, "compose", record)
    kerpi_by_compose(LatticeContext(L))
    tables = _picks(dict.fromkeys(seen))
    assert tables
    for bad in tables:
        def wrong(phi, psi, bad=bad):
            out = morphisms.compose(phi, psi)
            if out.map != bad:
                return out
            other = L.top if out.kernel == L.bottom else L.bottom
            return dataclasses.replace(out, kernel=other)

        inject_verdict(monkeypatch, {bad})
        monkeypatch.setattr(module, "compose", wrong)
        ctx = LatticeContext(L)
        got = chk_kerpi(ctx)
        assert got[0] == "fail"
        assert got == kerpi_by_compose(ctx), bad


# in a product the ids of [a, top] come in another order than those of the
# whole lattice, so the composites of one (a, x) in the order of their
# interval isomorphisms are not in table order
def test_run_conformance_builds_one_product_per_pair(monkeypatch):
    """The two product checks share each pair's product: with the pairs
    (c2, c2), (b2, b2), (c3, c3), (c2, b2) and (m3, c3), five products."""
    built = []

    def counting(factors):
        built.append(tuple(f.name for f in factors))
        return direct_product(factors)

    monkeypatch.setattr(conformance, "direct_product", counting)
    report = run_conformance([fx.build_fixture(nm) for nm in ("c2", "b2", "m3", "c3")])
    assert sorted(built) == sorted([("c2", "c2"), ("b2", "b2"), ("c3", "c3"), ("c2", "b2"),
                                    ("m3", "c3")])
    for name in ("prod_projections_linear", "prod_rickart_pairs"):
        assert report.counts[name] == {"pass": 5, "fail": 0, "skip": 0}


C3XC3 = direct_product([fx.build_fixture("c3")] * 2).lattice


@pytest.mark.parametrize("L", FAULT_LATTICES + [C3XC3], ids=lambda L: L.name)
def test_isolin_reports_a_faulty_composite_like_its_loop(monkeypatch, L):
    """One composite rejected, or certified with a wrong kernel, in both
    the batch verdicts and validate_linear: isolin fails like its loop. With
    every composite of one (a, x) rejected, its first composite in the
    order of the interval isomorphisms is named; with every kernel wrong,
    the first (a, x)."""
    m = full_monoid(L)
    tables = list(map(tuple, m.tables.tolist()))
    groups = {}
    for t, a, x in zip(tables, m.member_kernels.tolist(), m.member_image_tops.tolist()):
        groups.setdefault((a, x), set()).add(t)
    faults = [(None, False)] + [(group, True) for group in groups.values()
                                if len(group) > 1]
    for i in _picks(range(len(m))):
        faults += [({tables[i]}, True), ({tables[i]}, False)]
    for bad, reject in faults:
        inject_verdict(monkeypatch, bad, reject)
        inject_scalar(monkeypatch, set(tables) if bad is None else bad, reject)
        ctx = LatticeContext(L)
        got = chk_isolin(ctx)
        assert got[0] == "fail"
        assert ("error" in got[1]) == reject
        assert got == isolin_by_composites(ctx), (bad, reject)


@pytest.mark.parametrize("L", FAULT_LATTICES, ids=lambda L: L.name)
def test_linmor_joins_reports_a_bad_member_like_its_loop(L):
    rng = random.Random(L.n)
    known = {phi.map: phi.kernel for phi in full_monoid(L).members}
    failures = 0
    for trial in range(24):
        bogus = {}  # bogus tables, each given the kernel bottom
        for _ in range(1 + trial % 2):  # with two, the first failing one is named
            table = [rng.randrange(L.n) for _ in range(L.n)]
            if trial % 3:  # most keep bottom, so a join is what fails
                table[L.bottom] = L.bottom
            if tuple(table) not in known:
                bogus[tuple(table)] = L.bottom
        members = {**known, **bogus}
        ctx = LatticeContext(L)
        ctx._cache["monoid"] = EndoMonoid(L, list(members), list(members.values()))
        got = chk_linmor_joins(ctx)
        failures += got[0] == "fail"
        assert got == linmor_joins_by_pairs(ctx), bogus
    assert failures


@pytest.mark.parametrize("L", FAULT_LATTICES, ids=lambda L: L.name)
def test_splits_reports_a_wrong_complemented_set_like_its_loop(L):
    """With one complemented element missing from the context's set, or one
    element too many, splits fails like its per-interval loop."""
    ctx = LatticeContext(L)
    comp = set(ctx.comp)
    faults = [comp - {a} for a in comp] + [comp | {a} for a in range(L.n)
                                           if a not in comp]
    for wrong in faults:
        ctx._cache["comp_set"] = wrong
        got = chk_splits(ctx)
        assert got[0] == "fail"
        assert got == splits_by_hom_sets(ctx), sorted(wrong)


@pytest.mark.parametrize("L,rows", [(fx.mk(6), 757), (fx.build_fixture("b3"), 34)],
                         ids=["m6", "b3"])
def test_end_is_certified_once_per_context(monkeypatch, L, rows):
    """A context certifies the rows of End(L) in one batch, and on a passing
    lattice exmorf, kerpi and isolin read it with no validate_linear call
    (the projections are certified before, once per lattice)."""
    batches, calls = [], []

    def batch(domain, codomain, tables):
        batches.append(len(tables))
        return table_verdicts(domain, codomain, tables)

    def scalar(*args):
        calls.append(args)
        return validate_linear(*args)

    ctx = LatticeContext(L)
    for x in ctx.comp:
        for xp in complements_of(L, x):
            morphisms.projection(L, x, xp)
    monkeypatch.setattr(conformance, "table_verdicts", batch)
    monkeypatch.setattr(conformance, "validate_linear", scalar)
    monkeypatch.setattr(morphisms, "validate_linear", scalar)
    for check in (chk_exmorf, chk_kerpi, chk_isolin):
        assert check(ctx) == ("pass", None), check
    assert batches == [rows]
    assert calls == []
