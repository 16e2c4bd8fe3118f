"""Derived facts memoized on Lattice, and the routes that read them.

The modularity verdict, the complement table and each certified projection
are computed once per lattice object. These tests pin the memo itself, the
rule that phi o pi equals phi exactly when ker pi <= ker phi, which lets
check_rickpix read member kernels instead of composing, and the invariants
that raise ConsistencyError instead of asserting.
"""

import collections
import dataclasses
import functools

import pytest

from latticelab import conformance as conformance_mod
from latticelab import fixtures as fx
from latticelab import lattice as lattice_mod
from latticelab import morphisms as morphisms_mod
from latticelab.conformance import run_conformance
from latticelab.errors import ConsistencyError, NotModularError
from latticelab.lattice import complemented_elements, complements_of, is_modular, opposite
from latticelab.monoid import full_monoid
from latticelab.morphisms import compose, projection

EQUIVALENCE_FIXTURES = {
    **{name: functools.partial(fx.build_fixture, name)
       for name in ("c3", "b2", "b3", "m3", "excip")},
    "m4": lambda: fx.mk(4),
}


def all_projections(L):
    return [projection(L, x, xp)
            for x in complemented_elements(L) for xp in complements_of(L, x)]


class TestMemo:
    def test_modularity_verdict_is_stored(self):
        L = fx.build_fixture("m3")
        assert is_modular(L) is is_modular(L)

    def test_non_modular_verdict_is_stored(self):
        L = fx.build_fixture("n5")
        v = is_modular(L)
        assert not v.holds and is_modular(L) is v

    def test_complement_table_matches_definition(self, excip):
        for a in range(excip.n):
            want = tuple(b for b in range(excip.n)
                         if excip.meet_of(a, b) == excip.bottom
                         and excip.join_of(a, b) == excip.top)
            assert complements_of(excip, a) == want
        assert complemented_elements(excip) == tuple(
            a for a in range(excip.n) if complements_of(excip, a))

    def test_projection_is_built_once(self):
        L = fx.build_fixture("b2")
        a, b = L.id_of("a"), L.id_of("b")
        assert projection(L, a, b) is projection(L, a, b)

    def test_projection_on_non_modular_lattice_still_raises(self):
        L = fx.build_fixture("n5")
        with pytest.raises(NotModularError):
            projection(L, L.id_of("a"), L.id_of("c"))
        with pytest.raises(NotModularError):
            projection(L, L.id_of("a"), L.id_of("c"))

    def test_non_modular_lattice_has_no_monoid(self, n5):
        with pytest.raises(NotModularError, match="n5 is not modular: "):
            full_monoid(n5)


def test_modular_law_runs_at_most_once_per_lattice(monkeypatch):
    real = lattice_mod._decide_modular
    seen: dict[int, list] = {}

    def counting(L):
        entry = seen.setdefault(id(L), [L, 0])  # holding L pins its id
        entry[1] += 1
        return real(L)

    monkeypatch.setattr(lattice_mod, "_decide_modular", counting)
    report = run_conformance([fx.mk(5)])
    assert report.total_failures == 0
    assert seen
    assert max(count for _, count in seen.values()) == 1


def test_modular_law_runs_only_on_corpus_lattices(monkeypatch):
    """Intervals and opposites take over a holding verdict, so the monoids
    built on them decide no modularity of their own. excip's opposite
    has another structure key, so its dual twins use a second context."""
    real = lattice_mod._decide_modular
    ran = []

    def recording(L):
        ran.append(L)
        return real(L)

    monkeypatch.setattr(lattice_mod, "_decide_modular", recording)
    corpus = [fx.build_fixture("excip"), fx.build_fixture("b3"), fx.mk(4)]
    # global checks build lattices of their own
    checks = [nm for nm, c in conformance_mod.REGISTRY.items() if c.kind != "global"]
    assert run_conformance(corpus, checks=checks).total_failures == 0
    assert opposite(corpus[0]).structure_key != corpus[0].structure_key
    assert sorted(map(id, ran)) == sorted(map(id, corpus))


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_FIXTURES))
def test_table_test_matches_certified_composition(name):
    """compose(phi, pi) certifies, and equals phi exactly when the table
    test holds, that is, exactly when ker pi <= ker phi."""
    L = EQUIVALENCE_FIXTURES[name]()
    projections = all_projections(L)
    assert projections
    agreeing = 0
    for phi in full_monoid(L).members:
        for pi in projections:
            composite = compose(phi, pi)  # raises if it does not certify
            table_test = all(phi.map[pi.map[x]] == phi.map[x] for x in range(L.n))
            assert (composite.map == phi.map) == table_test
            assert table_test == L.leq(pi.kernel, phi.kernel)
            agreeing += table_test
    assert agreeing > 0


class TestConsistencyErrors:
    def test_projection_kernel_mismatch(self, monkeypatch):
        L = fx.build_fixture("b2")
        a, b = L.id_of("a"), L.id_of("b")
        real = morphisms_mod.validate_linear

        def wrong_kernel(domain, codomain, mapping):
            return dataclasses.replace(real(domain, codomain, mapping),
                                       kernel=domain.bottom)

        monkeypatch.setattr(morphisms_mod, "validate_linear", wrong_kernel)
        with pytest.raises(ConsistencyError):
            projection(L, a, b)
        monkeypatch.undo()
        assert projection(L, a, b).kernel == b  # the bad result was not kept

    def test_extension_kernel_mismatch(self, monkeypatch, b2):
        a, b = b2.id_of("a"), b2.id_of("b")
        vx = lattice_mod.interval(b2, b2.bottom, a)
        phi = morphisms_mod.identity_morphism(vx.as_lattice)
        real = morphisms_mod.validate_linear

        def wrong_kernel(domain, codomain, mapping):
            return dataclasses.replace(real(domain, codomain, mapping),
                                       kernel=domain.top)

        monkeypatch.setattr(morphisms_mod, "validate_linear", wrong_kernel)
        with pytest.raises(ConsistencyError):
            morphisms_mod.extend_from_interval(phi, vx, vx, b)


def test_interval_facts_are_computed_once_per_lattice(monkeypatch):
    """The per-interval family verdicts live on the conformance context, and
    the iso-to-complement choices (the monoid's kernel/image-top pairs) on
    its monoid, so one run computes each once."""
    calls = collections.Counter()
    real = conformance_mod.check_rickart_family

    def counting(L, m, kind):
        calls[(L.name, kind)] += 1
        return real(L, m, kind)

    monkeypatch.setattr(conformance_mod, "check_rickart_family", counting)
    report = run_conformance([fx.build_fixture("b3")])
    assert report.total_failures == 0
    assert ("b3[0,a]", "rickart") in calls
    assert max(calls.values()) == 1
    ctx = conformance_mod.LatticeContext(fx.build_fixture("b3"))
    choices = ctx.monoid.pairs
    assert ctx.monoid.pairs is choices
