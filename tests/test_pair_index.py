"""The monoid's (kernel, image top) index against interval-isomorphism scans.

A linear map with kernel a and image top b is the quotient onto [a, top]
followed by an interval isomorphism onto [bottom, b]. So mD2, mC2, the ricd2
image clause and the booluniqb choices, which ask whether some such
composite lies in the monoid, read the index instead of searching isos.
The reference definitions below keep the search. The library must agree
with them on the duality corpus, for the full monoid and for seeded
generated monoids with and without projections. Monoids live on modular
lattices only: on random non-modular lattices every monoid builder refuses.
"""

import random

import numpy as np
import pytest

from latticelab import conformance as conformance_mod
from latticelab.conformance import LatticeContext, chk_ricd2, random_corpus
from latticelab.errors import NotModularError, SizeLimitExceededError
from latticelab.lattice import (build_lattice, close_under, complemented_elements,
                                complements_of, essential_superfluous, interval,
                                is_modular)
from latticelab.monoid import explicit_monoid, full_monoid, generated_monoid
from latticelab.morphisms import (_iso_tables, enumerate_interval_isos, enumerate_linmors,
                                  identity_morphism, zero_morphism)
from latticelab.properties import check_condition, check_nonsingularity
from latticelab.verdict import Verdict
from test_duality import LATTICES


def iso_composites(src, dst, pre) -> list[tuple[int, ...]]:
    """The tables x -> theta(pre[x]) for each iso theta: src -> dst, in
    `enumerate_interval_isos` order, read off in parent ids by one gather.
    `pre` lists, for each x, a parent element inside src."""
    row = [src.from_parent[p] for p in pre]
    gathered = np.array(dst.members)[_iso_tables(src, dst)[:, row]]
    return list(map(tuple, gathered.tolist()))


def quotient_composites(L, a, b):
    """The tables y -> theta(y v a) for every iso theta: [a, top] -> [bottom, b]."""
    return iso_composites(interval(L, a, L.top), interval(L, L.bottom, b),
                          (L.join_of(y, a) for y in range(L.n)))


def member(m, table):
    return m.find([table])[0] >= 0


def md2_scan(L, m):
    comp = complemented_elements(L)
    for a in range(L.n):
        if a in comp:
            continue
        for x in comp:
            for table in quotient_composites(L, a, x):
                if member(m, table):
                    return Verdict("md2", False, witness={
                        "a": L.names[a], "x": L.names[x],
                        "composite": {L.names[i]: L.names[v]
                                      for i, v in enumerate(table)}})
    return Verdict("md2", True)


def mc2_scan(L, m):
    """Every complemented x, complement x' and non-complemented a, and every
    iso [bottom, x] -> [bottom, a] composed after z -> (z v x') ^ x."""
    comp = complemented_elements(L)
    for x in comp:
        for xp in complements_of(L, x):
            for a in range(L.n):
                if a in comp:
                    continue
                for table in iso_composites(
                        interval(L, L.bottom, x), interval(L, L.bottom, a),
                        (L.meet_of(L.join_of(z, xp), x) for z in range(L.n))):
                    if member(m, table):
                        return Verdict("mc2", False, witness={
                            "a": L.names[a], "x": L.names[x],
                            "x_prime": L.names[xp],
                            "composite": {L.names[i]: L.names[v]
                                          for i, v in enumerate(table)}})
    return Verdict("mc2", True)


def choices_scan(L, m):
    return {a: tuple(b for b in range(L.n) if any(
        member(m, t) for t in quotient_composites(L, a, b)))
        for a in range(L.n)}


def image_clause_scan(L, m):
    """Each member followed by some iso [bottom, phi(top)] -> [bottom, x],
    x complemented, lands in the monoid."""
    targets = [interval(L, L.bottom, x) for x in complemented_elements(L)]
    isos = {}  # image top -> its views and isos onto the targets
    for phi in m.members:
        if phi.image_top not in isos:
            vi = interval(L, L.bottom, phi.image_top)
            isos[phi.image_top] = [(vi, vx, iso) for vx in targets
                                   for iso in enumerate_interval_isos(vi, vx)]
        if not any(member(m, tuple(vx.members[iso.forward[vi.from_parent[v]]]
                                   for v in phi.map))
                   for vi, vx, iso in isos[phi.image_top]):
            return False
    return True


def cononsingular_scan(L, m, kind):
    zero = m.members[m.zero_idx]
    nonzero = [phi for phi in m.members if phi.map != zero.map]
    for a in range(L.n):
        if kind == "k_co":
            free = all(phi.map[a] != L.bottom for phi in nonzero)
            if free and not essential_superfluous(L, a, "essential"):
                return False
        else:
            free = all(not L.leq(phi.image_top, a) for phi in nonzero)
            if free and not essential_superfluous(L, a, "superfluous"):
                return False
    return True


def scan_mismatches(L, m):
    """The kinds whose library verdict differs from the scan on any lattice."""
    bad = [kind for kind in ("k_co", "t_co")
           if check_nonsingularity(L, m, kind).holds != cononsingular_scan(L, m, kind)]
    if check_condition(L, m, "md2") != md2_scan(L, m):
        bad.append("md2")
    if check_condition(L, m, "mc2") != mc2_scan(L, m):
        bad.append("mc2")
    return bad


def monoids(L, seed):
    """The full monoid and two seeded generated ones, one with projections."""
    full = full_monoid(L)
    yield full
    rng = random.Random(seed)
    for with_projections in (False, True):
        gens = rng.sample(full.members, min(2, len(full)))
        yield generated_monoid(L, gens, with_projections)


def context_with(L, m):
    ctx = LatticeContext(L)
    ctx._cache["monoid"] = m
    return ctx


def pair_mismatches(L, m):
    """scan_mismatches plus the registry's readers of the index."""
    bad = scan_mismatches(L, m)
    md2 = md2_scan(L, m)
    ctx = context_with(L, m)
    choices = {a: ctx.monoid.pairs.get(a, ()) for a in range(L.n)}
    if choices != choices_scan(L, m):
        bad.append("choices")
    clause = image_clause_scan(L, m)
    if clause != all(any(x in ctx.comp_set for x in choices[k]) for k in m.kernels):
        bad.append("image clause")
    want = conformance_mod._ok() if ctx.fact("rickart") == (md2.holds and clause) else \
        conformance_mod._fail(rickart=ctx.fact("rickart"), md2=md2.holds,
                              image_iso_clause=clause)
    if chk_ricd2(ctx) != want:
        bad.append("ricd2")
    return bad


def test_pair_index_matches_the_iso_scans_on_the_duality_corpus():
    mismatches = {}
    for i, L in enumerate(LATTICES):
        for j, m in enumerate(monoids(L, i)):
            if bad := pair_mismatches(L, m):
                mismatches[(L.name, j)] = bad
    assert mismatches == {}


def random_lattice(rng, name, points=4):
    """The intersection closure of a few random subsets of a `points`-set,
    with the whole set, ordered by inclusion: every finite lattice arises
    this way."""
    sets = {(1 << points) - 1} | {rng.getrandbits(points)
                                  for _ in range(rng.randint(2, points + 2))}
    closed = sorted(close_under(dict.fromkeys(sets, ()), lambda s, t: s & t),
                    key=lambda s: (bin(s).count("1"), s))
    names = [f"s{s}" for s in closed]

    def below(s, t):
        return s != t and s & t == s
    covers = [(f"s{s}", f"s{t}") for s in closed for t in closed
              if below(s, t) and not any(below(s, u) and below(u, t) for u in closed)]
    return build_lattice(names, covers, name=name)


def non_modular_lattices(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        L = random_lattice(rng, f"nm{seed}_{len(out)}")
        if not is_modular(L).holds:
            out.append(L)
    return out


def test_full_monoids_on_the_duality_corpus_are_closed():
    for L in LATTICES:
        m = full_monoid(L)
        if len(m) <= LatticeContext.COMP_CAP:
            assert m.comp.shape == (len(m), len(m)), L.name


def test_non_modular_lattices_have_no_monoid():
    """Whatever the generators or members, every builder refuses."""
    rng = random.Random(11)
    for L in non_modular_lattices(400, 11):
        gens = rng.sample(enumerate_linmors(L), 2)
        builders = [lambda: full_monoid(L),
                    lambda: explicit_monoid(L, [identity_morphism(L), zero_morphism(L)])]
        builders += [lambda w=w: generated_monoid(L, gens, w) for w in (False, True)]
        for build in builders:
            with pytest.raises(NotModularError, match=f"{L.name} is not modular: "):
                build()


def capped_monoids(L, seed):
    """`monoids`, up to the first generated one over MAX_GENERATED_MEMBERS;
    the one with projections holds the one without."""
    try:
        yield from monoids(L, seed)
    except SizeLimitExceededError:
        pass


def first_member_composite(m, src, dst, pre):
    """The first `iso_composites` table that `find` locates in m: the old
    route to the mD2 and mC2 witnesses."""
    tables = iso_composites(src, dst, pre)
    return next(t for t, i in zip(tables, m.find(tables)) if i >= 0)


def test_first_in_class_is_the_first_composite_in_iso_order():
    """Every (kernel, image top) class of End(L) in the mD2 form, columns
    [k, top], and every class (x', a) with a in pairs[x'] in the mC2 form,
    columns [bottom, x], for the full and the seeded generated monoids, on
    the duality corpus and random_corpus(60, 10, 5): `first_in_class` names
    the first composite in iso order that is a member. On some classes that
    is not the class's first member in member order."""
    counts = {"md2": 0, "mc2": 0, "not first in member order": 0}

    def agree(m, kernel, image_top, src, dst, pre):
        i = m.first_in_class(kernel, image_top, src.members)
        want = first_member_composite(m, src, dst, pre)
        assert tuple(m.tables[i].tolist()) == want, (L.name, kernel, image_top)
        rows = (m.member_kernels == kernel) & (m.member_image_tops == image_top)
        counts["not first in member order"] += i != rows.argmax()

    for seed, L in enumerate(LATTICES + random_corpus(60, 10, 5)):
        for j, m in enumerate(capped_monoids(L, seed)):
            if j == 0:
                for k, tops in m.pairs.items():
                    up = interval(L, k, L.top)
                    for a in tops:
                        agree(m, k, a, up, interval(L, L.bottom, a),
                              [L.join_of(y, k) for y in range(L.n)])
                        counts["md2"] += 1
            for x in complemented_elements(L):
                for xp in complements_of(L, x):
                    for a in m.pairs.get(xp, ()):
                        agree(m, xp, a, interval(L, L.bottom, x), interval(L, L.bottom, a),
                              [L.meet_of(L.join_of(z, xp), x) for z in range(L.n)])
                        counts["mc2"] += 1
    assert counts == {"md2": 6050, "mc2": 16800, "not first in member order": 2}
