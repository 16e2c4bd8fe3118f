"""The monoid's first-member index against per-member scans, and the kernel
rule of the annihilator calculus.

A member enters the Rickart, Baer, K/T-nonsingularity, retractability and
rickpix conditions only through its kernel or its image top, and each such
checker names as witness the first member whose kernel or image top fails.
The library reads that member from `EndoMonoid.first_with`. The reference
definitions below keep the scan over every member, and the verdict and
witness JSON must agree on the duality corpus roots, each with its full
monoid and two seeded generated ones. The co-nonsingularity kinds k_co and
t_co are one branch in the library; their reference keeps the two.
"""

import json

import numpy as np
import pytest

from latticelab import conformance as conformance_mod
from latticelab.errors import MissingProjectionsError
from latticelab.lattice import (close_under, complemented_elements, complements_of,
                                essential_superfluous)
from latticelab.monoid import coset_index, full_monoid
from latticelab.properties import (check_nonsingularity, check_retractable,
                                   check_rickart_family, check_rickpix)
from latticelab.verdict import Verdict
from test_duality import ROOTS
from test_pair_index import context_with, monoids


def rickart_family_scan(L, m, kind):
    comp = set(complemented_elements(L))
    if kind == "rickart":
        for phi in m.members:
            if phi.kernel not in comp:
                return Verdict(kind, False, witness={
                    "morphism": phi.as_name_map(),
                    "kernel": L.names[phi.kernel]})
        return Verdict(kind, True)
    if kind == "dual_rickart":
        for phi in m.members:
            if phi.image_top not in comp:
                return Verdict(kind, False, witness={
                    "morphism": phi.as_name_map(),
                    "image": L.names[phi.image_top]})
        return Verdict(kind, True)
    seeds = {}
    for i, phi in enumerate(m.members):
        seeds.setdefault(phi.kernel if kind == "baer" else phi.image_top, (i,))
    closed = close_under(seeds, L.meet_of if kind == "baer" else L.join_of)
    for e in sorted(closed):
        if e not in comp:
            return Verdict(kind, False, witness={
                "element": L.names[e],
                "generators": [m.members[g].as_name_map() for g in closed[e]]})
    return Verdict(kind, True)


def nonsingularity_scan(L, m, kind):
    for phi in m.members:
        if kind == "k":
            if phi.kernel != L.top and essential_superfluous(L, phi.kernel, "essential"):
                return Verdict(kind, False, witness={
                    "morphism": phi.as_name_map(), "kernel": L.names[phi.kernel]})
        elif phi.image_top != L.bottom and essential_superfluous(
                L, phi.image_top, "superfluous"):
            return Verdict(kind, False, witness={
                "morphism": phi.as_name_map(), "image": L.names[phi.image_top]})
    return Verdict(kind, True)


def cononsingularity_branches(L, m, kind):
    """k_co and t_co as two branches, each over the sorted kernels or image
    tops."""
    if kind == "k_co":
        kernels = [k for k in m.kernels if k != L.top]
        for a in range(L.n):
            if not any(L.leq(a, k) for k in kernels):
                if not essential_superfluous(L, a, "essential"):
                    return Verdict(kind, False, witness={"element": L.names[a]})
        return Verdict(kind, True)
    tops = [b for b in m.image_tops if b != L.bottom]
    for a in range(L.n):
        if not any(L.leq(b, a) for b in tops):
            if not essential_superfluous(L, a, "superfluous"):
                return Verdict(kind, False, witness={"element": L.names[a]})
    return Verdict(kind, True)


def retractable_scan(L, m):
    for k in m.kernels:
        for b in L.down_set(k):
            if not any(L.leq(b, img) and L.leq(img, k) for img in m.image_tops):
                phi = next(p for p in m.members if p.kernel == k)
                return Verdict("retractable", False, witness={
                    "morphism": phi.as_name_map(), "kernel": L.names[k],
                    "element": L.names[b]})
    return Verdict("retractable", True)


def rickpix_scan(L, m):
    if not m.has_all_projections:
        raise MissingProjectionsError("rickpix requires a monoid containing all projections")
    lhs = rickart_family_scan(L, m, "rickart").holds
    comp = complemented_elements(L)
    unfactored = {k for k in m.kernels if not any(
        L.meet_of(x, k) == L.bottom and any(L.leq(xp, k) for xp in complements_of(L, x))
        for x in comp)}
    failing = next((phi for phi in m.members if phi.kernel in unfactored), None)
    rhs = failing is None
    witness = None if failing is None else {"morphism": failing.as_name_map()}
    return Verdict("rickpix", lhs == rhs, witness=witness,
                   notes=f"kernel-complement side={lhs}, projection side={rhs}")


def chk_retractable_scan(ctx):
    if ctx.fact("rickart") and not ctx.fact("retractable"):
        return conformance_mod._fail(clause="rickart implies retractable")
    if ctx.fact("retractable"):
        for phi in ctx.monoid.members:
            if not ctx.generated(phi.kernel):
                return conformance_mod._fail(
                    clause="retractable implies kernels generated",
                    morphism=phi.as_name_map())
    return conformance_mod._ok()


def _as_json(route, *args):
    """A verdict as its JSON text, a registry outcome as JSON, or the error
    a route raised, so two routes compare by the bytes they report."""
    try:
        got = route(*args)
    except MissingProjectionsError as exc:
        return f"error: {exc}"
    if isinstance(got, Verdict):
        got = got.to_json_dict()
    return json.dumps(got)


def routes(L, m):
    """(name, library route, scan route, arguments) per checked verdict."""
    for kind in ("rickart", "dual_rickart", "baer", "dual_baer"):
        yield kind, check_rickart_family, rickart_family_scan, (L, m, kind)
    for kind in ("k", "t"):
        yield kind, check_nonsingularity, nonsingularity_scan, (L, m, kind)
    for kind in ("k_co", "t_co"):
        yield kind, check_nonsingularity, cononsingularity_branches, (L, m, kind)
    yield "retractable", check_retractable, retractable_scan, (L, m)
    yield "rickpix", check_rickpix, rickpix_scan, (L, m)
    yield ("chk_retractable", conformance_mod.chk_retractable, chk_retractable_scan,
           (context_with(L, m),))
    # told that the last member's kernel is not generated, the check names a
    # witness whenever m is retractable
    forged = context_with(L, m)
    forged._cache[("generated", m.members[-1].kernel)] = Verdict("generated", False)
    yield ("chk_retractable forged", conformance_mod.chk_retractable,
           chk_retractable_scan, (forged,))


def test_first_member_checkers_match_the_member_scans():
    mismatches, failing, monoid_count = {}, {}, 0
    for i, L in enumerate(ROOTS):
        for j, m in enumerate(monoids(L, i)):
            monoid_count += 1
            for name, library, scan, args in routes(L, m):
                got, want = _as_json(library, *args), _as_json(scan, *args)
                if got != want:
                    mismatches.setdefault((L.name, j), []).append(name)
                failing[name] = failing.get(name, 0) + ('"witness"' in want
                                                        or '"fail"' in want)
    assert monoid_count == 3 * len(ROOTS) == 708
    assert mismatches == {}
    # every route fails somewhere, so the witnesses are compared too
    assert all(failing.values()), failing


def test_first_with_maps_each_value_to_its_first_member(excip):
    m = full_monoid(excip)
    for side, attr in (("kernel", "kernel"), ("image", "image_top")):
        first = m.first_with(side)
        want = {}
        for i, phi in enumerate(m.members):
            want.setdefault(getattr(phi, attr), i)
        assert list(first.items()) == list(want.items())
        assert list(first.values()) == sorted(first.values())
        with pytest.raises(TypeError):
            first[excip.bottom] = 0
    assert m.kernels == tuple(sorted(m.first_with("kernel")))
    assert m.image_tops == tuple(sorted(m.first_with("image")))


def _order(L):
    return np.array([[L.leq(a, b) for b in range(L.n)] for a in range(L.n)])


def _kernel_rule_mismatches(L, m):
    """Where the comp route and the (kernel, image top) rule disagree:
    t o psi = 0 exactly when im psi <= ker t; e m = {psi : im psi <= im e}
    and m e = {psi : ker psi >= ker e} for each idempotent e."""
    le = _order(L)
    ker = np.array([phi.kernel for phi in m.members])
    img = np.array([phi.image_top for phi in m.members])
    bad = []
    if not (m.zero_products == le[img[None, :], ker[:, None]]).all():
        bad.append("zero products")
    idem = list(m.idempotent_indices())
    for side, products, rule in (
            ("right", m.comp[idem, :], le[img[None, :], img[idem][:, None]]),
            ("left", m.comp[:, idem].T, le[ker[idem][:, None], ker[None, :]])):
        masks = np.zeros((len(idem), len(m)), dtype=bool)
        for row, hits in zip(masks, products):
            row[hits] = True
        if not (masks == rule).all():
            bad.append(f"{side} cosets")
        first = {}
        for e, mask in zip(idem, rule):
            first.setdefault(mask.tobytes(), e)
        if coset_index(m, side) != first:
            bad.append(f"{side} coset index")
    return bad


def test_annihilators_follow_the_kernel_rule():
    mismatches = {}
    for i, L in enumerate(ROOTS):
        for j, m in enumerate(monoids(L, i)):
            if bad := _kernel_rule_mismatches(L, m):
                mismatches[(L.name, j)] = bad
    assert mismatches == {}
