"""Lattice-level property checkers.

Every checker returns a Verdict: the boolean, a witness (failing instance for
a refuted universal statement, certificate for an established existential
one), and occasionally explanatory notes. Checkers are pure functions of
immutable inputs.
"""

from __future__ import annotations

import itertools

from .errors import MissingProjectionsError
from .lattice import (
    Lattice,
    _bits,
    close_under,
    complemented_elements,
    complements_of,
    interval,
    is_boolean,
    is_modular,
)
from .monoid import EndoMonoid
from .morphisms import LinearMorphism, _linmor_tables
from .verdict import Verdict

# the kernel/image complement kinds of `check_rickart_family`
RICKART_KINDS = ("rickart", "baer", "dual_rickart", "dual_baer")

# the properties `check_property` decides, in the order `analyze --props all`
# prints them, and those of them that read no monoid
PROPERTY_NAMES = (
    "modular", "boolean", *RICKART_KINDS,
    "cip", "scip", "csp", "scsp", "c1", "d1", "mc2", "md2",
    "k", "t", "k_co", "t_co", "retractable", "rickpix",
)
NO_MONOID = frozenset(("modular", "boolean", "cip", "scip", "csp", "scsp", "c1", "d1"))


def check_rickart_family(L: Lattice, m: EndoMonoid, kind: str) -> Verdict:
    """kernel/image complement conditions.

    rickart: every member's kernel is complemented; baer: every meet of
    member kernels is (realized as the meet closure, which covers all
    subsets); dual variants use image tops and join closures. The witness
    member is the first one with the failing kernel or image top.
    """
    if kind not in RICKART_KINDS:
        raise ValueError(f"unknown kind: {kind!r}")
    comp = set(complemented_elements(L))
    side = "image" if kind.startswith("dual") else "kernel"
    first = m.first_with(side)
    if kind.endswith("rickart"):
        for e, i in first.items():
            if e not in comp:
                return Verdict(kind, False, witness={
                    "morphism": m[i].as_name_map(), side: L.names[e]})
        return Verdict(kind, True)
    # seeded in member order, not sorted: the order fixes which generators
    # a witness lists
    closed = close_under({e: (i,) for e, i in first.items()},
                         L.meet_of if side == "kernel" else L.join_of)
    for e in sorted(closed):
        if e not in comp:
            return Verdict(kind, False, witness={
                "element": L.names[e],
                "generators": [m[g].as_name_map() for g in closed[e]]})
    return Verdict(kind, True)


def check_summand_property(L: Lattice, kind: str) -> Verdict:
    """Complement intersection/supremum properties.

    On a finite lattice the finite and arbitrary-family versions coincide,
    and closing under pairwise meets (joins) decides both.
    """
    kind = kind.lower()
    if kind not in ("cip", "scip", "csp", "scsp"):
        raise ValueError(f"unknown kind: {kind!r}")
    comp = complemented_elements(L)
    comp_set = set(comp)
    op = L.meet_of if kind in ("cip", "scip") else L.join_of
    for x, y in itertools.combinations(comp, 2):
        z = op(x, y)
        if z not in comp_set:
            return Verdict(kind, False, witness={
                "pair": [L.names[x], L.names[y]], "result": L.names[z]})
    note = "finite lattice: finite and arbitrary families coincide"
    return Verdict(kind, True, notes=note)


def check_condition(L: Lattice, m: EndoMonoid | None, kind: str) -> Verdict:
    """C1/D1 (complement approximation) and the monoid-relative C2/D2.

    C1: every x is essential in [bottom, c] for some complemented c.
    D1: every x has complemented c <= x with x ^ c' superfluous.
    mD2: an iso [a, top] -> [bottom, x] with x complemented whose composite
    through the quotient and inclusion lies in the monoid forces a to be
    complemented. mC2: dually, an iso [bottom, x] -> [bottom, a] from a
    complemented x whose composite through the projection lies in the monoid
    forces a to be complemented (every complement x' of x may witness).
    Both composites are the linear maps with kernel a and image top x (mD2),
    or kernel x' and image top a (mC2), so both read `m.pairs`.

    C1 and D1 read `L.bound_masks`: x is essential in [bottom, c] when
    zero_meets[x] & down(c) is the bottom's bit alone, and x ^ c' is
    superfluous when top_joins of it is the top's bit alone. Candidates c
    are tried in id order and, for D1, every complement c' of each c in
    turn, so the certificates are the first found by the element scans of
    `essential_superfluous`.
    """
    kind = kind.lower()
    comp = complemented_elements(L)
    if kind in ("c1", "d1"):
        zero_meets, top_joins = L.bound_masks
        comp_mask = sum(1 << c for c in comp)
        bottom_bit, top_bit = 1 << L.bottom, 1 << L.top
        certs = {}
        for x in range(L.n):
            if kind == "c1":
                found = next((L.names[c] for c in _bits(L.up_mask(x) & comp_mask)
                              if zero_meets[x] & L.down_mask(c) == bottom_bit), None)
            else:
                found = next(([L.names[c], L.names[cp]]
                              for c in _bits(L.down_mask(x) & comp_mask)
                              for cp in _bits(zero_meets[c] & top_joins[c])
                              if top_joins[L.meet_of(x, cp)] == top_bit), None)
            if found is None:
                return Verdict(kind, False, witness={"element": L.names[x]})
            certs[L.names[x]] = found
        return Verdict(kind, True, witness={"certificates": certs})
    if m is None:
        raise ValueError("mC2/mD2 need a monoid")
    comp_set = set(comp)
    if kind == "md2":
        # such a composite lies in m exactly when a member has kernel a and
        # image top x; on [a, top] it is its theta, so the first on those
        # columns is the first in iso order
        for a, tops in m.pairs.items():
            x = next((x for x in tops if x in comp_set), None)
            if a in comp_set or x is None:
                continue
            phi = m[m.first_in_class(a, x, interval(L, a, L.top).members)]
            return Verdict(kind, False, witness={
                "a": L.names[a], "x": L.names[x], "composite": phi.as_name_map()})
        return Verdict(kind, True)
    if kind == "mc2":
        # z -> theta((z v x') ^ x) has kernel x' and image top a, and a
        # member phi with those is such a composite, theta(u) = phi(u v x'),
        # since ((z v x') ^ x) v x' = z v x' by modularity; on [bottom, x]
        # it is theta, so the first on those columns is the first in iso order
        for x in comp:
            for xp in complements_of(L, x):
                a = next((a for a in m.pairs.get(xp, ()) if a not in comp_set), None)
                if a is None:
                    continue
                phi = m[m.first_in_class(xp, a, interval(L, L.bottom, x).members)]
                return Verdict(kind, False, witness={
                    "a": L.names[a], "x": L.names[x], "x_prime": L.names[xp],
                    "composite": phi.as_name_map()})
        return Verdict(kind, True)
    raise ValueError(f"unknown kind: {kind!r}")


def check_nonsingularity(L: Lattice, m: EndoMonoid, kind: str) -> Verdict:
    """Vanishing conditions tying essential kernels and superfluous images to
    the zero morphism, plus their converses.

    a is essential exactly when zero_meets[a] (of `L.bound_masks`) is the
    bottom's bit alone, and superfluous exactly when top_joins[a] is the
    top's bit alone."""
    kind = kind.lower()
    if kind not in ("k", "t", "k_co", "t_co"):
        raise ValueError(f"unknown kind: {kind!r}")
    zero_meets, top_joins = L.bound_masks
    # phi is nonzero exactly when ker phi != top, that is, when
    # phi(top) != bottom; and phi(a) = bottom exactly when a <= ker phi
    side, trivial, masks, alone = (
        ("kernel", L.top, zero_meets, 1 << L.bottom) if kind[0] == "k"
        else ("image", L.bottom, top_joins, 1 << L.top))
    first = m.first_with(side)
    if kind in ("k", "t"):
        for e, i in first.items():
            if e != trivial and masks[e] == alone:
                return Verdict(kind, False, witness={
                    "morphism": m[i].as_name_map(), side: L.names[e]})
        return Verdict(kind, True)
    # k_co: an a below no nonzero member's kernel must be essential;
    # t_co: an a above no nonzero member's image top must be superfluous
    reach = L.down_mask if side == "kernel" else L.up_mask
    covered = 0
    for e in first:
        if e != trivial:
            covered |= reach(e)
    for a in range(L.n):
        if not covered >> a & 1 and masks[a] != alone:
            return Verdict(kind, False, witness={"element": L.names[a]})
    return Verdict(kind, True)


def check_retractable(L: Lattice, m: EndoMonoid) -> Verdict:
    """Local retractability toward kernels: every b below a member kernel is
    covered by some member image inside that kernel.

    The elements below some image top inside k are the union of those image
    tops' down-sets, so the witness, the first b in id order that is not
    covered, is the lowest bit of down(k) outside that union."""
    tops = sum(1 << img for img in m.image_tops)
    for k in m.kernels:
        below = L.down_mask(k)
        covered = 0
        for img in _bits(tops & below):
            covered |= L.down_mask(img)
        uncovered = below & ~covered
        if uncovered:
            b = (uncovered & -uncovered).bit_length() - 1
            phi = m[m.first_with("kernel")[k]]
            return Verdict("retractable", False, witness={
                "morphism": phi.as_name_map(), "kernel": L.names[k],
                "element": L.names[b]})
    return Verdict("retractable", True)


def check_generation(L: Lattice, m: EndoMonoid, x: int, kind: str) -> Verdict:
    """x generated: x is the join of member images below it; cogenerated:
    x is the meet of member kernels above it."""
    kind = kind.lower()
    if kind == "generated":
        got = L.join_all(e for e in m.image_tops if L.leq(e, x))
    elif kind == "cogenerated":
        got = L.meet_all(e for e in m.kernels if L.leq(x, e))
    else:
        raise ValueError(f"unknown kind: {kind!r}")
    return Verdict(kind, got == x,
                   witness={"element": L.names[x], "reached": L.names[got]})


def check_cross_rickart(L: Lattice, M: Lattice) -> Verdict:
    """Kernels of every linear morphism L -> M are complemented in L. Only
    the kernel array of Hom(L, M) is read; the witness, the first failing
    map in table order, is the one morphism built."""
    comp = set(complemented_elements(L))
    tables, kernels = _linmor_tables(L, M)
    for i, k in enumerate(kernels.tolist()):
        if k not in comp:
            phi = LinearMorphism(L, M, tuple(tables[i].tolist()), k, int(tables[i, L.top]))
            return Verdict("cross_rickart", False, witness={
                "morphism": phi.as_name_map(), "kernel": L.names[k]})
    return Verdict("cross_rickart", True)


def check_rickpix(L: Lattice, m: EndoMonoid) -> Verdict:
    """Equivalence check: the kernel-complement condition versus projection
    factorization (each member phi equals phi o pi_x for some complemented x
    meeting the kernel trivially). Holds when the two sides agree.

    On a modular lattice phi o pi equals phi exactly when ker pi <= ker phi,
    so the projection side is one lattice test per distinct kernel k: some
    complemented x has x ^ k = bottom and a complement x' <= k. That holds
    exactly when k is complemented, since k = x' v (x ^ k) = x' by the
    modular law, so the two sides always agree: the check pins only that
    `check_rickart_family` and the per-kernel test do. The complements of x
    are the bits of zero_meets[x] & top_joins[x] (`L.bound_masks`), so the
    test on k asks whether one of them lies in down(k) for some x in
    zero_meets[k].
    """
    if not m.has_all_projections:
        raise MissingProjectionsError(
            "rickpix requires a monoid containing all projections")
    lhs = check_rickart_family(L, m, "rickart").holds
    zero_meets, top_joins = L.bound_masks
    unfactored = {k for k in m.kernels if not any(
        zero_meets[x] & top_joins[x] & L.down_mask(k) for x in _bits(zero_meets[k]))}
    failing = next((i for k, i in m.first_with("kernel").items() if k in unfactored), None)
    rhs = failing is None
    witness = None if rhs else {"morphism": m[failing].as_name_map()}
    return Verdict("rickpix", lhs == rhs, witness=witness,
                   notes=f"kernel-complement side={lhs}, projection side={rhs}")


def check_property(L: Lattice, m: EndoMonoid | None, name: str) -> Verdict:
    """The verdict on the property `name` of PROPERTY_NAMES for L with the
    monoid m, which the names in NO_MONOID do not read. Each checker is
    called by its module-level name, so rebinding that name reaches it."""
    if name == "modular":
        return is_modular(L)
    if name == "boolean":
        return is_boolean(L)
    if name in RICKART_KINDS:
        return check_rickart_family(L, m, name)
    if name in ("cip", "scip", "csp", "scsp"):
        return check_summand_property(L, name)
    if name in ("c1", "d1", "mc2", "md2"):
        return check_condition(L, m, name)
    if name in ("k", "t", "k_co", "t_co"):
        return check_nonsingularity(L, m, name)
    if name == "retractable":
        return check_retractable(L, m)
    if name == "rickpix":
        return check_rickpix(L, m)
    raise ValueError(f"unknown property: {name!r}")
