"""Executable conformance registry.

Every registered check encodes one established fact about finite modular
lattices, their linear endomorphisms, and the associated monoids; the
harness evaluates all of them over a corpus of fixture and randomly
generated lattices. A failure is an implementation bug and is reported with
a serialized reproduction. Checks with hypotheses are guarded implications:
when the hypothesis does not hold on a lattice the check counts as skipped.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ConsistencyError,
    GiveUpError,
    LatticeLabError,
    LinearValidationError,
    NotALatticeError,
    NotAPosetError,
)
from .lattice import (
    Lattice,
    ProductLattice,
    build_lattice,
    close_under,
    complemented_elements,
    complements_of,
    decompose,
    direct_product,
    interval,
    is_boolean,
    is_modular,
    lattice_to_json,
    opposite,
    socle_radical,
)
from .monoid import (_BLOCK_BYTES, EndoMonoid, full_monoid, monoid_predicate,
                     principal_idempotents)
from .morphisms import (
    LinearMorphism,
    _linmor_tables,
    compose,
    fully_invariant_elements,
    projection,
    table_verdicts,
    validate_linear,
)
from .properties import (
    check_cross_rickart,
    check_generation,
    check_property,
    check_rickart_family,
    check_rickpix,
    check_summand_property,
)

PASS, FAIL, SKIP = "pass", "fail", "skip"

# pair checks run on corpus pairs whose product has at most this many
# elements, for each small lattice against itself and at most MAX_PAIRS
# consecutive pairs
PAIR_PRODUCT_CAP = 16
MAX_PAIRS = 12

# candidates random_modular_lattice rejects before it gives up
MAX_TRIES = 400


# -- random corpus ------------------------------------------------------------


def random_modular_lattice(seed: int, max_size: int, name: str | None = None) -> Lattice:
    """A reproducible random modular lattice with at most max_size elements.

    Generation: a random chain, extra elements anchored between random chain
    levels, plus a few random cover insertions; candidates failing the
    lattice or modularity tests are rejected and regenerated. The resulting
    distribution is not uniform.
    """
    if max_size < 1:
        raise ValueError("max_size must be positive")
    rng = random.Random(seed)
    tag = name if name is not None else f"r{seed}"
    width = len(str(max_size - 1)) if max_size > 1 else 1
    tries = 0
    while tries < MAX_TRIES:
        # bias toward the upper size range; small lattices are over-accepted
        # otherwise because they rarely fail the lattice test
        n = max(rng.randint(1, max_size), rng.randint(1, max_size))
        names = [f"x{i:0{width}d}" for i in range(n)]
        if n == 1:
            return build_lattice(names, [], name=tag)
        for _attempt in range(12):
            tries += 1
            chain_len = rng.randint(2, n)
            covers = [(names[i], names[i + 1]) for i in range(chain_len - 1)]
            for e in range(chain_len, n):
                i = rng.randrange(chain_len - 1)
                j = rng.randrange(i + 1, chain_len)
                covers.append((names[i], names[e]))
                covers.append((names[e], names[j]))
            for _extra in range(rng.randint(0, n // 2)):
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u != v:
                    covers.append((names[u], names[v]))
            try:
                cand = build_lattice(names, covers, name=tag)
            except (NotAPosetError, NotALatticeError):
                continue
            if is_modular(cand).holds:
                return cand
    raise GiveUpError(f"no modular lattice found for seed {seed} "
                      f"within {MAX_TRIES} attempts")


def random_corpus(count: int, max_size: int, seed: int) -> list[Lattice]:
    """`count` lattices with per-lattice seeds derived from one master seed."""
    if count < 0:
        raise ValueError("the number of random lattices must not be negative")
    rng = random.Random(seed)
    return [random_modular_lattice(rng.getrandbits(32), max_size,
                                   name=f"r{seed}_{i}")
            for i in range(count)]


# -- per-lattice context -------------------------------------------------------


class LatticeContext:
    """Lazily computed, cached data for one corpus lattice and its full monoid."""

    # above this member count, annihilator checks (quadratic in the monoid)
    # are skipped rather than materializing a gigantic composition table
    COMP_CAP = 6000
    # independent families are enumerated only up to this lattice size
    FAMILY_CAP = 12

    def __init__(self, L: Lattice):
        self.L = L
        self._cache: dict[object, object] = {}

    def _get(self, key, build: Callable):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def monoid(self) -> EndoMonoid:
        return self._get("monoid", lambda: full_monoid(self.L))

    @property
    def end_verdicts(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of End(L), `monoid.tables`, certified in one batch: a
        mask of the rows `validate_linear` rejects, and the kernel each row
        certifies with."""
        return self._get("end_verdicts", lambda: table_verdicts(
            self.L, self.L, self.monoid.tables))

    @property
    def comp(self) -> tuple[int, ...]:
        return self._get("comp", lambda: complemented_elements(self.L))

    @property
    def comp_set(self) -> set[int]:
        return self._get("comp_set", lambda: set(self.comp))

    def product_with(self, other: LatticeContext) -> ProductLattice:
        """The direct product of this lattice and other's, built once per pair."""
        return self._get(("product", other), lambda: direct_product([self.L, other.L]))

    def fact(self, name: str) -> bool:
        """Whether L has the property `name` of `check_property`, read with
        the full monoid even where the checker needs none, so a lattice
        whose End(L) is over the size cap decides no fact."""
        return self._get(("fact", name), lambda: check_property(
            self.L, self.monoid, name).holds)

    @property
    def fully_invariant(self) -> tuple[int, ...]:
        return self._get("fi", lambda: fully_invariant_elements(
            self.L, self.monoid.tables))

    @property
    def families(self) -> list[tuple[int, ...]] | None:
        """All independent families of nonzero elements joining to the top,
        or None when the lattice is too large to enumerate them."""
        def build():
            L = self.L
            if L.n > self.FAMILY_CAP:
                return None
            elems = [x for x in range(L.n) if x != L.bottom]
            fams = []
            for r in range(1, len(elems) + 1):
                for fam in itertools.combinations(elems, r):
                    if L.join_all(fam) != L.top:
                        continue
                    if all(L.meet_of(a, L.join_all(b for b in fam if b != a))
                           == L.bottom for a in fam):
                        fams.append(fam)
            return fams
        return self._get("families", build)

    @property
    def decomposition(self):
        return self._get("decomp", lambda: decompose(self.L))

    def monoid_pred(self, kind: str) -> bool:
        return self._get(f"mp_{kind}",
                         lambda: monoid_predicate(self.monoid, kind)).holds

    @property
    def comp_feasible(self) -> bool:
        return len(self.monoid) <= self.COMP_CAP

    def generated(self, x: int) -> bool:
        return self._get(("generated", x), lambda: check_generation(
            self.L, self.monoid, x, "generated")).holds

    @property
    def op(self) -> LatticeContext:
        """The context of the opposite lattice, whose primal facts are this
        lattice's dual facts. It is this context itself when the opposite's
        canonical order gives the same tables, as for chains and the M_n and
        B_n fixtures, so those pay for no second monoid. That case is cached
        as None, not as a reference from the context to itself, so the
        context and its monoid arrays are freed as soon as they are
        unreferenced, not at the next cyclic garbage collection."""
        def build():
            op = opposite(self.L)
            return None if op.structure_key == self.L.structure_key else LatticeContext(op)
        return self._get("op", build) or self

    def interval_family_prop(self, hi: int, kind: str) -> bool:
        """The Rickart-type property `kind` of [bottom, hi] with its full
        monoid. [bottom, top] is L itself, so the top reads `fact`.
        The monoid of [bottom, hi] is built once and shared by the kinds."""
        if hi == self.L.top:
            return self.fact(kind)

        def build():
            sub = interval(self.L, self.L.bottom, hi).as_lattice
            m = self._get(("interval_monoid", hi), lambda: full_monoid(sub))
            return check_rickart_family(sub, m, kind).holds
        return self._get(("interval_family", hi, kind), build)


def _family_projections(L: Lattice, fam) -> list[LinearMorphism]:
    """For each a of an independent family joining to the top, the
    projection onto a along the join of the rest, a complement of a."""
    return [projection(L, a, L.join_all(b for b in fam if b != a)) for a in fam]


# -- check implementations -----------------------------------------------------
# Each returns (status, detail) where detail is JSON-friendly.


def _ok() -> tuple[str, None]:
    return PASS, None


def _fail(**detail):
    return FAIL, detail


def _skip(reason: str):
    return SKIP, {"reason": reason}


def _on_op(check):
    """The dual of a lattice check: the check itself on the opposite lattice."""
    return lambda ctx: check(ctx.op)


def chk_riccipssp(ctx: LatticeContext):
    hit = False
    if ctx.fact("rickart"):
        hit = True
        if not ctx.fact("cip"):
            return _fail(side="cip")
    if ctx.op.fact("rickart"):
        hit = True
        if not ctx.fact("csp"):
            return _fail(side="csp")
    return _ok() if hit else _skip("neither kernel nor image condition holds")


def chk_baerricscip(ctx):
    if (ctx.fact("rickart") and ctx.fact("scip")) != ctx.fact("baer"):
        return _fail(side="kernel", rickart=ctx.fact("rickart"),
                     scip=ctx.fact("scip"), baer=ctx.fact("baer"))
    if (ctx.op.fact("rickart") and ctx.fact("scsp")) != ctx.op.fact("baer"):
        return _fail(side="image", dual_rickart=ctx.op.fact("rickart"),
                     scsp=ctx.fact("scsp"), dual_baer=ctx.op.fact("baer"))
    return _ok()


def chk_ricendoric(ctx):
    if not ctx.comp_feasible:
        return _skip("monoid too large for annihilator calculus")
    a = ctx.fact("rickart")
    rr = ctx.monoid_pred("right_rickart")
    b = rr and ctx.fact("retractable")
    c = rr and all(ctx.generated(k) for k in ctx.monoid.kernels)
    if not (a == b == c):
        return _fail(rickart=a, monoid_and_retractable=b, monoid_and_generated=c)
    return _ok()


def chk_baercar(ctx):
    if not ctx.comp_feasible:
        return _skip("monoid too large for annihilator calculus")
    L, m = ctx.L, ctx.monoid
    a_side = ctx.fact("baer")
    # row a: the members sending a to bottom, which must form some m*e
    b_side = None not in principal_idempotents(m, "left", (m.tables == L.bottom).T)
    # the zero member's kernel is the top, the meet of the empty family
    closure = close_under(dict.fromkeys(m.kernels, ()), L.meet_of)
    c_side = (ctx.monoid_pred("right_baer")
              and all(ctx.generated(e) for e in sorted(closure)))
    if not (a_side == b_side == c_side):
        return _fail(baer=a_side, pointwise_annihilators=b_side,
                     monoid_and_generated=c_side)
    return _ok()


def chk_ricd2(ctx):
    a_side = ctx.fact("rickart")
    # an iso [bottom, phi(top)] -> [bottom, x] after phi lands in the monoid
    # exactly when some member shares phi's kernel and has image top x
    second = all(any(x in ctx.comp_set for x in tops)
                 for tops in ctx.monoid.pairs.values())
    b_side = ctx.fact("md2") and second
    return _ok() if a_side == b_side else _fail(
        rickart=a_side, md2=ctx.fact("md2"), image_iso_clause=second)


def chk_kercompkergenann(ctx):
    if not ctx.comp_feasible:
        return _skip("monoid too large for annihilator calculus")
    m = ctx.monoid
    principal = principal_idempotents(m, "right", m.zero_products)
    for i, (k, eps) in enumerate(zip(m.member_kernels.tolist(), principal)):
        lhs = k in ctx.comp_set
        rhs = ctx.generated(k) and eps is not None
        if lhs != rhs:
            return _fail(morphism=m[i].as_name_map(), kernel_complemented=lhs,
                         generated_and_principal=rhs)
    return _ok()


def chk_baercarK(ctx):
    lhs = ctx.fact("k") and ctx.fact("c1")
    rhs = ctx.fact("baer") and ctx.fact("k_co")
    return _ok() if lhs == rhs else _fail(
        k_nonsingular=ctx.fact("k"), c1=ctx.fact("c1"),
        baer=ctx.fact("baer"), k_cononsingular=ctx.fact("k_co"))


def chk_acc_rickart_eq_baer(ctx):
    if ctx.fact("rickart") != ctx.fact("baer"):
        return _fail(rickart=ctx.fact("rickart"), baer=ctx.fact("baer"))
    if ctx.op.fact("rickart") != ctx.op.fact("baer"):
        return _fail(dual_rickart=ctx.op.fact("rickart"),
                     dual_baer=ctx.op.fact("baer"))
    return _ok()


def _composite_tables(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """[o, i]: the table of outer[o] after inner[i], for every pair, as one
    gather. The values of `inner` index the columns of `outer`."""
    return outer[:, inner]


def _certified_kernels(ctx: LatticeContext, tables: np.ndarray) -> np.ndarray:
    """The kernel each row of `tables`, a map table of ctx.L, certifies
    with, or -1 where it is rejected. On a modular lattice a composite of
    linear maps is linear, so the composites the checks build are rows of
    End(L), found by `EndoMonoid.find`: they read the context's batch
    verdicts. A row that is not found is certified on its own by
    `validate_linear`, so no verdict rests on End(L) being complete."""
    L = ctx.L
    rejected, kernels = ctx.end_verdicts
    rows = ctx.monoid.find(tables)
    got = np.where(rejected[rows], -1, kernels[rows])
    for i in np.flatnonzero(rows < 0).tolist():
        try:
            got[i] = validate_linear(L, L, tables[i].tolist()).kernel
        except LinearValidationError:
            got[i] = -1
    return got


def _raise_rejection(L: Lattice, table) -> None:
    """Raise the error `validate_linear` gives for a table the batch
    rejected; if it certifies there, the two certifiers disagree."""
    validate_linear(L, L, table)
    raise ConsistencyError("a table rejected in the batch certifies by validate_linear")


def chk_kerpi(ctx):
    """ker(pi_y pi_x) = (x ^ y') v x' for every pair of projections, each
    along every complement. The composites are one gather over the
    projection tables, and their kernels are read from the batch verdicts;
    the witness is the first failure in order of x, x', y, y'."""
    L = ctx.L
    _, join, meet = L.tables_np
    pairs = [(x, xp) for x in ctx.comp for xp in complements_of(L, x)]
    pis = np.array([projection(L, x, xp).map for x, xp in pairs], dtype=np.intp)
    # tables[i, j]: pi_j after pi_i
    tables = _composite_tables(pis, pis).swapaxes(0, 1).reshape(-1, L.n)
    got = _certified_kernels(ctx, tables).reshape(len(pairs), len(pairs))
    xs, xps = np.array(pairs, dtype=np.intp).T
    want = join[meet[xs[:, None], xps[None, :]], xps[:, None]]
    bad = got != want
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), len(pairs))
        if got[i, j] < 0:
            _raise_rejection(L, tables[i * len(pairs) + j].tolist())
        (x, xp), (y, yp) = pairs[i], pairs[j]
        return _fail(x=L.names[x], x_prime=L.names[xp], y=L.names[y],
                     y_prime=L.names[yp], got=L.names[got[i, j]],
                     want=L.names[want[i, j]])
    return _ok()


def chk_idemcomp(ctx):
    L, m = ctx.L, ctx.monoid
    idem = list(m.idempotent_indices())
    for i, k, a in zip(idem, m.member_kernels[idem].tolist(),
                       m.member_image_tops[idem].tolist()):
        if L.meet_of(k, a) != L.bottom or L.join_of(k, a) != L.top:
            return _fail(morphism=m[i].as_name_map(),
                         kernel=L.names[k], image=L.names[a])
    return _ok()


def chk_fipi1(ctx):
    fams = ctx.families
    if fams is None:
        return _skip("family enumeration over size cap")
    L = ctx.L
    for fam in fams:
        pis = _family_projections(L, fam)
        for x in range(L.n):
            bound = L.join_all(pi.map[x] for pi in pis)
            if not L.leq(x, bound):
                return _fail(family=[L.names[a] for a in fam], x=L.names[x],
                             bound=L.names[bound])
    return _ok()


def chk_fidis(ctx):
    fams = ctx.families
    if fams is None:
        return _skip("family enumeration over size cap")
    L = ctx.L
    for fam in fams:
        pis = _family_projections(L, fam)
        for x in ctx.fully_invariant:
            if L.join_all(L.meet_of(x, a) for a in fam) != x:
                return _fail(family=[L.names[a] for a in fam], x=L.names[x],
                             clause="join of meets")
            for a, pi in zip(fam, pis):
                if pi.map[x] != L.meet_of(x, a):
                    return _fail(family=[L.names[a] for a in fam], x=L.names[x],
                                 a=L.names[a], clause="projection equals meet")
    return _ok()


def chk_lemmaret(ctx):
    L = ctx.L
    for a in range(L.n):
        for b in range(L.n):
            if L.meet_of(a, b) != L.bottom:
                continue
            ab = L.join_of(a, b)
            for c in range(L.n):
                if L.meet_of(ab, c) != L.bottom:
                    continue
                if L.meet_of(a, L.join_of(b, c)) != L.bottom:
                    return _fail(a=L.names[a], b=L.names[b], c=L.names[c])
    return _ok()


def chk_splits(ctx):
    """a is complemented exactly when the inclusion of [bottom, a] splits,
    and exactly when the quotient onto [a, top] splits.

    Both Hom-sets are slices of End(L). A linear map L -> [bottom, a] is,
    after the inclusion, a member with image top <= a; it retracts when it
    fixes [bottom, a]. A linear map [a, top] -> L is, after y -> y v a, a
    member with kernel >= a (phi(a) = bottom); it is a section when
    a v phi(u) = u on [a, top].
    """
    L = ctx.L
    tables = ctx.monoid.tables
    leq, join, _ = L.tables_np
    for a in range(L.n):
        retraction = leq[tables[:, L.top], a]
        for t in L.down_set(a):
            retraction &= tables[:, t] == t
        section = tables[:, a] == L.bottom
        for u in L.up_set(a):
            section &= join[a][tables[:, u]] == u
        retracts, sections = bool(retraction.any()), bool(section.any())
        is_comp = a in ctx.comp_set
        if not (is_comp == retracts == sections):
            return _fail(a=L.names[a], complemented=is_comp,
                         inclusion_splits=retracts, quotient_splits=sections)
    return _ok()


def chk_isolin(ctx):
    """Each interval isomorphism theta: [a, top] -> [bottom, x] gives a
    linear map y -> theta(y v a) with kernel a.

    These composites are exactly the members of End(L) that
    `_linmor_tables` enumerates with kernel a and image top x, so the batch
    verdicts on the member tables are compared with `member_kernels`. The
    witness is the first failure by a, then x, then theta's forward table,
    whose order is that of the composites' values on [a, top].
    """
    L, m = ctx.L, ctx.monoid
    rejected, kernels = ctx.end_verdicts
    failing = np.flatnonzero(rejected | (kernels != m.member_kernels))
    if not len(failing):
        return _ok()
    a_s, x_s = m.member_kernels[failing], m.member_image_tops[failing]
    first = np.lexsort((x_s, a_s))[0]
    a, x = int(a_s[first]), int(x_s[first])
    rows = failing[(a_s == a) & (x_s == x)]
    above = np.flatnonzero(L.tables_np[0][a])
    row = rows[np.lexsort(m.tables[rows][:, above].T[::-1])[0]]
    if rejected[row]:
        try:
            _raise_rejection(L, m.tables[row].tolist())
        except LinearValidationError as exc:
            return _fail(a=L.names[a], x=L.names[x], error=str(exc))
    return _fail(a=L.names[a], x=L.names[x], kernel=L.names[kernels[row]])


def chk_boolean_meetmaps(ctx):
    try:
        is_boolean(ctx.L)
    except ConsistencyError as exc:
        return _fail(error=str(exc))
    return _ok()


def chk_compintric(ctx):
    if not ctx.fact("rickart"):
        return _skip("lattice is not rickart")
    L = ctx.L
    for a in ctx.comp:
        if not ctx.interval_family_prop(a, "rickart"):
            return _fail(a=L.names[a])
    return _ok()


def chk_complbaer(ctx):
    if not ctx.fact("baer"):
        return _skip("lattice is not baer")
    for a in ctx.comp:
        if not ctx.interval_family_prop(a, "baer"):
            return _fail(a=ctx.L.names[a])
    return _ok()


def chk_ricind2(ctx):
    L = ctx.L
    if L.n < 2:
        return _skip("one-element lattice")
    soc, rad = socle_radical(L)
    if soc == L.bottom or rad == L.top:
        raise ConsistencyError(
            f"{L.name} has socle {L.names[soc]!r} and radical {L.names[rad]!r} "
            f"although it has more than one element")
    indecomposable = ctx.comp_set == {L.bottom, L.top}
    lhs = indecomposable and ctx.fact("rickart")
    rhs = L.n == 2
    return _ok() if lhs == rhs else _fail(
        indecomposable=indecomposable, rickart=ctx.fact("rickart"), n=L.n)


def chk_if2(ctx):
    L = ctx.L
    blocks = ctx.decomposition.blocks
    all_two = all(len(interval(L, L.bottom, b).members) == 2 for b in blocks)
    return _ok() if ctx.fact("rickart") == all_two else _fail(
        rickart=ctx.fact("rickart"), blocks=[L.names[b] for b in blocks])


def chk_sumric(ctx):
    fams = ctx.families
    if fams is None:
        return _skip("family enumeration over size cap")
    L = ctx.L
    for fam in fams:
        rhs = all(ctx.interval_family_prop(a, "rickart") for a in fam)
        if rhs != ctx.fact("rickart"):
            return _fail(family=[L.names[a] for a in fam],
                         blocks_rickart=rhs, rickart=ctx.fact("rickart"))
    return _ok()


def chk_decomp_fi(ctx):
    fams = ctx.families
    if fams is None:
        return _skip("family enumeration over size cap")
    fi = set(ctx.fully_invariant)
    L = ctx.L
    hit = False
    for fam in fams:
        if not set(fam) <= fi:
            continue
        hit = True
        rhs = all(ctx.interval_family_prop(a, "rickart") for a in fam)
        if rhs != ctx.fact("rickart"):
            return _fail(family=[L.names[a] for a in fam],
                         blocks_rickart=rhs, rickart=ctx.fact("rickart"))
    return _ok() if hit else _skip("no fully invariant family joins to top")


def chk_linmor_joins(ctx):
    """Every member fixes bottom and preserves the join of each pair x <= y
    (by id), checked over blocks of member rows; the witness is the first
    failing member and, within it, the first failing clause."""
    L, m = ctx.L, ctx.monoid
    join = L.tables_np[1]
    xs, ys = np.triu_indices(L.n)  # the pairs x <= y, x-major
    joined = join[xs, ys]
    # bytes live per pair and row: the gathered values, their intp index
    # copies, the int32 joins and the comparison
    rows = max(1, _BLOCK_BYTES // (len(xs) * (24 + 3 * m.tables.itemsize)))
    for start in range(0, len(m), rows):
        T = m.tables[start:start + rows]
        bad = np.empty((len(T), 1 + len(xs)), dtype=bool)
        bad[:, 0] = T[:, L.bottom] != L.bottom
        bad[:, 1:] = T[:, joined] != join[T[:, xs], T[:, ys]]
        if bad.any():
            row, col = divmod(int(np.argmax(bad)), bad.shape[1])
            phi = m[start + row]
            if col == 0:
                return _fail(morphism=phi.as_name_map(), clause="bottom")
            return _fail(morphism=phi.as_name_map(),
                         x=L.names[xs[col - 1]], y=L.names[ys[col - 1]])
    return _ok()


def chk_projection_linear(ctx):
    L = ctx.L
    for x in ctx.comp:
        for xp in complements_of(L, x):
            try:
                pi = projection(L, x, xp)
            except LatticeLabError as exc:
                return _fail(x=L.names[x], x_prime=L.names[xp], error=str(exc))
            if compose(pi, pi).map != pi.map:
                return _fail(x=L.names[x], x_prime=L.names[xp])
    return _ok()


def chk_exmorf(ctx):
    """Each phi: [bottom, x] -> [bottom, y] extends along each complement x'.

    Such a phi onto [bottom, y] is a map of Hom([bottom, x], L) with image top
    y, so that Hom-set is read once per x and taken in order of image top: y
    ascends, and the maps with one y keep their table order. The extensions
    a -> phi((a v x') ^ x) are one gather over the Hom-set tables; their
    kernels, read from the batch verdicts, are compared with ker v x', and
    their restrictions to [bottom, x] with phi.
    """
    L = ctx.L
    _, join, meet = L.tables_np
    for x in ctx.comp:
        vx = interval(L, L.bottom, x)
        below = np.array(vx.members, dtype=np.intp)
        homs, hom_kernels = _linmor_tables(vx.as_lattice, L)
        tops = homs[:, vx.as_lattice.top]
        by_top = np.argsort(tops, kind="stable")
        homs, hom_kernels, tops = homs[by_top], hom_kernels[by_top], tops[by_top]
        xps = np.array(complements_of(L, x), dtype=np.intp)
        # onto[c, a]: (a v x'_c) ^ x, as an element of [bottom, x]
        onto = np.searchsorted(below, meet[join[:, xps], x].T)
        tables = _composite_tables(homs, onto)
        got = _certified_kernels(ctx, tables.reshape(-1, L.n)).reshape(len(homs), len(xps))
        want = join[below[hom_kernels][:, None], xps]
        restricts = (tables[:, :, below] == homs[:, None, :]).all(axis=2)
        bad = (got != want) | ~restricts
        if bad.any():
            h, c = divmod(int(np.argmax(bad)), len(xps))
            y, xp = L.names[tops[h]], L.names[xps[c]]
            if got[h, c] < 0:
                try:
                    _raise_rejection(L, tables[h, c].tolist())
                except LatticeLabError as exc:
                    return _fail(x=L.names[x], y=y, x_prime=xp, error=str(exc))
            if got[h, c] != want[h, c]:
                return _fail(x=L.names[x], y=y, x_prime=xp, error=(
                    f"extension has kernel {L.names[got[h, c]]!r}, "
                    f"not ker v x' = {L.names[want[h, c]]!r}"))
            return _fail(x=L.names[x], y=y, clause="restriction")
    return _ok()


def chk_fi_join(ctx):
    L = ctx.L
    fi = set(ctx.fully_invariant)
    for x in fi:
        for y in fi:
            if L.join_of(x, y) not in fi:
                return _fail(x=L.names[x], y=L.names[y])
    return _ok()


def chk_booluniqb_exists(ctx):
    L, pairs = ctx.L, ctx.monoid.pairs
    lhs = ctx.fact("rickart") and all(pairs.get(a, ()) for a in range(L.n))
    rhs = len(ctx.comp) == L.n
    return _ok() if lhs == rhs else _fail(
        rickart=ctx.fact("rickart"),
        choices={L.names[a]: [L.names[b] for b in pairs.get(a, ())]
                 for a in range(L.n)},
        complemented=rhs)


def chk_booluniqb_unique(ctx):
    L, pairs = ctx.L, ctx.monoid.pairs
    if not (ctx.fact("rickart") and all(len(pairs.get(a, ())) == 1 for a in range(L.n))):
        return _skip("hypothesis (rickart with unique target) not met")
    if not is_boolean(L).holds:
        return _fail(choices={L.names[a]: [L.names[b] for b in pairs.get(a, ())]
                              for a in range(L.n)})
    return _ok()


def chk_splitcor(ctx):
    L = ctx.L
    for b in ctx.comp:
        vb = interval(L, L.bottom, b)
        for a_sub in complemented_elements(vb.as_lattice):
            if vb.members[a_sub] not in ctx.comp_set:
                return _fail(a=L.names[vb.members[a_sub]], b=L.names[b])
    return _ok()


def chk_cbool(ctx):
    L = ctx.L
    comp = ctx.comp
    cset = ctx.comp_set
    sublattice = all(L.meet_of(x, y) in cset and L.join_of(x, y) in cset
                     for x in comp for y in comp)
    if not sublattice:
        return _skip("complemented elements are not a sublattice")
    pointwise = True
    for x in comp:
        for xp in complements_of(L, x):
            for y in comp:
                if L.meet_of(L.join_of(y, xp), x) != L.meet_of(x, y):
                    pointwise = False
                    break
            if not pointwise:
                break
        if not pointwise:
            break
    distributive = all(
        L.meet_of(x, L.join_of(y, z))
        == L.join_of(L.meet_of(x, y), L.meet_of(x, z))
        for x in comp for y in comp for z in comp)
    return _ok() if pointwise == distributive else _fail(
        projections_are_meets=pointwise, distributive=distributive)


def chk_clcomp(ctx):
    if not (ctx.fact("baer") or ctx.op.fact("baer")):
        return _skip("lattice is neither baer nor dual baer")
    L = ctx.L
    comp = ctx.comp
    cset = ctx.comp_set
    for x in comp:
        if not any(c in cset for c in complements_of(L, x)):
            return _fail(element=L.names[x], clause="no complement inside C")
    # x and y have a least upper bound in C exactly when their common upper
    # bounds in C are the up-set in C of one element of C, and that element
    # is the bound; dually for the greatest lower bound
    cmask = sum(1 << z for z in comp)
    ups = [L.up_mask(z) & cmask for z in comp]
    downs = [L.down_mask(z) & cmask for z in comp]
    up_sets, down_sets = set(ups), set(downs)
    for x, up_x, down_x in zip(comp, ups, downs):
        for y, up_y, down_y in zip(comp, ups, downs):
            if (up_x & up_y) not in up_sets:
                return _fail(pair=[L.names[x], L.names[y]], clause="join in C")
            if (down_x & down_y) not in down_sets:
                return _fail(pair=[L.names[x], L.names[y]], clause="meet in C")
    return _ok()


def chk_retractable(ctx):
    if ctx.fact("rickart") and not ctx.fact("retractable"):
        return _fail(clause="rickart implies retractable")
    if ctx.fact("retractable"):
        for k, i in ctx.monoid.first_with("kernel").items():
            if not ctx.generated(k):
                return _fail(clause="retractable implies kernels generated",
                             morphism=ctx.monoid[i].as_name_map())
    return _ok()


def chk_rickpix(ctx):
    # This check cannot fail on a modular lattice: x' <= k, x ^ k = bottom
    # and x v x' = top give k = x' v (x ^ k) = x' by the modular law, so the
    # projection side is "every member kernel is complemented", the kernel
    # side itself. It pins only that check_rickart_family and the
    # per-kernel test in check_rickpix agree.
    v = check_rickpix(ctx.L, ctx.monoid)
    return _ok() if v.holds else (FAIL, {"notes": v.notes, "witness": v.witness})


def chk_baer_symmetry(ctx):
    if not ctx.comp_feasible:
        return _skip("monoid too large for annihilator calculus")
    r = ctx.monoid_pred("right_baer")
    l = ctx.monoid_pred("left_baer")
    return _ok() if r == l else _fail(right_baer=r, left_baer=l)


def _implies(hypothesis: tuple[str, ...], conclusion: str):
    """The lattice check that the facts `hypothesis` together imply the fact
    `conclusion`; skipped where the hypothesis does not hold."""
    def check(ctx):
        if not all(ctx.fact(h) for h in hypothesis):
            return _skip("hypothesis not met")
        return _ok() if ctx.fact(conclusion) else _fail()
    return check


chk_c1_kco = _implies(("c1",), "k_co")
chk_knonsing_c1_baer = _implies(("k", "c1"), "baer")
chk_ric_knonsing = _implies(("rickart",), "k")
chk_baer_kco_c1 = _implies(("baer", "k_co"), "c1")


def chk_artif(ctx):
    try:
        dec = ctx.decomposition
    except LatticeLabError as exc:
        return _fail(error=str(exc))
    return _ok() if dec.independent else _fail()


# -- pair checks ---------------------------------------------------------------


def chk_prod_projections_linear(ctxL, ctxM):
    L, M = ctxL.L, ctxM.L
    prod = ctxL.product_with(ctxM)
    P = prod.lattice
    for j, factor in enumerate((L, M)):
        table = tuple(prod.coords[p][j] for p in range(P.n))
        try:
            phi = validate_linear(P, factor, table)
        except LinearValidationError as exc:
            return _fail(factor=j, error=str(exc))
        want = tuple(factor_other.top if jj != j else factor.bottom
                     for jj, factor_other in enumerate((L, M)))
        if prod.coords[phi.kernel] != want:
            return _fail(factor=j, kernel=P.names[phi.kernel])
    return _ok()


def chk_prod_rickart_pairs(ctxL, ctxM):
    L, M = ctxL.L, ctxM.L
    P = ctxL.product_with(ctxM).lattice
    comp = set(complemented_elements(P))
    lhs = comp.issuperset(_linmor_tables(P, P)[1].tolist())
    rhs = all(check_cross_rickart(A, B).holds
              for A in (L, M) for B in (L, M))
    return _ok() if lhs == rhs else _fail(product_rickart=lhs, pairwise=rhs)


def chk_ricdirsumsub(ctxL, ctxM):
    L, M = ctxL.L, ctxM.L
    if not check_cross_rickart(L, M).holds:
        return _skip("base pair is not cross-rickart")
    for a in ctxL.comp:
        sub_a = interval(L, L.bottom, a).as_lattice
        for x in range(M.n):
            sub_x = interval(M, M.bottom, x).as_lattice
            if not check_cross_rickart(sub_a, sub_x).holds:
                return _fail(a=L.names[a], x=M.names[x])
    return _ok()


def chk_cip_prod_rickart(ctxL, ctxM):
    L, M = ctxL.L, ctxM.L
    if not ctxL.fact("cip"):
        return _skip("left lattice lacks the complement intersection property")
    fams = ctxM.families
    if fams is None:
        return _skip("family enumeration over size cap")
    whole = check_cross_rickart(L, M).holds
    for fam in fams:
        parts = all(check_cross_rickart(
            L, interval(M, M.bottom, a).as_lattice).holds for a in fam)
        if parts != whole:
            return _fail(family=[M.names[a] for a in fam],
                         parts=parts, whole=whole)
    return _ok()


# -- global checks -------------------------------------------------------------


def chk_fig1_example():
    from . import fixtures
    from .abelian import AbelianGroup, induced_monoid, subgroup_lattice

    grp = AbelianGroup.from_spec("4")
    lat = subgroup_lattice(grp)
    mono = induced_monoid(grp)
    if len(mono) != 3:
        return _fail(induced_size=len(mono))
    expected = {(0, 0, 0), (0, 0, 1), (0, 1, 2)}
    if {phi.map for phi in mono.members} != expected:
        return _fail(maps=[phi.map for phi in mono.members])
    v = check_rickart_family(lat, mono, "rickart")
    if v.holds or v.witness["kernel"] != lat.names[1]:
        return _fail(verdict=v.to_json_dict())
    c3 = fixtures.build_fixture("c3")
    if {phi.map for phi in full_monoid(c3).members} != expected:
        return _fail(clause="chain comparison")
    return _ok()


def chk_excip_example():
    from . import fixtures

    L = fixtures.build_fixture("excip")
    comp = {L.names[c] for c in complemented_elements(L)}
    if comp != {"0", "1", "a", "b"}:
        return _fail(complemented=sorted(comp))
    if not check_summand_property(L, "cip").holds:
        return _fail(clause="cip")
    va = interval(L, L.bottom, L.id_of("a"))
    vb = interval(L, L.bottom, L.id_of("b"))
    sub_a, sub_b = va.as_lattice, vb.as_lattice
    table = (sub_b.bottom, sub_b.bottom, sub_b.id_of("f"))
    phi = validate_linear(sub_a, sub_b, table)
    if sub_a.names[phi.kernel] != "k":
        return _fail(kernel=sub_a.names[phi.kernel])
    if check_cross_rickart(sub_a, sub_b).holds:
        return _fail(clause="cross rickart should fail")
    return _ok()


def chk_lricmric():
    from .abelian import AbelianGroup, rickart_module_direct

    for spec in ("1", "2", "3", "4", "2,2", "6", "8", "2,4", "9", "2,6"):
        grp = AbelianGroup.from_spec(spec)
        for kind in ("rickart", "baer", "dual_rickart", "dual_baer"):
            try:
                rickart_module_direct(grp, kind)
            except ConsistencyError as exc:
                return _fail(group=spec, kind=kind, error=str(exc))
    return _ok()


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    kind: str  # "lattice" | "pair" | "global"
    fn: Callable
    description: str


def _mk_registry() -> dict[str, Check]:
    entries = [
        Check("riccipssp", "lattice", chk_riccipssp,
              "kernel-complemented implies complement meets stay complemented; dually for images and joins"),
        Check("baerricscip", "lattice", chk_baerricscip,
              "baer equals rickart plus strong complement intersection; dually with joins"),
        Check("ricendoric", "lattice", chk_ricendoric,
              "rickart equals right-rickart monoid plus retractability, and plus generated kernels"),
        Check("dricendodric", "lattice", _on_op(chk_ricendoric),
              "ricendoric on the opposite lattice: dual rickart via left-rickart monoid and cogenerated images"),
        Check("baercar", "lattice", chk_baercar,
              "baer equals pointwise principal annihilators, and baer monoid plus generated kernel meets"),
        Check("dbaercar", "lattice", _on_op(chk_baercar),
              "baercar on the opposite lattice: dual baer via co-annihilators and cogenerated image joins"),
        Check("ricd2", "lattice", chk_ricd2,
              "rickart equals the D2-style condition plus images isomorphic to complemented intervals"),
        Check("dricc2", "lattice", _on_op(chk_ricd2),
              "ricd2 on the opposite lattice: dual rickart equals the C2-style condition plus an iso clause"),
        Check("kercompkergenann", "lattice", chk_kercompkergenann,
              "per morphism: kernel complemented iff generated and right annihilator principal"),
        Check("imcompintkercogen", "lattice", _on_op(chk_kercompkergenann),
              "kercompkergenann on the opposite lattice: image complemented iff cogenerated and principal"),
        Check("baercarK", "lattice", chk_baercarK,
              "K-nonsingular plus C1 equals baer plus K-cononsingular"),
        Check("dbaercarT", "lattice", _on_op(chk_baercarK),
              "baercarK on the opposite lattice: T-nonsingular plus D1 equals dual baer plus T-cononsingular"),
        Check("acc_rickart_eq_baer", "lattice", chk_acc_rickart_eq_baer,
              "finite lattices: rickart equals baer, dual rickart equals dual baer"),
        Check("kerpi", "lattice", chk_kerpi,
              "kernel of a composed pair of projections is (x ^ y') v x'"),
        Check("idemcomp", "lattice", chk_idemcomp,
              "idempotent members split the lattice: kernel and image are complements"),
        Check("fipi1", "lattice", chk_fipi1,
              "independent families joining to top dominate every element via projections"),
        Check("fidis", "lattice", chk_fidis,
              "fully invariant elements distribute over independent families"),
        Check("lemmaret", "lattice", chk_lemmaret,
              "a ^ b = 0 and (a v b) ^ c = 0 force a ^ (b v c) = 0"),
        Check("splits", "lattice", chk_splits,
              "complemented equals split inclusion equals split quotient"),
        Check("isolin", "lattice", chk_isolin,
              "interval isomorphisms induce linear endomorphisms with the expected kernel"),
        Check("boolean_meetmaps", "lattice", chk_boolean_meetmaps,
              "boolean iff every meet map is linear (two routes agree)"),
        Check("compintric", "lattice", chk_compintric,
              "rickart passes down to intervals below complemented elements"),
        Check("complbaer", "lattice", chk_complbaer,
              "baer passes down to intervals below complemented elements"),
        Check("compldbaer", "lattice", _on_op(chk_complbaer),
              "complbaer on the opposite lattice: dual baer passes to intervals at complemented elements"),
        Check("ricind2", "lattice", chk_ricind2,
              "indecomposable rickart lattices are exactly the two-element chain"),
        Check("if2", "lattice", chk_if2,
              "rickart iff the canonical decomposition has only two-element blocks"),
        Check("sumric", "lattice", chk_sumric,
              "rickart iff every independent decomposition has rickart blocks"),
        Check("decomp_fi", "lattice", chk_decomp_fi,
              "for fully invariant decompositions, rickart iff all blocks are rickart"),
        Check("prod_projections_linear", "pair", chk_prod_projections_linear,
              "product projections are linear with the expected kernels"),
        Check("prod_rickart_pairs", "pair", chk_prod_rickart_pairs,
              "a finite product is rickart iff all factor pairs are cross-rickart"),
        Check("ricdirsumsub", "pair", chk_ricdirsumsub,
              "cross-rickart passes to complemented intervals on both sides"),
        Check("cip_prod_rickart", "pair", chk_cip_prod_rickart,
              "with complement intersection, cross-rickart distributes over decompositions of the target"),
        Check("linmor_joins", "lattice", chk_linmor_joins,
              "linear morphisms preserve bottom and binary joins"),
        Check("projection_linear", "lattice", chk_projection_linear,
              "projections are idempotent linear morphisms with kernel the chosen complement"),
        Check("exmorf", "lattice", chk_exmorf,
              "interval morphisms extend along projections with kernel ker v x'"),
        Check("fi_join", "lattice", chk_fi_join,
              "fully invariant elements are closed under joins"),
        Check("booluniqb_exists", "lattice", chk_booluniqb_exists,
              "rickart with quotient-to-interval isomorphisms everywhere iff complemented"),
        Check("booluniqb_unique", "lattice", chk_booluniqb_unique,
              "rickart with unique isomorphism targets implies boolean"),
        Check("splitcor", "lattice", chk_splitcor,
              "complements of complements within intervals are complements"),
        Check("cbool", "lattice", chk_cbool,
              "when complemented elements form a sublattice, projections acting as meets iff distributive"),
        Check("clcomp", "lattice", chk_clcomp,
              "baer or dual baer makes the complemented elements a complemented lattice"),
        Check("retractable", "lattice", chk_retractable,
              "rickart implies retractable; retractable implies kernels generated"),
        Check("rickpix", "lattice", chk_rickpix,
              "rickart iff every member factors through a projection missing its kernel"),
        Check("baer_symmetry", "lattice", chk_baer_symmetry,
              "right and left baer agree for projection-closed monoids"),
        Check("c1_kco", "lattice", chk_c1_kco, "C1 implies K-cononsingular"),
        Check("d1_tco", "lattice", _on_op(chk_c1_kco),
              "c1_kco on the opposite lattice: D1 implies T-cononsingular"),
        Check("knonsing_c1_baer", "lattice", chk_knonsing_c1_baer,
              "K-nonsingular plus C1 implies baer"),
        Check("tnonsing_d1_dbaer", "lattice", _on_op(chk_knonsing_c1_baer),
              "knonsing_c1_baer on the opposite lattice: T-nonsingular plus D1 implies dual baer"),
        Check("ric_knonsing", "lattice", chk_ric_knonsing,
              "rickart implies K-nonsingular"),
        Check("dric_tnonsing", "lattice", _on_op(chk_ric_knonsing),
              "ric_knonsing on the opposite lattice: dual rickart implies T-nonsingular"),
        Check("baer_kco_c1", "lattice", chk_baer_kco_c1,
              "baer plus K-cononsingular implies C1"),
        Check("dbaer_tco_d1", "lattice", _on_op(chk_baer_kco_c1),
              "baer_kco_c1 on the opposite lattice: dual baer plus T-cononsingular implies D1"),
        Check("artif", "lattice", chk_artif,
              "the canonical decomposition is independent with indecomposable blocks"),
        Check("fig1_example", "global", chk_fig1_example,
              "the order-4 cyclic group induces the three-member monoid on the three-chain"),
        Check("excip_example", "global", chk_excip_example,
              "the nine-element fixture: complemented set, intersection property, failing interval kernel"),
        Check("lricmric", "global", chk_lricmric,
              "module-side and lattice-side kernel/image complement verdicts agree on small groups"),
    ]
    return {c.name: c for c in entries}


REGISTRY: dict[str, Check] = _mk_registry()


# -- runner --------------------------------------------------------------------


@dataclass
class CorpusReport:
    """Aggregated conformance results; reproducible given seed and config."""

    schema_version: int
    seed: int | None
    lattice_count: int
    counts: dict[str, dict[str, int]]
    failures: list[dict]
    skipped_lattices: list[str] = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return sum(c["fail"] for c in self.counts.values())

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "seed": self.seed,
            "lattice_count": self.lattice_count,
            "checks": self.counts,
            "failures": self.failures,
            "skipped_lattices": self.skipped_lattices,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, ensure_ascii=False) + "\n"


def select_names(names, choices, what: str) -> list[str]:
    """The names in first-seen order, a repeat dropped; a name not among the
    choices raises ValueError("unknown <what>: [...]")."""
    names = list(dict.fromkeys(names))
    unknown = [nm for nm in names if nm not in choices]
    if unknown:
        raise ValueError(f"unknown {what}: {unknown}")
    return names


def run_conformance(corpus, checks=None, *,
                    seed: int | None = None) -> CorpusReport:
    """Evaluate the registry over the corpus, each lattice with its full monoid.

    Non-modular corpus entries are set aside (most checks assume modularity).
    Pair checks run on each lattice against itself when small enough, plus
    up to MAX_PAIRS consecutive corpus pairs whose product size fits
    PAIR_PRODUCT_CAP. Global checks run once. A check named more than once
    runs once, in first-seen order. The pairs are chosen first, so the
    context of a lattice in no pair is released once its lattice checks
    have run.
    """
    names = select_names(checks, REGISTRY, "checks") if checks else list(REGISTRY)

    usable: list[Lattice] = []
    skipped_lattices = []
    for L in corpus:
        if is_modular(L).holds:
            usable.append(L)
        else:
            skipped_lattices.append(L.name)

    counts = {nm: {"pass": 0, "fail": 0, "skip": 0} for nm in names}
    failures: list[dict] = []

    def record(nm: str, status: str, detail, lattices):
        counts[nm][status] += 1
        if status == FAIL:
            failures.append({
                "check": nm,
                "lattices": [x.name for x in lattices],
                "detail": detail,
                "repro": [json.loads(lattice_to_json(x)) for x in lattices],
            })

    lattice_checks = [nm for nm in names if REGISTRY[nm].kind == "lattice"]
    pair_checks = [nm for nm in names if REGISTRY[nm].kind == "pair"]
    global_checks = [nm for nm in names if REGISTRY[nm].kind == "global"]

    n = [L.n for L in usable]
    pairs = [(i, i) for i in range(len(n)) if n[i] * n[i] <= PAIR_PRODUCT_CAP]
    pairs += [(i, i + 1) for i in range(len(n) - 1)
              if n[i] * n[i + 1] <= PAIR_PRODUCT_CAP][:MAX_PAIRS]
    # the positions in usable whose contexts the pair checks read
    paired = {i for pair in pairs for i in pair} if pair_checks else set()

    contexts: dict[int, LatticeContext] = {}
    for i, L in enumerate(usable):
        contexts[i] = LatticeContext(L)
        for nm in lattice_checks:
            status, detail = REGISTRY[nm].fn(contexts[i])
            record(nm, status, detail, [L])
        if i not in paired:
            del contexts[i]

    for nm in pair_checks:
        for i, j in pairs:
            status, detail = REGISTRY[nm].fn(contexts[i], contexts[j])
            record(nm, status, detail, [usable[i], usable[j]])

    for nm in global_checks:
        status, detail = REGISTRY[nm].fn()
        record(nm, status, detail, [])

    return CorpusReport(schema_version=1, seed=seed,
                        lattice_count=len(usable), counts=counts,
                        failures=failures, skipped_lattices=skipped_lattices)
