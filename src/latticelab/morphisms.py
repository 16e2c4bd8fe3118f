"""Linear morphisms between finite bounded lattices.

A map phi between bounded lattices is linear when it has a kernel k with
phi(x) = phi(x v k) for every x, and phi restricts to an order isomorphism
from [k, top] onto [bottom, phi(top)]. The kernel is then forced: it is the
join of the zero preimage. Every linear morphism factors as

    x  ->  theta(x v k)

for the kernel k, the image top a = phi(top), and the induced interval
isomorphism theta: [k, top] -> [bottom, a]; enumeration walks exactly these
triples. Certification checks the first clause at every element and the
second by a cover certificate, in time linear in the elements and covers
of [k, top].
"""

from __future__ import annotations

import json
import numbers
import reprlib
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import (
    ConsistencyError,
    DomainMismatchError,
    NoKernelError,
    NotAComplementError,
    NotIntervalIsoError,
    SizeLimitExceededError,
)
from .lattice import (
    IntervalView,
    Lattice,
    _bits,
    complements_of,
    interval,
    parse_json,
    require_modular,
)


@dataclass(frozen=True, eq=False)
class LinearMorphism:
    """A certified linear morphism with its kernel and image top.

    `map` is a total table: element id of the domain -> element id of the
    codomain. Equality is map-table equality over identical lattice objects;
    kernel and image are derived data, never identity-bearing.
    """

    domain: Lattice
    codomain: Lattice
    map: tuple[int, ...]
    kernel: int
    image_top: int

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearMorphism)
                and self.domain is other.domain
                and self.codomain is other.codomain
                and self.map == other.map)

    def __hash__(self) -> int:
        return hash(self.map)

    def as_name_map(self) -> dict[str, str]:
        return {self.domain.names[x]: self.codomain.names[y]
                for x, y in enumerate(self.map)}

    def __repr__(self) -> str:
        body = ",".join(str(v) for v in self.map)
        return f"LinearMorphism[{body}]"


def validate_linear(domain: Lattice, codomain: Lattice,
                    mapping) -> LinearMorphism:
    """Certify a total map as a linear morphism or raise.

    The only possible kernel is the join of the zero preimage; both defining
    clauses are checked against it, the second by requiring the restriction
    to be a bijection that maps the upper covers of each u in [k, top] onto
    the upper covers of phi(u) in [bottom, phi(top)]. NoKernelError reports
    a first-clause failure (including an empty zero preimage),
    NotIntervalIsoError a second-clause failure.
    """
    m = tuple(mapping)
    if len(m) != domain.n:
        raise ValueError("map table length does not match the domain")
    # an exact int skips the isinstance test against the ABC, which costs
    # over ten times as much per value
    not_ids = [v for v in m if type(v) is not int and not isinstance(v, numbers.Integral)]
    if not_ids:
        raise ValueError(f"map table has non-integer values: {reprlib.repr(not_ids)}")
    if any(not (0 <= v < codomain.n) for v in m):
        raise ValueError("map table has out-of-range values")

    bottom = codomain.bottom
    zero_pre = [x for x, v in enumerate(m) if v == bottom]
    if not zero_pre:
        raise NoKernelError("nothing maps to bottom, so no kernel exists")
    k = domain.join_all(zero_pre)
    if m[k] != bottom:
        raise NoKernelError(
            f"join of the zero preimage ({domain.names[k]!r}) does not map to bottom")
    for x, v in enumerate(m):
        if m[domain.join_of(x, k)] != v:
            raise NoKernelError(
                f"map({domain.names[x]!r}) differs from map(x v kernel)")

    up_sets, upper_covers = domain.order_lists
    upper = up_sets[k]
    a = m[domain.top]
    down_a = codomain.down_mask(a)
    images = 0
    for u in upper:
        images |= 1 << m[u]
    # distinct images set one bit each: a bijection onto [bottom, a] sets
    # exactly the bits of down_a, one per element above k
    if images != down_a or images.bit_count() != len(upper):
        raise NotIntervalIsoError(
            f"restriction above {domain.names[k]!r} is not a bijection onto "
            f"[bottom, {codomain.names[a]!r}]")

    # A bijection of finite posets is an order isomorphism exactly when it
    # maps the upper covers of each element onto those of its image. Upper
    # covers of u >= k stay in [k, top]; those of m[u] inside [bottom, a]
    # are the upper covers m[u] has in that interval.
    for u in upper:
        got = 0
        for v in upper_covers[u]:
            got |= 1 << m[v]
        if got != codomain.upper_covers_mask(m[u]) & down_a:
            raise NotIntervalIsoError(
                f"upper covers of {domain.names[u]!r} do not map onto the upper "
                f"covers of {codomain.names[m[u]]!r} below {codomain.names[a]!r}")
    return LinearMorphism(domain=domain, codomain=codomain, map=m,
                          kernel=k, image_top=a)


# certify_tables works through its rows in blocks of this many, which bounds
# its temporary arrays at a few megabytes whatever the batch size
_BLOCK_ROWS = 4096


def table_verdicts(domain: Lattice, codomain: Lattice,
                   tables) -> tuple[np.ndarray, np.ndarray]:
    """Certify every row of an (N, domain.n) array in one batch, without
    raising for a row: return whether `validate_linear` rejects each row,
    and the kernel of each row it accepts (the kernel of a rejected row
    means nothing). A row's image top is its value at the top.

    The clauses are those of `validate_linear`, over whole blocks of rows,
    with no loop inside a block. A linear row with kernel k sends exactly
    [bottom, k] to bottom, and ids follow the order, so its kernel is the
    last element it sends to bottom; each row is checked against that
    candidate k, and one that passes is linear with kernel k, which is then
    the join of its zero preimage, as `validate_linear` computes it. The
    first clause is one gather, T[r, J[k_r, x]] == T[r, x]. For the second,
    the values outside [k, top] are replaced by distinct sentinels above
    every codomain id. A row with kernel k and image top a must then be
    injective on [k, top] (one sort per row finds a repeated value), send
    every cover of [k, top] to a cover (one gather over all domain covers
    from a cover table whose sentinel rows all read true, since a cover with
    its lower end in [k, top] has its upper end there too), and [k, top]
    must have as many covers as [bottom, a]. Then the restriction is an
    order isomorphism onto [bottom, a]: chains of covers up to top land
    below T[top] = a, the covers of [k, top] go one-to-one, so by count
    onto, to the covers of [bottom, a], and every element of [bottom, a]
    lies on one of them. The gathers read flat tables, on indices in the
    narrowest dtype that holds them.
    """
    given = np.asarray(tables)
    if given.ndim != 2:
        raise ValueError("map tables must form an (N, n) array")
    if given.shape[1] != domain.n:
        raise ValueError("map table length does not match the domain")
    n, cn = domain.n, codomain.n
    leq, join, _ = domain.tables_np
    cod_leq = codomain.tables_np[0]
    lo, hi = np.array(domain.covers(), dtype=np.intp).reshape(-1, 2).T
    cod_lo, cod_hi = np.array(codomain.covers(), dtype=np.intp).reshape(-1, 2).T
    width = cn + n  # codomain ids, then one sentinel per domain element
    is_cover = np.zeros((width, width), dtype=bool)
    is_cover[cod_lo, cod_hi] = True
    is_cover[cn:] = True
    is_cover = is_cover.ravel()
    covers_above = leq[:, lo].sum(axis=1)  # the number of covers in [k, top]
    covers_below = cod_leq[cod_hi].sum(axis=0)  # ... and in [bottom, a]
    dtype = np.min_scalar_type(width * width - 1)
    sentinels = np.arange(cn, width, dtype=dtype)
    offsets = np.arange(0, _BLOCK_ROWS * n, n, dtype=np.int32)[:, None]

    rejected = np.empty(len(given), dtype=bool)
    kernels = np.empty(len(given), dtype=np.intp)
    for start in range(0, len(given), _BLOCK_ROWS):
        T = given[start:start + _BLOCK_ROWS]
        bad = ((T < 0) | (T >= cn)).any(axis=1)
        T = np.where(bad[:, None], codomain.bottom, T).astype(dtype)
        zero = T == codomain.bottom
        bad |= ~zero.any(axis=1)
        k = n - 1 - np.argmax(zero[:, ::-1], axis=1)
        bad |= (T.ravel()[offsets[:len(T)] + join[k]] != T).any(axis=1)
        bad |= covers_above[k] != covers_below[T[:, domain.top]]
        V = np.where(leq[k], T, sentinels)
        ranked = np.sort(V, axis=1)
        bad |= (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
        V = np.ascontiguousarray(V.T)  # one row per element: the gathers copy rows
        bad |= ~is_cover[V[lo] * width + V[hi]].all(axis=0)
        rejected[start:start + len(T)] = bad
        kernels[start:start + len(T)] = k
    return rejected, kernels


def certify_tables(domain: Lattice, codomain: Lattice, tables) -> np.ndarray:
    """Certify every row of an (N, domain.n) array as a linear morphism, in
    one batch (see `table_verdicts`); return the kernels.

    The first rejected row goes through `validate_linear`, so it raises the
    scalar error class and text; if that row certifies there, the two
    certifiers disagree: ConsistencyError.
    """
    rejected, kernels = table_verdicts(domain, codomain, tables)
    if rejected.any():
        row = int(np.argmax(rejected))
        validate_linear(domain, codomain, np.asarray(tables)[row].tolist())
        raise ConsistencyError(f"row {row} certifies by validate_linear but "
                               f"not in the batch")
    return kernels


def _ascending(tables: np.ndarray) -> bool:
    """Whether the rows are in strictly increasing lexicographic order: at
    the first position where each row differs from the one before it, its
    value is the larger (rows that do not differ fail)."""
    after, before = tables[1:], tables[:-1]
    at = (after != before).argmax(axis=1)
    rows = np.arange(len(at))
    return bool((after[rows, at] > before[rows, at]).all())


def row_keys(tables) -> np.ndarray:
    """One void key per row of an (N, n) array of non-negative table values.
    The values are written big-endian, in unsigned integers of the array's
    item size, so the key bytes compare in the rows' lexicographic order."""
    tables = np.asarray(tables)
    order = np.dtype(f">u{tables.dtype.itemsize}")
    return np.ascontiguousarray(tables, dtype=order).view(
        np.dtype((np.void, order.itemsize * tables.shape[1]))).ravel()


def identity_morphism(L: Lattice) -> LinearMorphism:
    return LinearMorphism(domain=L, codomain=L, map=tuple(range(L.n)),
                          kernel=L.bottom, image_top=L.top)


def zero_morphism(L: Lattice) -> LinearMorphism:
    return LinearMorphism(domain=L, codomain=L, map=(L.bottom,) * L.n,
                          kernel=L.top, image_top=L.bottom)


def compose(phi: LinearMorphism, psi: LinearMorphism) -> LinearMorphism:
    """phi after psi, re-certified; mirrors written composition phi psi."""
    if psi.codomain is not phi.domain:
        raise DomainMismatchError("codomain of the inner morphism must be the "
                                  "domain of the outer one")
    table = tuple(phi.map[psi.map[x]] for x in range(psi.domain.n))
    return validate_linear(psi.domain, phi.codomain, table)


def projection(L: Lattice, x: int, x_prime: int) -> LinearMorphism:
    """a -> (a v x') ^ x for a chosen complement x' of x; kernel is x'.

    The first call on a lattice checks modularity; the first call for each
    pair checks the complement and certifies the table. The certified
    projection is kept on the lattice, so repeat calls are lookups.
    """
    memo = L._projections
    if memo is None:
        require_modular(L)
        memo = L._projections = {}
    phi = memo.get((x, x_prime))
    if phi is not None:
        return phi
    if x_prime not in complements_of(L, x):
        raise NotAComplementError(
            f"{L.names[x_prime]!r} is not a complement of {L.names[x]!r}")
    table = tuple(L.meet_of(L.join_of(a, x_prime), x) for a in range(L.n))
    phi = validate_linear(L, L, table)
    if phi.kernel != x_prime:
        raise ConsistencyError(
            f"projection onto {L.names[x]!r} along {L.names[x_prime]!r} "
            f"certified with kernel {L.names[phi.kernel]!r}")
    memo[(x, x_prime)] = phi
    return phi


def interval_inclusion(view: IntervalView) -> LinearMorphism:
    """The inclusion of [bottom, hi] into the parent, as a linear morphism."""
    if view.lo != view.parent.bottom:
        raise ValueError("inclusion is defined for lower intervals")
    return validate_linear(view.as_lattice, view.parent, view.members)


def interval_quotient(view: IntervalView) -> LinearMorphism:
    """Parent -> [lo, top]: y -> y v lo, as a linear morphism with kernel lo."""
    if view.hi != view.parent.top:
        raise ValueError("quotient is defined for upper intervals")
    L = view.parent
    table = tuple(view.from_parent[L.join_of(y, view.lo)] for y in range(L.n))
    return validate_linear(L, view.as_lattice, table)


# -- interval isomorphisms ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class IntervalIso:
    """An order isomorphism between two interval views, both directions."""

    source: IntervalView
    target: IntervalView
    forward: tuple[int, ...]
    backward: tuple[int, ...]


_ISO_CACHE: dict[tuple[bytes, bytes], np.ndarray] = {}


def _iso_tables(A, B) -> np.ndarray:
    """Every order isomorphism A -> B as a forward table, one row each in
    sorted order: a read-only (count, A.n) array of the smallest unsigned
    dtype that holds A.n - 1, kept per pair of structure keys.

    A and B are lattices or interval views: only their `n`, `rank`,
    `down_mask` and `structure_key` are read. Isomorphisms keep rank. The
    positions p of A are filled in rank order, each with an unused element
    v of B of its rank, which fits when its down-set among the used
    elements is the image of p's strict down-set; no used element has a
    larger rank, so none lies above v.
    """
    key = (A.structure_key, B.structure_key)
    hit = _ISO_CACHE.get(key)
    if hit is not None:
        return hit
    out: list[tuple[int, ...]] = []
    rank_a, rank_b = A.rank, B.rank
    if sorted(rank_a) == sorted(rank_b):
        n = A.n
        order = sorted(range(n), key=rank_a.__getitem__)
        cand = [[v for v, r in enumerate(rank_b) if r == rank_a[p]] for p in order]
        below = [tuple(_bits(A.down_mask(p) & ~(1 << p))) for p in order]
        down = [B.down_mask(v) for v in range(n)]
        assign = [-1] * n

        def bt(step: int, used: int) -> None:
            if step == n:
                out.append(tuple(assign))
                return
            want = 0
            for u in below[step]:
                want |= 1 << assign[u]
            for v in cand[step]:
                if not used >> v & 1 and down[v] & used == want:
                    assign[order[step]] = v
                    bt(step + 1, used | 1 << v)

        bt(0, 0)
        del bt  # it refers to itself: break the cycle, so `out` goes on return
        out.sort()  # rank order differs from id order off graded lattices
    result = np.array(out, dtype=np.min_scalar_type(A.n - 1)).reshape(-1, A.n)
    result.setflags(write=False)
    _ISO_CACHE[key] = result
    return result


def enumerate_interval_isos(A: IntervalView, B: IntervalView) -> list[IntervalIso]:
    """All order isomorphisms A -> B, in lexicographic order of the forward table.

    Backtracking assigns elements of equal rank, checking each against the
    down-sets of those already assigned; an empty list means the posets differ.
    """
    tables = _iso_tables(A, B)
    return [IntervalIso(source=A, target=B, forward=tuple(fwd), backward=tuple(back))
            for fwd, back in zip(tables.tolist(), tables.argsort(axis=1).tolist())]


# -- enumeration of all linear morphisms --------------------------------------

_LINMOR_CACHE: dict[tuple[bytes, bytes], tuple[np.ndarray, np.ndarray]] = {}


def _linmor_tables(L: Lattice, M: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Every linear morphism L -> M as two read-only arrays: the map tables,
    one row each in lexicographic order, and their kernels. The image tops
    are the tables' column at L.top.

    Each (kernel k, image top a) pair whose intervals [k, top] and
    [bottom, a] have one size contributes the composites x -> theta(x v k)
    of its interval isomorphisms theta, gathered as one block from the
    isomorphism tables and the members of [bottom, a], in the final table
    dtype. The views of both sides are fetched before any is read, so one
    pass fills them in, and the lower views are grouped by size, so only
    views of equal size are paired.
    """
    cap = config.DEFAULT_ENUM_CAP
    if max(L.n, M.n) > cap:
        raise SizeLimitExceededError(
            f"enumeration over {max(L.n, M.n)} elements exceeds cap {cap}")
    key = (L.structure_key, M.structure_key)
    hit = _LINMOR_CACHE.get(key)
    if hit is not None:
        return hit
    dtype = np.min_scalar_type(M.n - 1)
    upper = [interval(L, k, L.top) for k in range(L.n)]
    lower: dict[int, list[tuple[IntervalView, np.ndarray]]] = {}
    for a in range(M.n):
        dn_view = interval(M, M.bottom, a)
        lower.setdefault(dn_view.n, []).append(
            (dn_view, np.array(dn_view.members, dtype=dtype)))
    blocks: list[np.ndarray] = []
    kernels: list[int] = []
    for k, up_view in enumerate(upper):
        row_k = None
        for dn_view, members in lower.get(up_view.n, ()):
            isos = _iso_tables(up_view, dn_view)
            if not len(isos):
                continue
            if row_k is None:
                pos = up_view.from_parent
                row_k = np.array([pos[j] for j in L._join[k]], dtype=np.intp)
            blocks.append(members[isos.take(row_k, axis=1)])
            kernels.append(k)
    counts = [len(b) for b in blocks]
    tables = np.concatenate(blocks)
    order = np.lexsort(tables.T[::-1])
    tables = tables[order]
    if not _ascending(tables):
        raise ConsistencyError(
            f"two factorizations give the same map from {L.name} to {M.name}")
    kernels = np.repeat(np.array(kernels, dtype=np.intp), counts)[order]
    result = (tables, kernels)
    for arr in result:
        arr.setflags(write=False)
    _LINMOR_CACHE[key] = result
    return result


def enumerate_linmors(L: Lattice, M: Lattice | None = None) -> list[LinearMorphism]:
    """Exactly all linear morphisms L -> M, sorted by map table.

    Produced from the kernel/image/interval-iso factorization, so each
    morphism is emitted once; the factorizing triple is recoverable from the
    result (kernel, image top, restriction).
    """
    M = M if M is not None else L
    tables, kernels = _linmor_tables(L, M)
    return [LinearMorphism(domain=L, codomain=M, map=t, kernel=k, image_top=t[L.top])
            for t, k in zip(map(tuple, tables.tolist()), kernels.tolist())]


# -- extension from an interval ------------------------------------------------


def extend_from_interval(phi: LinearMorphism, dom_view: IntervalView,
                         cod_view: IntervalView, x_prime: int) -> LinearMorphism:
    """Extend phi: [bottom, x] -> [bottom, y] to the whole lattice.

    The extension composes phi with the projection onto x, sending a to
    phi((a v x') ^ x); on [bottom, x] it restricts to phi, and its kernel is
    kernel(phi) v x'. Requires a complement x' of x. (Composing with plain
    meet, a -> phi(a ^ x), can fail linearity: on the diamond M3 with phi the
    identity of [bottom, atom], the zero preimage of the meet map joins to
    the top without mapping to bottom.)
    """
    L = dom_view.parent
    if cod_view.parent is not L:
        raise ValueError("both intervals must sit in the same lattice")
    if dom_view.lo != L.bottom or cod_view.lo != L.bottom:
        raise ValueError("extension applies to lower intervals")
    if phi.domain is not dom_view.as_lattice or phi.codomain is not cod_view.as_lattice:
        raise ValueError("morphism does not match the supplied intervals")
    x = dom_view.hi
    if x_prime not in complements_of(L, x):
        raise NotAComplementError(
            f"{L.names[x_prime]!r} is not a complement of {L.names[x]!r}")
    table = tuple(
        cod_view.members[phi.map[dom_view.from_parent[L.meet_of(L.join_of(a, x_prime), x)]]]
        for a in range(L.n))
    ext = validate_linear(L, L, table)
    expected = L.join_of(dom_view.members[phi.kernel], x_prime)
    if ext.kernel != expected:
        raise ConsistencyError(
            f"extension has kernel {L.names[ext.kernel]!r}, "
            f"not ker v x' = {L.names[expected]!r}")
    return ext


def fully_invariant_elements(L: Lattice, tables) -> tuple[int, ...]:
    """Elements x with phi(x) <= x for every map table phi, one per row of
    `tables`."""
    T = np.asarray(tables, dtype=np.intp).reshape(-1, L.n)
    leq = L.tables_np[0]
    return tuple(np.flatnonzero(leq[T, np.arange(L.n)].all(axis=0)).tolist())


# -- serialization -------------------------------------------------------------


def morphism_to_json(phi: LinearMorphism) -> str:
    doc = {"domain": phi.domain.name, "codomain": phi.codomain.name,
           "map": phi.as_name_map()}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def morphism_from_json(text_or_doc, domain: Lattice) -> LinearMorphism:
    """Load an endomorphism of domain; kernel and image top are recomputed,
    never trusted."""
    doc = parse_json(text_or_doc) if isinstance(text_or_doc, str) else text_or_doc
    if not isinstance(doc, dict):
        raise ValueError("morphism JSON must be an object")
    if doc.get("domain") != domain.name or doc.get("codomain") != domain.name:
        raise ValueError("morphism JSON names a different domain or codomain")
    name_map = doc.get("map")
    if not isinstance(name_map, dict):
        raise ValueError("morphism JSON needs a \"map\" object")
    names = set(domain.names)
    if set(name_map) != names:
        raise ValueError("morphism map must cover every domain element once")
    unknown = sorted({reprlib.repr(v) for v in name_map.values()
                      if not isinstance(v, str) or v not in names})
    if unknown:
        raise ValueError(f"morphism map sends elements to names not in "
                         f"{domain.name!r}: {', '.join(unknown)}")
    table = tuple(domain.id_of(name_map[nm]) for nm in domain.names)
    return validate_linear(domain, domain, table)
