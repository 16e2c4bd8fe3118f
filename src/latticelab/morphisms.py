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
import reprlib
from dataclasses import dataclass

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
    if any(not (0 <= v < codomain.n) for v in m):
        raise ValueError("map table has out-of-range values")

    zero_pre = [x for x in range(domain.n) if m[x] == codomain.bottom]
    if not zero_pre:
        raise NoKernelError("nothing maps to bottom, so no kernel exists")
    k = domain.join_all(zero_pre)
    if m[k] != codomain.bottom:
        raise NoKernelError(
            f"join of the zero preimage ({domain.names[k]!r}) does not map to bottom")
    for x in range(domain.n):
        if m[domain.join_of(x, k)] != m[x]:
            raise NoKernelError(
                f"map({domain.names[x]!r}) differs from map(x v kernel)")

    upper = domain.up_set(k)
    a = m[domain.top]
    target = codomain.down_set(a)
    images = [m[u] for u in upper]
    if len(set(images)) != len(upper) or set(images) != set(target):
        raise NotIntervalIsoError(
            f"restriction above {domain.names[k]!r} is not a bijection onto "
            f"[bottom, {codomain.names[a]!r}]")

    # A bijection of finite posets is an order isomorphism exactly when it
    # maps the upper covers of each element onto those of its image. Upper
    # covers of u >= k stay in [k, top]; those of m[u] inside [bottom, a]
    # are the upper covers m[u] has in that interval.
    down_a = codomain.down_mask(a)
    for u in upper:
        got = 0
        for v in _bits(domain.upper_covers_mask(u)):
            got |= 1 << m[v]
        if got != codomain.upper_covers_mask(m[u]) & down_a:
            raise NotIntervalIsoError(
                f"upper covers of {domain.names[u]!r} do not map onto the upper "
                f"covers of {codomain.names[m[u]]!r} below {codomain.names[a]!r}")
    return LinearMorphism(domain=domain, codomain=codomain, map=m,
                          kernel=k, image_top=a)


def identity_morphism(L: Lattice) -> LinearMorphism:
    return LinearMorphism(domain=L, codomain=L, map=tuple(range(L.n)),
                          kernel=L.bottom, image_top=L.top)


def zero_morphism(domain: Lattice, codomain: Lattice | None = None) -> LinearMorphism:
    cod = codomain if codomain is not None else domain
    return LinearMorphism(domain=domain, codomain=cod,
                          map=(cod.bottom,) * domain.n,
                          kernel=domain.top, image_top=cod.bottom)


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


def _corank(L: Lattice) -> list[int]:
    out = [0] * L.n
    for a, b in reversed(L.covers()):
        out[a] = max(out[a], out[b] + 1)
    return out


def _iso_profile(L: Lattice) -> list[tuple[int, ...]]:
    up_deg = [0] * L.n
    down_deg = [0] * L.n
    for a, b in L.covers():
        up_deg[a] += 1
        down_deg[b] += 1
    cor = _corank(L)
    return [(L.rank[i], cor[i], up_deg[i], down_deg[i],
             L.up_mask(i).bit_count(), L.down_mask(i).bit_count())
            for i in range(L.n)]


_ISO_CACHE: dict[tuple[bytes, bytes], tuple[tuple[int, ...], ...]] = {}


def _iso_tables(A: Lattice, B: Lattice) -> tuple[tuple[int, ...], ...]:
    key = (A.structure_key, B.structure_key)
    hit = _ISO_CACHE.get(key)
    if hit is not None:
        return hit
    out: list[tuple[int, ...]] = []
    if A.n == B.n:
        pa = _iso_profile(A)
        pb = _iso_profile(B)
        if sorted(pa) == sorted(pb):
            n = A.n
            cand = [tuple(j for j in range(n) if pb[j] == pa[i]) for i in range(n)]
            assign = [-1] * n
            used = [False] * n

            def bt(i: int) -> None:
                if i == n:
                    out.append(tuple(assign))
                    return
                for v in cand[i]:
                    if used[v]:
                        continue
                    ok = True
                    for u in range(i):
                        w = assign[u]
                        if A.leq(u, i) != B.leq(w, v) or A.leq(i, u) != B.leq(v, w):
                            ok = False
                            break
                    if ok:
                        assign[i] = v
                        used[v] = True
                        bt(i + 1)
                        used[v] = False

            bt(0)
    result = tuple(out)
    _ISO_CACHE[key] = result
    return result


def enumerate_interval_isos(A: IntervalView, B: IntervalView) -> list[IntervalIso]:
    """All order isomorphisms A -> B, in lexicographic order of the forward table.

    Backtracking assigns elements in canonical order and prunes by rank,
    corank, and cover degrees; an empty list means the posets differ.
    """
    isos = []
    for fwd in _iso_tables(A.as_lattice, B.as_lattice):
        back = [0] * len(fwd)
        for i, v in enumerate(fwd):
            back[v] = i
        isos.append(IntervalIso(source=A, target=B, forward=fwd,
                                backward=tuple(back)))
    return isos


def iso_composites(src: IntervalView, dst: IntervalView, pre):
    """The tables x -> theta(pre[x]) for each iso theta: src -> dst.

    `pre` lists, for each x, a parent element inside src; the composites
    come in `enumerate_interval_isos` order and are read off in parent ids.
    """
    tables = _iso_tables(src.as_lattice, dst.as_lattice)
    if not tables:
        return
    row = [src.from_parent[p] for p in pre]
    for fwd in tables:
        yield tuple(dst.members[fwd[i]] for i in row)


# -- enumeration of all linear morphisms --------------------------------------

_LINMOR_CACHE: dict[tuple[bytes, bytes], tuple[tuple[tuple[int, ...], int, int], ...]] = {}


def _linmor_tables(L: Lattice, M: Lattice) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    key = (L.structure_key, M.structure_key)
    hit = _LINMOR_CACHE.get(key)
    if hit is not None:
        return hit
    found: list[tuple[tuple[int, ...], int, int]] = []
    for k in range(L.n):
        up_view = interval(L, k, L.top)
        join_k = [L.join_of(x, k) for x in range(L.n)]
        for a in range(M.n):
            dn_view = interval(M, M.bottom, a)
            if len(dn_view.members) == len(up_view.members):
                found.extend((table, k, a)
                             for table in iso_composites(up_view, dn_view, join_k))
    found.sort(key=lambda t: t[0])
    if len({t[0] for t in found}) != len(found):
        raise ConsistencyError(
            f"two factorizations give the same map from {L.name} to {M.name}")
    result = tuple(found)
    _LINMOR_CACHE[key] = result
    return result


def enumerate_linmors(L: Lattice, M: Lattice | None = None) -> list[LinearMorphism]:
    """Exactly all linear morphisms L -> M, sorted by map table.

    Produced from the kernel/image/interval-iso factorization, so each
    morphism is emitted once; the factorizing triple is recoverable from the
    result (kernel, image top, restriction).
    """
    M = M if M is not None else L
    cap = config.DEFAULT_ENUM_CAP
    if max(L.n, M.n) > cap:
        raise SizeLimitExceededError(
            f"enumeration over {max(L.n, M.n)} elements exceeds cap {cap}")
    return [LinearMorphism(domain=L, codomain=M, map=t, kernel=k, image_top=a)
            for t, k, a in _linmor_tables(L, M)]


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


def fully_invariant_elements(L: Lattice, morphisms) -> tuple[int, ...]:
    """Elements x with phi(x) <= x for every morphism in the collection."""
    members = list(morphisms)
    return tuple(x for x in range(L.n)
                 if all(L.leq(phi.map[x], x) for phi in members))


# -- serialization -------------------------------------------------------------


def morphism_to_json(phi: LinearMorphism) -> str:
    doc = {"domain": phi.domain.name, "codomain": phi.codomain.name,
           "map": phi.as_name_map()}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def morphism_from_json(text_or_doc, domain: Lattice,
                       codomain: Lattice | None = None) -> LinearMorphism:
    """Load a morphism; kernel and image top are recomputed, never trusted."""
    doc = parse_json(text_or_doc) if isinstance(text_or_doc, str) else text_or_doc
    cod = codomain if codomain is not None else domain
    if not isinstance(doc, dict):
        raise ValueError("morphism JSON must be an object")
    if doc.get("domain") != domain.name or doc.get("codomain") != cod.name:
        raise ValueError("morphism JSON names a different domain or codomain")
    name_map = doc.get("map")
    if not isinstance(name_map, dict):
        raise ValueError("morphism JSON needs a \"map\" object")
    if set(name_map) != set(domain.names):
        raise ValueError("morphism map must cover every domain element once")
    known = set(cod.names)
    unknown = sorted({reprlib.repr(v) for v in name_map.values()
                      if not isinstance(v, str) or v not in known})
    if unknown:
        raise ValueError(f"morphism map sends elements to names not in "
                         f"{cod.name!r}: {', '.join(unknown)}")
    table = tuple(cod.id_of(name_map[nm]) for nm in domain.names)
    return validate_linear(domain, cod, table)
