"""Finite bounded lattices: construction, validation, and structural queries.

A lattice is stored as a block of immutable tables: the order relation as
up-set/down-set bitmasks, plus fully materialized join and meet tables.
Elements are integer ids in [0, n); ``names[i]`` is the display name.
Element order is canonical: sorted by (rank, name) where rank is the length
of the longest chain from the bottom. The bottom is always id 0 and the top
is id n-1.
"""

from __future__ import annotations

import itertools
import json
import reprlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import config
from .errors import (
    ConsistencyError,
    EmptyLatticeError,
    NotALatticeError,
    NotAPosetError,
    NotComparableError,
    NotModularError,
    SizeLimitExceededError,
)
from .verdict import Verdict


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Lattice:
    """A validated finite bounded lattice.

    Instances are immutable after construction; all query methods are pure
    table lookups. Derived facts (numpy tables, the modularity verdict, the
    complement table, interval views, certified projections, the opposite
    lattice) are memoized on the instance the first time they are computed.
    They depend only on the tables, so racing writers store equal values and
    instances stay safe to share between threads.
    """

    __slots__ = (
        "name", "n", "names", "bottom", "top", "rank",
        "_up", "_down", "_join", "_meet", "_covers", "_upper_covers",
        "_name_to_id", "_np_tables", "_interval_cache", "_key",
        "_modular", "_complements", "_projections", "_opposite",
    )

    def __init__(self, *, name, names, up, down, join, meet, bottom, top, rank, covers):
        # Internal: use build_lattice, lattice_from_json or direct_product.
        self.name = name
        self.names = tuple(names)
        self.n = len(self.names)
        self._up = tuple(up)
        self._down = tuple(down)
        self._join = tuple(tuple(row) for row in join)
        self._meet = tuple(tuple(row) for row in meet)
        self.bottom = bottom
        self.top = top
        self.rank = tuple(rank)
        self._covers = tuple(covers)
        upper_covers = [0] * self.n
        for a, b in self._covers:
            upper_covers[a] |= 1 << b
        self._upper_covers = tuple(upper_covers)
        self._name_to_id = {nm: i for i, nm in enumerate(self.names)}
        self._np_tables = None
        self._interval_cache: dict[tuple[int, int], IntervalView] = {}
        self._key: bytes | None = None
        self._modular: Verdict | None = None
        self._complements: tuple[tuple[int, ...], ...] | None = None
        # (x, x') -> certified projection; filled by morphisms.projection
        self._projections: dict | None = None
        self._opposite: Lattice | None = None

    # -- order queries ----------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return bool((self._up[a] >> b) & 1)

    def join_of(self, a: int, b: int) -> int:
        return self._join[a][b]

    def meet_of(self, a: int, b: int) -> int:
        return self._meet[a][b]

    def join_all(self, elems: Iterable[int]) -> int:
        acc = self.bottom
        for e in elems:
            acc = self._join[acc][e]
        return acc

    def meet_all(self, elems: Iterable[int]) -> int:
        acc = self.top
        for e in elems:
            acc = self._meet[acc][e]
        return acc

    def up_set(self, a: int) -> list[int]:
        return list(_bits(self._up[a]))

    def down_set(self, a: int) -> list[int]:
        return list(_bits(self._down[a]))

    def up_mask(self, a: int) -> int:
        return self._up[a]

    def down_mask(self, a: int) -> int:
        return self._down[a]

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (lower, upper), sorted by ids."""
        return self._covers

    def upper_covers_mask(self, a: int) -> int:
        return self._upper_covers[a]

    def atoms(self) -> list[int]:
        return list(_bits(self._upper_covers[self.bottom]))

    def coatoms(self) -> list[int]:
        return sorted(a for a, b in self._covers if b == self.top)

    # -- identification ----------------------------------------------------

    def id_of(self, name: str) -> int:
        return self._name_to_id[name]

    @property
    def structure_key(self) -> bytes:
        """Bytes identifying the order relation with this indexing.

        Two lattices with equal keys have identical leq/join/meet tables,
        so index-level computations transfer between them.
        """
        if self._key is None:
            payload = bytearray()
            payload += self.n.to_bytes(4, "big")
            for m in self._up:
                payload += m.to_bytes((self.n + 7) // 8, "big")
            self._key = bytes(payload)
        return self._key

    @property
    def tables_np(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(leq, join, meet) as numpy arrays, built lazily."""
        if self._np_tables is None:
            n = self.n
            leq = np.zeros((n, n), dtype=bool)
            for a in range(n):
                for b in _bits(self._up[a]):
                    leq[a, b] = True
            join = np.array(self._join, dtype=np.int32)
            meet = np.array(self._meet, dtype=np.int32)
            self._np_tables = (leq, join, meet)
        return self._np_tables

    def __repr__(self) -> str:
        return f"Lattice({self.name!r}, n={self.n})"


def close_under(seeds: dict, op, limit: int | None = None) -> dict:
    """Close the seed keys under a binary op, breadth first.

    Each frontier key x is combined with each seed s as op(x, s). A new key
    records the deduplicated generator tuple of the pair that first produced
    it; for a commutative, associative and idempotent op (meets, joins,
    intersections, sums) folding `op` over those generators' seeds gives
    back the key. For an associative op with an identity among the seeds
    the result is the monoid the seeds generate. More than `limit` keys
    raises SizeLimitExceededError.
    """
    closed = dict(seeds)
    frontier = list(seeds.items())
    seed_items = frontier
    while frontier:
        nxt = []
        for x, gx in frontier:
            for s, gs in seed_items:
                z = op(x, s)
                if z not in closed:
                    closed[z] = gens = tuple(dict.fromkeys(gx + gs))
                    nxt.append((z, gens))
                    if limit is not None and len(closed) > limit:
                        raise SizeLimitExceededError(
                            f"closure exceeded {limit} elements")
        frontier = nxt
    return closed


# -- construction -----------------------------------------------------------


def _closure_masks(n: int, succ: list[list[int]], pred: list[list[int]]):
    """Reflexive-transitive closure as up/down bitmasks; detects cycles."""
    indeg = [len(pred[v]) for v in range(n)]
    order = [v for v in range(n) if indeg[v] == 0]
    for v in order:
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != n:
        stuck = [v for v in range(n) if indeg[v] > 0]
        raise NotAPosetError(f"cover relation has a cycle through: {stuck}")
    up = [0] * n
    for v in reversed(order):
        m = 1 << v
        for w in succ[v]:
            m |= up[w]
        up[v] = m
    down = [0] * n
    for v in order:
        m = 1 << v
        for w in pred[v]:
            m |= down[w]
        down[v] = m
    return up, down


def _tables_from_masks(n, up, down, names):
    """Join/meet tables from up/down masks; raises when a bound is missing."""
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            ub = up[a] & up[b]
            j = -1
            for y in _bits(ub):
                if up[y] & ub == ub:
                    j = y
                    break
            if j < 0:
                raise NotALatticeError(
                    f"elements {names[a]!r} and {names[b]!r} have no least upper bound")
            join[a][b] = join[b][a] = j
            lb = down[a] & down[b]
            m = -1
            for y in _bits(lb):
                if down[y] & lb == lb:
                    m = y
                    break
            if m < 0:
                raise NotALatticeError(
                    f"elements {names[a]!r} and {names[b]!r} have no greatest lower bound")
            meet[a][b] = meet[b][a] = m
    return join, meet


def _covers_from_masks(n, up, down):
    out = []
    for a in range(n):
        strict = up[a] & ~(1 << a)
        for b in _bits(strict):
            if (up[a] & down[b]).bit_count() == 2:
                out.append((a, b))
    out.sort()
    return out


def _ranks(n, covers, bottom):
    rank = [0] * n
    above = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in covers:
        above[a].append(b)
        indeg[b] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    for v in order:
        for w in above[v]:
            rank[w] = max(rank[w], rank[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    return rank


def _assemble(name, names, up, down, join, meet, *, canonicalize):
    """Finish a lattice from validated masks/tables.

    Finds bottom/top, computes covers and ranks, and (optionally) re-sorts
    elements into the canonical (rank, name) order. Returns the lattice and
    `order`, the input index of each output element.
    """
    n = len(names)
    full = (1 << n) - 1
    bottom = next(a for a in range(n) if up[a] == full)
    top = next(a for a in range(n) if down[a] == full)
    covers = _covers_from_masks(n, up, down)
    rank = _ranks(n, covers, bottom)
    order = list(range(n))

    if canonicalize:
        order.sort(key=lambda i: (rank[i], names[i]))
        pos = [0] * n
        for new, old in enumerate(order):
            pos[old] = new

        def remap_mask(m: int) -> int:
            out = 0
            for b in _bits(m):
                out |= 1 << pos[b]
            return out

        names = [names[old] for old in order]
        up = [remap_mask(up[old]) for old in order]
        down = [remap_mask(down[old]) for old in order]
        join = [[pos[join[o1][o2]] for o2 in order] for o1 in order]
        meet = [[pos[meet[o1][o2]] for o2 in order] for o1 in order]
        covers = sorted((pos[a], pos[b]) for a, b in covers)
        rank = [rank[old] for old in order]
        bottom, top = pos[bottom], pos[top]

    lat = Lattice(name=name, names=names, up=up, down=down, join=join,
                  meet=meet, bottom=bottom, top=top, rank=rank, covers=covers)
    return lat, order


def build_lattice(elements: Sequence[str], covers: Iterable[tuple[str, str]],
                  name: str = "L") -> Lattice:
    """Build and validate a lattice from element names and cover pairs.

    The order is the reflexive-transitive closure of the covers. Fails with
    NotAPosetError on a cycle and NotALatticeError when some pair has no
    least upper bound or no greatest lower bound.
    """
    if not elements:
        raise EmptyLatticeError("a lattice needs at least one element")
    names = list(elements)
    if len(set(names)) != len(names):
        raise ValueError("element names must be distinct")
    cap = config.lattice_size_cap()
    if len(names) > cap:
        raise SizeLimitExceededError(f"{len(names)} elements exceeds cap {cap}")
    idx = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for lo, hi in covers:
        if lo not in idx or hi not in idx:
            raise ValueError(f"cover ({lo!r}, {hi!r}) references undeclared elements")
        a, b = idx[lo], idx[hi]
        if a == b:
            raise NotAPosetError(f"self-cover on {lo!r}")
        if (a, b) in seen:
            continue
        seen.add((a, b))
        succ[a].append(b)
        pred[b].append(a)
    up, down = _closure_masks(n, succ, pred)
    join, meet = _tables_from_masks(n, up, down, names)
    return _assemble(name, names, up, down, join, meet, canonicalize=True)[0]


def opposite(L: Lattice) -> Lattice:
    """The order dual, in canonical order; memoized both ways, so
    opposite(opposite(L)) is L."""
    if L._opposite is None:
        op = _assemble(f"{L.name}^op", L.names, L._down, L._up, L._meet, L._join,
                       canonicalize=True)[0]
        op._modular = L._modular or None  # the modular law is self-dual
        op._opposite = L
        L._opposite = op
    return L._opposite


# -- serialization ----------------------------------------------------------


def lattice_to_json(L: Lattice) -> str:
    doc = {
        "name": L.name,
        "elements": list(L.names),
        "covers": [[L.names[a], L.names[b]] for a, b in L.covers()],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def parse_json(text: str):
    """json.loads, with nesting too deep for the parser as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None


def lattice_from_json(text: str) -> Lattice:
    """Parse and build a lattice; a malformed document raises ValueError.

    `name` must be a string, `elements` a list of strings and `covers` a
    list of [lower, upper] string pairs.
    """
    doc = parse_json(text)
    try:
        name = doc["name"]
        elements = doc["elements"]
        covers = doc["covers"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed lattice JSON: {exc}") from exc
    if not isinstance(name, str):
        raise ValueError("malformed lattice JSON: name must be a string")
    if not (isinstance(elements, list)
            and all(isinstance(e, str) for e in elements)):
        raise ValueError("malformed lattice JSON: elements must be a list of strings")
    if not isinstance(covers, list):
        raise ValueError("malformed lattice JSON: covers must be a list of pairs")
    for pair in covers:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(e, str) for e in pair)):
            raise ValueError(f"malformed lattice JSON: cover {reprlib.repr(pair)} "
                             f"is not a pair of element names")
    return build_lattice(elements, [tuple(pair) for pair in covers], name=name)


def lattice_to_dot(L: Lattice) -> str:
    """Hasse diagram in DOT form, one edge per cover, drawn bottom-up."""
    lines = [f'digraph "{L.name}" {{', "  rankdir=BT;", "  node [shape=plaintext];"]
    for nm in L.names:
        lines.append(f'  "{nm}";')
    for a, b in L.covers():
        lines.append(f'  "{L.names[a]}" -> "{L.names[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- structural predicates ---------------------------------------------------


def _modular_law(L: Lattice) -> Verdict:
    """The modular-law test itself, uncached: O(n^3) table comparisons."""
    leq, join, meet = L.tables_np
    for b in range(L.n):
        below = np.nonzero(leq[:, b])[0]
        if below.size == 0:
            continue
        lhs = join[np.ix_(below, meet[:, b])]
        rhs = meet[join[below, :], b]
        if not np.array_equal(lhs, rhs):
            i, c = np.argwhere(lhs != rhs)[0]
            a = int(below[i])
            witness = {"a": L.names[a], "b": L.names[b], "c": L.names[int(c)]}
            return Verdict("modular", False, witness=witness)
    return Verdict("modular", True)


def is_modular(L: Lattice) -> Verdict:
    """Modular law: a <= b implies a v (c ^ b) = (a v c) ^ b, all a, b, c.

    Decided once per lattice; later calls return the stored verdict.
    """
    if L._modular is None:
        L._modular = _modular_law(L)
    return L._modular


def require_modular(L: Lattice) -> None:
    """Raise NotModularError, with the modular-law witness, unless L is modular."""
    mod = is_modular(L)
    if not mod.holds:
        raise NotModularError(f"{L.name} is not modular: {mod.witness}")


def _complement_table(L: Lattice) -> tuple[tuple[int, ...], ...]:
    if L._complements is None:
        bottom, top = L.bottom, L.top
        L._complements = tuple(
            tuple(b for b in range(L.n)
                  if row_m[b] == bottom and row_j[b] == top)
            for row_m, row_j in zip(L._meet, L._join))
    return L._complements


def complements_of(L: Lattice, a: int) -> tuple[int, ...]:
    """All b with a ^ b = bottom and a v b = top."""
    return _complement_table(L)[a]


def complemented_elements(L: Lattice) -> tuple[int, ...]:
    """C(L): the elements that have at least one complement."""
    return tuple(a for a, comps in enumerate(_complement_table(L)) if comps)


def is_distributive(L: Lattice) -> Verdict:
    """a ^ (b v c) = (a ^ b) v (a ^ c) for all triples."""
    leq, join, meet = L.tables_np
    for a in range(L.n):
        row = meet[a]
        lhs = row[join]
        rhs = join[np.ix_(row, row)]
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            witness = {"a": L.names[a], "b": L.names[int(b)], "c": L.names[int(c)]}
            return Verdict("distributive", False, witness=witness)
    return Verdict("distributive", True)


def is_boolean(L: Lattice) -> Verdict:
    """Complemented and distributive, for a modular lattice.

    Cross-checked against an independent route: the lattice is boolean
    exactly when every map x -> a ^ x certifies as a linear morphism. Both
    routes must agree; disagreement raises ConsistencyError.
    """
    require_modular(L)
    witness = None
    missing = [a for a in range(L.n) if not complements_of(L, a)]
    if missing:
        by_def = False
        witness = {"uncomplemented": L.names[missing[0]]}
    else:
        dist = is_distributive(L)
        by_def = dist.holds
        if not dist.holds:
            witness = dist.witness

    from .errors import LinearValidationError
    from .morphisms import validate_linear

    by_meet_maps = True
    for a in range(L.n):
        mapping = tuple(L.meet_of(a, x) for x in range(L.n))
        try:
            validate_linear(L, L, mapping)
        except LinearValidationError:
            by_meet_maps = False
            break
    if by_def != by_meet_maps:
        raise ConsistencyError(
            f"boolean check routes disagree on {L.name}: "
            f"definition={by_def}, meet-map route={by_meet_maps}")
    return Verdict("boolean", by_def, witness=witness,
                   notes="definition and meet-map routes agree")


def essential_superfluous(L: Lattice, a: int, kind: str,
                          within: "IntervalView | None" = None) -> bool:
    """Essential: a meets every nonzero element of the scope nontrivially.

    Superfluous: a joins to the scope's top only with the top itself. The
    scope is the whole lattice or, when `within` is given, its members.
    """
    if within is None:
        members = range(L.n)
        lo, hi = L.bottom, L.top
    else:
        if within.parent is not L:
            raise ValueError("interval belongs to a different lattice")
        members = within.members
        lo, hi = within.lo, within.hi
        if not (L.leq(lo, a) and L.leq(a, hi)):
            raise ValueError(f"{L.names[a]!r} is outside the interval")
    if kind == "essential":
        return all(L.meet_of(a, b) != lo for b in members if b != lo)
    if kind == "superfluous":
        return all(b == hi for b in members if L.join_of(a, b) == hi)
    raise ValueError(f"unknown kind: {kind!r}")


def socle_radical(L: Lattice) -> tuple[int, int]:
    """(join of atoms, meet of coatoms)."""
    return L.join_all(L.atoms()), L.meet_all(L.coatoms())


# -- intervals ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IntervalView:
    """The interval [lo, hi] of a parent lattice, re-indexed as a lattice.

    `members[i]` is the parent id of sub-element i; `from_parent` inverts it.
    Member order follows the parent's canonical order.
    """

    parent: Lattice
    lo: int
    hi: int
    members: tuple[int, ...]
    as_lattice: Lattice
    from_parent: dict[int, int]


def interval(L: Lattice, lo: int, hi: int) -> IntervalView:
    """Members and a re-indexed lattice for [lo, hi]; cached per lattice."""
    cached = L._interval_cache.get((lo, hi))
    if cached is not None:
        return cached
    if not L.leq(lo, hi):
        raise NotComparableError(
            f"{L.names[lo]!r} is not below {L.names[hi]!r} in {L.name}")
    members = tuple(sorted(_bits(L.up_mask(lo) & L.down_mask(hi))))
    pos = {p: i for i, p in enumerate(members)}
    m = len(members)
    up = [0] * m
    down = [0] * m
    for i, p in enumerate(members):
        for j, q in enumerate(members):
            if L.leq(p, q):
                up[i] |= 1 << j
                down[j] |= 1 << i
    join = [[pos[L.join_of(p, q)] for q in members] for p in members]
    meet = [[pos[L.meet_of(p, q)] for q in members] for p in members]
    sub, _ = _assemble(f"{L.name}[{L.names[lo]},{L.names[hi]}]",
                       [L.names[p] for p in members], up, down, join, meet,
                       canonicalize=False)
    # an interval of a modular lattice is modular; a failing Verdict is falsy
    sub._modular = L._modular or None
    view = IntervalView(parent=L, lo=lo, hi=hi, members=members,
                        as_lattice=sub, from_parent=pos)
    L._interval_cache[(lo, hi)] = view
    return view


# -- products ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProductLattice:
    """A direct product with its coordinate bookkeeping."""

    lattice: Lattice
    factors: tuple[Lattice, ...]
    coords: tuple[tuple[int, ...], ...]


def direct_product(factors: Sequence[Lattice]) -> ProductLattice:
    """Pointwise-ordered Cartesian product.

    Element names are coordinate tuples of factor element names. Joins and
    meets are taken coordinatewise, then the result is re-indexed into the
    canonical order.
    """
    if not factors:
        raise ValueError("need at least one factor")
    total = 1
    for f in factors:
        total *= f.n
    cap = config.lattice_size_cap()
    if total > cap:
        raise SizeLimitExceededError(f"product size {total} exceeds cap {cap}")
    tuples = list(itertools.product(*[range(f.n) for f in factors]))
    pos = {t: i for i, t in enumerate(tuples)}
    names = ["(" + ",".join(f.names[c] for f, c in zip(factors, t)) + ")"
             for t in tuples]
    n = len(tuples)
    up = [0] * n
    down = [0] * n
    for i, t in enumerate(tuples):
        for j, s in enumerate(tuples):
            if all(f.leq(a, b) for f, a, b in zip(factors, t, s)):
                up[i] |= 1 << j
                down[j] |= 1 << i
    join = [[pos[tuple(f.join_of(a, b) for f, a, b in zip(factors, t, s))]
             for s in tuples] for t in tuples]
    meet = [[pos[tuple(f.meet_of(a, b) for f, a, b in zip(factors, t, s))]
             for s in tuples] for t in tuples]
    lat, order = _assemble("x".join(f.name for f in factors), names,
                           up, down, join, meet, canonicalize=True)
    return ProductLattice(lattice=lat, factors=tuple(factors),
                          coords=tuple(tuples[o] for o in order))


# -- decomposition -----------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """An independent family of blocks joining to the top.

    Each block a_i satisfies a_i ^ (join of the others) = bottom, and every
    interval [bottom, a_i] is indecomposable (its only complemented elements
    are its endpoints). The one-element lattice decomposes into no blocks.
    """

    blocks: tuple[int, ...]
    independent: bool


def decompose(L: Lattice) -> Decomposition:
    """Split along complemented pairs, smallest pair first, recursively."""
    require_modular(L)

    blocks: list[int] = []

    def rec(sub: Lattice, to_root: tuple[int, ...]) -> None:
        if sub.n <= 1:
            return
        for a in range(sub.n):
            if a in (sub.bottom, sub.top):
                continue
            comps = complements_of(sub, a)
            if comps:
                ap = comps[0]
                va = interval(sub, sub.bottom, a)
                vb = interval(sub, sub.bottom, ap)
                rec(va.as_lattice, tuple(to_root[p] for p in va.members))
                rec(vb.as_lattice, tuple(to_root[p] for p in vb.members))
                return
        blocks.append(to_root[sub.top])

    rec(L, tuple(range(L.n)))

    got = L.join_all(blocks)
    if got != L.top:
        raise ConsistencyError(f"decompose blocks join to {L.names[got]}, not top")
    for i, b in enumerate(blocks):
        rest = L.join_all(x for j, x in enumerate(blocks) if j != i)
        if L.meet_of(b, rest) != L.bottom:
            raise ConsistencyError(f"decompose blocks are not independent at {L.names[b]}")
        sub = interval(L, L.bottom, b).as_lattice
        if set(complemented_elements(sub)) != {sub.bottom, sub.top} and sub.n > 1:
            raise ConsistencyError(f"block {L.names[b]} is decomposable")
    return Decomposition(blocks=tuple(blocks), independent=True)
