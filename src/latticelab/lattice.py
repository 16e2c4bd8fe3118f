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
from collections import Counter
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
    table lookups. Derived facts (numpy tables, up-set and upper-cover
    lists, the modularity verdict, the complement table, interval views,
    certified projections, the opposite lattice) are memoized on the instance the first time they are computed.
    They depend only on the tables, so racing writers store equal values and
    instances stay safe to share between threads.
    """

    __slots__ = (
        "name", "n", "names", "bottom", "top", "rank",
        "_up", "_down", "_join", "_meet", "_covers", "_upper_covers",
        "_name_to_id", "_np_tables", "_order_lists", "_interval_cache", "_key",
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
        self._order_lists = None
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
            self._key = _structure_key(self._up)
        return self._key

    @property
    def tables_np(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(leq, join, meet) as numpy arrays, built lazily."""
        if self._np_tables is None:
            leq = _bit_table(self._up, self.n)
            join = np.array(self._join, dtype=np.int32)
            meet = np.array(self._meet, dtype=np.int32)
            self._np_tables = (leq, join, meet)
        return self._np_tables

    @property
    def order_lists(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(up-sets, upper covers): for each element, the elements above it
        and its upper covers, as sorted tuples; built lazily."""
        if self._order_lists is None:
            self._order_lists = (tuple(tuple(_bits(m)) for m in self._up),
                                 tuple(tuple(_bits(m)) for m in self._upper_covers))
        return self._order_lists

    def __repr__(self) -> str:
        return f"Lattice({self.name!r}, n={self.n})"


def _bit_table(masks: Sequence[int], n: int) -> np.ndarray:
    """The (len(masks), n) boolean table whose row i holds the bits of masks[i]."""
    width = (n + 7) // 8
    packed = b"".join(m.to_bytes(width, "little") for m in masks)
    return np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(len(masks), width),
                         axis=1, count=n, bitorder="little").view(bool)


def _masks_to_ints(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int, bit j set where row[j] is.
    Rows of at most 64 columns are packed by one product with the powers
    of two, wider rows byte by byte."""
    width = rows.shape[1]
    if width <= 64:
        powers = np.left_shift(np.uint64(1), np.arange(width, dtype=np.uint64))
        return (rows.view(np.uint8) @ powers).tolist()
    packed = np.packbits(rows, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


def _structure_key(up: Sequence[int]) -> bytes:
    """The element count, then each up-set mask, in big-endian bytes."""
    n = len(up)
    width = (n + 7) // 8
    return n.to_bytes(4, "big") + b"".join(m.to_bytes(width, "big") for m in up)


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
    """Join/meet tables from up/down masks; raises when a bound is missing.

    The least upper bound of a and b is the one element whose up-set is
    exactly their common upper bounds, up[a] & up[b], so each join is one
    lookup of that mask; meets read down-sets the same way.
    """
    by_up = {m: y for y, m in enumerate(up)}
    by_down = {m: y for y, m in enumerate(down)}
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for a in range(n):
        up_a, down_a, join_a, meet_a = up[a], down[a], join[a], meet[a]
        for b in range(a, n):
            j = by_up.get(up_a & up[b])
            if j is None:
                raise NotALatticeError(
                    f"elements {names[a]!r} and {names[b]!r} have no least upper bound")
            join_a[b] = join[b][a] = j
            m = by_down.get(down_a & down[b])
            if m is None:
                raise NotALatticeError(
                    f"elements {names[a]!r} and {names[b]!r} have no greatest lower bound")
            meet_a[b] = meet[b][a] = m
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


def _ranks(n, covers):
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


def _assemble(name, names, up, down, join, meet):
    """Finish a lattice from validated masks/tables.

    Finds bottom/top, computes covers and ranks, and re-sorts elements into
    the canonical (rank, name) order. Returns the lattice and `order`, the
    input index of each output element.
    """
    n = len(names)
    full = (1 << n) - 1
    bottom = next(a for a in range(n) if up[a] == full)
    top = next(a for a in range(n) if down[a] == full)
    covers = _covers_from_masks(n, up, down)
    rank = _ranks(n, covers)
    order = sorted(range(n), key=lambda i: (rank[i], names[i]))
    pos = [0] * n
    for new, old in enumerate(order):
        pos[old] = new

    def remap_mask(m: int) -> int:
        out = 0
        for b in _bits(m):
            out |= 1 << pos[b]
        return out

    lat = Lattice(name=name, names=[names[old] for old in order],
                  up=[remap_mask(up[old]) for old in order],
                  down=[remap_mask(down[old]) for old in order],
                  join=[[pos[join[o1][o2]] for o2 in order] for o1 in order],
                  meet=[[pos[meet[o1][o2]] for o2 in order] for o1 in order],
                  bottom=pos[bottom], top=pos[top],
                  rank=[rank[old] for old in order],
                  covers=sorted((pos[a], pos[b]) for a, b in covers))
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
    cap = config.DEFAULT_LATTICE_CAP
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
    return _assemble(name, names, up, down, join, meet)[0]


def opposite(L: Lattice) -> Lattice:
    """The order dual, in canonical order; memoized both ways, so
    opposite(opposite(L)) is L."""
    if L._opposite is None:
        op = _assemble(f"{L.name}^op", L.names, L._down, L._up, L._meet, L._join)[0]
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


def _dot_quoted(text: str) -> str:
    """text as a DOT quoted string, with backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def lattice_to_dot(L: Lattice) -> str:
    """Hasse diagram in DOT form, one edge per cover, drawn bottom-up."""
    q = [_dot_quoted(nm) for nm in L.names]
    lines = [f"digraph {_dot_quoted(L.name)} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
    lines += [f"  {nm};" for nm in q]
    lines += [f"  {q[a]} -> {q[b]};" for a, b in L.covers()]
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- structural predicates ---------------------------------------------------


def _modular_law(L: Lattice) -> Verdict:
    """The modular-law test itself, uncached: O(n^3) table comparisons. The
    witness is the first failing (a, b, c), b outermost, then a, then c."""
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


def _birkhoff(L: Lattice) -> bool:
    """Birkhoff's criterion, in O(n^2): a finite lattice is modular exactly
    when it is graded and r(x) + r(y) = r(x ^ y) + r(x v y) for all x, y.
    With `L.rank` the longest chain up from the bottom, the lattice is
    graded exactly when every cover raises the rank by 1. That rank rises
    strictly along the order, and a strictly rising r with the rank
    equation already makes the lattice modular, so the graded test is a
    quick reject that never changes the answer."""
    _, join, meet = L.tables_np
    rank = np.array(L.rank, dtype=np.min_scalar_type(2 * L.n))  # sums fit
    lo, hi = np.array(L._covers, dtype=np.intp).reshape(-1, 2).T
    return bool((rank[hi] == rank[lo] + 1).all()) and np.array_equal(
        rank[join] + rank[meet], rank[:, None] + rank)


def _decide_modular(L: Lattice) -> Verdict:
    """The modularity verdict, uncached: Birkhoff's criterion decides, and
    only a lattice it refutes goes to `_modular_law` for the witness."""
    if _birkhoff(L):
        return Verdict("modular", True)
    verdict = _modular_law(L)
    if verdict.holds:
        raise ConsistencyError(
            f"{L.name} fails Birkhoff's rank criterion but the modular law "
            f"finds no witness")
    return verdict


def is_modular(L: Lattice) -> Verdict:
    """Modular law: a <= b implies a v (c ^ b) = (a v c) ^ b, all a, b, c.

    Decided once per lattice; later calls return the stored verdict. The
    decision is Birkhoff's criterion (graded, with r(x) + r(y) = r(x ^ y) +
    r(x v y)), one pass over the covers and one over the join and meet
    tables. A lattice it refutes goes through the O(n^3) modular law, whose
    first failing triple is the witness; if that finds none, the two routes
    disagree and ConsistencyError is raised.
    """
    if L._modular is None:
        L._modular = _decide_modular(L)
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


class IntervalView:
    """The interval [lo, hi] of a parent lattice, at the index level.

    `members[i]` is the parent id of sub-element i; `from_parent` inverts it.
    Member order follows the parent's order. An interval is convex, so its
    order and its covers are the parent's, restricted to the members.

    Views are made by `interval` a side at a time: the first request for a
    lower interval [bottom, x] makes all n lower views, the first for an
    upper interval [x, top] all n upper views, and any other interval is
    made alone. A view starts with its members and makes `from_parent` on
    first use. The first read of `rank`, `structure_key` or the masks
    (`_order`: up, down and upper-cover masks over member indices) of any
    view fills in those fields for every view of the parent made so far, in
    one pass (`_fill_views`). `as_lattice`, the interval re-indexed as a
    lattice, is built from the masks and the parent's join and meet rows on
    first use.
    """

    __slots__ = ("parent", "lo", "hi", "members", "_from_parent", "_masks", "_rank",
                 "_key", "_lattice")

    def __init__(self, parent: Lattice, lo: int, hi: int, members: tuple[int, ...]):
        self.parent = parent
        self.lo = lo
        self.hi = hi
        self.members = members
        self._from_parent: dict[int, int] | None = None
        self._masks: tuple[tuple[int, ...], ...] | None = None
        self._rank: tuple[int, ...] | None = None
        self._key: bytes | None = None
        self._lattice: Lattice | None = None

    @property
    def from_parent(self) -> dict[int, int]:
        if self._from_parent is None:
            self._from_parent = dict(zip(self.members, range(len(self.members))))
        return self._from_parent

    def _filled(self) -> "IntervalView":
        if self._masks is None:
            _fill_views(self.parent, self)
        return self

    @property
    def _order(self) -> tuple[tuple[int, ...], ...]:
        return self._filled()._masks

    @property
    def rank(self) -> tuple[int, ...]:
        return self._filled()._rank

    @property
    def structure_key(self) -> bytes:
        return self._filled()._key

    @property
    def n(self) -> int:
        return len(self.members)

    def down_mask(self, i: int) -> int:
        return self._order[1][i]

    def _covers(self) -> list[tuple[int, int]]:
        return [(a, b) for a, m in enumerate(self._order[2]) for b in _bits(m)]

    @property
    def as_lattice(self) -> Lattice:
        if self._lattice is None:
            L, pos, members = self.parent, self.from_parent, self.members
            up, down, _ = self._order
            join = [[pos[row[q]] for q in members] for row in (L._join[p] for p in members)]
            meet = [[pos[row[q]] for q in members] for row in (L._meet[p] for p in members)]
            sub = Lattice(name=f"{L.name}[{L.names[self.lo]},{L.names[self.hi]}]",
                          names=[L.names[p] for p in members], up=up, down=down,
                          join=join, meet=meet, bottom=pos[self.lo], top=pos[self.hi],
                          rank=self.rank, covers=self._covers())
            sub._key = self.structure_key
            # an interval of a modular lattice is modular; a failing Verdict is falsy
            sub._modular = L._modular or None
            self._lattice = sub
        return self._lattice

    def __repr__(self) -> str:
        L = self.parent
        return f"IntervalView({L.name!r}, [{L.names[self.lo]!r}, {L.names[self.hi]!r}])"


def interval(L: Lattice, lo: int, hi: int) -> IntervalView:
    """The index-level view of [lo, hi]; cached per lattice. The first
    request for a lower interval [bottom, x] makes every lower view, the
    first for an upper interval [x, top] every upper view."""
    cache = L._interval_cache
    cached = cache.get((lo, hi))
    if cached is not None:
        return cached
    if not L.leq(lo, hi):
        raise NotComparableError(
            f"{L.names[lo]!r} is not below {L.names[hi]!r} in {L.name}")
    if lo == L.bottom:
        side = [(lo, x) for x in range(L.n)]
    elif hi == L.top:
        side = [(x, hi) for x in range(L.n)]
    else:
        side = [(lo, hi)]
    inside = _bit_table([L._up[a] & L._down[b] for a, b in side], L.n)
    ids = inside.nonzero()[1].tolist()  # the members of each view, view by view
    start = 0
    for pair, count in zip(side, inside.sum(axis=1).tolist()):
        if pair not in cache:  # [bottom, top] is on both sides
            cache[pair] = IntervalView(L, *pair, tuple(ids[start:start + count]))
        start += count
    return cache[(lo, hi)]


def _fill_views(L: Lattice, view: IntervalView) -> None:
    """Fill in the masks, ranks and structure keys of `view` and of every
    other view of L made so far, in one pass.

    Bit i of the compressed up mask of a member p of a view is whether p
    lies below the view's i-th member; the down and upper-cover masks read
    the other two tables the same way. One gather reads those bits for
    every member of every view from the three tables, at its view's
    members padded with an absent element n, and `_masks_to_ints` packs
    them. The rank of y in [lo, hi] is the longest chain from lo up to y:
    one boolean product over the covers per chain length finds it for
    every distinct lo at once (off graded lattices L.rank[y] - L.rank[lo]
    can fall short).
    """
    views = [v for v in list(L._interval_cache.values()) if v._masks is None and v is not view]
    views.append(view)
    n = L.n
    tables = np.zeros((3, n + 1, n + 1), dtype=bool)  # up-sets, down-sets, upper covers
    tables[:, :n, :n] = _bit_table(L._up + L._down + L._upper_covers, n).reshape(3, n, n)
    counts = [v.n for v in views]
    members = np.fromiter(itertools.chain.from_iterable(v.members for v in views),
                          dtype=np.intp)
    owner = np.arange(len(views)).repeat(counts)
    at = np.fromiter(itertools.chain.from_iterable(map(range, counts)), dtype=np.intp)
    padded = np.full((len(views), max(counts)), n)  # each view's members, then n
    padded[owner, at] = members
    bits = tables.reshape(3, -1).take(members[:, None] * (n + 1) + padded[owner], axis=1)
    masks = _masks_to_ints(bits.reshape(-1, padded.shape[1]))
    total = len(members)
    up, down, upper_covers = masks[:total], masks[total:2 * total], masks[2 * total:]
    los = sorted({v.lo for v in views})
    row_of = dict(zip(los, range(len(los))))
    cover = tables[2, :n, :n]
    reach, rank = tables[0, los, :n], 0
    while reach.any():  # reach[i, y]: some chain of the current length runs from los[i] to y
        reach = reach @ cover
        rank = rank + reach
    rank = rank[np.repeat([row_of[v.lo] for v in views], counts), members].tolist()
    start = 0
    for v, count in zip(views, counts):
        end = start + count
        ups = tuple(up[start:end])
        v._rank = tuple(rank[start:end])
        v._key = _structure_key(ups)
        # set last: another thread reads the other fields once it sees the masks
        v._masks = (ups, tuple(down[start:end]), tuple(upper_covers[start:end]))
        start = end


# -- products ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProductLattice:
    """A direct product with its coordinate bookkeeping."""

    lattice: Lattice
    factors: tuple[Lattice, ...]
    coords: tuple[tuple[int, ...], ...]


def direct_product(factors: Sequence[Lattice]) -> ProductLattice:
    """Pointwise-ordered Cartesian product.

    Element names are coordinate tuples of factor element names. The order,
    join and meet tables are built by broadcasting the factor tables over
    the coordinates of the elements in `itertools.product` order, whose ids
    are the coordinates read in mixed radix; joins and meets are taken
    coordinatewise. A cover raises one coordinate by a cover, so the rank
    is the sum of the coordinate ranks. The result is then re-indexed into
    the canonical order.
    """
    if not factors:
        raise ValueError("need at least one factor")
    total = 1
    for f in factors:
        total *= f.n
    cap = config.DEFAULT_LATTICE_CAP
    if total > cap:
        raise SizeLimitExceededError(f"product size {total} exceeds cap {cap}")
    tuples = list(itertools.product(*[range(f.n) for f in factors]))
    names = ["(" + ",".join(f.names[c] for f, c in zip(factors, t)) + ")"
             for t in tuples]
    # factor names with commas can make two different tuples read alike
    repeated = next((nm for nm, c in Counter(names).items() if c > 1), None)
    if repeated is not None:
        raise ValueError(f"product element name {repeated!r} is repeated")
    leq, join, meet, rank = True, 0, 0, 0
    for f, c in zip(factors, np.array(tuples, dtype=np.intp).T):
        f_leq, f_join, f_meet = (table[np.ix_(c, c)] for table in f.tables_np)
        leq, join, meet = leq & f_leq, join * f.n + f_join, meet * f.n + f_meet
        rank = rank + np.array(f.rank)[c]
    rank = rank.tolist()
    order = sorted(range(total), key=lambda i: (rank[i], names[i]))
    pos = np.empty(total, dtype=np.int32)
    pos[order] = np.arange(total)
    leq, join, meet = (table[np.ix_(order, order)] for table in (leq, pos[join], pos[meet]))
    # a cover is a strict pair with nothing strictly between
    strict = leq & ~np.eye(total, dtype=bool)
    lat = Lattice(name="x".join(f.name for f in factors), names=[names[o] for o in order],
                  up=_masks_to_ints(leq), down=_masks_to_ints(leq.T),
                  join=join.tolist(), meet=meet.tolist(), bottom=0, top=total - 1,
                  rank=[rank[o] for o in order],
                  covers=list(map(tuple, np.argwhere(strict & ~(strict @ strict)).tolist())))
    lat._np_tables = (leq, join, meet)
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
