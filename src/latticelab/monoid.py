"""Submonoids-with-zero of the linear endomorphisms of a lattice.

Members are canonically sorted by map table. The composition table is built
lazily, with numpy, in blocks of member rows: property checks that only read
kernels and image tops stay cheap even for very large induced monoids. The
annihilator calculus reads whole-table arrays derived from it once per
monoid.
"""

from __future__ import annotations

import numbers
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import NotClosedError, SizeLimitExceededError
from .lattice import (Lattice, close_under, complemented_elements, complements_of,
                      require_modular)
from .morphisms import (
    LinearMorphism,
    _ascending,
    _linmor_tables,
    certify_tables,
    identity_morphism,
    morphism_from_json,
    projection,
    row_keys,
    zero_morphism,
)
from .verdict import Verdict

# composition tables are index-level data, reusable across lattice instances
# with the same structure key and member tables, keyed by the tables' bytes
_COMP_CACHE: dict[tuple[bytes, bytes], np.ndarray] = {}

# the composition table is built in blocks of member rows whose temporaries
# stay near this many bytes, whatever the monoid size
_BLOCK_BYTES = 1 << 20


def _owned(values, dtype) -> np.ndarray:
    """values as an array of dtype that only its holder can write to: a
    read-only array owning its data is kept, anything else is copied."""
    arr = np.asarray(values)
    return arr.astype(dtype, copy=arr.flags.writeable or not arr.flags.owndata)


class EndoMonoid:
    """A composition-closed set of linear endomorphisms with zero and identity.

    The lattice must be modular, as for the linear maps of Albu and Iosif:
    off modular lattices a composite of linear maps need not be linear.

    A linear map is fixed by its table, and its image top is its value at
    the top, so the monoid stores its certified rows and their kernels:
    read-only arrays in member order, `tables` (one map table per row,
    sorted), `member_kernels`, and `member_image_tops`, the tables' top
    column. `LinearMorphism` objects are built only on demand: `m[i]` makes
    the one for row i, and `members` makes them all once.
    """

    __slots__ = ("lattice", "tables", "member_kernels", "member_image_tops",
                 "zero_idx", "id_idx", "_members", "_comp", "_idem", "_cosets",
                 "_pairs", "_first", "_kernels", "_image_tops", "_zero_products")

    def __init__(self, lattice: Lattice, tables, kernels):
        """The monoid of certified rows: each row of `tables` a linear map
        table of the lattice, with its kernel. Rows that come in strictly
        increasing lexicographic order, as `_linmor_tables` and `np.unique`
        give them, are kept in that order; rows in any other order are
        sorted. A repeated row raises ValueError. Read-only arrays that own
        their data, as the enumeration cache holds, are kept; anything else
        is copied, so no caller can change the monoid afterwards."""
        require_modular(lattice)
        n = lattice.n
        tables = _owned(tables, np.min_scalar_type(n - 1))
        kernels = _owned(kernels, np.intp)
        if not _ascending(tables):
            order = np.lexsort(tables.T[::-1])
            tables, kernels = tables[order], kernels[order]
            if not _ascending(tables):  # sorted, so two rows are equal
                raise ValueError("a member table is repeated")
        # the bottom is id 0, so the zero map is the smallest row when present
        identity = (tables == np.arange(n)).all(axis=1)
        if not identity.any() or tables[0].any():
            raise NotClosedError("a submonoid with zero must contain the zero "
                                 "morphism and the identity")
        self.lattice = lattice
        self.tables = tables
        self.member_kernels = kernels
        self.member_image_tops = tables[:, lattice.top]
        for arr in (self.tables, self.member_kernels, self.member_image_tops):
            arr.setflags(write=False)
        self.zero_idx, self.id_idx = 0, int(identity.argmax())
        self._members = None
        self._comp = None
        self._idem = None
        self._cosets = None
        self._pairs = None
        self._first = None
        self._kernels = None
        self._image_tops = None
        self._zero_products = None

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> LinearMorphism:
        L = self.lattice
        return LinearMorphism(L, L, tuple(self.tables[i].tolist()),
                              int(self.member_kernels[i]),
                              int(self.member_image_tops[i]))

    @property
    def members(self) -> tuple[LinearMorphism, ...]:
        """Every member as a `LinearMorphism`, in member order, built once."""
        if self._members is None:
            L = self.lattice
            self._members = tuple(
                LinearMorphism(L, L, tuple(row), k, a)
                for row, k, a in zip(self.tables.tolist(), self.member_kernels.tolist(),
                                     self.member_image_tops.tolist()))
        return self._members

    def find(self, tables) -> np.ndarray:
        """The member index of each row of an (N, n) array of map tables, or
        -1 where the row is no member, by binary search in the sorted member
        tables. A row with a value outside [0, n) is no member."""
        tables = np.asarray(tables)
        n = self.lattice.n
        if tables.ndim != 2 or tables.shape[1] != n:
            raise ValueError("map tables must form an (N, n) array, n the lattice size")
        valid = ((tables >= 0) & (tables < n)).all(axis=1)
        members = row_keys(self.tables)
        keys = row_keys(tables.astype(self.tables.dtype, copy=False))  # wraps invalid values
        at = np.searchsorted(members, keys).clip(max=len(members) - 1)
        return np.where(valid & (members[at] == keys), at, -1)

    @property
    def comp(self) -> np.ndarray:
        """comp[i, j] = index of members[i] composed after members[j].

        Built lazily: property checks that only read kernels and images never
        pay for it. The composites of a block of rows walk a trie of the
        sorted member tables, one table position at a time, and reach the
        index of the member they equal or a dead end.
        """
        if self._comp is None:
            key = (self.lattice.structure_key, self.tables.tobytes())
            table = _COMP_CACHE.get(key)
            if table is None:
                table = _composition_table(self.tables)
                table.setflags(write=False)
                _COMP_CACHE[key] = table
            self._comp = table
        return self._comp

    @property
    def zero_products(self) -> np.ndarray:
        """comp == zero_idx, read-only. Row t is the right annihilator of the
        single target t as a member mask, column t its left annihilator."""
        if self._zero_products is None:
            self._zero_products = self.comp == self.zero_idx
            self._zero_products.setflags(write=False)
        return self._zero_products

    @property
    def has_all_projections(self) -> bool:
        """Whether every projection, for every complement choice, is a member."""
        pis = [pi.map for pi in _all_projections(self.lattice)]
        return bool((self.find(pis) >= 0).all())

    @property
    def pairs(self) -> dict[int, tuple[int, ...]]:
        """Each member kernel a, sorted, with the sorted image tops b of its
        members. A linear map with kernel a and image top b is the quotient
        onto [a, top] followed by an interval isomorphism onto [bottom, b],
        so some such composite lies in the monoid exactly when b is in pairs[a]."""
        if self._pairs is None:
            tops: dict[int, set[int]] = {}
            first: dict[str, dict[int, int]] = {"kernel": {}, "image": {}}
            for i, (k, a) in enumerate(zip(self.member_kernels.tolist(),
                                           self.member_image_tops.tolist())):
                tops.setdefault(k, set()).add(a)
                first["kernel"].setdefault(k, i)
                first["image"].setdefault(a, i)
            self._first = {side: MappingProxyType(d) for side, d in first.items()}
            self._pairs = {k: tuple(sorted(tops[k])) for k in sorted(tops)}
        return self._pairs

    def first_with(self, side: str) -> Mapping[int, int]:
        """Each distinct member kernel (side "kernel") or image top ("image"),
        in member order of first appearance, mapped to the index of its first
        member, read-only. A checker whose condition reads only the kernel or
        the image top names this first member as the witness of a failing
        one: it is the first failing member."""
        self.pairs  # the same pass over the members records both sides
        return self._first[side]

    def first_in_class(self, kernel: int, image_top: int, cols) -> int:
        """The index of the member with this kernel and image top whose
        values on `cols` come first in lexicographic order. The class must
        not be empty."""
        rows = np.flatnonzero((self.member_kernels == kernel)
                              & (self.member_image_tops == image_top))
        return int(rows[np.lexsort(self.tables[rows][:, cols].T[::-1])[0]])

    @property
    def kernels(self) -> tuple[int, ...]:
        """The distinct member kernels, sorted."""
        if self._kernels is None:
            self._kernels = tuple(sorted(self.first_with("kernel")))
        return self._kernels

    @property
    def image_tops(self) -> tuple[int, ...]:
        """The distinct member image tops, sorted."""
        if self._image_tops is None:
            self._image_tops = tuple(sorted(self.first_with("image")))
        return self._image_tops

    def idempotent_indices(self) -> tuple[int, ...]:
        if self._idem is None:
            t = self.tables
            square = np.take_along_axis(t, t.astype(np.intp), axis=1)
            self._idem = tuple(np.flatnonzero((square == t).all(axis=1)).tolist())
        return self._idem

    def __repr__(self) -> str:
        return f"EndoMonoid({self.lattice.name!r}, size={len(self)})"


def _composition_table(tables: np.ndarray) -> np.ndarray:
    """comp for the sorted, distinct member tables (one per row).

    The member tables form a trie: the nodes at depth x are their distinct
    prefixes of length x. Node 0 is a dead end that every missing edge
    leads to, node 1 the root, and an edge out of depth n-1 leads to member
    index + 1. child[node * n + value] holds the target of each edge, times
    n for an inner node, so walking a composite's values down the trie adds
    each value to the state and looks the sum up. The walk ends at index + 1
    exactly when the composite is a member.
    """
    size, n = tables.shape
    # the first position where each table leaves the one before it: its
    # prefixes from there on are new nodes
    first = np.zeros(size, dtype=np.intp)
    first[1:] = (tables[1:] != tables[:-1]).argmax(axis=1)
    # state[x, r]: where the walk of member r's own table stands after x
    # positions, its depth-x node times n (nodes numbered depth by depth),
    # and after all n positions r + 1
    state = np.empty((n + 1, size), dtype=np.intp)
    state[0] = 1
    state[1:n] = np.cumsum(first <= np.arange(n - 1)[:, None]).reshape(n - 1, size) + 1
    state[:n] *= n
    state[n] = np.arange(1, size + 1)
    child = np.zeros(n * (2 + size * (n - 1) - int(first.sum())), dtype=np.intp)
    child[state[:n] + tables.T] = state[1:]
    table = np.empty((size, size), dtype=np.int32)
    cols = tables.T.astype(np.intp)  # cols[x][j]: member j's value at x
    # bytes live per composite at the peak of a block: the state before and
    # after a step, and one gathered value
    rows = max(1, _BLOCK_BYTES // (size * (16 + tables.itemsize)))
    for start in range(0, size, rows):
        block = np.ascontiguousarray(tables[start:start + rows].T)
        # cur[j, i]: the state of members[start + i] composed after members[j]
        cur = np.full((size, block.shape[1]), n, dtype=np.intp)
        for x in range(n):
            cur += block[cols[x]]
            cur = child.take(cur)
        if not cur.all():
            i = start + int(np.argmin(cur.all(axis=0)))
            raise NotClosedError(f"member {i} composes outside the set")
        table[start:start + block.shape[1]] = cur.T - 1
    return table


def _all_projections(L: Lattice):
    """Every projection, for every complement choice, built on demand."""
    return (projection(L, a, ap)
            for a in complemented_elements(L) for ap in complements_of(L, a))


def full_monoid(L: Lattice) -> EndoMonoid:
    """End_lin(L), enumerated and cached by lattice structure."""
    require_modular(L)
    return EndoMonoid(L, *_linmor_tables(L, L))


def _endomorphisms_of(L: Lattice, morphisms) -> list[LinearMorphism]:
    """The morphisms given to a monoid builder, as a list; each must map L
    to L."""
    out = list(morphisms)
    if any(phi.domain is not L or phi.codomain is not L for phi in out):
        raise ValueError("generators must be endomorphisms of the lattice")
    return out


# generated monoids larger than this, and explicit member lists longer than
# this, raise SizeLimitExceededError
MAX_GENERATED_MEMBERS = 5000


def _require_member_count(count: int) -> None:
    """Refuse an explicit member list over the cap before any member is
    certified or any composition table allocated."""
    if count > MAX_GENERATED_MEMBERS:
        raise SizeLimitExceededError(
            f"{count} explicit members exceeds cap {MAX_GENERATED_MEMBERS}")


def generated_monoid(L: Lattice, generators=(),
                     with_projections: bool = False) -> EndoMonoid:
    """Closure of the generators (plus zero, identity, optionally all
    projections) under composition.

    Every product of seeds is a shorter product followed by one more seed,
    so the right closure under seeds reaches all of them. It runs in array
    rounds: each round composes the frontier rows with every seed in one
    gather, in blocks of rows, and keeps the composites whose bytes are new.
    The new tables are then certified in one batch.
    """
    require_modular(L)
    seeds = {phi.map: phi.kernel for phi in [
        identity_morphism(L), zero_morphism(L), *_endomorphisms_of(L, generators),
        *(_all_projections(L) if with_projections else ())]}
    n = L.n
    S = np.array(list(seeds), dtype=np.min_scalar_type(n - 1)).reshape(-1, n)
    seen = {key.tobytes() for key in row_keys(S)}
    found = []
    frontier = S
    # bytes live per composite at the peak of a block: its row, the sorted
    # copy of it, and the sort's intp index arrays
    rows = max(1, _BLOCK_BYTES // (len(S) * (2 * n * S.itemsize + 24)))
    while len(frontier):
        fresh = []
        for start in range(0, len(frontier), rows):
            # C[f, s] = frontier[start + f] after S[s]
            C = frontier[start:start + rows][:, S].reshape(-1, n)
            keys = row_keys(C)
            _, first = np.unique(keys, return_index=True)
            unseen = []
            for i in first.tolist():
                key = keys[i].tobytes()
                if key not in seen:
                    seen.add(key)
                    unseen.append(i)
            if len(seen) > MAX_GENERATED_MEMBERS:
                raise SizeLimitExceededError(
                    f"closure exceeded {MAX_GENERATED_MEMBERS} elements")
            fresh.append(C[unseen])
        frontier = np.concatenate(fresh)
        found.append(frontier)
    new = np.concatenate(found)
    return EndoMonoid(L, np.concatenate([S, new]),
                      np.concatenate([list(seeds.values()), certify_tables(L, L, new)]))


def explicit_monoid(L: Lattice, members) -> EndoMonoid:
    """Verify an explicit member set is a submonoid with zero."""
    members = _endomorphisms_of(L, members)
    _require_member_count(len(members))
    unique = {phi.map: phi.kernel for phi in members}  # a repeated map is one member
    mono = EndoMonoid(L, np.array(list(unique), dtype=np.intp).reshape(-1, L.n),
                      list(unique.values()))
    mono.comp  # materializes and verifies closure
    return mono


def monoid_from_spec(L: Lattice, spec) -> EndoMonoid:
    """Build from a JSON-style spec: {"kind": "full"} |
    {"kind": "generated", "generators": [...], "with_projections": bool} |
    {"kind": "explicit", "members": [...]}. Fields a kind does not read are
    ignored."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if spec == "full" or kind == "full":
        return full_monoid(L)
    if kind not in ("generated", "explicit"):
        raise ValueError(f"unknown monoid spec: {reprlib.repr(spec)}")
    field = "generators" if kind == "generated" else "members"
    docs = spec.get(field, [])
    if not isinstance(docs, list):
        raise ValueError(f"monoid spec field {field!r} must be a list of morphisms")
    if kind == "explicit":
        _require_member_count(len(docs))
    morphisms = [morphism_from_json(doc, L) for doc in docs]
    if kind == "explicit":
        return explicit_monoid(L, morphisms)
    with_projections = spec.get("with_projections", False)
    if not isinstance(with_projections, bool):
        raise ValueError("monoid spec field 'with_projections' must be true or false")
    return generated_monoid(L, morphisms, with_projections)


# -- annihilators ---------------------------------------------------------------


@dataclass(frozen=True)
class AnnihilatorSet:
    """A one-sided annihilator with its principality certificate.

    right: members kill the targets from the right (target o member = zero);
    left: member o target = zero. When `principal_idempotent` is set to e,
    the member set equals e*monoid (right) or monoid*e (left) as sets.
    """

    side: str
    targets: tuple[int, ...]
    members: tuple[int, ...]
    principal_idempotent: int | None


def _ann_mask(m: EndoMonoid, side: str, targets) -> np.ndarray:
    zero = m.zero_products
    if not targets:
        return np.ones(len(m), dtype=bool)
    if side == "right":
        return zero[list(targets), :].all(axis=0)
    return zero[:, list(targets)].all(axis=1)


def _single_masks(m: EndoMonoid, side: str) -> np.ndarray:
    """Row t: the one-sided annihilator of the single target t."""
    return m.zero_products if side == "right" else m.zero_products.T


def coset_index(m: EndoMonoid, side: str) -> dict[bytes, int]:
    """Principal one-sided ideals as boolean masks: bytes(mask) -> the first
    generating idempotent in canonical order. eps*m for the right side, m*eps
    for the left. Every idempotent's mask is set in one scatter of its comp
    row (right) or column (left)."""
    cached = m._cosets
    if cached is None:
        cached = {}
        m._cosets = cached
    if side not in cached:
        idem = list(m.idempotent_indices())
        products = m.comp[idem, :] if side == "right" else m.comp[:, idem].T
        masks = np.zeros((len(idem), len(m)), dtype=bool)
        masks[np.arange(len(idem))[:, None], products] = True
        index: dict[bytes, int] = {}
        for eps, mask in zip(idem, masks):
            index.setdefault(mask.tobytes(), eps)
        cached[side] = index
    return cached[side]


def principal_idempotents(m: EndoMonoid, side: str, masks) -> list[int | None]:
    """For each row of a boolean (k, len(m)) member-mask array, the first
    idempotent e (canonical order) with row = e*m (right) or m*e (left), or
    None when the row is no principal one-sided ideal."""
    cosets = coset_index(m, side)
    return [cosets.get(row.tobytes()) for row in masks]


def annihilator(m: EndoMonoid, side: str, targets) -> AnnihilatorSet:
    """Exact annihilator member set, plus the first idempotent that makes it
    principal (canonical order), if any."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', not {side!r}")
    targets = tuple(targets)
    outside = [t for t in targets
               if not isinstance(t, numbers.Integral) or not 0 <= t < len(m)]
    if outside:
        raise ValueError(f"annihilator targets must be member indices in "
                         f"[0, {len(m)}): {reprlib.repr(outside)}")
    targets = tuple(sorted(set(targets)))
    mask = _ann_mask(m, side, targets)
    principal = coset_index(m, side).get(mask.tobytes())
    return AnnihilatorSet(side=side, targets=targets,
                          members=tuple(np.flatnonzero(mask).tolist()),
                          principal_idempotent=principal)


def _mask_and(a: bytes, b: bytes) -> bytes:
    return (np.frombuffer(a, dtype=bool) & np.frombuffer(b, dtype=bool)).tobytes()


def monoid_predicate(m: EndoMonoid, kind: str) -> Verdict:
    """right/left Rickart: principal one-sided annihilators of single members.
    right/left Baer: of arbitrary subsets, realized by intersection closure."""
    if kind in ("right_rickart", "left_rickart"):
        side = kind.split("_")[0]
        singles = _single_masks(m, side)
        for i, principal in enumerate(principal_idempotents(m, side, singles)):
            if principal is None:
                witness = {"target": m[i].as_name_map(),
                           "annihilator_size": int(singles[i].sum())}
                return Verdict(kind, False, witness=witness)
        return Verdict(kind, True)
    if kind in ("right_baer", "left_baer"):
        side = kind.split("_")[0]
        cosets = coset_index(m, side)
        # all annihilators of subsets: the intersection closure of the
        # single-member ones, keyed by the bytes of the member mask
        singles: dict[bytes, tuple] = {}
        for i, mask in enumerate(_single_masks(m, side)):
            singles.setdefault(mask.tobytes(), (i,))
        closed = close_under(singles, _mask_and)
        for key in sorted(closed, key=lambda k: (k.count(1), k)):
            if key not in cosets:
                witness = {"generators": [m[g].as_name_map()
                                          for g in closed[key]],
                           "annihilator_size": key.count(1)}
                return Verdict(kind, False, witness=witness)
        return Verdict(kind, True)
    raise ValueError(f"unknown monoid predicate: {kind!r}")
