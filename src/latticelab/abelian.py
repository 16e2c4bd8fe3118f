"""Finite abelian groups, their subgroup lattices, and induced monoids.

A group is specified by its invariant factors d1 | d2 | ... | dk. Elements
are coordinate tuples, indexed in row-major order. Subgroups are bitmasks
over element ids; the subgroup lattice is exact (inclusion order,
intersection meets, generated joins).

Every endomorphism f induces a map on subgroups, H -> f(H), which certifies
as a linear morphism of the subgroup lattice; the induced monoid collects
the distinct ones.

Every subgroup K of a finite abelian group M is both the kernel and the
image of an endomorphism. M is isomorphic to its character group M^, and
characters of M/K are the characters of M that vanish on K. So M/K is
isomorphic to a subgroup of M^ ≅ M, and K is the kernel of M -> M/K -> M.
Dually, restriction maps M^ onto K^, so K ≅ K^ is isomorphic to a quotient
M/K', and K is the image of M -> M/K' ≅ K. The module side of the bridge
therefore quantifies over every subgroup and needs no endomorphism.

The same duality builds the subgroup lattice. For invariant factors
d1 | ... | dk with exponent N = dk, <x, y> = sum_j x_j y_j (N / d_j) mod N
is a perfect pairing of M with itself, so H -> H^perp = {x : <x, y> = 0 for
all y in H} reverses inclusion and H^perp^perp = H. Every subgroup is then
the intersection of the perps y^perp of the elements of its perp: the
subgroups are the intersection closure of the n element perps (0^perp = M).
Subgroups are held as uint64 element masks, which caps the group order at
64; the meet is the intersection, and the join is perp(meet(perp, perp)),
since (A + B)^perp = A^perp ^ B^perp (Delsarte, Ann. Math. 1948).
"""

from __future__ import annotations

import itertools
import reprlib
from dataclasses import dataclass
from functools import cache
from math import gcd, prod
from typing import NamedTuple

import numpy as np

from . import config
from .errors import ConsistencyError, DomainMismatchError, SizeLimitExceededError
from .lattice import Lattice, _assemble, _bits, _masks_to_ints, is_modular
from .monoid import _BLOCK_BYTES, EndoMonoid
from .morphisms import LinearMorphism, certify_tables, row_keys, validate_linear
from .properties import RICKART_KINDS, check_rickart_family
from .verdict import Verdict


@dataclass(frozen=True)
class AbelianGroup:
    """A finite abelian group given by its invariant factor chain."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.invariant_factors
        if any(d < 2 for d in fs):
            raise ValueError("invariant factors must be at least 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must divide in turn: {fs}")
        if self.order > config.DEFAULT_GROUP_ORDER_CAP:
            raise SizeLimitExceededError(
                f"group order {self.order} exceeds cap {config.DEFAULT_GROUP_ORDER_CAP}")

    @classmethod
    def from_spec(cls, spec: str) -> "AbelianGroup":
        """Parse comma-separated invariant factors; "1" is the trivial group.

        Each field is ASCII decimal digits: `int` alone would also read
        "1_6" as 16 and "+4" or a non-ASCII digit as 4.
        """
        parts = [p.strip() for p in spec.split(",")]
        if not all(parts):
            raise ValueError(f"group spec {reprlib.repr(spec)} has an empty field")
        for p in parts:
            if not (p.isascii() and p.isdigit()):
                raise ValueError(f"group spec field {reprlib.repr(p)} is not a "
                                 f"decimal number")
        factors = tuple(int(p) for p in parts)
        return cls(() if factors == (1,) else factors)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        return _group_data(self).elements

    def spec_string(self) -> str:
        return ",".join(str(d) for d in self.invariant_factors) or "1"

    def endo_count(self) -> int:
        """Closed form: the product of gcd(d_i, d_j) over all factor pairs."""
        fs = self.invariant_factors
        return prod(gcd(a, b) for a in fs for b in fs) if fs else 1

    def endos_enumerable(self) -> bool:
        """Whether End(M) fits config.DEFAULT_ENDO_CAP, read at call time."""
        return self.endo_count() <= config.DEFAULT_ENDO_CAP


class _GroupData(NamedTuple):
    elements: tuple[tuple[int, ...], ...]
    add: np.ndarray  # add[i, j]: id of element i + element j
    sc_mul: np.ndarray  # sc_mul[c, i]: id of c times element i
    coords: np.ndarray  # coords[j, i]: coordinate j of element i
    orders: tuple[int, ...]
    gen_ids: tuple[int, ...]  # ids of the standard generators


@cache
def _group_data(g: AbelianGroup) -> _GroupData:
    fs = g.invariant_factors
    n = g.order
    elements = tuple(itertools.product(*[range(d) for d in fs])) or ((),)
    coords = np.indices(fs, dtype=np.int16).reshape(len(fs), n)
    # an element's id is its coordinates against these row-major strides,
    # so the standard generators have the strides as ids
    strides = [prod(fs[j + 1:]) for j in range(len(fs))]
    c = coords.astype(np.intp)[:, None, :]  # (coordinate, 1, element)
    d = np.array(fs, dtype=np.intp).reshape(-1, 1, 1)
    w = np.array(strides, dtype=np.intp).reshape(-1, 1, 1)
    add = ((c.transpose(0, 2, 1) + c) % d * w).sum(axis=0).astype(np.int16)
    multiples = np.arange(n + 1, dtype=np.intp)[None, :, None] * c
    sc_mul = (multiples % d * w).sum(axis=0).astype(np.int16)
    orders = tuple(np.lcm.reduce(d // np.gcd(d, c), axis=0).ravel().tolist()) if fs else (1,)
    for table in (add, sc_mul, coords):
        table.setflags(write=False)  # shared by every caller through the cache
    return _GroupData(elements, add, sc_mul, coords, orders, tuple(strides))


def _cyclic(g: AbelianGroup, e: int) -> int:
    """Mask of the cyclic subgroup generated by element e: its multiples."""
    return sum(1 << v for v in set(_group_data(g).sc_mul[:, e].tolist()))


# -- subgroups and the subgroup lattice ----------------------------------------

_WORD_BITS = 64  # subgroups are uint64 element masks


def _distinct(words: np.ndarray) -> np.ndarray:
    """The distinct values, sorted. (A bare np.unique imports numpy.ma on its
    first call, a cost paid inside the first request.)"""
    words = np.sort(words, axis=None)
    return words[np.concatenate(([True], words[1:] != words[:-1]))]


@cache
def _perp_words(g: AbelianGroup) -> np.ndarray:
    """perps[y]: the element mask of y^perp under the pairing of the module
    docstring. Raises SizeLimitExceededError above the word size, so a
    program that raises the group order cap gets no wrapped masks."""
    if g.order > _WORD_BITS:
        raise SizeLimitExceededError(
            f"group order {g.order} exceeds the {_WORD_BITS}-element word limit "
            f"of subgroup masks")
    data = _group_data(g)
    fs = g.invariant_factors
    exponent = fs[-1] if fs else 1
    c = data.coords.astype(np.intp)[:, :, None]  # (coordinate, element, 1)
    w = np.array([exponent // d for d in fs], dtype=np.intp).reshape(-1, 1, 1)
    pairing = (c * c.transpose(0, 2, 1) * w).sum(axis=0) % exponent  # <x, y>
    perps = np.array(_masks_to_ints(pairing == 0), dtype=np.uint64)
    perps.setflags(write=False)
    return perps


@cache
def _subgroup_words(g: AbelianGroup) -> np.ndarray:
    """Every subgroup as a uint64 element mask, by size, then by mask: the
    intersection closure of the element perps, one AND per frontier word and
    perp."""
    perps = _distinct(_perp_words(g))
    closed = frontier = perps  # closed stays sorted
    while frontier.size:
        meets = _distinct(frontier[:, None] & perps)
        at = np.searchsorted(closed, meets).clip(max=len(closed) - 1)
        frontier = meets[closed[at] != meets]
        closed = np.sort(np.concatenate((closed, frontier)))
    words = closed[np.argsort(np.bitwise_count(closed), kind="stable")]
    words.setflags(write=False)
    return words


def _subgroup_masks(g: AbelianGroup) -> tuple[int, ...]:
    """Every subgroup as an element mask, by size, then by mask."""
    return tuple(_subgroup_words(g).tolist())


def _subgroup_names(g: AbelianGroup, masks) -> list[str]:
    """The names of masks[i]: "0", "M", "<e>" for a cyclic subgroup with e
    its first generator, else "S{i}"."""
    return [_subgroup_name(g, i, m) for i, m in enumerate(masks)]


def _subgroup_name(g: AbelianGroup, i: int, mask: int) -> str:
    data = _group_data(g)
    size = mask.bit_count()
    if size == 1:
        return "0"
    if size == g.order:
        return "M"
    gen = next((eid for eid in _bits(mask) if data.orders[eid] == size), None)
    if gen is None:
        return f"S{i}"
    e = data.elements[gen]
    return f"<{e[0]}>" if len(e) == 1 else "<(" + ",".join(str(v) for v in e) + ")>"


def _subgroup_perps(g: AbelianGroup, words: np.ndarray) -> np.ndarray:
    """perps[i]: the mask of words[i]^perp, the intersection of y^perp over
    the elements y of words[i]."""
    has = (words[:, None] >> np.arange(g.order, dtype=np.uint64)) & np.uint64(1)
    group = np.uint64((1 << g.order) - 1)
    return np.bitwise_and.reduce(np.where(has == 1, _perp_words(g), group), axis=1)


class _SubgroupLattice(NamedTuple):
    lattice: Lattice
    masks: tuple[int, ...]  # masks[i]: element mask of lattice element i
    mask_index: dict[int, int]


@cache
def _subgroup_lattice(g: AbelianGroup) -> _SubgroupLattice:
    words = _subgroup_words(g)
    sorted_words = np.sort(words)
    by_mask = np.empty(len(words), dtype=np.intp)  # by_mask[j]: index of sorted_words[j]
    by_mask[np.searchsorted(sorted_words, words)] = np.arange(len(words))

    def index(w: np.ndarray) -> np.ndarray:
        return by_mask[np.searchsorted(sorted_words, w)]

    meets = words[:, None] & words
    leq = meets == words[:, None]  # leq[i, j]: subgroup i lies in subgroup j
    meet = index(meets)
    dual = index(_subgroup_perps(g, words))
    join = dual[meet[np.ix_(dual, dual)]]
    # rows of shared ints: tolist() makes an int object per entry above 256,
    # 16 M of them at 2,825 subgroups
    ids = list(range(len(words)))
    join, meet = ([list(map(ids.__getitem__, row.tolist())) for row in table]
                  for table in (join, meet))
    masks = tuple(words.tolist())
    lat, order = _assemble(f"sub({g.spec_string()})", _subgroup_names(g, masks),
                           _masks_to_ints(leq), _masks_to_ints(leq.T), join, meet)
    mod = is_modular(lat)
    if not mod.holds:
        raise ConsistencyError(f"subgroup lattice of {g.spec_string()} "
                               f"failed the modularity check: {mod.witness}")
    # the canonical reindex permuted elements; carry the masks along
    lat_masks = tuple(masks[o] for o in order)
    return _SubgroupLattice(lat, lat_masks, {m: i for i, m in enumerate(lat_masks)})


def subgroup_lattice(g: AbelianGroup) -> Lattice:
    """All subgroups ordered by inclusion; meets are intersections and joins
    are generated subgroups. The result is modular by construction and the
    modularity check is asserted."""
    return _subgroup_lattice(g).lattice


# -- homomorphisms ---------------------------------------------------------------


@dataclass(frozen=True)
class GroupHom:
    """An endomorphism, stored as the images of the standard generators."""

    group: AbelianGroup
    gen_images: tuple[int, ...]

    def __post_init__(self):
        g = self.group
        if len(self.gen_images) != g.rank:
            raise ValueError(f"{g.rank} generator images expected, "
                             f"got {len(self.gen_images)}")
        orders = _group_data(g).orders
        for d, img in zip(g.invariant_factors, self.gen_images):
            if not 0 <= img < g.order:
                raise ValueError(f"generator image {img} is not an element id "
                                 f"in [0, {g.order})")
            if d % orders[img] != 0:
                raise ValueError("generator image order does not divide the "
                                 "generator order")

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """Row i, column j: coefficient of generator i in the image of
        generator j (taken modulo the row's invariant factor)."""
        elements = _group_data(self.group).elements
        k = self.group.rank
        return tuple(tuple(elements[self.gen_images[j]][i] for j in range(k))
                     for i in range(k))

    def table(self) -> tuple[int, ...]:
        return tuple(_hom_tables(self.group, [self.gen_images])[0].tolist())


def _hom_tables(g: AbelianGroup, images) -> np.ndarray:
    """tables[i, e]: the image of element e under the endomorphism with
    generator images images[i]. Ids are row-major in the coordinates, so
    the columns for coordinates (x_1, ..., x_j) come from those for
    (x_1, ..., x_j-1) by one flat gather from the addition table per
    generator, with x_j times its image added, on indices in the narrowest
    unsigned dtype that holds order^2 - 1."""
    data = _group_data(g)
    n = g.order
    dtype = np.min_scalar_type(n * n - 1)
    add = data.add.ravel().astype(dtype)
    images = np.array(images, dtype=np.intp, ndmin=2)
    tables = np.zeros((len(images), 1), dtype=dtype)
    for j, d in enumerate(g.invariant_factors):
        multiples = data.sc_mul[:d, images[:, j]].T.astype(dtype)  # c * image for c < d
        tables = add[(tables * n)[:, :, None] + multiples[:, None, :]]
        tables = tables.reshape(len(images), -1)
    return tables


def hom_compose(f: GroupHom, h: GroupHom) -> GroupHom:
    """f after h."""
    if f.group != h.group:
        raise DomainMismatchError("both endomorphisms must be of the same group")
    tf, th = _hom_tables(f.group, [f.gen_images, h.gen_images])
    gen_ids = _group_data(f.group).gen_ids
    return GroupHom(f.group, tuple(int(tf[th[e]]) for e in gen_ids))


def _gen_images(g: AbelianGroup) -> np.ndarray:
    """Every endomorphism as a row of generator images, after the cap check:
    the image of a generator of order d is any element whose order divides d."""
    count = g.endo_count()
    if not g.endos_enumerable():
        raise SizeLimitExceededError(
            f"{count} endomorphisms exceeds cap {config.DEFAULT_ENDO_CAP}")
    orders = _group_data(g).orders
    choices = [[e for e in range(g.order) if d % orders[e] == 0]
               for d in g.invariant_factors]
    flat = itertools.chain.from_iterable(itertools.product(*choices))
    return np.fromiter(flat, dtype=np.intp, count=count * g.rank).reshape(count, g.rank)


def endomorphisms(g: AbelianGroup) -> list[GroupHom]:
    """All endomorphisms, enumerated by compatible generator images."""
    return [GroupHom(g, tuple(imgs)) for imgs in _gen_images(g).tolist()]


@cache
def _image_steps(g: AbelianGroup) -> tuple[np.ndarray, tuple[tuple[int, int, int], ...]]:
    """How induced rows are read off hom tables: cyclic[e] is the lattice id
    of <e>, and each step (h, c, e), in increasing subgroup size, has H_h =
    H_c + <e> for a lower cover H_c of H_h, so that f(H_h) = f(H_c) v <f(e)>."""
    sub = _subgroup_lattice(g)
    lat = sub.lattice
    cyclic = np.array([sub.mask_index[_cyclic(g, e)] for e in range(g.order)],
                      dtype=np.int16)
    lower = {}
    for c, h in lat.covers():
        lower.setdefault(h, c)
    steps = []
    for h in sorted(lower, key=lambda i: sub.masks[i].bit_count()):
        c = lower[h]
        new = sub.masks[h] & ~sub.masks[c]
        steps.append((h, c, (new & -new).bit_length() - 1))
    return cyclic, tuple(steps)


def _induced_rows(g: AbelianGroup, tables: np.ndarray) -> np.ndarray:
    """rows[i, s]: the lattice id of the image of subgroup s under hom table
    tables[i], one flat join-table gather per subgroup, on indices in the
    narrowest unsigned dtype that holds s^2 - 1; the rows come in the
    narrowest one that holds a lattice id."""
    lat = _subgroup_lattice(g).lattice
    cyclic, steps = _image_steps(g)
    s = lat.n
    dtype = np.min_scalar_type(s * s - 1)
    join = lat.tables_np[1].ravel().astype(dtype)
    images = cyclic.astype(dtype)[tables.T]  # images[e, i]: the id of <f_i(e)>
    cols = np.empty((s, len(tables)), dtype=dtype)
    cols[lat.bottom] = lat.bottom
    for h, c, e in steps:
        cols[h] = join.take(cols[c] * s + images[e])
    return cols.T.astype(np.min_scalar_type(s - 1))


def induced_map(f: GroupHom) -> LinearMorphism:
    """The subgroup-image map of f, certified on the subgroup lattice."""
    g = f.group
    row = _induced_rows(g, _hom_tables(g, [f.gen_images]))[0]
    lat = subgroup_lattice(g)
    return validate_linear(lat, lat, row.tolist())


# -- the batch sweep over all endomorphisms --------------------------------------


def _endo_sweep(g: AbelianGroup) -> np.ndarray:
    """The distinct induced rows of End(M), one sorted row each.

    For a unit u modulo the exponent, uH = H for every subgroup H, so u f
    induces the same row as f. Only the first endomorphism of each orbit of
    the unit scalars, in generator-image order, is induced; np.unique
    removes the coincidences left."""
    images = _gen_images(g)  # checks the cap first
    exponent = g.invariant_factors[-1] if g.invariant_factors else 1
    units = [u for u in range(2, exponent) if gcd(u, exponent) == 1]
    if units:
        # a row's key reads its images as base-|M| digits, so keys follow
        # the order in which _gen_images enumerates the rows
        weights = g.order ** np.arange(g.rank - 1, -1, -1, dtype=np.int64)
        keys = images @ weights
        sc_mul = _group_data(g).sc_mul
        first = np.ones(len(images), dtype=bool)
        for u in units:
            first &= keys <= sc_mul[u][images] @ weights
        images = images[first]
    rows = _induced_rows(g, _hom_tables(g, images))
    _, first = np.unique(row_keys(rows), return_index=True)
    return rows[first]


@cache
def induced_monoid(g: AbelianGroup) -> EndoMonoid:
    """The distinct induced subgroup maps, certified in one batch, as a monoid.

    Closure under composition is automatic (images compose); the monoid
    composition table stays lazy, so large induced monoids remain usable for
    kernel/image scans. Cached per group.
    """
    rows = _endo_sweep(g)  # checks the endomorphism cap first
    lat = subgroup_lattice(g)
    return EndoMonoid(lat, rows, certify_tables(lat, lat, rows))


# -- the bridge verdicts -----------------------------------------------------------


def _row_blocks(words: np.ndarray):
    """Slices of words whose pair tests against all words keep their uint64
    temporaries near monoid._BLOCK_BYTES."""
    rows = max(1, _BLOCK_BYTES // (8 * len(words)))
    return (slice(start, start + rows) for start in range(0, len(words), rows))


@cache
def _first_non_summand(g: AbelianGroup) -> int | None:
    """The first subgroup mask, in mask order, that is not a direct summand,
    or None. A subgroup C with K ^ C = 0 and |K||C| = |M| is a complement of
    K, since a trivial intersection of the right size forces K + C = M."""
    words = np.sort(_subgroup_words(g))
    sizes = np.bitwise_count(words)
    wants = g.order // sizes  # |C| for a complement of words[i]
    for rows in _row_blocks(words):
        summand = (((words[rows, None] & words) == 1)
                   & (sizes == wants[rows, None])).any(axis=1)
        if not summand.all():
            return int(words[rows][summand.argmin()])
    return None


@cache
def _every_subgroup_complemented(g: AbelianGroup) -> bool:
    """Whether every element of the subgroup lattice has a complement, read
    off the masks: H ^ C = 0 is H & C == {0}, and H v C = M is
    H^perp ^ C^perp = 0, since (H + C)^perp = H^perp ^ C^perp."""
    words = _subgroup_words(g)
    perps = _subgroup_perps(g, words)
    for rows in _row_blocks(words):
        complemented = (((words[rows, None] & words) == 1)
                        & ((perps[rows, None] & perps) == 1)).any(axis=1)
        if not complemented.all():
            return False
    return True


def rickart_module_direct(g: AbelianGroup, kind: str) -> Verdict:
    """Module-side and lattice-side complement verdicts, asserted equal.

    Every subgroup of M is the kernel and the image of an endomorphism (see
    the module docstring), and the subgroups are closed under intersection
    and sum. So for all four kinds the module side asks whether every
    subgroup is a direct summand, tested with group arithmetic on the
    subgroup masks, and names the first one in mask order that is not. The
    lattice side runs the kernel/image family check over the induced monoid
    when End(M) fits config.DEFAULT_ENDO_CAP; above the cap it asks whether
    every element of the subgroup lattice is complemented, with meets and
    joins read off the masks and their perps, and builds no lattice. A
    disagreement raises ConsistencyError.
    """
    if kind not in RICKART_KINDS:
        raise ValueError(f"unknown kind: {kind!r}")
    module_witness = _first_non_summand(g)
    module_ok = module_witness is None

    if g.endos_enumerable():
        lattice_ok = check_rickart_family(subgroup_lattice(g), induced_monoid(g), kind).holds
        notes = "lattice side via induced monoid enumeration"
    else:
        lattice_ok = _every_subgroup_complemented(g)
        notes = "lattice side via complements of all subgroups, each a kernel and an image"

    if module_ok != lattice_ok:
        raise ConsistencyError(
            f"module side ({module_ok}) and lattice side ({lattice_ok}) "
            f"disagree for {g.spec_string()} / {kind}")

    witness = None
    if not module_ok:
        i = int(np.flatnonzero(_subgroup_words(g) == module_witness)[0])
        witness = {"subgroup": _subgroup_name(g, i, module_witness)}
    return Verdict(kind, module_ok, witness=witness, notes=notes)
