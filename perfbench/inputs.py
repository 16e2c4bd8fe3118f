"""Seeded workload inputs, and the order arithmetic that gives their known answers.

Nothing here imports latticelab. Lattices are closed from covers, tested for
lattice-ness and modularity, and complemented by brute force over bit masks,
so the known answers share no code with the library under test. The library
receives only what `workload_items` returns: lattice JSON text, monoid spec
JSON text, command lines and group specs. `known_answer` derives each item's
expected verdicts from those same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("conformance", "bridge", "cli")
KINDS = ("rickart", "baer", "dual_rickart", "dual_baer")


# -- brute-force order code ---------------------------------------------------


class Order:
    """A finite lattice as bit masks: up[a] holds every b with a <= b."""

    __slots__ = ("names", "n", "up", "down", "join", "meet", "bottom", "top")

    def __init__(self, names, up, down, join, meet, bottom, top):
        self.names = list(names)
        self.n = len(self.names)
        self.up, self.down = up, down
        self.join, self.meet = join, meet
        self.bottom, self.top = bottom, top

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def covers(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.n) for b in range(self.n)
                if a != b and self.leq(a, b)
                and self.up[a] & self.down[b] == (1 << a) | (1 << b)]


def _least(cands: int, masks: list[int]) -> int | None:
    """The element c of `cands` whose mask contains all of `cands`."""
    m = cands
    while m:
        c = (m & -m).bit_length() - 1
        if masks[c] & cands == cands:
            return c
        m &= m - 1
    return None


def order_from_covers(names, covers) -> Order | None:
    """Close the cover relation; None unless it is a lattice."""
    n = len(names)
    idx = {nm: i for i, nm in enumerate(names)}
    up = [1 << i for i in range(n)]
    for lo, hi in covers:
        up[idx[lo]] |= 1 << idx[hi]
    changed = True
    while changed:
        changed = False
        for a in range(n):
            acc = up[a]
            m = acc & ~(1 << a)
            while m:
                b = (m & -m).bit_length() - 1
                acc |= up[b]
                m &= m - 1
            if acc != up[a]:
                up[a], changed = acc, True
    down = [0] * n
    for a in range(n):
        for b in range(n):
            if up[a] >> b & 1:
                down[b] |= 1 << a
    if any(up[a] & down[a] != 1 << a for a in range(n)):
        return None  # a cycle: not antisymmetric
    full = (1 << n) - 1
    bottom = next((a for a in range(n) if up[a] == full), None)
    top = next((a for a in range(n) if down[a] == full), None)
    if bottom is None or top is None:
        return None
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            j = _least(up[a] & up[b], up)
            m = _least(down[a] & down[b], down)
            if j is None or m is None:
                return None
            join[a][b] = join[b][a] = j
            meet[a][b] = meet[b][a] = m
    return Order(names, up, down, join, meet, bottom, top)


def is_modular(o: Order) -> bool:
    """a <= b implies a v (c ^ b) = (a v c) ^ b."""
    J, M = o.join, o.meet
    return all(J[a][M[c][b]] == M[J[a][c]][b]
               for a in range(o.n) for b in range(o.n) if o.leq(a, b)
               for c in range(o.n))


def complements(o: Order, a: int) -> list[int]:
    return [b for b in range(o.n)
            if o.meet[a][b] == o.bottom and o.join[a][b] == o.top]


def is_complemented(o: Order) -> bool:
    return all(complements(o, a) for a in range(o.n))


def max_cover_degree(o: Order) -> int:
    """The most upper covers, or lower covers, that one element has."""
    upper, lower = [0] * o.n, [0] * o.n
    for a, b in o.covers():
        upper[a] += 1
        lower[b] += 1
    return max(upper + lower)


def projection_monoid_verdicts(o: Order) -> tuple[bool, bool]:
    """(rickart, dual_rickart) for the monoid generated by all projections.

    Projections a -> (a v x') ^ x are closed under composition here; the
    kernel of a join-preserving map is the join of its zero preimage and its
    image is the image of the top.
    """
    J, M = o.join, o.meet
    seeds = {tuple(range(o.n)), (o.bottom,) * o.n}
    for x in range(o.n):
        for xp in complements(o, x):
            seeds.add(tuple(M[J[a][xp]][x] for a in range(o.n)))
    members = set(seeds)
    frontier = list(members)
    while frontier:
        new = []
        for f in frontier:
            for g in list(members):
                for h in (tuple(f[v] for v in g), tuple(g[v] for v in f)):
                    if h not in members:
                        members.add(h)
                        new.append(h)
        frontier = new
    comp = {a for a in range(o.n) if complements(o, a)}
    rickart = dual = True
    for f in members:
        kernel = o.bottom
        for a in range(o.n):
            if f[a] == o.bottom:
                kernel = J[kernel][a]
        rickart &= kernel in comp
        dual &= f[o.top] in comp
    return rickart, dual


# -- lattice constructions ----------------------------------------------------


def chain_spec(k: int) -> tuple[list[str], list[tuple[str, str]]]:
    names = [str(i) for i in range(k)]
    return names, [(names[i], names[i + 1]) for i in range(k - 1)]


def mk_spec(k: int) -> tuple[list[str], list[tuple[str, str]]]:
    atoms = [f"a{i}" for i in range(k)]
    return ["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms]


def product_spec(factors):
    """Direct product; covers change one coordinate along one factor cover."""
    coords = [()]
    for fnames, _ in factors:
        coords = [c + (i,) for c in coords for i in range(len(fnames))]
    ups = []
    for fnames, fcovers in factors:
        fidx = {nm: i for i, nm in enumerate(fnames)}
        up: dict[int, list[int]] = {}
        for lo, hi in fcovers:
            up.setdefault(fidx[lo], []).append(fidx[hi])
        ups.append(up)

    def name(c):
        return ".".join(factors[k][0][i] for k, i in enumerate(c))

    names = [name(c) for c in coords]
    covers = [(name(c), name(c[:k] + (j,) + c[k + 1:]))
              for c in coords for k in range(len(factors)) for j in ups[k].get(c[k], ())]
    return names, covers


def random_modular_spec(rng: random.Random, n: int, height: int | None = None,
                        degree: int | None = None):
    """A random graded modular lattice with n elements, by rejection.

    `height` is the rank of the top (drawn when None). Middle elements get
    levels; covers join adjacent levels, and every element gets at least one
    lower and one upper cover. Candidates that are not lattices, not
    modular, or whose most upper or lower covers on one element
    (`max_cover_degree`) is not `degree` (more than 3 when None) are drawn
    again.
    """
    if n == 1:
        return ["0"], []
    while True:
        middle = n - 2
        middle_levels = (height - 1 if height is not None
                         else rng.randint(1, middle) if middle else 0)
        levels = list(range(1, middle_levels + 1)) + [rng.randint(1, middle_levels)
                                                      for _ in range(middle - middle_levels)]
        rng.shuffle(levels)
        names = [str(i) for i in range(n)]
        by_level = {0: ["0"], middle_levels + 1: [names[-1]]}
        for i, lv in enumerate(levels, start=1):
            by_level.setdefault(lv, []).append(names[i])
        covers = set()
        for lv in range(1, middle_levels + 1):
            for e in by_level[lv]:
                covers.add((rng.choice(by_level[lv - 1]), e))
                covers.add((e, rng.choice(by_level[lv + 1])))
        p = rng.random() * 0.7
        for lv in range(middle_levels + 1):
            for lo in by_level[lv]:
                for hi in by_level[lv + 1]:
                    if rng.random() < p:
                        covers.add((lo, hi))
        covers = sorted(covers)
        o = order_from_covers(names, covers)
        if o is None or not is_modular(o):
            continue
        d = max_cover_degree(o)
        if d == degree if degree is not None else d <= 3:
            return names, covers


def lattice_json(name: str, spec) -> str:
    elems, covers = spec
    return json.dumps({"name": name, "elements": elems,
                       "covers": [list(c) for c in covers]}) + "\n"


def order_of(spec) -> Order:
    o = order_from_covers(*spec)
    if o is None:
        raise ValueError("generated input is not a lattice")
    return o


# -- the three workloads ------------------------------------------------------

FIXTURES = {  # the six modular fixtures shipped with the library
    "c2": (["0", "1"], [("0", "1")]),
    "c3": (["0", "n", "1"], [("0", "n"), ("n", "1")]),
    "b2": (["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]),
    "b3": (["0", "a", "b", "c", "ab", "ac", "bc", "1"],
           [("0", "a"), ("0", "b"), ("0", "c"), ("a", "ab"), ("a", "ac"), ("b", "ab"),
            ("b", "bc"), ("c", "ac"), ("c", "bc"), ("ab", "1"), ("ac", "1"), ("bc", "1")]),
    "m3": (["0", "a", "b", "c", "1"],
           [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")]),
    "excip": (["0", "f", "k", "a", "b", "c", "ac", "cb", "1"],
              [("0", "f"), ("0", "k"), ("f", "b"), ("f", "c"), ("k", "a"), ("k", "c"),
               ("a", "ac"), ("b", "cb"), ("c", "ac"), ("c", "cb"), ("ac", "1"), ("cb", "1")]),
}

# random conformance lattices of one pass, by shape (elements, most upper or
# lower covers on one element, rank of the top): a quarter of the shape
# counts of the 200 lattices of conformance.random_corpus(200, 8, 42), which
# the acceptance sweep runs, rounded to 50. As there, most are chains and M_k
# (rank 2), which repeat, and about one in seven has an element with 4 or
# more covers (here M4 x3, M5, M6 x2 and one other). A quarter, not the whole
# mix, keeps a pass near 10 s, so a run gets several passes to take each
# item's median from. The counts are fixed, so every seed costs about the same.
CONFORMANCE_SHAPES = {
    (1, 0, 0): 1, (2, 1, 1): 3, (3, 1, 2): 2, (4, 1, 3): 3, (4, 2, 2): 2,
    (5, 1, 4): 5, (5, 3, 2): 2,
    (6, 1, 5): 3, (6, 2, 4): 3, (6, 3, 3): 1, (6, 4, 2): 3,
    (7, 1, 6): 6, (7, 2, 4): 1, (7, 2, 5): 2, (7, 5, 2): 1,
    (8, 1, 7): 6, (8, 2, 6): 1, (8, 3, 4): 1, (8, 3, 5): 1, (8, 5, 3): 1, (8, 6, 2): 2,
}

BRIDGE_GROUPS_LEFT_OUT = {(2, 2, 2, 4)}  # 20 s alone; (2,2,2,2) keeps the route


def invariant_factor_chains(max_order: int) -> list[tuple[int, ...]]:
    """Every abelian group of order <= max_order, as invariant factors."""
    def rec(remaining, smallest):
        if remaining == 1:
            yield ()
            return
        for d in range(smallest, remaining + 1):
            if remaining % d == 0:
                for rest in rec(remaining // d, d):
                    if not rest or rest[0] % d == 0:
                        yield (d,) + rest
    return [()] + [c for total in range(2, max_order + 1) for c in rec(total, 2)]


def exponent_squarefree(factors: tuple[int, ...]) -> bool:
    e = factors[-1] if factors else 1
    return all(e % (p * p) for p in range(2, math.isqrt(e) + 1))


CLI_MK = ("m3", "m4", "m5")  # analyzed with the full monoid, whose size is known

MODULE_GROUPS = ("4", "2,2", "6", "9", "10", "12", "14", "15", "16", "2,4", "3,3",
                 "8", "2,6", "2,10", "3,6", "2,2,2", "3,9", "2,8", "4,4", "2,2,4",
                 "2,4,4", "2,2,2,2,2")


def shape_spec(rng, n: int, degree: int, height: int):
    """A modular lattice of the given shape; chains and M_k are the only ones
    of their shape, the rest are drawn."""
    if n == 1 or degree == 1:
        return chain_spec(n)
    if height == 2:
        return mk_spec(n - 2)
    return random_modular_spec(rng, n, height, degree)


def _conformance(rng):
    specs = list(FIXTURES.items())
    specs += [(f"r{n}_{d}_{h}_{i}", shape_spec(rng, n, d, h))
              for (n, d, h), count in CONFORMANCE_SHAPES.items() for i in range(count)]
    items = [{"kind": "lattice", "name": name, "json": lattice_json(name, spec)}
             for name, spec in specs]
    return items + [{"kind": "global", "name": "global"}]


def _bridge(rng):
    groups = [c for c in invariant_factor_chains(32) if c not in BRIDGE_GROUPS_LEFT_OUT]
    rng.shuffle(groups)
    return [{"kind": "group", "name": ",".join(map(str, g)) or "1"} for g in groups]


def _cli(rng):
    c = chain_spec
    full = [(name, mk_spec(int(name[1:]))) for name in CLI_MK]
    full += [
        ("c2xc3", product_spec([c(2), c(3)])),
        ("c2xc4", product_spec([c(2), c(4)])),
        ("c2xc5", product_spec([c(2), c(5)])),
        ("c2xc6", product_spec([c(2), c(6)])),
        ("c3xc3", product_spec([c(3), c(3)])),
        ("c3xc4", product_spec([c(3), c(4)])),
        ("c3xc5", product_spec([c(3), c(5)])),
        ("c4xc4", product_spec([c(4), c(4)])),
        ("c2xc2xc3", product_spec([c(2), c(2), c(3)])),
        ("c4xc5", product_spec([c(4), c(5)])),
        ("c2^4", product_spec([c(2)] * 4)),
        ("m3xc2", product_spec([mk_spec(3), c(2)])),
        ("m3xc3", product_spec([mk_spec(3), c(3)])),
        ("m3xc4", product_spec([mk_spec(3), c(4)])),
        ("b2xc3", product_spec([FIXTURES["b2"], c(3)])),
        ("b2xc4", product_spec([FIXTURES["b2"], c(4)])),
        ("m3xb2", product_spec([mk_spec(3), FIXTURES["b2"]])),
    ]
    full += [(f"r{n}_{i}", random_modular_spec(rng, n))
             for i, n in enumerate((6, 7, 8, 8))]
    generated = [
        ("c2^5", product_spec([c(2)] * 5)),
        ("c4xc8", product_spec([c(4), c(8)])),
        ("c3^3", product_spec([c(3)] * 3)),
        ("m3xm3", product_spec([mk_spec(3), mk_spec(3)])),
        ("b2xc2xc4", product_spec([FIXTURES["b2"], c(2), c(4)])),
        ("m3xc2xc3", product_spec([mk_spec(3), c(2), c(3)])),
        ("m3xc6", product_spec([mk_spec(3), c(6)])),
        ("m3xc2xc2", product_spec([mk_spec(3), c(2), c(2)])),
    ]
    generated += [(f"g{i}", product_spec([random_modular_spec(rng, n), c(m)]))
                  for i, (n, m) in enumerate(((6, 3), (7, 3), (8, 4)))]
    spec_text = json.dumps({"kind": "generated", "with_projections": True}) + "\n"
    items = []
    for monoid, batch in (("full", full), ("generated", generated)):
        for name, spec in batch:
            files = {"lattice.json": lattice_json(name, spec)}
            if monoid == "generated":
                files["monoid.json"] = spec_text
            items.append({"kind": "analyze", "name": name, "files": files,
                          "argv": ["--json", "analyze", "{lattice.json}", "--props", "all",
                                   "--monoid", "{monoid.json}" if monoid == "generated"
                                   else "full"]})
    items += [{"kind": "module", "name": g, "argv": ["--json", "module", "--group", g]}
              for g in MODULE_GROUPS]
    return items


def workload_items(workload: str, seed: int) -> list[dict]:
    """The inputs of one pass; the same seed gives the same list."""
    build = {"conformance": _conformance, "bridge": _bridge, "cli": _cli}[workload]
    return build(random.Random(f"{workload}:{seed}"))


def known_answer(item: dict) -> dict:
    """The answer a correct library gives for `item`, from this module's own
    order code; library output is checked against it."""
    kind = item["kind"]
    if kind in ("group", "module"):
        return {"all": exponent_squarefree(tuple(int(x) for x in item["name"].split(",")))}
    if kind == "global":
        return {}
    doc = json.loads(item["json"] if kind == "lattice" else item["files"]["lattice.json"])
    o = order_of((doc["elements"], [tuple(c) for c in doc["covers"]]))
    if kind == "lattice":
        return {"n": o.n, "complemented": is_complemented(o)}
    want = {"modular": is_modular(o)}
    if "monoid.json" in item["files"]:
        want["rickart"], want["dual_rickart"] = projection_monoid_verdicts(o)
    else:
        want["rickart"] = want["dual_rickart"] = is_complemented(o)
    if item["name"] in CLI_MK:
        k = o.n - 2
        want["monoid_size"] = 1 + math.factorial(k) + k * k
    return want


def digest(items: list[dict]) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
