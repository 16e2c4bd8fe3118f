"""The shipped lattice corpus and well-known small lattices.

Builders construct each fixture from covers; `fixture_json` returns the
packaged serialized form (byte-stable).
"""

from __future__ import annotations

from importlib import resources

from .lattice import Lattice, build_lattice

FIXTURE_NAMES = ("c2", "c3", "b2", "b3", "m3", "n5", "excip")

# the modular sublist used as the default conformance corpus
MODULAR_FIXTURES = ("c2", "c3", "b2", "b3", "m3", "excip")


def chain(n: int, name: str | None = None) -> Lattice:
    names = [str(i) for i in range(n)]
    covers = [(names[i], names[i + 1]) for i in range(n - 1)]
    return build_lattice(names, covers, name=name or f"c{n}")


def c2() -> Lattice:
    return build_lattice(["0", "1"], [("0", "1")], name="c2")


def c3() -> Lattice:
    return build_lattice(["0", "n", "1"], [("0", "n"), ("n", "1")], name="c3")


def b2() -> Lattice:
    return build_lattice(
        ["0", "a", "b", "1"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
        name="b2")


def b3() -> Lattice:
    elems = ["0", "a", "b", "c", "ab", "ac", "bc", "1"]
    covers = [("0", "a"), ("0", "b"), ("0", "c"),
              ("a", "ab"), ("a", "ac"), ("b", "ab"), ("b", "bc"),
              ("c", "ac"), ("c", "bc"),
              ("ab", "1"), ("ac", "1"), ("bc", "1")]
    return build_lattice(elems, covers, name="b3")


def m3() -> Lattice:
    covers = [("0", "a"), ("0", "b"), ("0", "c"),
              ("a", "1"), ("b", "1"), ("c", "1")]
    return build_lattice(["0", "a", "b", "c", "1"], covers, name="m3")


def mk(k: int) -> Lattice:
    """Bottom, k pairwise-incomparable atoms, top."""
    atoms = [f"a{i}" for i in range(k)]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    return build_lattice(["0", *atoms, "1"], covers, name=f"m{k}")


def n5() -> Lattice:
    covers = [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]
    return build_lattice(["0", "a", "b", "c", "1"], covers, name="n5")


def excip() -> Lattice:
    """Nine elements; the complemented set is {0, 1, a, b} and meets of
    complemented elements stay complemented, yet the intervals below a and b
    admit a morphism whose kernel is not complemented."""
    elems = ["0", "k", "f", "a", "c", "b", "ac", "cb", "1"]
    covers = [("0", "k"), ("0", "f"),
              ("k", "a"), ("k", "c"), ("f", "c"), ("f", "b"),
              ("a", "ac"), ("c", "ac"), ("c", "cb"), ("b", "cb"),
              ("ac", "1"), ("cb", "1")]
    return build_lattice(elems, covers, name="excip")


_BUILDERS = {
    "c2": c2, "c3": c3, "b2": b2, "b3": b3, "m3": m3, "n5": n5, "excip": excip,
}


def build_fixture(name: str) -> Lattice:
    return _BUILDERS[name]()


def fixture_json(name: str) -> str:
    """The packaged JSON text of a fixture."""
    return (resources.files("latticelab") / "fixtures" / f"{name}.json").read_text()


def fig1_morphism_json() -> str:
    """The packaged morphism fixture on c3: 0 -> 0, n -> 0, 1 -> n."""
    return (resources.files("latticelab") / "fixtures" / "fig1-morphism.json").read_text()

