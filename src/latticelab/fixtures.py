"""The shipped lattice corpus and well-known small lattices.

Each fixture is built from its packaged JSON, which `fixture_json` returns
(byte-stable). excip has nine elements; its complemented set is {0, 1, a, b}
and meets of complemented elements stay complemented, yet the intervals
below a and b admit a morphism whose kernel is not complemented.
"""

from __future__ import annotations

from importlib import resources

from .lattice import Lattice, build_lattice, lattice_from_json

FIXTURE_NAMES = ("c2", "c3", "b2", "b3", "m3", "n5", "excip")

# the modular sublist used as the default conformance corpus
MODULAR_FIXTURES = ("c2", "c3", "b2", "b3", "m3", "excip")


def chain(n: int, name: str | None = None) -> Lattice:
    names = [str(i) for i in range(n)]
    covers = [(names[i], names[i + 1]) for i in range(n - 1)]
    return build_lattice(names, covers, name=name or f"c{n}")


def mk(k: int) -> Lattice:
    """Bottom, k pairwise-incomparable atoms, top."""
    atoms = [f"a{i}" for i in range(k)]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    return build_lattice(["0", *atoms, "1"], covers, name=f"m{k}")


def build_fixture(name: str) -> Lattice:
    """A new lattice built from the packaged JSON of a fixture."""
    return lattice_from_json(fixture_json(name))


def fixture_json(name: str) -> str:
    """The packaged JSON text of a fixture."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture: {name!r}")
    return (resources.files("latticelab") / "fixtures" / f"{name}.json").read_text()


def fig1_morphism_json() -> str:
    """The packaged morphism fixture on c3: 0 -> 0, n -> 0, 1 -> n."""
    return (resources.files("latticelab") / "fixtures" / "fig1-morphism.json").read_text()
