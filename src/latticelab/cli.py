"""Command-line front end.

Exit codes: 0 success / all checks passed; 1 a property failed or a
counterexample was found; 2 usage or input error. `--json` switches every
subcommand to machine-readable output; both forms are deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from . import config, fixtures
from .abelian import AbelianGroup, _subgroup_words, induced_monoid, rickart_module_direct
from .conformance import REGISTRY, random_corpus, run_conformance, select_names
from .errors import LatticeLabError
from .lattice import (
    Lattice,
    decompose,
    direct_product,
    is_modular,
    lattice_from_json,
    lattice_to_dot,
    lattice_to_json,
    parse_json,
)
from .monoid import EndoMonoid, full_monoid, monoid_from_spec
from .morphisms import enumerate_linmors
from .properties import NO_MONOID, PROPERTY_NAMES, RICKART_KINDS, check_property

DEFAULT_PROPS = (
    "modular", "rickart", "baer", "dual_rickart", "dual_baer", "cip", "csp",
)


def _load_lattice(path: str) -> Lattice:
    return lattice_from_json(Path(path).read_text())


def _json_text(doc) -> str:
    """The text json.dumps(doc, indent=2, ensure_ascii=False) writes, without
    the pure-Python encoder that indent selects there."""
    out = []
    _write_json(doc, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: list) -> None:
    """Append value's text at the depth whose line break is newline. str,
    int, bool and None values, str keys and dict, list and tuple containers
    are written here; any other value or key goes through json.dumps, which
    writes a float on one line and raises TypeError for what JSON cannot
    hold."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (dict, list, tuple)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if isinstance(key, str):
                key = encode_basestring(key)
            else:  # '{"<key>": 0}'
                key = json.dumps({key: 0})[1:-4]
            out.append(f"{sep}{key}: ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def _emit(doc, as_json: bool, human_lines):
    if as_json:
        print(_json_text(doc))
    else:
        for line in human_lines:
            print(line)


def _parse_names(csv: str, choices, what: str, lower: bool = False) -> list[str]:
    """A comma-separated selection: each field stripped (and lowercased, for
    property names), empty fields skipped, then select_names. An empty
    selection is a usage error."""
    names = [f.strip() for f in csv.split(",") if f.strip()]
    if not names:
        raise ValueError(f"no {what} selected")
    return select_names([n.lower() for n in names] if lower else names, choices, what)


def cmd_validate(args) -> int:
    try:
        L = _load_lattice(args.lattice)
    except LatticeLabError as exc:
        _emit({"valid": False, "error": str(exc)}, args.json,
              [f"invalid: {exc}"])
        return 1
    _emit({"valid": True, "name": L.name, "elements": L.n,
           "modular": is_modular(L).holds},
          args.json,
          [f"valid lattice {L.name!r}: {L.n} elements, "
           f"modular={is_modular(L).holds}"])
    return 0


def cmd_analyze(args) -> int:
    L = _load_lattice(args.lattice)
    props = (list(PROPERTY_NAMES) if args.props == "all"
             else _parse_names(args.props, PROPERTY_NAMES, "properties", lower=True))
    # an explicit spec file is always read and built, so a bad one is an error
    # whatever the properties; the default full monoid is built only if used
    monoid = None
    if args.monoid != "full":
        monoid = monoid_from_spec(L, parse_json(Path(args.monoid).read_text()))
    elif not NO_MONOID.issuperset(props):
        monoid = full_monoid(L)
    results = [check_property(L, monoid, p) for p in props]
    doc = {"lattice": L.name, "monoid": args.monoid,
           "results": [v.to_json_dict() for v in results]}
    lines = [f"{L.name}: monoid={args.monoid}"]
    for v in results:
        lines.append(f"  {v.prop}: {str(v.holds).lower()}"
                     + (f"  witness={v.witness}" if v.witness and not v.holds else ""))
    _emit(doc, args.json, lines)
    return 0 if all(v.holds for v in results) else 1


def cmd_endos(args) -> int:
    L = _load_lattice(args.lattice)
    M = _load_lattice(args.codomain) if args.codomain else L
    morphisms = enumerate_linmors(L, M)
    if args.list:
        doc = [phi.as_name_map() for phi in morphisms]
        _emit(doc, args.json,
              [", ".join(f"{k}->{v}" for k, v in row.items()) for row in doc])
    else:
        _emit({"count": len(morphisms)}, args.json, [str(len(morphisms))])
    return 0


def cmd_decompose(args) -> int:
    L = _load_lattice(args.lattice)
    dec = decompose(L)
    doc = {"lattice": L.name,
           "blocks": [L.names[b] for b in dec.blocks],
           "independent": dec.independent}
    _emit(doc, args.json,
          [f"{L.name}: {len(dec.blocks)} block(s): "
           + ", ".join(L.names[b] for b in dec.blocks)])
    return 0


def cmd_product(args) -> int:
    factors = [_load_lattice(p) for p in args.lattices]
    prod = direct_product(factors)
    text = lattice_to_json(prod.lattice)
    Path(args.output).write_text(text)
    _emit({"name": prod.lattice.name, "elements": prod.lattice.n,
           "output": args.output},
          args.json,
          [f"wrote {prod.lattice.name!r} ({prod.lattice.n} elements) "
           f"to {args.output}"])
    return 0


def cmd_module(args) -> int:
    # the selection is read first: a bad one exits before any group is built
    props = _parse_names(args.props, RICKART_KINDS, "module properties", lower=True)
    grp = AbelianGroup.from_spec(args.group)
    mono = induced_monoid(grp) if grp.endos_enumerable() else None
    results = [rickart_module_direct(grp, p) for p in props]
    head = {"group": grp.spec_string(), "order": grp.order,
            "subgroups": len(_subgroup_words(grp))}
    if mono is None:
        enumerated = (f"induced monoid not enumerated ({grp.endo_count()} "
                      f"endomorphisms exceeds cap {config.DEFAULT_ENDO_CAP})")
    else:
        head["induced_monoid_size"] = len(mono)
        enumerated = f"induced monoid size {len(mono)}"
    if args.json:
        # the head without its closing "\n}", then "induced_maps", which
        # dominates the document and is rendered straight from the member
        # rows, then the results without their opening "{\n"
        tail = _json_text({"results": [v.to_json_dict() for v in results]})
        out = sys.stdout
        out.write(_json_text(head)[:-2])
        if mono is not None:
            out.write(',\n  "induced_maps": ')
            out.write(_name_maps_json(mono))
        out.write(f",\n{tail[2:]}\n")
    else:
        print(f"group {grp.spec_string()}: order {grp.order}, "
              f"{head['subgroups']} subgroups, {enumerated}")
        for v in results:
            print(f"  {v.prop}: {str(v.holds).lower()}"
                  + (f"  witness={v.witness}" if v.witness and not v.holds else ""))
    return 0 if all(v.holds for v in results) else 1


def _name_maps_json(mono: EndoMonoid) -> str:
    """The members as a list of name maps, as json.dumps(indent=2,
    ensure_ascii=False) writes it one level deep. Each name is encoded once,
    and each "x": "y" line is built once with the separator that follows it;
    the member tables pick the lines in one gather, for one join."""
    n = mono.lattice.n
    names = [encode_basestring(nm) for nm in mono.lattice.names]
    seps = [",\n      "] * (n - 1) + ["\n    },\n    {\n      "]
    lines = np.array([[f"{x}: {y}{sep}" for y in names]
                      for x, sep in zip(names, seps)], dtype=object)
    cells = lines[np.arange(n), mono.tables]
    cells[0, 0] = "[\n    {\n      " + cells[0, 0]
    cells[-1, -1] = cells[-1, -1][:-len(seps[-1])] + "\n    }\n  ]"
    return "".join(cells.ravel().tolist())


def cmd_theorems(args) -> int:
    corpus: list[Lattice] = []
    if args.corpus:
        for path in sorted(Path(args.corpus).glob("*.json")):
            if path.name.endswith("-morphism.json"):
                continue
            corpus.append(lattice_from_json(path.read_text()))
        if not corpus:
            raise ValueError(f"no lattice JSON files in {args.corpus!r}")
    else:
        corpus.extend(fixtures.build_fixture(nm) for nm in fixtures.MODULAR_FIXTURES)
    if args.random:
        corpus.extend(random_corpus(args.random, args.max_size, args.seed))
    checks = None if args.checks is None else _parse_names(args.checks, REGISTRY, "checks")
    report = run_conformance(corpus, checks=checks, seed=args.seed)
    if args.json:
        print(report.to_json(), end="")
    else:
        print(f"conformance over {report.lattice_count} lattices "
              f"(seed={args.seed}):")
        for name, counts in report.counts.items():
            print(f"  {name}: pass={counts['pass']} fail={counts['fail']} "
                  f"skip={counts['skip']}")
        if report.skipped_lattices:
            print("  skipped non-modular:", ", ".join(report.skipped_lattices))
        print(f"total failures: {report.total_failures}")
        for failure in report.failures:
            print(_json_text(failure))
    return 0 if report.total_failures == 0 else 1


def cmd_export_dot(args) -> int:
    L = _load_lattice(args.lattice)
    text = lattice_to_dot(L)
    Path(args.output).write_text(text)
    _emit({"name": L.name, "output": args.output}, args.json,
          [f"wrote Hasse diagram of {L.name!r} to {args.output}"])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    `run` in the process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="latticelab",
        description="finite lattice analysis: morphisms, monoids, and "
                    "kernel/image complement properties")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a lattice JSON file")
    p.add_argument("lattice")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="run property checks on a lattice")
    p.add_argument("lattice")
    p.add_argument("--monoid", default="full",
                   help="'full' or a monoid spec JSON path")
    p.add_argument("--props", default=",".join(DEFAULT_PROPS),
                   help="comma-separated property list or 'all'")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("endos", help="enumerate linear morphisms")
    p.add_argument("lattice")
    p.add_argument("--list", action="store_true", help="list the morphisms, not their count")
    p.add_argument("--codomain", help="enumerate into another lattice")
    p.set_defaults(fn=cmd_endos)

    p = sub.add_parser("decompose", help="split into independent blocks")
    p.add_argument("lattice")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("product", help="direct product of lattices")
    p.add_argument("lattices", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("module", help="finite abelian group bridge")
    p.add_argument("--group", required=True,
                   help="comma-separated invariant factors, e.g. 4 or 2,4")
    p.add_argument("--props", default=",".join(RICKART_KINDS))
    p.set_defaults(fn=cmd_module)

    p = sub.add_parser("theorems", help="run the conformance registry")
    p.add_argument("--corpus", help="directory of lattice JSON files "
                                    "(default: the packaged fixtures)")
    p.add_argument("--random", type=int, default=0,
                   help="number of random modular lattices to add")
    p.add_argument("--max-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", help="comma-separated check names (default all)")
    p.set_defaults(fn=cmd_theorems)

    p = sub.add_parser("export-dot", help="write the Hasse diagram as DOT")
    p.add_argument("lattice")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_export_dot)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except (LatticeLabError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
