"""Command-line front end.

Exit codes: 0 success / all checks passed; 1 a property failed or a
counterexample was found; 2 usage or input error. `--json` switches every
subcommand to machine-readable output; both forms are deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures
from .abelian import AbelianGroup, induced_monoid, rickart_module_direct
from .conformance import random_corpus, run_conformance
from .errors import LatticeLabError
from .lattice import (
    Lattice,
    decompose,
    direct_product,
    is_boolean,
    is_modular,
    lattice_from_json,
    lattice_to_dot,
    lattice_to_json,
    parse_json,
)
from .monoid import EndoMonoid, full_monoid, monoid_from_spec
from .morphisms import enumerate_linmors
from .properties import (
    check_condition,
    check_nonsingularity,
    check_retractable,
    check_rickart_family,
    check_rickpix,
    check_summand_property,
)

PROP_CHOICES = (
    "modular", "boolean", "rickart", "baer", "dual_rickart", "dual_baer",
    "cip", "scip", "csp", "scsp", "c1", "d1", "mc2", "md2",
    "k", "t", "k_co", "t_co", "retractable", "rickpix",
)

DEFAULT_PROPS = (
    "modular", "rickart", "baer", "dual_rickart", "dual_baer", "cip", "csp",
)


def _load_lattice(path: str) -> Lattice:
    return lattice_from_json(Path(path).read_text())


def _run_prop(L: Lattice, m: EndoMonoid | None, prop: str):
    if prop == "modular":
        return is_modular(L)
    if prop == "boolean":
        return is_boolean(L)
    if prop in ("rickart", "baer", "dual_rickart", "dual_baer"):
        return check_rickart_family(L, m, prop)
    if prop in ("cip", "scip", "csp", "scsp"):
        return check_summand_property(L, prop)
    if prop in ("c1", "d1", "mc2", "md2"):
        return check_condition(L, m, prop)
    if prop in ("k", "t", "k_co", "t_co"):
        return check_nonsingularity(L, m, prop)
    if prop == "retractable":
        return check_retractable(L, m)
    if prop == "rickpix":
        return check_rickpix(L, m)
    raise ValueError(f"unknown property: {prop!r}")


def _emit(doc, as_json: bool, human_lines):
    if as_json:
        print(json.dumps(doc, indent=2, ensure_ascii=False))
    else:
        for line in human_lines:
            print(line)


def _parse_props(csv: str) -> list[str]:
    if csv == "all":
        return list(PROP_CHOICES)
    props = [p.strip().lower() for p in csv.split(",") if p.strip()]
    unknown = [p for p in props if p not in PROP_CHOICES]
    if unknown:
        raise ValueError(f"unknown properties: {unknown}")
    if not props:
        raise ValueError("no properties selected")
    return props


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
    props = _parse_props(args.props)
    # an explicit spec file is always read and built, so a bad one is an error
    # whatever the properties; the default full monoid is built only if used
    monoid = None
    if args.monoid != "full":
        monoid = monoid_from_spec(L, parse_json(Path(args.monoid).read_text()))
    elif any(p not in ("modular", "boolean", "cip", "scip", "csp", "scsp", "c1", "d1")
             for p in props):
        monoid = full_monoid(L)
    results = [_run_prop(L, monoid, p) for p in props]
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
    grp = AbelianGroup.from_spec(args.group)
    mono = induced_monoid(grp)
    lat = mono.lattice
    props = [p.strip().lower() for p in args.props.split(",") if p.strip()]
    unknown = [p for p in props
               if p not in ("rickart", "baer", "dual_rickart", "dual_baer")]
    if unknown:
        raise ValueError(f"unknown module properties: {unknown}")
    if not props:
        raise ValueError("no module properties selected")
    results = [rickart_module_direct(grp, p) for p in props]
    doc = {
        "group": grp.spec_string(),
        "order": grp.order,
        "subgroups": lat.n,
        "induced_monoid_size": len(mono),
        "induced_maps": [phi.as_name_map() for phi in mono.members],
        "results": [v.to_json_dict() for v in results],
    }
    lines = [f"group {grp.spec_string()}: order {grp.order}, "
             f"{lat.n} subgroups, induced monoid size {len(mono)}"]
    for v in results:
        lines.append(f"  {v.prop}: {str(v.holds).lower()}"
                     + (f"  witness={v.witness}" if v.witness and not v.holds else ""))
    _emit(doc, args.json, lines)
    return 0 if all(v.holds for v in results) else 1


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
    checks = [c.strip() for c in args.checks.split(",")] if args.checks else None
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
            print(json.dumps(failure, indent=2, ensure_ascii=False))
    return 0 if report.total_failures == 0 else 1


def cmd_export_dot(args) -> int:
    L = _load_lattice(args.lattice)
    text = lattice_to_dot(L)
    Path(args.output).write_text(text)
    _emit({"name": L.name, "output": args.output}, args.json,
          [f"wrote Hasse diagram of {L.name!r} to {args.output}"])
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--props", default="rickart,baer,dual_rickart,dual_baer")
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
