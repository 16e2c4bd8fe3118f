"""One pass of a workload, run in a fresh process.

Started by run.py with the library's `src` directory on PYTHONPATH. Setup is
everything up to the first timed call: interpreter start, numpy and
latticelab import, and input generation. The timed section then runs the
items one after another (one client, closed loop), optionally under the
outside-in tracer. A `hostspeed.Probe` samples the host's speed from the
first line of this file to the end of the timed section, and every time is
reported both as measured and corrected for contention. Facts for the
known-answer checks are collected after the timed section, and one JSON
object is printed as the last stdout line. With --setup-only the worker stops
at the first timed call and prints only its set-up time and the digest.
"""

from __future__ import annotations

import hostspeed

PROBE = hostspeed.Probe()
if __name__ == "__main__":
    PROBE.start()  # before the imports below, so that set-up is sampled too

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

import numpy

import latticelab
from latticelab import cli, conformance, lattice, monoid, properties
from latticelab.abelian import AbelianGroup

import inputs
from tracer import Tracer


def _prepare(item: dict, workdir: str, index: int):
    """The zero-argument call that is timed for this item."""
    kind = item["kind"]
    if kind == "lattice":
        checks = [n for n, c in conformance.REGISTRY.items() if c.kind != "global"]
        text = item["json"]

        def call():
            L = lattice.lattice_from_json(text)
            return L, conformance.run_conformance([L], checks=checks)
        return call
    if kind == "global":
        checks = [n for n, c in conformance.REGISTRY.items() if c.kind == "global"]
        return lambda: (None, conformance.run_conformance([], checks=checks))
    if kind == "group":
        spec = item["name"]

        def call():
            g = AbelianGroup.from_spec(spec)
            return {k: latticelab.rickart_module_direct(g, k).holds for k in inputs.KINDS}
        return call
    # a command line: write its input files now, time only cli.run
    paths = {}
    for fname, text in item.get("files", {}).items():
        path = os.path.join(workdir, f"{index}-{fname}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths["{" + fname + "}"] = path
    argv = [paths.get(a, a) for a in item["argv"]]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        return rc, out.getvalue(), err.getvalue()
    return call


def _facts(item: dict, value, workdir: str, index: int) -> dict:
    """What the known-answer checks need, gathered outside the timed section."""
    kind = item["kind"]
    if kind in ("lattice", "global"):
        L, report = value
        facts = {"failures": report.total_failures,
                 "lattice_count": report.lattice_count,
                 "counted": {n: sum(c.values()) for n, c in report.counts.items()}}
        if L is not None:
            m = monoid.full_monoid(L)
            for k in ("rickart", "dual_rickart"):
                facts[k] = properties.check_rickart_family(L, m, k).holds
        return facts
    if kind == "group":
        return {"verdicts": value}
    rc, out, err = value
    facts = {"rc": rc, "output_bytes": len(out.encode("utf-8")), "stderr": err[-300:]}
    if out:
        doc = json.loads(out)
        facts["verdicts"] = {r["property"]: r["holds"] for r in doc["results"]}
    if item["name"] in inputs.CLI_MK:
        path = os.path.join(workdir, f"{index}-lattice.json")
        with open(path, encoding="utf-8") as fh:
            facts["monoid_size"] = len(monoid.full_monoid(lattice.lattice_from_json(fh.read())))
    return facts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="perf_counter() of the parent just before it started this process")
    args = p.parse_args(argv)

    items = inputs.workload_items(args.workload, args.seed)
    calls = [_prepare(item, args.workdir, i) for i, item in enumerate(items)]
    tracer = Tracer() if args.trace else None

    values, errors = [], []
    gc.collect()  # the collector's counters start the timed section at zero
    first_call = time.perf_counter()
    setup = {"setup_s": first_call - args.spawned,
             "setup_c": PROBE.corrected(args.spawned, first_call, first_call - args.spawned)}
    if args.setup_only:
        PROBE.stop()
        print(json.dumps({"digest": inputs.digest(items), **setup}))
        return 0
    spans = []
    t_start = time.perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        for call in calls:
            t0 = time.perf_counter()
            try:
                values.append(call())
                errors.append(None)
            except Exception as exc:  # counted as a failed item, never fatal
                values.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            spans.append((t0, t1))
    t_end = time.perf_counter()
    PROBE.stop()
    timed_s = t_end - t_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = []
    for i, (item, (t0, t1), value, error) in enumerate(zip(items, spans, values, errors)):
        facts = {} if error else _facts(item, value, args.workdir, i)
        results.append({"name": item["name"], "t": t1 - t0,
                        "tc": PROBE.corrected(t0, t1, t1 - t0), "error": error, **facts})
    print(json.dumps({
        "digest": inputs.digest(items),
        **setup,
        "timed_s": timed_s,
        "probe_samples": len(PROBE.starts),
        "peak_rss_mb": rss_mb,
        "items": results,
        "layers": tracer.summary() if tracer is not None else None,
        "registry": {n: c.kind for n, c in conformance.REGISTRY.items()},
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "latticelab": latticelab.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
