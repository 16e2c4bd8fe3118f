"""latticelab benchmark: one workload, one run, metrics as the last stdout line.

    python3 perfbench/run.py --workload conformance --seed 1 --seconds 60 --trace 0

Run from the root of a latticelab checkout (the library is imported from
./src). A run makes at least MIN_PASSES passes over the seeded inputs, then
more until the next pass would end after --seconds. Each pass runs in a fresh
worker process, so the library's module-level caches start cold every pass.
Timings are corrected for the host's contention (see hostspeed.py); the times
as measured are printed on the `measured` line.
With --trace 0 the last line holds the end-to-end metrics, with --trace 1 the
per-layer metrics from traced passes (alternating with untraced ones, for the
tracing overhead).
See perfbench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
from tracer import CHECK_GROUPS

HERE = Path(__file__).resolve().parent
MIN_PASSES = 2
TAIL_BEYOND = 10  # the tail percentile keeps at least this many items above it
WORKER_TIMEOUT_S = 150
RUN_BUDGET_S = 160  # no pass starts that would end later than this
SETUP_WORKERS = 2  # set-up-only workers after each pass, for setup_s

END_TO_END = (  # name, unit
    ("setup_s", "s"), ("items_per_s", "1/s"), ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"), ("ok_frac", "ratio"), ("peak_rss_mb", "MiB"))

_TIMED_GROUPS = (
    "lattice.build", "lattice.is_modular", "lattice.complements", "lattice.interval",
    "morphisms.validate_linear", "morphisms.projection", "morphisms.compose",
    "morphisms.enumerate_linmors", "morphisms.enumerate_interval_isos",
    "monoid.comp", "abelian.subgroup_lattice")
_SELF_ONLY = (
    "lattice.is_boolean", "monoid.build", "monoid.annihilator",
    "properties.check_rickpix", "properties.check_condition", "properties.other",
    "abelian.induced_monoid", "abelian.rickart_module_direct", "cli.run")

PER_LAYER = (  # name, unit, key in the summed tracer summary
    *[(f"{g}.{s}", u, f"{g}.{s}") for g in _TIMED_GROUPS
      for s, u in (("calls", "count"), ("self_s", "s"))],
    *[(f"{g}.self_s", "s", f"{g}.self_s") for g in _SELF_ONLY],
    ("properties.check_rickpix.incl_s", "s", "properties.check_rickpix.incl_s"),
    *[(f"{g}.s", "s", f"{g}.incl_s") for g in CHECK_GROUPS],
    ("lattice.interval.new_frac", "ratio", None),
    ("morphisms.validate_linear.reject_frac", "ratio", None),
    ("cli.output_bytes", "bytes", None),
    ("trace.overhead_frac", "ratio", None),
)


class BenchError(Exception):
    """The run cannot produce a result."""


# -- known answers ------------------------------------------------------------


def check_item(item: dict, want: dict, got: dict,
               registry: dict[str, str]) -> tuple[str | None, str]:
    """(None, "") when `got` matches the known answer `want` for `item`, else
    ("error", why) for an item that raised or exited as an error, or
    ("wrong", why) for an answer that differs from the known one."""
    if got.get("error"):
        return "error", got["error"]
    kind = item["kind"]
    if kind in ("lattice", "global"):
        if got["failures"]:
            return "wrong", f"{got['failures']} registry failures"
        for name, check_kind in registry.items():
            if kind == "global":
                expected = int(check_kind == "global")
            elif check_kind == "lattice":
                expected = 1
            else:  # pair checks pair a lattice with itself when n * n <= 16
                expected = int(check_kind == "pair" and want["n"] ** 2 <= 16)
            if got["counted"].get(name, 0) != expected:
                return "wrong", f"check {name} counted {got['counted'].get(name, 0)} times"
        if kind == "lattice":
            if got["lattice_count"] != 1:
                return "wrong", "the lattice was set aside as non-modular"
            if not got["rickart"] == got["dual_rickart"] == want["complemented"]:
                return "wrong", (f"rickart={got['rickart']} dual_rickart={got['dual_rickart']}"
                                 f" complemented={want['complemented']}")
        return None, ""
    if kind == "group":
        bad = {k: v for k, v in got["verdicts"].items() if v != want["all"]}
        return (None, "") if not bad else ("wrong", f"{bad} vs squarefree={want['all']}")
    verdicts = got.get("verdicts")
    if verdicts is None or got["rc"] not in (0, 1):
        return "error", f"exit {got['rc']}: {got.get('stderr', '').strip()}"
    if got["rc"] != (0 if all(verdicts.values()) else 1):
        return "wrong", f"exit {got['rc']} disagrees with the verdicts"
    if kind == "module":
        bad = {k: v for k, v in verdicts.items() if v != want["all"]}
        return (None, "") if not bad else ("wrong", f"{bad} vs squarefree={want['all']}")
    for prop in ("modular", "rickart", "dual_rickart"):
        if verdicts.get(prop) != want[prop]:
            return "wrong", f"{prop}={verdicts.get(prop)}, known answer {want[prop]}"
    if "monoid_size" in want and got.get("monoid_size") != want["monoid_size"]:
        return "wrong", f"full monoid has {got.get('monoid_size')} members, not {want['monoid_size']}"
    return None, ""


# -- running passes -----------------------------------------------------------


def _worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # identical call counts across runs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one single-threaded client
    return env


def run_worker(root: Path, workdir: str, workload: str, seed: int, trace: int,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.perf_counter()  # the same clock as the worker's, CLOCK_MONOTONIC
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=_worker_env(root), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(root: Path, workdir: str, workload: str, seed: int, trace: int) -> dict:
    """One worker runs the pass; SETUP_WORKERS more only set up, for setup_s."""
    out = run_worker(root, workdir, workload, seed, trace)
    setups = [run_worker(root, workdir, workload, seed, 0, setup_only=True)
              for _ in range(SETUP_WORKERS)]
    out["trace"] = trace
    for key in ("setup_s", "setup_c"):
        out[key] = [out[key]] + [s[key] for s in setups]
    out["digests"] = {out["digest"]} | {s["digest"] for s in setups}
    return out


def run_passes(root: Path, workload: str, seed: int, seconds: float,
               trace: int) -> list[dict]:
    """At least MIN_PASSES passes, then more until the next one would end
    after `seconds`. A traced run alternates untraced and traced passes."""
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        passes, walls = [], []
        start = time.monotonic()
        while True:
            mode = len(passes) % 2 if trace else 0
            t0 = time.monotonic()
            passes.append(run_pass(root, workdir, workload, seed, mode))
            walls.append(time.monotonic() - t0)
            elapsed = time.monotonic() - start
            ends_at = elapsed + statistics.median(walls)
            if len(passes) >= MIN_PASSES and (ends_at > seconds or ends_at > RUN_BUDGET_S):
                return passes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- metrics ------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND values above."""
    xs = sorted(values)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def timings(passes: list[dict], item_key: str, setup_key: str) -> dict[str, float]:
    """Each item's time is its median over the run's passes, and setup_s the
    median of the run's set-ups."""
    per_item = [statistics.median(ts)
                for ts in zip(*[[it[item_key] for it in p["items"]] for p in passes])]
    ok_per_pass = sum(len(p["items"]) - p["failed"] for p in passes) / len(passes)
    return {
        "setup_s": statistics.median(s for p in passes for s in p[setup_key]),
        "items_per_s": ok_per_pass / sum(per_item),
        "item_p50_ms": 1000 * statistics.median(per_item),
        "item_tail_ms": 1000 * tail(per_item)[0],
    }


def end_to_end(passes: list[dict]) -> tuple[dict[str, float], dict, dict[str, float]]:
    """Timings corrected for contention, and the same timings as measured
    for the notes. Memory does not follow the host's speed, so peak_rss_mb
    is the median pass."""
    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        **timings(passes, "tc", "setup_c"),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    items = [it["t"] for it in passes[0]["items"]]
    notes = {"tail_percentile": tail(items)[1], "items_per_pass": len(items),
             "passes": len(passes),
             "failed_frac": failed / attempted,
             "setup_samples": sum(len(p["setup_s"]) for p in passes),
             "probe_samples": sum(p["probe_samples"] for p in passes)}
    return metrics, notes, timings(passes, "t", "setup_s")


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]

    def med(fn):
        return statistics.median(fn(p["layers"]) for p in traced)

    def ratio(num, den):
        return lambda s: s[num] / s[den] if s[den] else 0.0

    out = {}
    for name, _unit, key in PER_LAYER:
        if key is not None:
            out[name] = med(lambda s, key=key: s[key])
    out["lattice.interval.new_frac"] = med(
        ratio("lattice.interval.new", "lattice.interval.calls"))
    out["morphisms.validate_linear.reject_frac"] = med(
        ratio("morphisms.validate_linear.errors", "morphisms.validate_linear.calls"))
    out["cli.output_bytes"] = statistics.median(
        sum(it.get("output_bytes", 0) for it in p["items"]) for p in traced)

    def pass_s(p):
        return sum(it["tc"] for it in p["items"])

    out["trace.overhead_frac"] = (statistics.median(pass_s(p) for p in traced)
                                  / statistics.median(pass_s(p) for p in plain) - 1)
    return out


def provenance(args, items: list[dict], first: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform(), **first["versions"],
            "inputs_sha256": inputs.digest(items)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # unwind on SIGTERM too, so the running worker is killed and the temporary
    # directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    try:
        if not (root / "src" / "latticelab" / "__init__.py").is_file():
            raise BenchError(f"no latticelab checkout here: {root / 'src' / 'latticelab'} is missing")
        items = inputs.workload_items(args.workload, args.seed)
        passes = run_passes(root, args.workload, args.seed, args.seconds, args.trace)
        expected = inputs.digest(items)
        for ps in passes:
            if ps["digests"] != {expected}:
                raise BenchError("a worker generated different inputs for the same seed")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wants = [inputs.known_answer(item) for item in items]
    wrong = 0
    problems = []
    for ps in passes:
        ps["failed"] = 0
        for item, want, got in zip(items, wants, ps["items"]):
            status, why = check_item(item, want, got, ps["registry"])
            if status is not None:
                ps["failed"] += 1
                wrong += status == "wrong"
                problems.append(f"{status}: {item['name']}: {why}")

    print("provenance " + json.dumps(provenance(args, items, passes[0]), sort_keys=True))
    for line in sorted(set(problems)):
        print(f"known-answer {line}")
    if args.trace:
        metrics = per_layer(passes)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, notes, measured = end_to_end(passes)
        units = dict(END_TO_END)
        print("notes " + json.dumps(notes, sort_keys=True))
        print("measured " + json.dumps(measured, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:<48} {value:>16.6f} {units[name]}")
    attempted = sum(len(ps["items"]) for ps in passes)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": sum(ps["failed"] for ps in passes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
