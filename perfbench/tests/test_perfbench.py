"""Self-tests of the benchmark: tracer hygiene, known-answer checks, inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

import hostspeed
import inputs
import run
from tracer import Tracer


def _library_bindings():
    import latticelab
    from latticelab import cli, conformance, monoid  # noqa: F401
    mods = {n: m for n, m in sys.modules.items()
            if n == "latticelab" or n.startswith("latticelab.")}
    attrs = {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}
    return latticelab, attrs, dict(conformance.REGISTRY), vars(monoid.EndoMonoid)["comp"]


def test_traced_run_restores_every_binding():
    _, before, registry, comp = _library_bindings()
    import latticelab
    from latticelab import cli, conformance
    tracer = Tracer()
    with tracer:
        assert latticelab.is_modular is not before[("latticelab", "is_modular")]
        L = latticelab.lattice.lattice_from_json(
            inputs.lattice_json("m3", inputs.mk_spec(3)))
        conformance.run_conformance([L])
        latticelab.rickart_module_direct(latticelab.AbelianGroup.from_spec("4"), "baer")
        assert cli.run(["--json", "module", "--group", "2"]) == 0
    _, after, registry_after, comp_after = _library_bindings()
    assert after.keys() == before.keys()
    moved = [k for k in before if after[k] is not before[k]]
    assert moved == []
    assert all(registry_after[n] is registry[n] for n in registry)
    assert comp_after is comp
    summary = tracer.summary()
    for group in ("lattice.build", "lattice.is_modular", "morphisms.validate_linear",
                  "monoid.build", "abelian.rickart_module_direct", "cli.run"):
        assert summary[f"{group}.calls"] > 0, group
    assert summary["conformance.check.rickpix.calls"] == 1
    assert summary["cli.run.calls"] == 1
    assert summary["monoid.comp.calls"] >= 1


def test_self_time_excludes_wrapped_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer._wrap("lattice.is_modular", lambda: None)
    outer = tracer._wrap("properties.check_rickpix", lambda: inner())
    outer()  # outer starts at 0, inner runs 1..2, outer ends at 3
    s = tracer.summary()
    assert s["properties.check_rickpix.incl_s"] == 3
    assert s["properties.check_rickpix.self_s"] == 2
    assert s["lattice.is_modular.self_s"] == 1


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    a = inputs.workload_items(workload, 11)
    assert a == inputs.workload_items(workload, 11)
    assert inputs.digest(a) == inputs.digest(inputs.workload_items(workload, 11))
    assert inputs.digest(a) != inputs.digest(inputs.workload_items(workload, 12))


def test_conformance_corpus_has_the_acceptance_shapes():
    lattices = inputs.workload_items("conformance", 5)[len(inputs.FIXTURES):-1]
    shapes = {}
    for item in lattices:
        doc = json.loads(item["json"])
        o = inputs.order_of((doc["elements"], [tuple(c) for c in doc["covers"]]))
        assert inputs.is_modular(o), item["name"]
        shape = (o.n, inputs.max_cover_degree(o) if o.n > 1 else 0, _rank_of_top(o))
        shapes[shape] = shapes.get(shape, 0) + 1
    assert shapes == inputs.CONFORMANCE_SHAPES
    assert sum(c for (_, d, _), c in shapes.items() if d >= 4) == 7


def _rank_of_top(o):
    """Length of a maximal chain; every one has the same in a modular lattice."""
    covers = o.covers()
    rank, frontier = 0, {o.bottom}
    while o.top not in frontier:
        frontier = {hi for lo, hi in covers if lo in frontier}
        rank += 1
    return rank


def _passing(item, want):
    """What a correct library reports for `item`."""
    if item["kind"] == "group":
        return {"verdicts": {k: want["all"] for k in inputs.KINDS}}
    if item["kind"] == "module":
        return {"rc": 0 if want["all"] else 1,
                "verdicts": {k: want["all"] for k in inputs.KINDS}}
    verdicts = {p: want[p] for p in ("modular", "rickart", "dual_rickart")}
    return {"rc": 0 if all(verdicts.values()) else 1, "verdicts": verdicts,
            **({"monoid_size": want["monoid_size"]} if "monoid_size" in want else {})}


REGISTRY = {"kerpi": "lattice", "rickpix": "lattice", "prod_rickart_pairs": "pair",
            "lricmric": "global"}


def test_flipped_verdicts_count_as_failed():
    for item in inputs.workload_items("bridge", 3) + inputs.workload_items("cli", 3):
        want = inputs.known_answer(item)
        got = _passing(item, want)
        assert run.check_item(item, want, got, REGISTRY) == (None, ""), item["name"]
        prop = "baer" if item["kind"] in ("group", "module") else "rickart"
        got["verdicts"][prop] = not got["verdicts"][prop]
        assert run.check_item(item, want, got, REGISTRY)[0] == "wrong", item["name"]

    for lat in inputs.workload_items("conformance", 3)[:-1]:
        want = inputs.known_answer(lat)
        comp = want["complemented"]
        pair = int(want["n"] ** 2 <= 16)
        got = {"failures": 0, "lattice_count": 1, "rickart": comp, "dual_rickart": comp,
               "counted": {"kerpi": 1, "rickpix": 1, "prod_rickart_pairs": pair,
                           "lricmric": 0}}
        assert run.check_item(lat, want, got, REGISTRY) == (None, "")
        for flip in ({"dual_rickart": not comp}, {"rickart": not comp}, {"failures": 1},
                     {"counted": {"kerpi": 1}}, {"lattice_count": 0}):
            assert run.check_item(lat, want, {**got, **flip}, REGISTRY)[0] == "wrong"


def test_error_exits_are_failed_but_not_wrong():
    above_cap = next(i for i in inputs.workload_items("cli", 3) if i["name"] == "2,2,2,2,2")
    want = inputs.known_answer(above_cap)
    status, _ = run.check_item(above_cap, want, {"rc": 2, "stderr": "exceeds cap"}, REGISTRY)
    assert status == "error"
    assert run.check_item(above_cap, want, {"error": "boom"}, REGISTRY)[0] == "error"


def test_brute_force_order_code():
    n5 = (["0", "a", "b", "c", "1"],
          [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
    assert not inputs.is_modular(inputs.order_of(n5))
    assert inputs.order_from_covers(["0", "a", "b"], [("0", "a"), ("0", "b")]) is None
    m4 = inputs.order_of(inputs.mk_spec(4))
    assert inputs.is_modular(m4) and inputs.is_complemented(m4)
    c3 = inputs.order_of(inputs.chain_spec(3))
    assert not inputs.is_complemented(c3)
    assert inputs.projection_monoid_verdicts(c3) == (True, True)
    assert len(inputs.invariant_factor_chains(32)) == 55
    assert [inputs.exponent_squarefree(g) for g in ((2, 2), (4,), (2, 6), (3, 9))] == [
        True, False, True, False]


def test_probe_scales_to_the_reference_speed():
    probe = hostspeed.Probe()
    ref = hostspeed.REFERENCE_S
    probe.starts = [0.1 * i for i in range(40)]
    probe.job_s = [ref] * 20 + [2 * ref] * 20  # the host halves its speed at 2.0 s
    probe.handler_s = [0.001] * 40
    # three handlers ran inside [0.05, 0.35]; the rest ran at the reference speed
    assert probe.corrected(0.05, 0.35, 0.3) == pytest.approx(0.297)
    # at half speed the same work takes twice as long and counts the same
    assert probe.corrected(3.05, 3.65, 0.6) == pytest.approx(0.297)
    # a span with no sample inside takes at least WINDOW samples around it,
    # as many on each side
    assert probe.corrected(3.91, 3.92, 0.01) == pytest.approx(0.005)
    assert probe.corrected(1.91, 1.92, 0.01) == pytest.approx(0.01 / 1.5)
    # a job that was stopped for a while counts as CLIP times the median
    probe.job_s[2] = 100 * ref
    window = hostspeed.WINDOW  # samples 0 .. WINDOW - 1: the first stops the widening
    assert probe.corrected(0.05, 0.35, 0.3) == pytest.approx(
        0.297 * window / (window - 1 + hostspeed.CLIP))


def test_probe_samples_and_restores_the_signal_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.Probe()
    probe.start()
    end = time.perf_counter() + 0.1
    while time.perf_counter() < end:
        pass
    probe.stop()
    assert len(probe.starts) >= 3
    assert all(h >= j > 0 for h, j in zip(probe.handler_s, probe.job_s))
    assert signal.getsignal(signal.SIGALRM) in (before, signal.SIG_DFL)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_keeps_ten_items_above():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, u) for n, u, _ in run.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} <= set(inputs.WORKLOADS)
