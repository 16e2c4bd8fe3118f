"""Acceptance gate: every criterion as one test, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass. All comparisons are exact; runtime budgets are asserted.
"""

import hashlib
import itertools
import json
import time
from pathlib import Path

from latticelab import fixtures as fx
from latticelab.abelian import AbelianGroup, induced_monoid, rickart_module_direct, subgroup_lattice
from latticelab.cli import run as cli_run
from latticelab.conformance import REGISTRY, random_corpus
from latticelab.errors import LinearValidationError
from latticelab.lattice import complemented_elements, interval
from latticelab.monoid import full_monoid
from latticelab.morphisms import enumerate_linmors, validate_linear
from latticelab.properties import (
    check_cross_rickart,
    check_rickart_family,
    check_summand_property,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _verdict_line(n: int, title: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} ({title}): {status} [{elapsed:.2f}s]")


def test_criterion_1_figure_one_bridge(capsys):
    t0 = time.time()
    ok = False
    try:
        code = cli_run(["--json", "module", "--group", "4", "--props", "rickart"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1  # rickart fails, and that is the reported finding
        assert doc["induced_monoid_size"] == 3

        grp = AbelianGroup.from_spec("4")
        lat = subgroup_lattice(grp)
        mono = induced_monoid(grp)
        bottom, mid, top = lat.names[0], lat.names[1], lat.names[2]
        doubling_table = {bottom: bottom, mid: bottom, top: mid}
        assert doubling_table in doc["induced_maps"]

        rick = next(r for r in doc["results"] if r["property"] == "rickart")
        assert rick["holds"] is False
        assert rick["witness"]["subgroup"] == mid

        # lattice-side agreement: the induced monoid on the subgroup chain
        # is the full linear endomorphism monoid of the c3 fixture, index
        # for index, and the analyze verdict matches
        c3 = fx.build_fixture("c3")
        assert {phi.map for phi in mono.members} == \
            {phi.map for phi in full_monoid(c3).members}
        code = cli_run(["--json", "analyze", str(FIXTURES / "c3.json"),
                        "--monoid", "full", "--props", "rickart"])
        side = json.loads(capsys.readouterr().out)
        assert code == 1
        lattice_rickart = side["results"][0]
        assert lattice_rickart["holds"] is False
        assert lattice_rickart["witness"]["kernel"] == "n"
        ok = True
    finally:
        elapsed = time.time() - t0
        with capsys.disabled():
            _verdict_line(1, "order-4 cyclic bridge", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_2_excip_fixture(capsys):
    t0 = time.time()
    ok = False
    try:
        L = fx.build_fixture("excip")
        comp = {L.names[i] for i in complemented_elements(L)}
        assert comp == {"0", "1", "a", "b"}
        assert check_summand_property(L, "cip").holds

        sub_a = interval(L, L.bottom, L.id_of("a")).as_lattice
        sub_b = interval(L, L.bottom, L.id_of("b")).as_lattice
        table = tuple(sub_b.id_of(v) for v in ("0", "0", "f"))
        phi = validate_linear(sub_a, sub_b, table)
        assert sub_a.names[phi.kernel] == "k"

        assert not check_cross_rickart(sub_a, sub_b).holds
        ok = True
    finally:
        elapsed = time.time() - t0
        with capsys.disabled():
            _verdict_line(2, "nine-element fixture", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_3_enumeration_oracle(capsys):
    t0 = time.time()
    ok = False
    expected = {"c2": (2, 4), "c3": (3, 27), "b2": (7, 256), "m3": (16, 3125)}
    try:
        for name, (count, candidates) in expected.items():
            L = fx.build_fixture(name)
            assert L.n ** L.n == candidates
            oracle = []
            for table in itertools.product(range(L.n), repeat=L.n):
                try:
                    oracle.append(validate_linear(L, L, table).map)
                except LinearValidationError:
                    pass
            fast = sorted(phi.map for phi in enumerate_linmors(L))
            assert len(fast) == count
            assert fast == sorted(oracle)
        ok = True
    finally:
        elapsed = time.time() - t0
        with capsys.disabled():
            _verdict_line(3, "enumeration vs oracle", ok, elapsed)
    assert elapsed < 5.0


def test_criterion_4_theorem_conformance(capsys):
    t0 = time.time()
    ok = False
    try:
        code = cli_run(["--json", "theorems", "--random", "200",
                        "--max-size", "8", "--seed", "42"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "bad655e2876cdc44ba933bfad11363398cd9ade25822a99185e698ce218892bd"
        assert doc["failures"] == []
        assert set(doc["checks"]) == set(REGISTRY)
        assert doc["lattice_count"] == 206  # 6 modular fixtures + 200 random
        for counts in doc["checks"].values():
            assert counts["fail"] == 0
        ok = True
    finally:
        elapsed = time.time() - t0
        with capsys.disabled():
            _verdict_line(4, "conformance registry", ok, elapsed)
    assert elapsed < 600.0


def test_criterion_5_acc_degeneracy(capsys):
    t0 = time.time()
    ok = False
    try:
        corpus = [fx.build_fixture(nm) for nm in fx.MODULAR_FIXTURES]
        corpus += random_corpus(60, 8, 42)
        for L in corpus:
            m = full_monoid(L)
            assert check_rickart_family(L, m, "rickart").holds == \
                check_rickart_family(L, m, "baer").holds
            assert check_rickart_family(L, m, "dual_rickart").holds == \
                check_rickart_family(L, m, "dual_baer").holds
        c3, b2 = fx.build_fixture("c3"), fx.build_fixture("b2")
        assert not check_rickart_family(c3, full_monoid(c3), "rickart").holds
        assert check_rickart_family(b2, full_monoid(b2), "rickart").holds
        ok = True
    finally:
        elapsed = time.time() - t0
        with capsys.disabled():
            _verdict_line(5, "finite chain conditions collapse", ok, elapsed)


def _invariant_factor_chains(max_order: int):
    """All divisibility chains d1 | d2 | ... with product at most max_order."""
    chains = [()]
    for total in range(2, max_order + 1):
        def rec(remaining, smallest):
            if remaining == 1:
                yield ()
                return
            d = smallest
            while d <= remaining:
                if remaining % d == 0:
                    for rest in rec(remaining // d, d):
                        yield (d,) + rest
                d += 1
        for chain in rec(total, 2):
            # chains are built smallest-first and must divide in turn
            if all(b % a == 0 for a, b in zip(chain, chain[1:])):
                chains.append(chain)
    return chains


def _partition_count(n: int) -> int:
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def test_criterion_6_module_bridge_sweep(capsys):
    t0 = time.time()
    ok = False
    kinds = ("rickart", "baer", "dual_rickart", "dual_baer")
    try:
        chains = _invariant_factor_chains(32)
        # independent count: abelian groups of order n correspond to
        # partition choices of the prime exponents
        want = sum(
            __import__("math").prod(_partition_count(e) for e in _prime_exponents_full(n))
            for n in range(1, 33))
        assert len(chains) == want == 55
        assert (2, 2, 2, 2, 2) in chains and (32,) in chains
        for chain in chains:
            grp = AbelianGroup(chain)
            semisimple = all(
                all(e == 1 for e in _prime_exponents(d)) for d in chain)
            verdicts = {}
            for kind in kinds:
                v = rickart_module_direct(grp, kind)  # raises on disagreement
                verdicts[kind] = v.holds
            if semisimple:
                assert all(verdicts.values()), chain
            assert verdicts["rickart"] == verdicts["baer"]
            assert verdicts["dual_rickart"] == verdicts["dual_baer"]
        ok = True
    finally:
        elapsed = time.time() - t0
        with capsys.disabled():
            _verdict_line(6, f"bridge sweep over {len(_invariant_factor_chains(32))} groups",
                          ok, elapsed)
    assert elapsed < 120.0


def _prime_exponents(n: int):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append(e)
        d += 1
    if n > 1:
        out.append(1)
    return out


def _prime_exponents_full(n: int):
    out = []
    d = 2
    while n > 1:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append(e)
        d += 1
    return out
