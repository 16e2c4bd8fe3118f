"""Order duality: each dual fact about L is the primal fact about its opposite.

The direct dual checkers in `properties` and `monoid` are an independent
route to what the registry computes on the opposite lattice, so the two
must agree on every lattice.
"""

from latticelab import fixtures as fx
from latticelab.conformance import LatticeContext, random_corpus, run_conformance
from latticelab.lattice import build_lattice, interval, opposite
from latticelab.monoid import full_monoid, monoid_predicate
from latticelab.properties import (
    check_condition,
    check_generation,
    check_nonsingularity,
    check_rickart_family,
    check_summand_property,
)

# (dual kind on L, primal kind on the opposite) per checker
FAMILY_PAIRS = (("dual_rickart", "rickart"), ("dual_baer", "baer"))
CONDITION_PAIRS = (("d1", "c1"), ("mc2", "md2"))
NONSING_PAIRS = (("t", "k"), ("t_co", "k_co"))
SUMMAND_PAIRS = (("csp", "cip"), ("scsp", "scip"))


# the modular fixtures and two random corpora, all modular
ROOTS = ([fx.build_fixture(nm) for nm in fx.MODULAR_FIXTURES]
         + random_corpus(200, 8, 42) + random_corpus(30, 10, 7))
# all their lower intervals; the interval below the top stands for the
# lattice itself
LATTICES = [interval(L, L.bottom, x).as_lattice for L in ROOTS for x in range(L.n)]


def _dual_mismatches(L):
    """The dual/primal pairs whose verdicts differ between L and Lᵒᵖ."""
    op = opposite(L)
    m, mo = full_monoid(L), full_monoid(op)
    bad = []
    for dual, primal in FAMILY_PAIRS:
        if check_rickart_family(L, m, dual).holds != \
                check_rickart_family(op, mo, primal).holds:
            bad.append(dual)
    for dual, primal in CONDITION_PAIRS:
        if check_condition(L, m, dual).holds != check_condition(op, mo, primal).holds:
            bad.append(dual)
    for dual, primal in NONSING_PAIRS:
        if check_nonsingularity(L, m, dual).holds != \
                check_nonsingularity(op, mo, primal).holds:
            bad.append(dual)
    for dual, primal in SUMMAND_PAIRS:
        if check_summand_property(L, dual).holds != \
                check_summand_property(op, primal).holds:
            bad.append(dual)
    for x in range(L.n):
        if check_generation(L, m, x, "cogenerated").holds != check_generation(
                op, mo, op.id_of(L.names[x]), "generated").holds:
            bad.append(f"cogenerated {L.names[x]}")
    if len(m) <= LatticeContext.COMP_CAP:
        if monoid_predicate(m, "left_rickart").holds != \
                monoid_predicate(mo, "right_rickart").holds:
            bad.append("left_rickart")
    return bad


def test_corpus_is_not_all_self_dual():
    assert len(LATTICES) > 100
    assert sum(opposite(L).structure_key != L.structure_key for L in LATTICES) > 10


def test_dual_verdicts_are_primal_verdicts_of_the_opposite():
    mismatches = {L.name: bad for L in LATTICES if (bad := _dual_mismatches(L))}
    assert mismatches == {}


def test_opposite_swaps_the_tables():
    for L in LATTICES + [fx.build_fixture("n5")]:
        op = opposite(L)
        assert opposite(op) is L
        assert op.n == L.n and op.bottom == 0 and op.top == L.n - 1
        ids = [op.id_of(nm) for nm in L.names]
        for a in range(L.n):
            assert op.down_set(ids[a]) == sorted(ids[b] for b in L.up_set(a))
            assert op.up_set(ids[a]) == sorted(ids[b] for b in L.down_set(a))
            for b in range(L.n):
                assert op.join_of(ids[a], ids[b]) == ids[L.meet_of(a, b)]
                assert op.meet_of(ids[a], ids[b]) == ids[L.join_of(a, b)]


def test_chain_opposite_has_the_chain_key():
    for k in range(1, 7):
        names = [f"e{i}" for i in range(k)]
        chain = build_lattice(names, list(zip(names, names[1:])), name=f"c{k}")
        assert opposite(chain).structure_key == chain.structure_key


def test_context_op_is_shared_only_for_equal_tables():
    for L in (fx.build_fixture("c3"), fx.build_fixture("b3"), fx.build_fixture("m3")):
        ctx = LatticeContext(L)
        assert ctx.op is ctx
    L = next(L for L in LATTICES if opposite(L).structure_key != L.structure_key)
    ctx = LatticeContext(L)
    assert ctx.op is not ctx and ctx.op.L is opposite(L)


def test_dual_twins_run_on_an_opposite_of_another_key():
    # B3 with coatoms named so that the opposite's canonical order differs:
    # the dual twins must evaluate the primal checks on a second context
    covers = [("0", "a"), ("0", "b"), ("0", "c"), ("a", "p"), ("b", "p"),
              ("a", "r"), ("c", "r"), ("b", "q"), ("c", "q"),
              ("p", "1"), ("q", "1"), ("r", "1")]
    L = build_lattice(["0", "a", "b", "c", "p", "q", "r", "1"], covers, name="b3pqr")
    assert opposite(L).structure_key != L.structure_key
    ctx = LatticeContext(L)
    assert ctx.op is not ctx
    twins = ("dbaer_tco_d1", "compldbaer", "dbaercar")
    report = run_conformance([L], checks=twins)
    assert report.counts == {nm: {"pass": 1, "fail": 0, "skip": 0} for nm in twins}
