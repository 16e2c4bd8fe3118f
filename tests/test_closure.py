"""close_under against brute force over subsets of its seeds.

Every closure in the library (meets of kernels, joins of images, annihilators
of subsets, sums and intersections of subgroups) goes through close_under.
Here each closure is compared with the set obtained by applying the
operation to every nonempty subset of the seeds directly, and each recorded
generator tuple is folded back to its key.
"""

import itertools
from functools import cache, partial, reduce

import numpy as np
import pytest

from latticelab import fixtures as fx
from latticelab.abelian import (AbelianGroup, _endo_sweep, _group_data, _pair_sum,
                                _subgroup_masks)
from latticelab.conformance import random_corpus
from latticelab.lattice import close_under
from latticelab.monoid import _ann_mask, _mask_and, annihilator, full_monoid


def nonempty_subsets(items):
    items = list(items)
    for r in range(1, len(items) + 1):
        yield from itertools.combinations(items, r)


@cache
def brute_subgroups(g):
    """Every subset holding 0 and closed under addition, as element masks."""
    add = _group_data(g).add
    brute = set()
    for r in range(g.order):
        for rest in itertools.combinations(range(1, g.order), r):
            elems = (0,) + rest
            if all(int(add[a, b]) in elems for a in elems for b in elems):
                brute.add(sum(1 << e for e in elems))
    return frozenset(brute)


def generated_subgroup(g, mask):
    """The smallest brute-force subgroup holding every masked element."""
    return min((h for h in brute_subgroups(g) if h & mask == mask), key=int.bit_count)


def lattice_corpus():
    return ([fx.build_fixture(nm) for nm in fx.MODULAR_FIXTURES]
            + random_corpus(40, 8, 3))


@pytest.mark.parametrize("kind", ["kernels", "image_tops"])
def test_lattice_closures_match_subset_meets_and_joins(kind):
    for L in lattice_corpus():
        m = full_monoid(L)
        op, fold_all = ((L.meet_of, L.meet_all) if kind == "kernels"
                        else (L.join_of, L.join_all))
        # seeds as check_rickart_family builds them: first member per element
        seeds = {}
        for i, phi in enumerate(m.members):
            seeds.setdefault(phi.kernel if kind == "kernels" else phi.image_top, (i,))
        closed = close_under(seeds, op)
        assert sorted(seeds) == list(getattr(m, kind))
        assert set(closed) == {fold_all(s) for s in nonempty_subsets(seeds)}, L.name
        for e, gens in closed.items():
            assert len(set(gens)) == len(gens)
            parts = [getattr(m.members[g], "kernel" if kind == "kernels" else "image_top")
                     for g in gens]
            assert reduce(op, parts) == e, (L.name, e, gens)


@pytest.mark.parametrize("name", ["c3", "b2", "b3", "m3"])
@pytest.mark.parametrize("side", ["right", "left"])
def test_annihilator_closure_matches_annihilators_of_subsets(name, side):
    m = full_monoid(fx.build_fixture(name))
    singles = {}
    for i in range(len(m.members)):
        singles.setdefault(_ann_mask(m, side, (i,)).tobytes(), (i,))
    closed = close_under(singles, _mask_and)

    def ann_key(targets):
        mask = np.zeros(len(m.members), dtype=bool)
        mask[list(annihilator(m, side, targets).members)] = True
        return mask.tobytes()

    reps = [gens[0] for gens in singles.values()]
    assert set(closed) == {ann_key(s) for s in nonempty_subsets(reps)}
    for key, gens in closed.items():
        assert len(set(gens)) == len(gens)
        assert ann_key(gens) == key
        assert key.count(1) == int(np.frombuffer(key, dtype=bool).sum())


@pytest.mark.parametrize("spec", ["4", "2,2", "2,4"])
def test_subgroup_closures_match_spans(spec):
    g = AbelianGroup.from_spec(spec)
    sweep = _endo_sweep(g)
    images = sorted(sweep.image_masks)
    sums = close_under({h: (h,) for h in images}, partial(_pair_sum, g))
    assert set(sums) == {generated_subgroup(g, reduce(int.__or__, s))
                         for s in nonempty_subsets(images)}
    for key, gens in sums.items():
        assert generated_subgroup(g, reduce(int.__or__, gens)) == key

    kernels = sorted(sweep.kernel_masks)
    meets = close_under({k: (k,) for k in kernels}, int.__and__)
    assert set(meets) == {reduce(int.__and__, s) for s in nonempty_subsets(kernels)}
    for key, gens in meets.items():
        assert reduce(int.__and__, gens) == key


@pytest.mark.parametrize("spec", ["1", "4", "2,2", "2,4", "3,3"])
def test_subgroups_are_sum_closure_of_cyclic_subgroups(spec):
    g = AbelianGroup.from_spec(spec)
    assert set(_subgroup_masks(g)) == brute_subgroups(g)


def test_seed_order_and_first_pair_decide_generators():
    # 6 & 5 = 4 is first reached from the frontier key 6 and the seed 5
    closed = close_under({6: ("a",), 5: ("b",), 3: ("c",)}, int.__and__)
    assert closed == {6: ("a",), 5: ("b",), 3: ("c",), 4: ("a", "b"),
                      2: ("a", "c"), 1: ("b", "c"), 0: ("a", "b", "c")}
