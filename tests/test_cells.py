"""Cells, closures, admissibility, local statistics, partition criterion."""

import itertools

import numpy as np
import pytest

from coastrank.cells import Cell
from coastrank.errors import (
    InadmissiblePairError,
    PartitionIntegrityError,
    RejectedInputError,
)
from coastrank.perms import (
    PairwiseMatrix,
    Permutation,
    RankingSample,
    comparison_matrix,
    num_pairs,
)

from conftest import random_permutation, random_sample, reversal
from oracles import (
    admissible_pairs,
    brute_v_hat,
    enumerate_members,
    enumerate_permutations,
    local_stats,
    members_by_contains,
    partition_criterion,
    v_hat_of_indices,
)


def random_cell(rng, n, depth):
    """A cell built by a chain of admissible splits (always consistent)."""
    c = Cell.root(n)
    for _ in range(depth):
        pairs = admissible_pairs(c)
        if not pairs:
            break
        i, j = pairs[int(rng.integers(len(pairs)))]
        side = int(rng.integers(2))
        c = c.split((i, j))[side]
    return c


def seeded_cells(n):
    """Cells over n items for comparisons with the enumeration oracles.

    The root, chains of random splits, a partial chain a < b < c < ..., a
    star with one item before three others, and a full chain holding one
    ranking; chains and stars share items between constraints.
    """
    rng = np.random.default_rng(1000 + n)
    order = [int(v) for v in rng.permutation(n)]
    chain = list(zip(order, order[1:]))
    return [random_cell(rng, n, depth) for depth in (0, 1, 2, 4, 7)] + [
        Cell(n, frozenset(chain[: n // 2])),
        Cell(n, frozenset((order[0], b) for b in order[1:4])),
        Cell(n, frozenset(chain)),
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_members_equal_contains_oracle(n):
    cells = seeded_cells(n)
    for cell in cells:
        assert list(enumerate_members(cell)) == members_by_contains(cell)
    assert len(list(enumerate_members(cells[-1]))) == 1


def test_root_contains_everything():
    c = Cell.root(4)
    assert all(c.contains(p) for p in enumerate_permutations(4))
    assert len(admissible_pairs(c)) == num_pairs(4)


def test_single_constraint_halves_s3():
    c = Cell(3, frozenset({(0, 1)}))
    members = list(enumerate_members(c))
    assert len(members) == 3
    assert all(p.ranks[0] < p.ranks[1] for p in members)


def test_chain_forces_total_order():
    # constraints 1<2 and 2<3 close to a full chain at n=3: only the identity
    c = Cell(3, frozenset({(0, 1), (1, 2)}))
    assert list(enumerate_members(c)) == [Permutation.identity(3)]
    assert admissible_pairs(c) == []
    assert c.closure[0, 2]  # transitivity picked up (1,3)


def test_cyclic_constraints_rejected():
    with pytest.raises(RejectedInputError):
        Cell(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    with pytest.raises(RejectedInputError):
        Cell(3, frozenset({(0, 0)}))


def test_split_shapes_and_reuse():
    c0, c1 = Cell.root(3).split((0, 1))
    assert len(list(enumerate_members(c0))) == 3
    assert len(list(enumerate_members(c1))) == 3
    with pytest.raises(InadmissiblePairError):
        c0.split((0, 1))
    with pytest.raises(InadmissiblePairError):
        c1.split((1, 0))


def test_split_partitions_parent(rng):
    # children tile the parent cell exactly, checked by enumeration
    for n in (3, 4, 5):
        for _ in range(10):
            c = random_cell(rng, n, int(rng.integers(0, 3)))
            pairs = admissible_pairs(c)
            if not pairs:
                continue
            pair = pairs[int(rng.integers(len(pairs)))]
            a, b = c.split(pair)
            mem_c = set(enumerate_members(c))
            mem_a = set(enumerate_members(a))
            mem_b = set(enumerate_members(b))
            assert mem_a | mem_b == mem_c
            assert not (mem_a & mem_b)
            assert pair in {tuple(sorted(p)) for p in a.constraints}


def test_closure_soundness_exhaustive(rng):
    # membership via raw constraints equals membership via full closure: the
    # closure adds no spurious exclusions (n <= 6)
    for n in (3, 4, 5, 6):
        for _ in range(8):
            c = random_cell(rng, n, int(rng.integers(0, 5)))
            closure_cell = Cell(
                n, frozenset((a, b) for a, b in zip(*np.nonzero(c.closure)))
            )
            for p in enumerate_permutations(n):
                assert c.contains(p) == closure_cell.contains(p)


def test_admissibility_completeness(rng):
    # a pair is admissible iff both orders occur among cell members (n <= 5)
    for n in (3, 4, 5):
        for _ in range(12):
            c = random_cell(rng, n, int(rng.integers(0, 4)))
            members = list(enumerate_members(c))
            admissible = set(admissible_pairs(c))
            for i, j in itertools.combinations(range(n), 2):
                both = any(p.ranks[i] < p.ranks[j] for p in members) and any(
                    p.ranks[i] > p.ranks[j] for p in members
                )
                assert ((i, j) in admissible) == both


def test_membership_mask_matches_contains(rng):
    s = random_sample(rng, 5, 60)
    for _ in range(10):
        c = random_cell(rng, 5, int(rng.integers(0, 4)))
        mask = c.membership_mask(s)
        for k in range(s.size):
            assert mask[k] == c.contains(s[k])


def test_local_stats_two_point_example():
    # {identity, reverse} at n=3: v_hat = 3/2 per the pinned formula
    s = RankingSample((Permutation.identity(3), reversal(3)))
    st = local_stats(s, Cell.root(3))
    assert st.count == 2
    assert st.v_hat == pytest.approx(1.5)


def test_local_stats_degenerate_cells(rng):
    s = RankingSample((Permutation.identity(3), Permutation.identity(3)))
    st = local_stats(s, Cell.root(3))
    assert st.v_hat == 0.0  # duplicates only
    # empty cell: neutral marginals, zero variability
    c_empty = Cell(3, frozenset({(1, 0)}))  # needs item 2 before item 1
    st2 = local_stats(s, c_empty)
    assert st2.count == 0
    assert st2.v_hat == 0.0
    assert np.all(st2.marginals.p == 0.5)
    # singleton cell
    s3 = RankingSample((Permutation.identity(3), reversal(3)))
    st3 = local_stats(s3, Cell(3, frozenset({(0, 1)})))
    assert st3.count == 1 and st3.v_hat == 0.0


def test_v_hat_matches_brute(rng):
    s = random_sample(rng, 5, 40)
    for _ in range(15):
        c = random_cell(rng, 5, int(rng.integers(0, 3)))
        idx = np.flatnonzero(c.membership_mask(s))
        assert v_hat_of_indices(s, idx) == pytest.approx(brute_v_hat(s, idx), abs=1e-12)


def test_forced_pair_marginal_is_one(rng):
    s = random_sample(rng, 4, 50)
    c0, c1 = Cell.root(4).split((1, 3))
    st0 = local_stats(s, c0)
    st1 = local_stats(s, c1)
    if st0.count:
        assert st0.marginals.p[1, 3] == 1.0
    if st1.count:
        assert st1.marginals.p[3, 1] == 1.0


def test_marginal_mixture_identity(rng):
    # global marginals = mass-weighted mixture of cell marginals
    s = random_sample(rng, 4, 70)
    c0, c1 = Cell.root(4).split((0, 2))
    st0, st1 = local_stats(s, c0), local_stats(s, c1)
    w0, w1 = st0.count / s.size, st1.count / s.size
    mixed = w0 * st0.marginals.p + w1 * st1.marginals.p
    assert np.max(np.abs(mixed - PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix)).p)) < 1e-12


def test_partition_criterion_integrity(rng):
    s = random_sample(rng, 4, 30)
    c0, c1 = Cell.root(4).split((0, 1))
    # valid partition
    val = partition_criterion(s, [c0, c1])
    manual = sum(
        (local_stats(s, c).count / s.size) * local_stats(s, c).v_hat for c in (c0, c1)
    )
    assert val == pytest.approx(manual, abs=1e-12)
    # overlap
    with pytest.raises(PartitionIntegrityError):
        partition_criterion(s, [Cell.root(4), c0])
    # gap
    with pytest.raises(PartitionIntegrityError):
        partition_criterion(s, [c0])


def test_min_split_never_increases_criterion(rng):
    # the best split over admissible pairs never increases the criterion,
    # even on adversarial random data (individual pairs can; see below)
    for _ in range(200):
        n = int(rng.integers(3, 6))
        s = random_sample(rng, n, int(rng.integers(2, 10)))
        root = Cell.root(n)
        base = partition_criterion(s, [root])
        if base == 0.0:
            continue
        vals = []
        for pair in admissible_pairs(root):
            a, b = root.split(pair)
            if local_stats(s, a).count and local_stats(s, b).count:
                vals.append(partition_criterion(s, [a, b]))
        assert vals and min(vals) <= base + 1e-12


def test_ustat_refinement_can_increase_documented():
    # Documented corner of the pinned unbiased estimator: a single pairwise
    # split can increase the empirical criterion. The population counterpart
    # is monotone (see transport tests); this regression pins the behavior.
    orderings = [(0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 2, 3), (2, 3, 1, 0)]
    s = RankingSample(tuple(Permutation.from_ordering(o) for o in orderings))
    root = Cell.root(4)
    c0, c1 = root.split((0, 1))
    before = partition_criterion(s, [root])
    after = partition_criterion(s, [c0, c1])
    assert before == pytest.approx(5 / 3)
    assert after == pytest.approx(2.0)
    assert after > before


def test_cell_json_round_trip(rng):
    for _ in range(10):
        c = random_cell(rng, 5, int(rng.integers(0, 4)))
        obj = c.to_json_obj()
        back = Cell.from_json_obj(5, obj)
        assert back == c
        assert obj == sorted(obj)  # deterministic ordering, 1-based
        for a, b in obj:
            assert 1 <= a <= 5 and 1 <= b <= 5
