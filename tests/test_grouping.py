import itertools

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
from scipy.spatial.distance import squareform

from gdps.errors import ValidationError
from gdps.grouping import (
    DistanceMatrix,
    GroupingPlan,
    SimilarityMatrix,
    consensus_from_distance,
    consensus_group,
    kmeans,
    kmeans_grouping,
    linkage_merges,
    similarity_matrix,
    single_linkage,
    to_distance,
)
from gdps.synth import planted_bundle

from conftest import four_language_distances, tiny_bundle


def scipy_single_linkage(dist: DistanceMatrix, k: int):
    condensed = squareform(dist.d, checks=False)
    z = sch.linkage(condensed, method="single")
    labels = sch.fcluster(z, t=k, criterion="maxclust")
    groups = {}
    for task, lab in zip(dist.tasks, labels):
        groups.setdefault(lab, []).append(task)
    return {frozenset(g) for g in groups.values()}


def partition_inertia(points, parts):
    total = 0.0
    for part in parts:
        pts = points[list(part)]
        mu = pts.mean(axis=0)
        total += ((pts - mu) ** 2).sum()
    return total


def all_two_partitions(n):
    idx = range(n)
    for size in range(1, n // 2 + 1):
        for left in itertools.combinations(idx, size):
            right = tuple(i for i in idx if i not in left)
            if size == n - size and left > right:
                continue
            yield left, right


def test_similarity_identical_means():
    b = tiny_bundle({"a": [[1.0, 2.0], [1.0, 2.0]], "b": [[2.0, 4.0]]})
    sim = similarity_matrix(b, "L0")
    assert np.allclose(sim.s, 1.0)


def test_similarity_orthogonal_means():
    b = tiny_bundle({"a": [[1.0, 0.0]], "b": [[0.0, 1.0]]})
    sim = similarity_matrix(b, "L0")
    assert sim.s[0, 1] == 0.0
    assert sim.s[0, 0] == 1.0


def test_similarity_planted_angles():
    # 60 degrees between groups, 5 degrees within: entries match the plant.
    b = planted_bundle(4, [[0, 1], [2, 3]], 60.0, d=24, m=30, seed=3, layer="L0")
    sim = similarity_matrix(b, "L0")
    plan_groups = {"t0": 0, "t1": 0, "t2": 1, "t3": 1}
    for i, ti in enumerate(sim.tasks):
        for j, tj in enumerate(sim.tasks):
            if i == j:
                continue
            want = np.cos(np.radians(5.0)) if plan_groups[ti] == plan_groups[tj] else 0.5
            assert abs(sim.s[i, j] - want) < 0.02


def test_similarity_scale_invariance(rng):
    rows = rng.standard_normal((4, 6))
    b1 = tiny_bundle({"a": rows[:2], "b": rows[2:]})
    b2 = tiny_bundle({"a": 250.0 * rows[:2], "b": rows[2:]})
    s1 = similarity_matrix(b1, "L0").s
    s2 = similarity_matrix(b2, "L0").s
    assert np.max(np.abs(s1 - s2)) < 1e-7  # f32 storage limits exactness


def test_to_distance_published_values():
    tasks = ("x", "y")
    for s_val, d_val in ((0.757, 0.243), (0.843, 0.157), (1.0, 0.0)):
        s = np.array([[1.0, s_val], [s_val, 1.0]])
        dist = to_distance(SimilarityMatrix(tasks, s))
        assert abs(dist.d[0, 1] - d_val) < 1e-12
        assert dist.d[0, 0] == 0.0


def _bad_matrices(ok):
    """`ok` made asymmetric, off on the diagonal, and out of range in turn."""
    asym = ok.copy()
    asym[0, 1] += 0.1
    diag = ok.copy()
    diag[1, 1] += 0.1
    wide = ok.copy()
    wide[0, 2] = wide[2, 0] = 2.5
    return {"not symmetric": asym, "diagonal is not": diag, "outside": wide}


@pytest.mark.parametrize("kind", ["similarity", "distance"])
def test_matrices_are_checked_when_built(kind):
    tasks = ("a", "b", "c")
    ok = np.eye(3) if kind == "similarity" else 1.0 - np.eye(3)
    build = SimilarityMatrix if kind == "similarity" else DistanceMatrix
    build(tasks, ok)
    for message, bad in _bad_matrices(ok).items():
        with pytest.raises(ValidationError, match=f"{kind} .*{message}"):
            build(tasks, bad)
    with pytest.raises(ValidationError, match="shape"):
        build(tasks[:2], ok)


def test_kmeans_separated_1d():
    pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    state = kmeans(pts, 2, seed=5)
    a = state.assignments
    assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]


def test_kmeans_k_equals_n(rng):
    pts = rng.standard_normal((5, 3))
    state = kmeans(pts, 5, seed=1)
    assert state.inertia < 1e-20
    assert len(set(state.assignments.tolist())) == 5


def test_kmeans_matches_exhaustive_two_partition(rng):
    # planted two-group distance profiles; every seed must find the optimum
    base = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    pts = np.stack([base + 0.05 * rng.standard_normal(6) for _ in range(6)], axis=1)
    best = min(all_two_partitions(6), key=lambda p: partition_inertia(pts, p))
    want = {frozenset(best[0]), frozenset(best[1])}
    for seed in range(20):
        state = kmeans(pts, 2, seed=seed)
        got = {
            frozenset(np.flatnonzero(state.assignments == c).tolist()) for c in (0, 1)
        }
        assert got == want


def test_kmeans_validates_k(rng):
    pts = rng.standard_normal((3, 2))
    with pytest.raises(ValidationError):
        kmeans(pts, 0, seed=0)
    with pytest.raises(ValidationError):
        kmeans(pts, 4, seed=0)


def test_single_linkage_published_fixture():
    dist = four_language_distances()
    plan = single_linkage(dist, 2)
    assert plan.groups == (("bem",), ("aeb", "est", "gle"))


def test_single_linkage_k1_and_kn():
    dist = four_language_distances()
    assert single_linkage(dist, 1).groups == (("aeb", "bem", "est", "gle"),)
    assert len(single_linkage(dist, 4).groups) == 4


def test_single_linkage_matches_scipy_oracle(rng):
    for trial in range(10):
        n = 6
        raw = rng.random((n, n))
        d = (raw + raw.T) / 2.0
        np.fill_diagonal(d, 0.0)
        dist = DistanceMatrix(tuple(f"t{i}" for i in range(n)), d)
        for k in (2, 3):
            plan = single_linkage(dist, k)
            got = {frozenset(g) for g in plan.groups}
            want = scipy_single_linkage(dist, k)
            assert got == want


def test_single_linkage_permutation_invariance(rng):
    n = 5
    raw = rng.random((n, n))
    d = (raw + raw.T) / 2.0
    np.fill_diagonal(d, 0.0)
    tasks = tuple(f"t{i}" for i in range(n))
    plan = single_linkage(DistanceMatrix(tasks, d), 2)
    perm = rng.permutation(n)
    d2 = d[np.ix_(perm, perm)]
    tasks2 = tuple(tasks[i] for i in perm)
    plan2 = single_linkage(DistanceMatrix(tasks2, d2), 2)
    assert {frozenset(g) for g in plan.groups} == {frozenset(g) for g in plan2.groups}


def test_linkage_merges_trace():
    dist = four_language_distances()
    merges = linkage_merges(dist)
    assert len(merges) == 3
    assert merges[0][0] <= merges[1][0] <= merges[2][0]
    # first merge joins the closest pair, est-gle at 0.152
    assert {merges[0][1], merges[0][2]} == {"est", "gle"}


def test_single_linkage_replays_merge_trace_with_ties(rng):
    # few distinct distances, so most steps choose among tied pairs
    n = 7
    tasks = tuple(f"t{i}" for i in range(n))
    for trial in range(5):
        raw = rng.integers(1, 4, size=(n, n)).astype(np.float64) / 4.0
        d = np.triu(raw, 1) + np.triu(raw, 1).T
        dist = DistanceMatrix(tasks, d)
        merges = linkage_merges(dist)
        for k in range(1, n + 1):
            clusters = [{t} for t in tasks]
            for _, a, b in merges[: n - k]:
                ca = next(c for c in clusters if a in c)
                cb = next(c for c in clusters if b in c)
                assert ca is not cb
                clusters.remove(cb)
                ca |= cb
            want = {frozenset(c) for c in clusters}
            assert {frozenset(g) for g in single_linkage(dist, k).groups} == want


def test_consensus_group_is_consensus_on_its_distance_matrix():
    b = planted_bundle(4, [[0], [1, 2, 3]], 75.0, d=24, m=24, seed=11, layer="L0")
    dist = to_distance(similarity_matrix(b, "L0"))
    assert consensus_group(b, "L0", k=2, seed=11) == consensus_from_distance(dist, k=2, seed=11)


def test_grouping_plan_partition_validation():
    with pytest.raises(ValidationError):
        GroupingPlan((("a",), ("a", "b")), "kmeans", 2).validate()
    with pytest.raises(ValidationError):
        GroupingPlan((("a",), ()), "kmeans", 2).validate()
    plan = GroupingPlan((("a",), ("b",)), "kmeans", 2)
    plan.validate(("a", "b"))
    with pytest.raises(ValidationError):
        plan.validate(("a", "b", "c"))


def test_grouping_plan_json_round_trip():
    plan = GroupingPlan((("bem",), ("aeb", "est", "gle")), "consensus", 2)
    d = plan.to_dict()
    assert d == {
        "method": "consensus",
        "k": 2,
        "groups": [["bem"], ["aeb", "est", "gle"]],
    }
    assert GroupingPlan.from_dict(d).groups == plan.groups


def test_consensus_on_planted_fixture():
    b = planted_bundle(4, [[0], [1, 2, 3]], 75.0, d=24, m=24, seed=11, layer="L0")
    plan = consensus_group(b, "L0", k=2, seed=11)
    assert plan.method == "consensus"
    assert plan.groups == (("t0",), ("t1", "t2", "t3"))


def test_consensus_k1_trivial():
    b = planted_bundle(3, [[0], [1, 2]], 50.0, d=16, m=8, seed=2, layer="L0")
    plan = consensus_group(b, "L0", k=1, seed=2)
    assert plan.method == "consensus"
    assert plan.k == 1


def test_consensus_disagreement_falls_back_to_hierarchical(monkeypatch):
    # Force a disagreement by stubbing the kmeans partition.
    import gdps.grouping as gg

    b = planted_bundle(4, [[0], [1, 2, 3]], 75.0, d=24, m=24, seed=11, layer="L0")

    def fake_kmeans_grouping(dist, k, seed):
        return GroupingPlan((("t0", "t1"), ("t2", "t3")), "kmeans", k)

    monkeypatch.setattr(gg, "kmeans_grouping", fake_kmeans_grouping)
    plan = gg.consensus_group(b, "L0", k=2, seed=11)
    assert plan.method == "hierarchical"
    assert plan.warnings and "disagree" in plan.warnings[0]
    assert plan.groups == (("t0",), ("t1", "t2", "t3"))


def test_adversarial_equispaced_chain():
    # equispaced 1-D chain: methods often disagree; either consensus or a
    # hierarchical fallback with a warning is acceptable, never silence
    tasks = tuple(f"t{i}" for i in range(4))
    pos = np.array([0.0, 1.0, 2.0, 3.0])
    d = np.abs(pos[:, None] - pos[None, :]) / 3.0
    dist = DistanceMatrix(tasks, d)
    hier = single_linkage(dist, 2)
    km = kmeans_grouping(dist, 2, seed=0)
    hier.validate(tasks)
    km.validate(tasks)
    # tie-break rule makes the chain split deterministic
    assert hier.groups == single_linkage(dist, 2).groups


def test_planted_recovery_threshold(rng):
    # ratio (max within)/(min cross) < 1 implies both methods recover the plant
    for seed in range(5):
        b = planted_bundle(5, [[0, 1], [2, 3, 4]], 65.0, d=24, m=16, seed=seed, layer="L0")
        sim = similarity_matrix(b, "L0")
        dist = to_distance(sim)
        want = {frozenset(("t0", "t1")), frozenset(("t2", "t3", "t4"))}
        got_h = {frozenset(g) for g in single_linkage(dist, 2).groups}
        got_k = {frozenset(g) for g in kmeans_grouping(dist, 2, seed=seed).groups}
        assert got_h == want and got_k == want


def test_similarity_requires_layer_everywhere(rng):
    b = tiny_bundle({"a": [[1.0, 0.0]], "b": [[0.0, 1.0]]})
    with pytest.raises(ValidationError):
        similarity_matrix(b, "L9")
