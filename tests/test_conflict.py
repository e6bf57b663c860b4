import dataclasses
import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdps.bundle
import gdps.conflict
from gdps.bundle import GradientBundle, GradientMatrix
from gdps.conflict import (
    SAMPLE_CAP,
    RatioThresholds,
    _maybe_subsample,
    aggregate_delta,
    conflict_report,
    cross_similarity,
    layer_conflict,
    map_shared_ratio,
    rank_layers,
    ratio_branch,
    self_similarity,
)
from gdps.errors import ValidationError
from gdps.synth import planted_bundle

from conftest import tiny_bundle, two_layer_bundle


def brute_self(rows):
    rows = np.asarray(rows, dtype=np.float64)
    m = rows.shape[0]
    vals = []
    for i in range(m):
        for j in range(i + 1, m):
            ni, nj = np.linalg.norm(rows[i]), np.linalg.norm(rows[j])
            vals.append(float(rows[i] @ rows[j] / (ni * nj)))
    return float(np.mean(vals))


def brute_cross(rows_a, rows_b):
    rows_a = np.asarray(rows_a, dtype=np.float64)
    rows_b = np.asarray(rows_b, dtype=np.float64)
    vals = []
    for i in range(rows_a.shape[0]):
        for j in range(rows_b.shape[0]):
            ni, nj = np.linalg.norm(rows_a[i]), np.linalg.norm(rows_b[j])
            vals.append(float(rows_a[i] @ rows_b[j] / (ni * nj)))
    return float(np.mean(vals))


def test_self_similarity_identical_rows():
    b = tiny_bundle({"a": [[1.0, 2.0]] * 4, "b": [[1.0, 0.0]] * 2})
    assert self_similarity(b, "a", "L0") == pytest.approx(1.0, abs=1e-12)


def test_self_similarity_orthogonal_rows():
    b = tiny_bundle({"a": [[1.0, 0.0], [0.0, 1.0]], "b": [[1.0, 0.0]] * 2})
    assert self_similarity(b, "a", "L0") == 0.0


def test_self_similarity_matches_brute_force(rng):
    rows = rng.standard_normal((10, 5))
    b = tiny_bundle({"a": rows, "b": rows[:2]})
    got = self_similarity(b, "a", "L0")
    want = brute_self(b.matrix("a", "L0").data)
    assert abs(got - want) < 1e-12


def test_self_similarity_needs_two_samples():
    b = tiny_bundle({"a": [[1.0, 0.0]], "b": [[1.0, 0.0]]})
    with pytest.raises(ValidationError, match=">= 2 samples"):
        self_similarity(b, "a", "L0")


def test_cross_similarity_identical_direction():
    b = tiny_bundle({"a": [[1.0, 0.0]] * 3, "b": [[1.0, 0.0]] * 2})
    assert cross_similarity(b, "a", "b", "L0") == 1.0


def test_cross_similarity_antiparallel():
    b = tiny_bundle({"a": [[2.0, 0.0]] * 3, "b": [[-1.0, 0.0]] * 2})
    assert cross_similarity(b, "a", "b", "L0") == -1.0


def test_cross_similarity_matches_brute_force(rng):
    ra = rng.standard_normal((8, 6))
    rb = rng.standard_normal((6, 6))
    b = tiny_bundle({"a": ra, "b": rb})
    got = cross_similarity(b, "a", "b", "L0")
    want = brute_cross(b.matrix("a", "L0").data, b.matrix("b", "L0").data)
    assert abs(got - want) < 1e-12


def test_cross_similarity_symmetric(rng):
    ra = rng.standard_normal((5, 4))
    rb = rng.standard_normal((7, 4))
    b = tiny_bundle({"a": ra, "b": rb})
    assert abs(
        cross_similarity(b, "a", "b", "L0") - cross_similarity(b, "b", "a", "L0")
    ) < 1e-12


def test_layer_conflict_no_conflict():
    b = tiny_bundle({"a": [[1.0, 1.0]] * 3, "b": [[2.0, 2.0]] * 3})
    lc = layer_conflict(b, "L0")
    assert lc.s_self == pytest.approx(1.0, abs=1e-12)
    assert lc.s_cross == pytest.approx(1.0, abs=1e-12)
    assert lc.delta == pytest.approx(0.0, abs=1e-12)
    assert lc.purity == 1.0


def test_layer_conflict_fixed_vector_exact_zero_delta():
    # every row of every task is the same vector: delta is 0 up to the
    # rounding of the row-sum identity
    row = [0.3, -1.7, 2.2]
    b = tiny_bundle({"a": [row] * 3, "b": [row] * 4, "c": [row] * 2})
    lc = layer_conflict(b, "L0")
    eps = np.finfo(float).eps
    assert abs(lc.delta) <= 4 * eps
    assert abs(lc.s_self - 1.0) <= 4 * eps
    assert abs(lc.s_cross - 1.0) <= 4 * eps


def test_layer_conflict_orthogonal_groups():
    b = planted_bundle(2, [[0], [1]], 90.0, d=8, m=6, seed=4, spread_deg=0.0, layer="L0")
    lc = layer_conflict(b, "L0")
    assert lc.s_self > 0.999
    assert abs(lc.s_cross) < 1e-6
    assert abs(lc.delta - 1.0) < 1e-3


def test_layer_conflict_operating_point():
    # pairwise direction cosine exactly 0.925, no within-task spread:
    # delta = 1 - 0.925 = 0.075, the middle branch of the ratio rule
    theta = float(np.degrees(np.arccos(0.925)))
    b = planted_bundle(4, [[0], [1], [2], [3]], theta, d=16, m=4, seed=9,
                       spread_deg=0.0, layer="L0")
    lc = layer_conflict(b, "L0")
    assert abs(lc.delta - 0.075) < 1e-6
    assert map_shared_ratio(lc.delta) == 0.50


def test_layer_conflict_rescaling_invariance(rng):
    rows_a = rng.standard_normal((5, 6))
    rows_b = rng.standard_normal((4, 6))
    b1 = tiny_bundle({"a": rows_a, "b": rows_b})
    scales = np.abs(rng.standard_normal(5)) + 0.1
    b2 = tiny_bundle({"a": rows_a * scales[:, None], "b": rows_b})
    l1, l2 = layer_conflict(b1, "L0"), layer_conflict(b2, "L0")
    assert abs(l1.s_self - l2.s_self) < 1e-6
    assert abs(l1.s_cross - l2.s_cross) < 1e-6


def test_layer_conflict_task_permutation(rng):
    rows = {t: rng.standard_normal((4, 5)) for t in ("a", "b", "c")}
    l1 = layer_conflict(tiny_bundle(rows), "L0")
    swapped = {"c": rows["c"], "b": rows["b"], "a": rows["a"]}
    l2 = layer_conflict(tiny_bundle(swapped), "L0")
    assert abs(l1.s_self - l2.s_self) < 1e-12
    assert abs(l1.s_cross - l2.s_cross) < 1e-12
    assert abs(l1.delta - l2.delta) < 1e-12


def test_degenerate_rows_counted_not_fatal():
    b = tiny_bundle({"a": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "b": [[1.0, 0.0]] * 2})
    lc = layer_conflict(b, "L0")
    assert lc.degenerate_pairs > 0
    assert lc.s_self == 1.0  # degenerate pairs excluded from the mean


def test_purity_counts_nonnegative_cross_pairs():
    b = tiny_bundle({"a": [[1.0, 0.0], [1.0, 0.1]], "b": [[-1.0, 0.0], [0.0, 1.0]]})
    lc = layer_conflict(b, "L0")
    # cross pairs: a rows vs b rows -> cosines {-1, ~-0.995, 0, ~0.0995}
    assert abs(lc.purity - 0.5) < 1e-12


def test_aggregate_delta():
    from dataclasses import replace

    b = planted_bundle(2, [[0], [1]], 60.0, d=8, m=3, seed=1, spread_deg=0.0, layer="L0")
    lc = layer_conflict(b, "L0")
    assert aggregate_delta([lc], ["L0"]) == lc.delta
    lc2 = replace(lc, layer="L1", delta=0.07)
    lc3 = replace(lc, layer="L2", delta=0.08)
    assert abs(aggregate_delta([lc2, lc3], ["L1", "L2"]) - 0.075) < 1e-15
    lc4 = replace(lc, layer="L3", delta=0.0)
    lc5 = replace(lc, layer="L4", delta=0.2)
    assert abs(aggregate_delta([lc4, lc5], ["L3", "L4"]) - 0.1) < 1e-15
    with pytest.raises(ValidationError):
        aggregate_delta([lc], [])
    with pytest.raises(ValidationError):
        aggregate_delta([lc], ["L9"])
    with pytest.raises(ValidationError, match="candidate layers list L1 more than once"):
        aggregate_delta([lc, lc2], ["L0", "L1", "L1"])


def test_map_shared_ratio_branches():
    assert map_shared_ratio(0.075) == 0.50
    assert map_shared_ratio(0.05) == 0.50
    assert map_shared_ratio(0.15) == 0.25
    assert map_shared_ratio(0.04) == 0.75
    assert map_shared_ratio(0.20) == 0.25
    assert map_shared_ratio(-0.3) == 0.75
    with pytest.raises(ValidationError):
        map_shared_ratio(float("nan"))


def test_map_shared_ratio_step_function():
    outputs = {map_shared_ratio(d) for d in np.linspace(-1, 1, 201)}
    assert outputs == {0.75, 0.50, 0.25}
    values = [map_shared_ratio(d) for d in np.linspace(-1, 1, 201)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_ratio_thresholds_validation():
    with pytest.raises(ValidationError):
        RatioThresholds(low=0.2, high=0.1)
    custom = RatioThresholds(low=0.01, high=0.5)
    assert map_shared_ratio(0.075, custom) == 0.50


def test_ratio_branch_text():
    assert "0.05 <= delta < 0.15" == ratio_branch(0.075)
    assert ratio_branch(0.01).startswith("delta <")
    assert ratio_branch(0.5).startswith("delta >=")


@pytest.mark.parametrize("thresholds", [RatioThresholds(), RatioThresholds(low=0.01, high=0.5)])
def test_ratio_branch_names_the_ratio_at_each_edge(thresholds):
    low, high = thresholds.low, thresholds.high
    branches = {f"delta < {low}": 0.75, f"{low} <= delta < {high}": 0.50,
                f"delta >= {high}": 0.25}
    cases = {np.nextafter(low, -np.inf): 0.75, low: 0.50,
             np.nextafter(high, -np.inf): 0.50, high: 0.25}
    for delta, ratio in cases.items():
        assert map_shared_ratio(delta, thresholds) == ratio
        assert branches[ratio_branch(delta, thresholds)] == ratio
    assert ratio_branch(float("nan"), thresholds) == f"delta >= {high}"


def test_rank_layers_by_delta_then_purity(rng):
    high = planted_bundle(2, [[0], [1]], 80.0, d=8, m=4, seed=3, spread_deg=0.0,
                          layer="hot", task_names=("a", "b"))
    low = planted_bundle(2, [[0], [1]], 10.0, d=8, m=4, seed=3, spread_deg=0.0,
                         layer="cold", task_names=("a", "b"))
    mats = list(high.entries.values()) + list(low.entries.values())
    from gdps.bundle import GradientBundle

    b = GradientBundle.from_matrices(mats)
    ranked = rank_layers(b)
    assert [r.layer for r in ranked] == ["hot", "cold"]
    assert ranked[0].delta > ranked[1].delta


def test_rank_layers_breaks_a_delta_tie_by_id_not_purity(monkeypatch):
    from dataclasses import replace

    # equal deltas; the layer first by id has the higher purity
    b = two_layer_bundle()
    lc = layer_conflict(b, "L0")
    made = {"L0": replace(lc, layer="L0", delta=0.1, purity=0.9),
            "L1": replace(lc, layer="L1", delta=0.1, purity=0.7)}
    monkeypatch.setattr(gdps.conflict, "layer_conflict", lambda bundle, layer, *rest: made[layer])
    assert [r.layer for r in rank_layers(b)] == ["L0", "L1"]
    assert [r.layer for r in rank_layers(b, ["L1", "L0"])] == ["L0", "L1"]


def test_candidate_order_changes_no_bit_of_delta():
    # a mean of three deltas rounds by the order it adds them in
    rng = np.random.default_rng(42)
    b = GradientBundle.from_matrices([
        GradientMatrix(f"t{i}", f"L{j}", rng.standard_normal((5, 16)) + 0.3 * (j + 1))
        for i in range(3) for j in range(3)])
    given = conflict_report(b, ["L0", "L1", "L2"])
    backward = conflict_report(b, ["L2", "L1", "L0"])
    assert backward.delta == given.delta == conflict_report(b).delta
    assert backward.candidate_layers == ("L2", "L1", "L0")
    assert backward.layers == given.layers


def test_no_seed_reaches_the_draw_above_the_cap(rng):
    # t0 is above SAMPLE_CAP, so Method B draws its rows from the task name alone
    b = tiny_bundle({"t0": rng.standard_normal((SAMPLE_CAP + 88, 16)) + 0.1,
                     "t1": rng.standard_normal((40, 16))})
    report = conflict_report(b)
    for seed in (0, 1, 7, 2343):
        assert conflict_report(b, seed=seed) == report


def test_conflict_report_rejects_a_repeated_candidate_layer():
    b = two_layer_bundle()
    rep = conflict_report(b, ["L0", "L1"])
    assert [lc.layer for lc in rep.layers] == ["L0", "L1"]
    with pytest.raises(ValidationError, match="candidate layers list L1 more than once"):
        conflict_report(b, ["L0", "L1", "L1"])
    with pytest.raises(ValidationError, match="L0 more than once"):
        rank_layers(b, ["L0", "L1", "L0"])


def test_conflict_report_end_to_end():
    theta = float(np.degrees(np.arccos(0.925)))
    b = planted_bundle(4, [[0], [1], [2], [3]], theta, d=16, m=4, seed=9,
                       spread_deg=0.0, layer="L0")
    rep = conflict_report(b)
    assert rep.shared_ratio == 0.50
    assert abs(rep.delta - 0.075) < 1e-6
    d = rep.to_dict()
    assert d["shared_ratio"] == 0.50
    assert d["layers"][0]["layer"] == "L0"
    assert "toolkit-defined" in d["layers"][0]["purity_definition"]


def test_subsample_cap_applies_and_deterministic(rng):
    # 600 rows exceed SAMPLE_CAP, so self_similarity draws SAMPLE_CAP of them
    rows = rng.standard_normal((600, 6)).astype(np.float32).astype(np.float64)
    b = tiny_bundle({"a": rows, "b": rows[:5]})
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    full = float((unit @ unit.T)[np.triu_indices(600, 1)].mean())
    capped_1 = self_similarity(b, "a", "L0")
    capped_2 = self_similarity(b, "a", "L0")
    assert capped_1 == capped_2
    assert abs(capped_1 - full) > 1e-9  # not the mean over all 600 rows
    assert abs(capped_1 - full) < 0.5  # subsample approximates, deterministically


def test_cross_similarity_order_independent_when_subsampled(rng):
    # 600 rows exceed SAMPLE_CAP, so both tasks are subsampled
    b = tiny_bundle({"t0": rng.standard_normal((600, 8)), "t1": rng.standard_normal((600, 8))})
    assert cross_similarity(b, "t0", "t1", "L0") == cross_similarity(b, "t1", "t0", "L0")


def unrolled_layer_conflict(bundle, layer):
    """S_self, S_cross, purity and counts, one sample pair at a time."""

    def cos(x, y):
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx == 0.0 or ny == 0.0:
            return None
        return min(1.0, max(-1.0, float(x @ y / (nx * ny))))

    rows = {t: bundle.matrix(t, layer).data.astype(np.float64) for t in bundle.tasks}
    degenerate = total = nonneg = valid_cross = 0
    self_means, cross_means = [], []
    for t in bundle.tasks:
        vals = []
        for i in range(len(rows[t])):
            for j in range(i + 1, len(rows[t])):
                c = cos(rows[t][i], rows[t][j])
                total += 1
                if c is None:
                    degenerate += 1
                else:
                    vals.append(c)
        self_means.append(np.mean(vals) if vals else 0.0)
    for ta, tb in itertools.combinations(bundle.tasks, 2):
        vals = []
        for x in rows[ta]:
            for y in rows[tb]:
                c = cos(x, y)
                total += 1
                if c is None:
                    degenerate += 1
                else:
                    vals.append(c)
                    nonneg += c >= 0.0
        valid_cross += len(vals)
        cross_means.append(np.mean(vals) if vals else 0.0)
    purity = nonneg / valid_cross if valid_cross else 1.0
    return np.mean(self_means), np.mean(cross_means), purity, degenerate, total


def test_layer_conflict_matches_unrolled_reference_with_zero_rows(rng):
    a = rng.standard_normal((5, 4))
    a[1] = 0.0
    c = rng.standard_normal((4, 4))
    c[[0, 3]] = 0.0
    b = tiny_bundle({
        "a": a,
        "b": rng.standard_normal((3, 4)),
        "c": c,
        "z": np.zeros((3, 4)),  # every pair touching z is degenerate
    })
    s_self, s_cross, purity, degenerate, total = unrolled_layer_conflict(b, "L0")
    lc = layer_conflict(b, "L0")
    assert lc.s_self == pytest.approx(s_self, abs=1e-12)
    assert lc.s_cross == pytest.approx(s_cross, abs=1e-12)
    assert lc.delta == pytest.approx(s_self - s_cross, abs=1e-12)
    assert lc.purity == pytest.approx(purity, abs=1e-12)
    assert (lc.degenerate_pairs, lc.total_pairs) == (degenerate, total)


def assert_matches_unrolled(lc, bundle, layer="L0"):
    """Purity and counts equal to the unrolled reference; means within 1e-12."""
    s_self, s_cross, purity, degenerate, total = unrolled_layer_conflict(bundle, layer)
    assert lc.purity == purity
    assert (lc.degenerate_pairs, lc.total_pairs) == (degenerate, total)
    assert abs(lc.s_self - s_self) <= 1e-12
    assert abs(lc.s_cross - s_cross) <= 1e-12
    assert abs(lc.delta - (s_self - s_cross)) <= 1e-12


def near_orthogonal_bundle(seed=0, rows=16, cols=4096, cosine=1e-8):
    """Two tasks of orthonormal rows whose cross cosines are planted at +-cosine."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((cols, 2 * rows)))[0].T
    a, extra = q[:rows], q[rows:]
    c = cosine * rng.choice([-1.0, 1.0], size=(rows, rows))  # c[i, j] = a_i . b_j
    b = c.T @ a + np.sqrt(1.0 - (c**2).sum(axis=0))[:, None] * extra
    return tiny_bundle({"a": a, "b": b})


def test_purity_near_orthogonal_counted_in_float64():
    # every cross cosine is within float32 rounding of 0, so float32 signs
    # miscount purity; it must come from float64 cosines
    float32_purities_differ = []
    for seed in range(4):
        b = near_orthogonal_bundle(seed)
        ua, ub = (b.matrix(t, "L0").data.astype(np.float64) for t in ("a", "b"))
        ua /= np.linalg.norm(ua, axis=1, keepdims=True)
        ub /= np.linalg.norm(ub, axis=1, keepdims=True)
        purity64 = (ua @ ub.T >= 0.0).mean()
        purity32 = (ua.astype(np.float32) @ ub.astype(np.float32).T >= 0.0).mean()
        float32_purities_differ.append(purity32 != purity64)
        lc = layer_conflict(b, "L0")
        assert_matches_unrolled(lc, b)
        assert lc.purity == purity64
    assert any(float32_purities_differ)


def test_purity_exact_on_orthogonal_scaled_and_zero_rows(rng):
    eye = np.eye(8)
    b = tiny_bundle({
        "a": eye[:3],  # exactly orthogonal to "b": cosine 0 counts as non-negative
        "b": np.vstack([-eye[3:6], np.zeros((1, 8))]),
        "c": np.vstack([rng.standard_normal((3, 8)) * 1e-41, np.zeros((2, 8))]),
        "d": np.vstack([rng.standard_normal((3, 8)) * 1e37, np.zeros((1, 8))]),
    })
    assert np.abs(b.matrix("c", "L0").data).max() < np.finfo(np.float32).tiny  # subnormal
    lc = layer_conflict(b, "L0")
    assert_matches_unrolled(lc, b)
    ab = tiny_bundle({"a": eye[:3], "b": -eye[3:6]})
    assert layer_conflict(ab, "L0").purity == 1.0


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(
    rows=st.lists(st.integers(2, 6), min_size=2, max_size=4),
    cols=st.integers(1, 48),
    tilt=st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, 1e-3]),
    zero_rate=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_layer_conflict_matches_unrolled_property(rows, cols, tilt, zero_rate, seed):
    b = signed_basis_bundle(rows, cols, tilt, zero_rate, seed)
    assert_matches_unrolled(layer_conflict(b, "L0"), b)


def signed_basis_bundle(rows, cols, tilt, zero_rate, seed, layers=("L0",)):
    """Signed basis rows plus a tilt: cross cosines are +-1, exactly 0, or of
    the order of the tilt, above and below float32 rounding."""
    rng = np.random.default_rng(seed)
    mats = []
    for layer in layers:
        for i, m in enumerate(rows):
            signs = rng.choice([-1.0, 1.0], size=m)
            g = signs[:, None] * np.eye(cols)[rng.integers(0, cols, size=m)]
            g += tilt * rng.standard_normal((m, cols))
            g[rng.random(m) < zero_rate] = 0.0
            mats.append(GradientMatrix(f"t{i}", layer, g))
    return GradientBundle.from_matrices(mats)


def explicit_unit_rows(bundle, layer="L0"):
    """Each task's non-zero rows, scaled to unit norm in float64."""
    units = []
    for t in bundle.tasks:
        g = bundle.matrix(t, layer).data.astype(np.float64)
        norms = np.linalg.norm(g, axis=1)
        units.append(g[norms > 0] / norms[norms > 0, None])
    return units


def unit_row_purity(bundle, layer="L0"):
    """Purity from an explicit float64 unit-row product of every task pair."""
    units = explicit_unit_rows(bundle, layer)
    products = [ua @ ub.T for ua, ub in itertools.combinations(units, 2)]
    nonneg = sum(int(np.count_nonzero(p >= 0.0)) for p in products)
    return nonneg / sum(p.size for p in products)


def walsh_rows(ks, n):
    """Rows `ks` of the n x n Sylvester-Hadamard matrix: (-1) ** popcount(k & j)."""
    kj = np.bitwise_and.outer(np.asarray(ks), np.arange(n))
    parity = np.zeros_like(kj)
    while kj.any():
        parity ^= kj & 1
        kj >>= 1
    return 1.0 - 2.0 * parity


def orthogonal_integer_rows():
    # Walsh rows of length 4**6 scaled by odd integers near 2**20: every
    # cross dot is exactly 0 but two, so the count hinges on exact zeros
    rng = np.random.default_rng(5)
    scales = 2.0**20 + 2 * rng.integers(0, 2**18, size=(2, 6)) + 1
    signs = np.array([1, -1, 1, -1, -1, 1])
    a = scales[0][:, None] * walsh_rows([1, 2, 3, 4, 5, 6], 4096)
    b = (signs * scales[1])[:, None] * walsh_rows([7, 8, 9, 10, 2, 3], 4096)
    return tiny_bundle({"a": a, "b": np.vstack([b, np.zeros((1, 4096))])})


def huge_rows():
    # entries up to 3e20: every product is far beyond the float32 maximum
    s = 1.7e19
    return tiny_bundle({
        "a": np.array([[s, s, s, s, s], [2e20, 1e20, 0.0, 3e19, 0.0], [0.0] * 5]),
        "b": np.array([[s, s, -s, -s, -s], [1e20, -1e20, 2e19, 1e19, 0.0]]),
    })


def tiny_rows():
    # rows of 2**-76 and 2**-75, and rows near 1e-41 (float32 subnormals)
    rng = np.random.default_rng(3)
    y = np.array([2.0, 2.0, 2.0, -5.0]) * 2.0**-75
    return tiny_bundle({
        "a": np.vstack([np.ones(4) * 2.0**-76, np.zeros(4)]),
        "b": y[[[0, 1, 2, 3], [3, 0, 1, 2], [1, 2, 0, 3]]],
        "c": np.vstack([rng.standard_normal((3, 4)) * 1e-41, np.zeros((1, 4))]),
    })


def zero_rows():
    row = np.array([[1.0, -2.0, 0.5]])
    return tiny_bundle({
        "a": np.vstack([row, np.zeros((2, 3)), -row]),
        "b": np.vstack([np.zeros((1, 3)), row]),
        "z": np.zeros((2, 3)),
    })


@pytest.mark.parametrize("make, expected", [
    (orthogonal_integer_rows, 35 / 36),
    (lambda: near_orthogonal_bundle(1, rows=16, cols=8192, cosine=1e-6), None),
    (huge_rows, None),
    (tiny_rows, None),
    (zero_rows, 0.5),  # zero rows are degenerate: no cross pair of theirs counts
], ids=["orthogonal-integer", "cosine-1e-6-d8192", "huge", "tiny", "zero-rows"])
def test_purity_equals_the_unit_row_count(make, expected):
    # purity takes the signs of the rows' own products; they must count as
    # the float64 unit rows do, at every scale and at exact zeros
    b = make()
    purity = unit_row_purity(b)
    lc = layer_conflict(b, "L0")
    assert lc.purity == purity
    assert expected is None or purity == expected
    assert_matches_unrolled(lc, b)


def subsampled(bundle, layer="L0"):
    """The bundle of the rows Method B draws from each task."""
    return tiny_bundle({t: _maybe_subsample(bundle.matrix(t, layer).data, t)
                        for t in bundle.tasks}, layer)


def unit_row_means(bundle, layer="L0"):
    """S_self and S_cross from explicit float64 unit rows."""
    units = explicit_unit_rows(bundle, layer)
    selfs = [(u @ u.T)[np.triu_indices(len(u), 1)].mean() for u in units]
    crosses = [(ua @ ub.T).mean() for ua, ub in itertools.combinations(units, 2)]
    return float(np.mean(selfs)), float(np.mean(crosses))


@pytest.mark.parametrize("rows, drawn", [
    ((40, 25, 33), (40, 25, 33)),
    ((700, 530, 60), (SAMPLE_CAP, SAMPLE_CAP, 60)),
])
def test_means_match_unit_rows_with_zero_rows(rows, drawn):
    # float32 rows with a shared direction and some all-zero rows; tasks
    # of more than SAMPLE_CAP rows are compared on the rows Method B draws
    rng = np.random.default_rng(sum(rows))
    d = 96
    shared = rng.standard_normal(d)
    tasks = {}
    for i, m in enumerate(rows):
        g = (0.4 * shared + rng.standard_normal((m, d))).astype(np.float32)
        g[rng.random(m) < 0.1] = 0.0
        tasks[f"t{i}"] = g
    b = tiny_bundle(tasks)
    drawn_rows = subsampled(b)
    assert tuple(drawn_rows.matrix(t, "L0").rows for t in b.tasks) == drawn
    s_self, s_cross = unit_row_means(drawn_rows)
    lc = layer_conflict(b, "L0")
    assert abs(lc.s_self - s_self) <= 1e-12
    assert abs(lc.s_cross - s_cross) <= 1e-12
    assert abs(lc.delta - (s_self - s_cross)) <= 1e-12
    assert lc.purity == unit_row_purity(drawn_rows)


def test_capped_task_never_casts_the_whole_layer(rng, monkeypatch):
    # a task above SAMPLE_CAP: Method B casts only the rows it draws
    b = tiny_bundle({"t0": rng.standard_normal((SAMPLE_CAP + 88, 16)),
                     "t1": rng.standard_normal((40, 16)), "t2": rng.standard_normal((40, 16))})
    calls = []
    monkeypatch.setattr(gdps.bundle, "layer_stack", lambda *args: calls.append(args))
    report = conflict_report(b, seed=5)
    assert calls == []
    assert report.layers[0].total_pairs == (
        SAMPLE_CAP * (SAMPLE_CAP - 1) // 2 + 2 * (40 * 39 // 2)
        + 2 * SAMPLE_CAP * 40 + 40 * 40)


class OnAThread:
    """A hand-off target that runs each job on a thread of its own."""

    def __init__(self):
        self.ran_on = []

    def __call__(self, job, cost):
        def run():
            self.ran_on.append(threading.current_thread())
            out.append(job())

        out = []
        thread = threading.Thread(target=run)
        thread.start()
        return lambda: (thread.join(), out[0])[1]


class NeverStarts:
    """A hand-off target that never starts a job: its caller takes each one back."""

    def __init__(self):
        self.jobs = 0

    def __call__(self, job, cost):
        self.jobs += 1
        return job


def bits(lc):
    """Every field of a LayerConflict, each float as its 8 bytes."""
    return tuple(np.float64(v).tobytes() if isinstance(v, float) else v
                 for v in dataclasses.astuple(lc))


def assert_hand_off_changes_no_bit(bundle):
    """Method B with a target that runs its jobs, and with one that never
    starts them, equals the call with none, every field bit for bit; each
    layer hands off one job if it has more than one product to run."""
    calls = len(bundle.layers) + 1 if len(bundle.tasks) > 2 else 0
    inline = conflict_report(bundle)
    thread, never = OnAThread(), NeverStarts()
    for target in (thread, never):
        report = conflict_report(bundle, hand_off=target)
        assert report == inline
        assert [bits(lc) for lc in report.layers] == [bits(lc) for lc in inline.layers]
        assert bits(report.layers[0]) == bits(layer_conflict(bundle, report.layers[0].layer,
                                                             target))
        assert report.delta.hex() == inline.delta.hex()
    assert len(thread.ran_on) == never.jobs == calls
    assert threading.current_thread() not in thread.ran_on


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    rows=st.lists(st.integers(2, 6), min_size=2, max_size=5),
    cols=st.integers(1, 48),
    tilt=st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, 1e-3]),
    zero_rate=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_hand_off_changes_no_bit_property(rows, cols, tilt, zero_rate, seed):
    # 2 to 5 tasks of unequal row counts on two layers, some rows zero
    assert_hand_off_changes_no_bit(
        signed_basis_bundle(rows, cols, tilt, zero_rate, seed, layers=("L0", "L1")))


@pytest.mark.parametrize("make", [
    lambda: near_orthogonal_bundle(2, rows=16, cols=4096, cosine=1e-8),
    orthogonal_integer_rows, huge_rows, tiny_rows, zero_rows,
    lambda: tiny_bundle({t: np.random.default_rng(len(t)).standard_normal((m, 24))
                         for t, m in (("t0", 700), ("t1", 530), ("t22", 60))}),
], ids=["near-orthogonal", "orthogonal-integer", "huge", "tiny", "zero-rows", "above-cap"])
def test_a_hand_off_changes_no_bit(make):
    assert_hand_off_changes_no_bit(make())


def test_hand_off_takes_the_largest_product_only_beside_others():
    # the products of t0, t1 and t2 with their later tasks are 2 x 10, 5 x 5
    # and 3 x 2 rows: t1's is handed off, at its 5 x 5 x 6 multiply-adds;
    # two tasks make one product, kept
    rows = {"t0": 2, "t1": 5, "t2": 3, "t3": 2}
    b = tiny_bundle({t: np.random.default_rng(m).standard_normal((m, 6)) for t, m in rows.items()})
    handed = []

    def target(job, cost):
        handed.append((job(), cost))
        return lambda: handed[-1][0]

    lc = layer_conflict(b, "L0", target)
    g = [b.matrix(t, "L0").data.astype(np.float64) for t in b.tasks]
    assert handed == [(int(np.count_nonzero(g[1] @ np.vstack(g[2:]).T >= 0.0)), 5 * 5 * 6)]
    assert bits(lc) == bits(layer_conflict(b, "L0"))
    pair = tiny_bundle({t: np.ones((m, 6)) for t, m in (("a", 9), ("b", 9))})
    layer_conflict(pair, "L0", target)
    assert len(handed) == 1
