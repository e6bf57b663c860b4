import json

import numpy as np
import pytest

from gdps.bundle import dump_json, write_matrix_file
from gdps.decompose import (
    DecompositionPlan,
    SpecializedFfn,
    UnifiedFfnWeights,
    assemble,
    equiv_weight,
    factor_block,
    forward,
    load_ffn,
    make_plan,
    private_init,
    residual,
    save_ffn,
    shared_factors,
    split_widths,
    unified_forward,
)
from gdps.errors import BundleFormatError, ValidationError
from gdps.grouping import GroupingPlan
from gdps.linalg import svd


def triple_loop_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def random_weights(rng, d_model=8, d_ff=12):
    return UnifiedFfnWeights(
        d_model, d_ff, rng.standard_normal((d_ff, d_model)), rng.standard_normal((d_model, d_ff))
    )


def one_group():
    return GroupingPlan((("solo",),), "planted", 1)


def two_groups():
    return GroupingPlan((("a",), ("b", "c")), "planted", 2)


def test_equiv_weight_identity():
    w = UnifiedFfnWeights(2, 2, np.eye(2), np.eye(2))
    assert np.allclose(equiv_weight(w), np.eye(2))


def test_equiv_weight_rank_bound(rng):
    w = UnifiedFfnWeights(8, 4, rng.standard_normal((4, 8)), rng.standard_normal((8, 4)))
    r = np.linalg.matrix_rank(equiv_weight(w))
    assert r <= 4


def test_equiv_weight_matches_triple_loop(rng):
    w1 = rng.standard_normal((4, 8))
    w2 = rng.standard_normal((8, 4))
    w = UnifiedFfnWeights(8, 4, w1, w2)
    assert np.max(np.abs(equiv_weight(w) - triple_loop_matmul(w2, w1))) < 1e-12


def test_split_widths_desk_and_reference_plans():
    assert split_widths(12, 0.5, 2) == (6, 3)
    assert split_widths(4096, 0.5, 2) == (2048, 1024)
    assert split_widths(32, 0.75, 2) == (24, 4)
    assert split_widths(32, 0.25, 2) == (8, 12)
    with pytest.raises(ValidationError):
        split_widths(4, 0.9, 5)


def test_make_plan_desk_example():
    plan = make_plan(two_groups(), 0.5, d_model=8, d_ff=12, p_g=(0.4, 0.6))
    assert (plan.d_s, plan.d_p) == (6, 3)
    assert plan.d_s + 2 * plan.d_p == plan.d_ff
    assert plan.r == 1  # d_s // 4 rounded down, floor 1


def test_make_plan_reference_dimensions():
    plan = make_plan(two_groups(), 0.5, d_model=1024, d_ff=4096, p_g=(0.25, 0.75))
    assert (plan.d_s, plan.d_p, plan.r) == (2048, 1024, 512)


def test_plan_validation():
    with pytest.raises(ValidationError, match="width split"):
        DecompositionPlan(two_groups(), 0.5, 8, 12, d_s=6, d_p=4, p_g=(0.5, 0.5), r=1)
    with pytest.raises(ValidationError, match="sum to 1"):
        DecompositionPlan(two_groups(), 0.5, 8, 12, d_s=6, d_p=3, p_g=(0.6, 0.6), r=1)
    with pytest.raises(ValidationError, match="truncation rank"):
        DecompositionPlan(two_groups(), 0.5, 8, 12, d_s=6, d_p=3, p_g=(0.5, 0.5), r=7)


@pytest.mark.parametrize("p_g,ratio,match", [
    ((float("nan"), 0.6), 0.5, "sum to 1"),
    ((float("nan"), float("nan")), 0.5, "sum to 1"),
    ((0.4, 0.6), float("nan"), "shared_ratio"),
    ((0.4, 0.6), float("inf"), "shared_ratio"),
    ((0.4, 0.6), 5.0, "shared_ratio"),
    ((0.4, 0.6), 0.0, "shared_ratio"),
])
def test_plan_validation_non_finite(p_g, ratio, match):
    # NaN fails every comparison, so the checks must be written to fail on it
    with pytest.raises(ValidationError, match=match):
        DecompositionPlan(two_groups(), ratio, 8, 12, d_s=6, d_p=3, p_g=p_g, r=1)


def test_plan_json_round_trip():
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.4, 0.6), seed=7)
    d = plan.to_dict()
    assert set(d) >= {
        "grouping", "shared_ratio", "d_s", "d_p", "p_g", "r",
        "noise_scale", "seed", "activation",
    }
    back = DecompositionPlan.from_dict(d)
    assert back == plan


def test_shared_factors_rank_one_exact(rng):
    u = rng.standard_normal(8)
    v = rng.standard_normal(8)
    w_equiv = 3.0 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
    plan = make_plan(one_group(), 0.5, 8, 16, p_g=(1.0,), r=1, noise_scale=0.0)
    _, _, w_shared = shared_factors(w_equiv, plan)
    assert np.linalg.norm(w_shared - w_equiv) < 1e-10


def test_shared_factors_identity_tail_energy():
    plan = make_plan(one_group(), 0.5, 4, 8, p_g=(1.0,), r=2, noise_scale=0.0)
    _, _, w_shared = shared_factors(np.eye(4), plan)
    res = residual(np.eye(4), w_shared)
    assert abs((res**2).sum() - 2.0) < 1e-10


def test_shared_factors_zero_noise_padding(rng):
    w = random_weights(rng)
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5), noise_scale=0.0)
    w1f, w2f, _ = shared_factors(equiv_weight(w), plan)
    assert w1f.shape == (8, 6) and w2f.shape == (6, 8)
    assert np.all(w1f[:, plan.r:] == 0.0)
    assert np.all(w2f[plan.r:, :] == 0.0)


def test_shared_factors_noise_padding_deterministic(rng):
    w = random_weights(rng)
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5), noise_scale=1e-3, seed=77)
    a1 = shared_factors(equiv_weight(w), plan)
    a2 = shared_factors(equiv_weight(w), plan)
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])
    assert np.any(a1[0][:, plan.r:] != 0.0)


def test_residual_eckart_young(rng):
    w = random_weights(rng)
    w_equiv = equiv_weight(w)
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5), r=2, noise_scale=0.0)
    _, _, w_shared = shared_factors(w_equiv, plan)
    res = residual(w_equiv, w_shared)
    sigma = svd(w_equiv).sigma
    tail = np.sqrt((sigma[2:] ** 2).sum())
    assert abs(np.linalg.norm(res) - tail) < 1e-8 * max(tail, 1.0)
    # orthogonality of the shared part and the residual
    inner = float((w_shared * res).sum())
    assert abs(inner) < 1e-8 * float((w_equiv**2).sum())


def test_residual_full_rank_zero(rng):
    w = random_weights(rng, d_model=6, d_ff=20)
    plan = make_plan(one_group(), 0.5, 6, 20, p_g=(1.0,), r=6, noise_scale=0.0)
    w_equiv = equiv_weight(w)
    _, _, w_shared = shared_factors(w_equiv, plan)
    assert np.linalg.norm(residual(w_equiv, w_shared)) < 1e-8


def test_residual_shape_mismatch():
    with pytest.raises(ValidationError):
        residual(np.eye(3), np.eye(4))


def test_private_init_full_allocation_reconstructs(rng):
    # single group, p=1, zero noise, t = rank: branch product equals residual
    plan = make_plan(one_group(), 0.5, 6, 24, p_g=(1.0,), r=2, noise_scale=0.0)
    w = random_weights(rng, d_model=6, d_ff=24)
    w_equiv = equiv_weight(w)
    _, _, w_shared = shared_factors(w_equiv, plan)
    res = residual(w_equiv, w_shared)
    branches = private_init(res, plan, t=4)  # rank(res) = 6 - 2 = 4
    up, down = branches[0]
    assert np.linalg.norm(down @ up - res) < 1e-8


def test_private_init_energy_ratio(rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.8, 0.2), noise_scale=0.0)
    w = random_weights(rng)
    w_equiv = equiv_weight(w)
    _, _, w_shared = shared_factors(w_equiv, plan)
    res = residual(w_equiv, w_shared)
    branches = private_init(res, plan)
    n0 = np.linalg.norm(branches[0][1] @ branches[0][0])
    n1 = np.linalg.norm(branches[1][1] @ branches[1][0])
    assert abs(n0 / n1 - 4.0) < 1e-8


def test_private_init_monotone_energy(rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.7, 0.3), noise_scale=0.0)
    w = random_weights(rng)
    res = residual(equiv_weight(w), shared_factors(equiv_weight(w), plan)[2])
    branches = private_init(res, plan)
    norms = [np.linalg.norm(d @ u) for u, d in branches]
    assert norms[0] >= norms[1]


def test_private_init_zero_residual_noise_fallback():
    plan = make_plan(two_groups(), 0.5, 32, 48, p_g=(0.5, 0.5), noise_scale=2.0, seed=3)
    branches = private_init(np.zeros((32, 32)), plan)
    pooled = np.concatenate([np.concatenate([u.ravel(), d.ravel()]) for u, d in branches])
    assert abs(pooled.std() - 2.0) / 2.0 < 0.10


def test_assemble_desk_shapes(rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5))
    w = random_weights(rng)
    ffn = assemble(w, plan)
    assert ffn.shared_up.shape == (6, 8)
    assert ffn.shared_down.shape == (8, 6)
    assert len(ffn.private_up) == 2
    assert ffn.private_up[0].shape == (3, 8)
    assert ffn.private_down[0].shape == (8, 3)
    assert ffn.routing == {"a": 0, "b": 1, "c": 1}


def test_assemble_single_task_routing(rng):
    plan = make_plan(one_group(), 0.5, 8, 16, p_g=(1.0,))
    ffn = assemble(random_weights(rng, 8, 16), plan)
    assert ffn.routing == {"solo": 0}


def test_assemble_shape_guard(rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5))
    with pytest.raises(ValidationError):
        assemble(random_weights(rng, d_model=10, d_ff=12), plan)


def test_assemble_deterministic(rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5), noise_scale=1e-4, seed=5)
    w = random_weights(rng)
    f1, f2 = assemble(w, plan), assemble(w, plan)
    assert np.array_equal(f1.shared_up, f2.shared_up)
    assert np.array_equal(f1.private_up[0], f2.private_up[0])
    assert np.array_equal(f1.private_down[1], f2.private_down[1])


def test_forward_full_capacity_fidelity(rng):
    # r = rank, zero noise, one group, p=1, linear activation
    plan = make_plan(one_group(), 0.5, 8, 24, p_g=(1.0,), r=8, noise_scale=0.0,
                     activation="identity")
    w = random_weights(rng, d_model=8, d_ff=24)
    ffn = assemble(w, plan)
    x = rng.standard_normal((100, 8))
    want = x @ equiv_weight(w).T
    got = forward(ffn, x, "solo")
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8


def test_forward_zero_input_odd_activations(rng):
    for act in ("identity", "tanh"):
        plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5), activation=act)
        ffn = assemble(random_weights(rng), plan)
        out = forward(ffn, np.zeros((3, 8)), "a")
        assert np.allclose(out, 0.0)


def test_forward_routes_differ(rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.9, 0.1), noise_scale=0.0)
    ffn = assemble(random_weights(rng), plan)
    x = rng.standard_normal((5, 8))
    out_a = forward(ffn, x, "a")
    out_b = forward(ffn, x, "b")
    assert not np.allclose(out_a, out_b)


def test_forward_unknown_task(rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5))
    ffn = assemble(random_weights(rng), plan)
    with pytest.raises(ValidationError, match="no route"):
        forward(ffn, np.zeros(8), "zz")
    with pytest.raises(ValidationError, match="width"):
        forward(ffn, np.zeros(9), "a")
    with pytest.raises(ValidationError, match="2-D batch"):  # its axis 1 is not the width
        forward(ffn, np.full((2, 8, 8), np.nan), "a")


def test_forward_single_vector_round_trip(rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5))
    ffn = assemble(random_weights(rng), plan)
    x = rng.standard_normal(8)
    out1 = forward(ffn, x, "a")
    out2 = forward(ffn, x[None, :], "a")[0]
    assert np.array_equal(out1, out2)


def test_unified_forward_matches_manual(rng):
    w = random_weights(rng)
    x = rng.standard_normal((4, 8))
    got = unified_forward(w, x, "identity")
    assert np.allclose(got, x @ (w.w2 @ w.w1).T, atol=1e-12)


HAND_ACTIVATIONS = {
    "identity": lambda a: a,
    "relu": lambda a: np.where(a > 0.0, a, 0.0),
    "silu": lambda a: a / (1.0 + np.exp(-a)),
    "tanh": lambda a: (np.exp(a) - np.exp(-a)) / (np.exp(a) + np.exp(-a)),
}


@pytest.mark.parametrize("act", sorted(HAND_ACTIVATIONS))
def test_forward_and_unified_forward_match_hand_written_block(rng, act):
    f = HAND_ACTIVATIONS[act]
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.7, 0.3), noise_scale=0.1, activation=act)
    w = random_weights(rng)
    ffn = assemble(w, plan)
    x = rng.standard_normal((5, 8))
    for task in ("a", "b", "c"):
        g = ffn.routing[task]
        want = (f(x @ ffn.shared_up.T) @ ffn.shared_down.T
                + f(x @ ffn.private_up[g].T) @ ffn.private_down[g].T)
        assert np.allclose(forward(ffn, x, task), want, rtol=1e-12, atol=1e-12)
    want = f(x @ w.w1.T) @ w.w2.T
    assert np.allclose(unified_forward(w, x, act), want, rtol=1e-12, atol=1e-12)


def test_save_load_round_trip(tmp_path, rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5), seed=11)
    ffn = assemble(random_weights(rng), plan)
    save_ffn(ffn, tmp_path / "ffn")
    back = load_ffn(tmp_path / "ffn")
    assert back.routing == ffn.routing
    assert back.activation == ffn.activation
    assert back.plan == ffn.plan
    # storage is float32; every loaded weight equals its f32 quantization
    def f32(w):
        return w.astype(np.float32).astype(np.float64)

    assert np.array_equal(back.shared_up, f32(ffn.shared_up))
    assert np.array_equal(back.shared_down, f32(ffn.shared_down))
    assert len(back.private_up) == len(back.private_down) == len(ffn.private_up) == 2
    for got, want in zip(back.private_up + back.private_down, ffn.private_up + ffn.private_down):
        assert got.dtype == np.float64
        assert np.array_equal(got, f32(want))
    x = rng.standard_normal((3, 8))
    got = forward(back, x, "b")
    want = forward(ffn, x, "b")
    assert np.max(np.abs(got - want)) < 1e-5


def _saved_ffn_meta(tmp_path, rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5), seed=11)
    save_ffn(assemble(random_weights(rng), plan), tmp_path / "ffn")
    meta_path = tmp_path / "ffn" / "ffn.json"
    return json.loads(meta_path.read_text()), meta_path


@pytest.mark.parametrize("key", ["n_groups", "d_model", "d_s", "d_p", "routing", "activation"])
def test_load_ffn_missing_key(tmp_path, rng, key):
    meta, meta_path = _saved_ffn_meta(tmp_path, rng)
    del meta[key]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match=f"ffn.json.*{key}"):
        load_ffn(tmp_path / "ffn")


@pytest.mark.parametrize("key,value", [
    ("n_groups", "2"),
    ("n_groups", -1),
    ("d_model", 8.5),
    ("d_s", True),
    ("d_p", None),
    ("routing", ["a", "b"]),
    ("routing", {"a": "zero"}),
    ("activation", "gelu"),
    ("activation", 3),
    ("plan", False),
    ("plan", {}),
])
def test_load_ffn_malformed_key(tmp_path, rng, key, value):
    meta, meta_path = _saved_ffn_meta(tmp_path, rng)
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match=f"ffn.json.*{key}"):
        load_ffn(tmp_path / "ffn")


@pytest.mark.parametrize("text", [
    "{not json", "[1, 2]", "",
    pytest.param(b"{\"d_model\": \xff}", id="not-utf8"),
    pytest.param(b"[" * 200_000, id="too-deep"),
])
def test_load_ffn_unreadable_json(tmp_path, rng, text):
    _, meta_path = _saved_ffn_meta(tmp_path, rng)
    meta_path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValidationError, match="ffn.json"):
        load_ffn(tmp_path / "ffn")


def test_load_ffn_malformed_plan_names_file(tmp_path, rng):
    meta, meta_path = _saved_ffn_meta(tmp_path, rng)
    del meta["plan"]["p_g"]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match="ffn.json.*p_g"):
        load_ffn(tmp_path / "ffn")


def test_specialized_ffn_shape_validation(rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5))
    ffn = assemble(random_weights(rng), plan)
    with pytest.raises(ValidationError, match="shared_up shape"):
        SpecializedFfn(
            plan=plan,
            shared_up=ffn.shared_up[:, :4],
            shared_down=ffn.shared_down,
            private_up=ffn.private_up,
            private_down=ffn.private_down,
        )


def test_specialized_ffn_needs_one_branch_pair_per_group(rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5))
    ffn = assemble(random_weights(rng), plan)
    with pytest.raises(ValidationError, match="3 private up and 3 down branches for a plan of 2"):
        SpecializedFfn(plan, ffn.shared_up, ffn.shared_down,
                       ffn.private_up + ffn.private_up[:1], ffn.private_down + ffn.private_down[:1])


def test_specialized_ffn_reads_its_layout_from_the_plan(rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5), activation="tanh")
    ffn = assemble(random_weights(rng), plan)
    assert ffn.routing == plan.routing == {"a": 0, "b": 1, "c": 1}
    assert ffn.activation == "tanh"
    with pytest.raises(AttributeError):
        ffn.routing = {"a": 1, "b": 0, "c": 0}


def test_save_ffn_writes_the_documented_layout(tmp_path, rng):
    plan = make_plan(two_groups(), 0.5, 8, 12, p_g=(0.5, 0.5), seed=11)
    save_ffn(assemble(random_weights(rng), plan), tmp_path / "ffn")
    want = {"d_model": 8, "d_s": 6, "d_p": 3, "n_groups": 2,
            "routing": {"a": 0, "b": 1, "c": 1}, "activation": "silu", "plan": plan.to_dict()}
    assert (tmp_path / "ffn" / "ffn.json").read_text() == dump_json(want)


@pytest.mark.parametrize("key,value", [
    ("routing", {"a": 1, "b": 0, "c": 1}),
    ("routing", {"a": 0, "b": 1}),
    ("routing", {"a": 0, "b": 1, "c": True}),
    ("activation", "relu"),
    ("d_s", 4),
    ("d_s", 6.0),
    ("n_groups", 3),
    ("d_model", 8.0),
])
def test_load_ffn_rejects_a_key_that_contradicts_the_plan(tmp_path, rng, key, value):
    meta, meta_path = _saved_ffn_meta(tmp_path, rng)
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match=f"ffn.json: '{key}' must be .* to agree with its plan"):
        load_ffn(tmp_path / "ffn")


def test_load_ffn_names_the_directory_of_a_weight_that_contradicts_the_plan(tmp_path, rng):
    _, meta_path = _saved_ffn_meta(tmp_path, rng)
    write_matrix_file(tmp_path / "ffn" / "group1_down.gdm", np.zeros((8, 4)))
    with pytest.raises(ValidationError, match=r"ffn: group 1 down shape \(8, 4\) != \(8, 3\)"):
        load_ffn(tmp_path / "ffn")


def test_load_ffn_rejects_a_non_finite_weight_naming_its_file(tmp_path, rng):
    _saved_ffn_meta(tmp_path, rng)
    path = tmp_path / "ffn" / "shared_up.gdm"
    raw = bytearray(path.read_bytes())
    raw[12:16] = np.array([np.nan], dtype="<f4").tobytes()  # entry (0, 0)
    path.write_bytes(bytes(raw))
    with pytest.raises(BundleFormatError, match="non-finite entry at row 0, col 0") as info:
        load_ffn(tmp_path / "ffn")
    assert str(path) in str(info.value)


def test_assemble_branches_follow_eckart_young(rng):
    # one SVD of W: shared = top r triplets, group g = p_g times triplets r .. r+t-1
    plan = make_plan(two_groups(), 0.5, 8, 40, p_g=(0.7, 0.3), r=3, noise_scale=0.0)
    w = random_weights(rng, d_model=8, d_ff=40)
    ffn, dec = factor_block(w, plan)
    u, sigma, vt = np.linalg.svd(equiv_weight(w))
    assert np.allclose(dec.sigma, sigma)
    w_r = (u[:, :3] * sigma[:3]) @ vt[:3]
    assert np.linalg.norm(ffn.shared_down @ ffn.shared_up - w_r) < 1e-10
    t = plan.d_p // 2
    band = (u[:, 3:3 + t] * sigma[3:3 + t]) @ vt[3:3 + t]
    for g, p in enumerate(plan.p_g):
        assert np.linalg.norm(ffn.private_down[g] @ ffn.private_up[g] - p * band) < 1e-10


def test_assemble_pads_a_short_tail_with_zeros(rng):
    # r + t > d_model: the tail has only d_model - r triplets
    plan = make_plan(one_group(), 0.5, 6, 24, p_g=(1.0,), r=4, noise_scale=0.0)
    w = random_weights(rng, d_model=6, d_ff=24)
    ffn = assemble(w, plan, private_rank=6)
    w_equiv = equiv_weight(w)
    tail = w_equiv - ffn.shared_down @ ffn.shared_up
    assert np.linalg.norm(ffn.private_down[0] @ ffn.private_up[0] - tail) < 1e-10
    assert not ffn.private_up[0][2:].any() and not ffn.private_down[0][:, 2:].any()
