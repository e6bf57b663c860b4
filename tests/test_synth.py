import numpy as np
import pytest

from gdps.bundle import GradientBundle
from gdps.conflict import layer_conflict, map_shared_ratio
from gdps.decompose import ACTIVATIONS, activation_fn, make_plan
from gdps.errors import ValidationError
from gdps.grouping import consensus_group
from gdps.synth import (
    _routed_step,
    _xtask_cosines,
    PROBE_LAYER,
    ToyModel,
    collect_bundle,
    equiangular_directions,
    make_model,
    make_suite,
    planted_bundle,
    similarity_delta,
    train,
)


def flat_probe_params(model):
    return np.concatenate([model.probe.w1.ravel(), model.probe.w2.ravel()])


def loss_at(model, theta_flat, x, y):
    d_ff, d_model = model.probe.w1.shape
    n1 = d_ff * d_model
    w1 = theta_flat[:n1].reshape(d_ff, d_model)
    w2 = theta_flat[n1:].reshape(d_model, d_ff)
    act = activation_fn(model.activation)
    z = x @ model.trunk.T
    p = act(z @ w1.T) @ w2.T
    e = p @ model.head.T - y
    return 0.5 * float((e**2).sum())


def fd_gradient(model, x, y, step=1e-5):
    theta = flat_probe_params(model)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        plus = theta.copy()
        minus = theta.copy()
        plus[i] += step
        minus[i] -= step
        grad[i] = (loss_at(model, plus, x, y) - loss_at(model, minus, x, y)) / (2 * step)
    return grad


def small_model(seed=0, activation="tanh"):
    suite = make_suite(2, [[0], [1]], 45.0, d_in=6, d_out=6, seed=seed, noise=0.0)
    model = make_model(suite, d_model=6, d_ff=7, seed=seed, activation=activation)
    return suite, model


def test_equiangular_directions_exact_cosines(rng):
    for c in (0.0, 0.3, 0.925, 1.0):
        dirs = equiangular_directions(4, c, 12, rng)
        for i in range(4):
            assert abs(np.linalg.norm(dirs[i]) - 1.0) < 1e-12
            for j in range(i + 1, 4):
                assert abs(dirs[i] @ dirs[j] - c) < 1e-12


def test_equiangular_negative_cosine_two_dirs(rng):
    dirs = equiangular_directions(2, -0.6, 8, rng)
    assert abs(dirs[0] @ dirs[1] + 0.6) < 1e-12
    with pytest.raises(ValidationError):
        equiangular_directions(3, -0.5, 8, rng)


def test_make_suite_deterministic():
    s1 = make_suite(4, [[0], [1, 2, 3]], 60.0, seed=5)
    s2 = make_suite(4, [[0], [1, 2, 3]], 60.0, seed=5)
    assert s1.fingerprint() == s2.fingerprint()
    for t in s1.tasks:
        assert np.array_equal(s1.directions[t], s2.directions[t])
    assert np.array_equal(s1.v0, s2.v0)


def test_make_suite_theta_zero_near_identical_maps():
    s = make_suite(3, [[0], [1, 2]], 0.0, seed=2)
    base = s.directions[s.tasks[0]]
    for t in s.tasks[1:]:
        assert base @ s.directions[t] > np.cos(np.radians(5.0))


def test_make_suite_cross_group_angles():
    s = make_suite(4, [[0, 1], [2, 3]], 70.0, seed=3, spread_deg=5.0)
    for a in ("t0", "t1"):
        for b in ("t2", "t3"):
            angle = np.degrees(np.arccos(np.clip(s.directions[a] @ s.directions[b], -1, 1)))
            assert abs(angle - 70.0) < 2.0
    within = np.degrees(np.arccos(np.clip(s.directions["t0"] @ s.directions["t1"], -1, 1)))
    assert within <= 5.0


def test_make_suite_validation():
    with pytest.raises(ValidationError):
        make_suite(3, [[0], [1, 2]], 120.0)
    with pytest.raises(ValidationError):
        make_suite(8, [[i] for i in range(8)], 30.0, d_out=4)


def test_planted_bundle_theta_90_cross_group_cosines():
    b = planted_bundle(4, [[0, 1], [2, 3]], 90.0, d=24, m=12, seed=5, spread_deg=0.0)
    units = {}
    for t in b.tasks:
        g = b.matrix(t, PROBE_LAYER).data.astype(np.float64)
        units[t] = g / np.linalg.norm(g, axis=1, keepdims=True)

    def cross(x, y):  # mean cosine over every pair of the two tasks' rows
        return float((units[x] @ units[y].T).mean())

    assert abs(cross("t0", "t2")) < 1e-6
    assert abs(cross("t1", "t3")) < 1e-6
    assert cross("t0", "t1") > 0.999


def test_analytic_gradients_shapes_and_zero_case():
    suite, model = small_model()
    gm = collect_bundle(model, suite, n_samples=7, seed=3).matrix("t0", PROBE_LAYER)
    assert gm.rows == 7
    assert gm.cols == 2 * 6 * 7
    # zero weights, zero targets, identity activation -> zero gradients
    zero_model = ToyModel(
        trunk=model.trunk,
        head=model.head,
        probe=type(model.probe)(6, 7, np.zeros((7, 6)), np.zeros((6, 7))),
        activation="identity",
    )
    x = np.zeros((3, 6))
    y = np.zeros((3, 6))
    from gdps.synth import _per_sample_probe_grads

    rows = _per_sample_probe_grads(zero_model, x, y)
    assert np.all(rows == 0.0)


def test_analytic_gradients_match_finite_differences(rng):
    # 20 random (model, sample) draws; max relative error < 1e-4 at step 1e-5
    worst = 0.0
    for draw in range(20):
        seed = int(rng.integers(0, 10_000))
        act = ("tanh", "silu", "identity")[draw % 3]
        suite, model = small_model(seed=seed, activation=act)
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((1, 6))
        y = gen.standard_normal((1, 6))
        from gdps.synth import _per_sample_probe_grads

        analytic = _per_sample_probe_grads(model, x, y)[0]
        numeric = fd_gradient(model, x, y)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-30)
        worst = max(worst, rel)
    assert worst < 1e-4


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_routed_step_two_branches_match_finite_differences(activation):
    # the layout specialized training uses: a shared 2-D pair plus each task's
    # private pair gathered by route; row t holds task t's loss gradient
    gen = np.random.default_rng(37)
    n_tasks, batch, d_model, d_s, d_p, d_out = 3, 4, 5, 6, 3, 4
    head = np.linalg.qr(gen.standard_normal((d_model, d_out)))[0].T
    shared = [0.5 * gen.standard_normal((d_s, d_model)), 0.5 * gen.standard_normal((d_model, d_s))]
    private_up = 0.5 * gen.standard_normal((2, d_p, d_model))
    private_down = 0.5 * gen.standard_normal((2, d_model, d_p))
    route = np.array([1, 0, 1])
    z = gen.standard_normal((n_tasks, batch, d_model))
    y = gen.standard_normal((n_tasks, batch, d_out))
    losses, grads = _routed_step(
        z, y, head, [shared, (private_up[route], private_down[route])], activation
    )
    act = activation_fn(activation)

    for t, g in enumerate(route):
        weights = [*shared, private_up[g], private_down[g]]
        theta = np.concatenate([w.ravel() for w in weights])
        cuts = np.cumsum([w.size for w in weights])[:-1]

        def loss_at(flat):
            su, sd, pu, pd = (part.reshape(w.shape) for part, w in zip(np.split(flat, cuts), weights))
            e = (act(z[t] @ su.T) @ sd.T + act(z[t] @ pu.T) @ pd.T) @ head.T - y[t]
            return float((e**2).sum()) / (2 * batch)

        numeric = np.zeros_like(theta)
        for i in range(theta.size):
            plus, minus = theta.copy(), theta.copy()
            plus[i] += 1e-6
            minus[i] -= 1e-6
            numeric[i] = (loss_at(plus) - loss_at(minus)) / 2e-6
        assert losses[t] == pytest.approx(loss_at(theta), rel=1e-12)
        assert np.linalg.norm(grads[t] - numeric) <= 1e-6 * np.linalg.norm(numeric)


def test_collect_bundle_valid_and_consumable():
    suite = make_suite(4, [[0], [1, 2, 3]], 75.0, seed=4)
    model = make_model(suite, seed=4)
    bundle = collect_bundle(model, suite, n_samples=16, seed=4)
    assert isinstance(bundle, GradientBundle)
    bundle.validate()
    assert bundle.layers == (PROBE_LAYER,)
    assert bundle.matrix("t0", PROBE_LAYER).rows == 16


def test_collect_bundle_recovery_theta75():
    suite = make_suite(4, [[0], [1, 2, 3]], 75.0, seed=6)
    model = make_model(suite, seed=6)
    bundle = collect_bundle(model, suite, n_samples=32, seed=6)
    plan = consensus_group(bundle, PROBE_LAYER, k=2, seed=6)
    assert plan.groups == (("t0",), ("t1", "t2", "t3"))


def test_collect_bundle_theta0_maps_to_max_sharing():
    suite = make_suite(4, [[0], [1, 2, 3]], 0.0, seed=8)
    model = make_model(suite, seed=8)
    bundle = collect_bundle(model, suite, n_samples=32, seed=8)
    lc = layer_conflict(bundle, PROBE_LAYER)
    assert lc.delta < 0.05
    assert map_shared_ratio(lc.delta) == 0.75


def test_recovery_at_invariant_boundary():
    # theta >= 60 with spread <= 10 must still recover the plant
    for seed in range(5):
        suite = make_suite(4, [[0], [1, 2, 3]], 60.0, seed=seed, spread_deg=10.0)
        model = make_model(suite, seed=seed)
        bundle = collect_bundle(model, suite, n_samples=32, seed=seed)
        plan = consensus_group(bundle, PROBE_LAYER, k=2, seed=seed)
        assert plan.groups == (("t0",), ("t1", "t2", "t3"))


def test_conflict_monotone_in_theta():
    means = []
    for theta in (0.0, 30.0, 60.0, 90.0):
        deltas = []
        for seed in range(5):
            suite = make_suite(4, [[0], [1, 2, 3]], theta, seed=seed)
            model = make_model(suite, seed=seed)
            bundle = collect_bundle(model, suite, n_samples=32, seed=seed)
            deltas.append(layer_conflict(bundle, PROBE_LAYER).delta)
        means.append(float(np.mean(deltas)))
    assert all(a <= b for a, b in zip(means, means[1:]))


def auto_plan(model, suite, seed):
    from gdps.conflict import conflict_report
    from gdps.subspace import group_energy, subspace_report

    bundle = collect_bundle(model, suite, n_samples=32, seed=seed)
    grp = consensus_group(bundle, PROBE_LAYER, k=len(suite.grouping.groups), seed=seed)
    conf = conflict_report(bundle, seed=seed)
    rep = subspace_report(bundle, PROBE_LAYER)
    p_g = group_energy(rep.proportions, grp, bundle.tasks)
    return make_plan(grp, conf.shared_ratio, model.d_model, model.d_ff, tuple(p_g), seed=seed)


def test_train_lr_zero_constant_loss():
    suite = make_suite(2, [[0], [1]], 40.0, seed=3)
    model = make_model(suite, seed=3)
    log = train(model, suite, "unified", steps=20, lr=0.0, seed=3)
    assert np.allclose(log.losses.std(axis=0), 0.0, atol=1e-12)


def test_train_steps_zero_initial_losses():
    suite = make_suite(2, [[0], [1]], 40.0, seed=3)
    model = make_model(suite, seed=3)
    log = train(model, suite, "unified", steps=0, lr=0.1, seed=3)
    assert log.losses.shape == (1, 2)
    assert np.all(log.losses > 0)


def test_train_mode_plan_contract():
    suite = make_suite(2, [[0], [1]], 40.0, seed=3)
    model = make_model(suite, seed=3)
    plan = auto_plan(model, suite, 3)
    with pytest.raises(ValidationError):
        train(model, suite, "specialized", plan=None, steps=1)
    with pytest.raises(ValidationError):
        train(model, suite, "unified", plan=plan, steps=1)
    with pytest.raises(ValidationError):
        train(model, suite, "magic", steps=1)


def test_train_bit_reproducible():
    suite = make_suite(3, [[0], [1, 2]], 55.0, seed=9)
    model = make_model(suite, seed=9)
    l1 = train(model, suite, "unified", steps=30, lr=0.05, seed=9)
    l2 = train(model, suite, "unified", steps=30, lr=0.05, seed=9)
    assert np.array_equal(l1.losses, l2.losses)
    assert l1.xtask_cosine_after == l2.xtask_cosine_after
    plan = auto_plan(model, suite, 9)
    s1 = train(model, suite, "specialized", plan=plan, steps=30, lr=0.05, seed=9)
    s2 = train(model, suite, "specialized", plan=plan, steps=30, lr=0.05, seed=9)
    assert np.array_equal(s1.losses, s2.losses)


def test_train_specialized_beats_unified_high_conflict():
    suite = make_suite(4, [[0], [1, 2, 3]], 80.0, seed=2343, noise=0.05)
    model = make_model(suite, seed=2343)
    plan = auto_plan(model, suite, 2343)
    uni = train(model, suite, "unified", steps=500, lr=0.05, seed=2343)
    spec = train(model, suite, "specialized", plan=plan, steps=500, lr=0.05, seed=2343)
    assert spec.final_mean_loss() < uni.final_mean_loss()


def test_train_no_conflict_parity():
    suite = make_suite(4, [[0], [1, 2, 3]], 0.0, seed=2343, noise=0.05, spread_deg=0.0)
    model = make_model(suite, seed=2343)
    plan = auto_plan(model, suite, 2343)
    uni = train(model, suite, "unified", steps=500, lr=0.05, seed=2343)
    spec = train(model, suite, "specialized", plan=plan, steps=500, lr=0.05, seed=2343)
    u, s = uni.final_mean_loss(), spec.final_mean_loss()
    assert abs(u - s) / max(u, s) <= 0.10


def test_trainlog_csv_and_summary():
    suite = make_suite(2, [[0], [1]], 40.0, seed=3)
    model = make_model(suite, seed=3)
    log = train(model, suite, "unified", steps=5, lr=0.05, seed=3)
    csv = log.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "step,task,loss"
    assert len(lines) == 1 + 5 * 2
    summary = log.summary_dict()
    assert summary["mode"] == "unified"
    assert set(summary["final_losses"]) == {"t0", "t1"}
    # the suite is rebuildable from what the log records
    p = summary["suite_params"]
    rebuilt = make_suite(
        len(p["tasks"]), [list(g) for g in p["grouping"]["groups"]], p["theta"],
        d_in=p["d_in"], d_out=p["d_out"], seed=p["seed"], noise=p["noise"],
        spread_deg=p["spread"],
    )
    assert rebuilt.fingerprint() == summary["suite_fingerprint"]


def test_similarity_delta_identical_logs():
    suite = make_suite(2, [[0], [1]], 40.0, seed=3)
    model = make_model(suite, seed=3)
    log = train(model, suite, "unified", steps=10, lr=0.05, seed=3)
    delta = similarity_delta(log, log)
    assert all(v == 0.0 for v in delta.values())


def test_similarity_delta_suite_mismatch():
    s1 = make_suite(2, [[0], [1]], 40.0, seed=3)
    s2 = make_suite(2, [[0], [1]], 50.0, seed=3)
    m1, m2 = make_model(s1, seed=3), make_model(s2, seed=3)
    l1 = train(m1, s1, "unified", steps=2, lr=0.05, seed=3)
    l2 = train(m2, s2, "unified", steps=2, lr=0.05, seed=3)
    with pytest.raises(ValidationError):
        similarity_delta(l1, l2)


def test_similarity_delta_order_agnostic():
    suite = make_suite(4, [[0], [1, 2, 3]], 80.0, seed=2343, noise=0.05)
    model = make_model(suite, seed=2343)
    plan = auto_plan(model, suite, 2343)
    uni = train(model, suite, "unified", steps=50, lr=0.05, seed=2343)
    spec = train(model, suite, "specialized", plan=plan, steps=50, lr=0.05, seed=2343)
    d1 = similarity_delta(spec, uni)
    d2 = similarity_delta(uni, spec)
    assert d1 == d2


def paired_delta(theta, spread, seed, steps):
    # Mid-descent runs: gradient statistics are informative while both
    # models are still descending; at full convergence the cosines measure
    # residual-solution geometry instead of task alignment.
    suite = make_suite(4, [[0], [1, 2, 3]], theta, seed=seed, noise=0.05, spread_deg=spread)
    model = make_model(suite, seed=seed)
    plan = auto_plan(model, suite, seed)
    uni = train(model, suite, "unified", steps=steps, lr=0.05, seed=seed)
    spec = train(model, suite, "specialized", plan=plan, steps=steps, lr=0.05, seed=seed)
    return float(np.mean(list(similarity_delta(spec, uni).values())))


def test_similarity_delta_positive_under_conflict():
    deltas = [paired_delta(80.0, 5.0, seed, steps=60) for seed in (2343, 2344, 2345)]
    assert np.mean(deltas) > 0.0


def test_similarity_delta_no_conflict_control_near_zero():
    deltas = [paired_delta(0.0, 0.0, seed, steps=60) for seed in (2343, 2344, 2345)]
    assert abs(np.mean(deltas)) <= 0.05


def test_train_divergence_guard():
    import pytest as _pytest

    from gdps.errors import TrainingDivergence

    suite = make_suite(4, [[0], [1, 2, 3]], 80.0, seed=1, noise=0.05)
    model = make_model(suite, seed=1)
    with _pytest.raises(TrainingDivergence, match="diverged at step"):
        train(model, suite, "unified", steps=200, lr=5.0, seed=1)


def pairwise_xtask(grads):
    """Per task, the mean cosine to every other task; a zero vector counts as 0."""
    out = {}
    for t, u in grads.items():
        cs = []
        for o, v in grads.items():
            if o == t:
                continue
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            cs.append(u @ v / (nu * nv) if nu > 0 and nv > 0 else 0.0)
        out[t] = float(np.mean(cs)) if cs else 0.0
    return out


def test_xtask_cosines_match_pairwise_reference(rng):
    grads = {t: rng.standard_normal(20) for t in ("a", "b", "c", "d")}
    grads["z"] = np.zeros(20)
    got, want = _xtask_cosines(grads), pairwise_xtask(grads)
    assert list(got) == list(want)
    assert all(abs(got[t] - want[t]) < 1e-14 for t in grads)
    assert got["z"] == 0.0
    assert _xtask_cosines({"solo": rng.standard_normal(20)}) == {"solo": 0.0}
