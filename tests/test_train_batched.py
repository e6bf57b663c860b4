"""The batched trainer against a task-by-task reference, bit for bit.

The reference below is the trainer as it was before batching: one forward
and backward per task per step, the boolean-mask sigmoid, and per-task
gradient accumulation.  The batched trainer must reproduce its losses and
cross-task cosines exactly, not merely to a tolerance.
"""

import numpy as np
import pytest

import gdps.synth as synth
from gdps.decompose import _sigmoid, activation_fn, activation_pair, assemble, make_plan
from gdps.errors import TrainingDivergence, ValidationError
from gdps.grouping import GroupingPlan
from gdps.synth import EVAL_BATCH, DIVERGENCE_GUARD, make_model, make_suite, train


def mask_sigmoid(a):
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def ref_act(name, a):
    if name == "identity":
        return a
    if name == "relu":
        return np.maximum(a, 0.0)
    if name == "silu":
        return a * mask_sigmoid(a)
    return np.tanh(a)


def ref_dact(name, a):
    if name == "identity":
        return np.ones_like(a)
    if name == "relu":
        return (a > 0.0).astype(np.float64)
    if name == "silu":
        s = mask_sigmoid(a)
        return s * (1.0 + a * (1.0 - s))
    return 1.0 - np.tanh(a) ** 2


def ref_unified_grads(trunk, head, w1, w2, act, x, y):
    b = x.shape[0]
    z = x @ trunk.T
    a = z @ w1.T
    h = ref_act(act, a)
    e = (h @ w2.T) @ head.T - y
    loss = float((e**2).sum() / (2 * b))
    dp = (e @ head) / b
    g_w2 = dp.T @ h
    g_w1 = ((dp @ w2) * ref_dact(act, a)).T @ z
    return loss, g_w1, g_w2


def ref_specialized_grads(trunk, head, su, sd, pu, pd, act, x, y):
    b = x.shape[0]
    z = x @ trunk.T
    a_s = z @ su.T
    h_s = ref_act(act, a_s)
    a_p = z @ pu.T
    h_p = ref_act(act, a_p)
    e = (h_s @ sd.T + h_p @ pd.T) @ head.T - y
    loss = float((e**2).sum() / (2 * b))
    dp = (e @ head) / b
    g_sd = dp.T @ h_s
    g_pd = dp.T @ h_p
    g_su = ((dp @ sd) * ref_dact(act, a_s)).T @ z
    g_pu = ((dp @ pd) * ref_dact(act, a_p)).T @ z
    return loss, g_su, g_sd, g_pu, g_pd


def ref_train(model, suite, mode, plan=None, steps=500, lr=0.05, batch_size=32, seed=2343):
    """Returns (losses, xtask_cosine_before, xtask_cosine_after)."""
    tasks = suite.tasks
    batch_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(23,)))
    eval_seed = np.random.SeedSequence(entropy=seed, spawn_key=(29,))
    batches = {t: suite.sample_batch(t, batch_size, batch_rng) for t in tasks}
    losses = np.zeros((max(steps, 1), len(tasks)))
    trunk, head = model.trunk, model.head

    if mode == "unified":
        w1, w2 = model.probe.w1.copy(), model.probe.w2.copy()
        act = model.activation

        def eval_xtask():
            rng = np.random.default_rng(eval_seed)
            grads = {}
            for task in tasks:
                x, y = suite.sample_batch(task, EVAL_BATCH, rng, clean=True)
                _, g1, g2 = ref_unified_grads(trunk, head, w1, w2, act, x, y)
                grads[task] = np.concatenate([g1.ravel(), g2.ravel()])
            return synth._xtask_cosines(grads)

        def run_step(step, update):
            nonlocal w1, w2
            g1_acc, g2_acc = np.zeros_like(w1), np.zeros_like(w2)
            for j, task in enumerate(tasks):
                loss, g1, g2 = ref_unified_grads(trunk, head, w1, w2, act, *batches[task])
                if not np.isfinite(loss) or loss > DIVERGENCE_GUARD:
                    raise TrainingDivergence(
                        f"unified run diverged at step {step}, task {task}: loss={loss}"
                    )
                losses[step, j] = loss
                g1_acc += g1
                g2_acc += g2
            if update:
                w1 -= lr * g1_acc / len(tasks)
                w2 -= lr * g2_acc / len(tasks)
    else:
        ffn = assemble(model.probe, plan)
        su, sd = ffn.shared_up.copy(), ffn.shared_down.copy()
        pu = [u.copy() for u in ffn.private_up]
        pd = [d.copy() for d in ffn.private_down]
        act = ffn.activation

        def grads_for(task, x, y):
            g = ffn.routing[task]
            return ref_specialized_grads(trunk, head, su, sd, pu[g], pd[g], act, x, y)

        def eval_xtask():
            rng = np.random.default_rng(eval_seed)
            grads = {}
            for task in tasks:
                x, y = suite.sample_batch(task, EVAL_BATCH, rng, clean=True)
                _, g_su, g_sd, _, _ = grads_for(task, x, y)
                grads[task] = np.concatenate([g_su.ravel(), g_sd.ravel()])
            return synth._xtask_cosines(grads)

        def run_step(step, update):
            nonlocal su, sd
            per_task = {}
            for j, task in enumerate(tasks):
                loss, *grads = grads_for(task, *batches[task])
                if not np.isfinite(loss) or loss > DIVERGENCE_GUARD:
                    raise TrainingDivergence(
                        f"specialized run diverged at step {step}, task {task}: loss={loss}"
                    )
                losses[step, j] = loss
                per_task[task] = grads
            if not update:
                return
            su_groups, sd_groups = [], []
            for g, group in enumerate(plan.grouping.groups):
                su_groups.append(np.mean([per_task[t][0] for t in group], axis=0))
                sd_groups.append(np.mean([per_task[t][1] for t in group], axis=0))
                pu[g] = pu[g] - lr * np.mean([per_task[t][2] for t in group], axis=0)
                pd[g] = pd[g] - lr * np.mean([per_task[t][3] for t in group], axis=0)
            su -= lr * np.mean(su_groups, axis=0)
            sd -= lr * np.mean(sd_groups, axis=0)

    before = eval_xtask()
    if steps == 0:
        run_step(0, update=False)
    for step in range(steps):
        run_step(step, update=True)
    return losses, before, eval_xtask()


def three_group_case(activation="silu", seed=5):
    # unequal groups (2, 1, 3 tasks) whose members interleave in task order
    suite = make_suite(6, [[0], [1, 2], [3, 4, 5]], 70.0, d_in=12, d_out=12, seed=seed)
    model = make_model(suite, d_model=16, d_ff=36, seed=seed, activation=activation)
    grouping = GroupingPlan((("t0", "t3"), ("t1",), ("t2", "t4", "t5")), method="planted", k=3)
    plan = make_plan(grouping, 0.5, 16, 36, (0.2, 0.3, 0.5), seed=seed, activation=activation)
    return suite, model, plan


def assert_same_as_reference(model, suite, mode, plan, **kw):
    log = train(model, suite, mode, plan=plan, **kw)
    losses, before, after = ref_train(model, suite, mode, plan=plan, **kw)
    assert np.array_equal(log.losses, losses)
    assert log.xtask_cosine_before == before
    assert log.xtask_cosine_after == after


@pytest.mark.parametrize("activation", ["silu", "tanh", "relu", "identity"])
@pytest.mark.parametrize("mode", ["unified", "specialized"])
def test_batched_train_matches_reference(mode, activation):
    suite, model, plan = three_group_case(activation)
    assert_same_as_reference(
        model, suite, mode, plan if mode == "specialized" else None,
        steps=40, lr=0.05, batch_size=16, seed=11,
    )


@pytest.mark.parametrize("mode", ["unified", "specialized"])
@pytest.mark.parametrize("steps,lr", [(0, 0.05), (15, 0.0)])
def test_batched_train_matches_reference_degenerate(mode, steps, lr):
    suite, model, plan = three_group_case()
    assert_same_as_reference(
        model, suite, mode, plan if mode == "specialized" else None,
        steps=steps, lr=lr, batch_size=8, seed=3,
    )


@pytest.mark.parametrize("theta", [80.0, 0.0])
def test_batched_train_matches_reference_simulate_shape(theta):
    # the `gdps simulate` shape: 4 tasks, groups {t0} and {t1, t2, t3}, batch 8
    suite = make_suite(4, [[0], [1, 2, 3]], theta, seed=601)
    model = make_model(suite, seed=601)
    plan = make_plan(suite.grouping, 0.5, 16, 32, (0.4, 0.6), seed=601)
    for mode, p in (("unified", None), ("specialized", plan)):
        assert_same_as_reference(model, suite, mode, p, steps=100, lr=0.05, batch_size=8, seed=601)


@pytest.mark.parametrize("mode", ["unified", "specialized"])
def test_divergence_message_matches_reference(mode):
    suite, model, plan = three_group_case()
    plan = plan if mode == "specialized" else None
    with pytest.raises(TrainingDivergence) as want:
        ref_train(model, suite, mode, plan=plan, steps=300, lr=8.0, batch_size=8, seed=1)
    with pytest.raises(TrainingDivergence) as got:
        train(model, suite, mode, plan=plan, steps=300, lr=8.0, batch_size=8, seed=1)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "step_losses,first",
    [([1.0, np.inf, np.nan, 2e6], "t1"), ([1.0, 1.0, 1.0, np.nan], "t3"),
     ([2e6, 1.0, np.inf, 1.0], "t0")],
)
def test_divergence_guard_names_first_task_in_order(monkeypatch, step_losses, first):
    suite = make_suite(4, [[0], [1, 2, 3]], 80.0, seed=1)
    model = make_model(suite, seed=1)
    real_step = synth._routed_step
    calls = []

    def fake_step(z, y, *args):
        losses, grads = real_step(z, y, *args)
        calls.append(None)
        if len(calls) == 3:  # eval, step 0, step 1
            losses = np.array(step_losses).reshape(losses.shape)  # (1 run, 4 tasks)
        return losses, grads

    monkeypatch.setattr(synth, "_routed_step", fake_step)
    with pytest.raises(TrainingDivergence, match=f"diverged at step 1, task {first}:"):
        train(model, suite, "unified", steps=5, lr=0.05, seed=1)


def test_sigmoid_bit_identical_to_mask_form():
    grid = np.concatenate([
        np.linspace(-800.0, 800.0, 160_001),
        np.geomspace(1e-300, 800.0, 2001),
        -np.geomspace(1e-300, 800.0, 2001),
        [0.0, -0.0, 5e-324, -5e-324],
    ])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _sigmoid(grid)
        want = mask_sigmoid(grid)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name", ["identity", "relu", "silu", "tanh"])
def test_activation_pair_matches_separate_forms(name):
    a = np.random.default_rng(0).standard_normal((3, 5, 7)) * 4.0
    h, dh = activation_pair(name)(a)
    assert np.array_equal(h, ref_act(name, a))
    assert np.array_equal(h, activation_fn(name)(a))
    assert np.array_equal(dh, ref_dact(name, a))


def test_negative_steps_rejected():
    suite = make_suite(2, [[0], [1]], 40.0, seed=3)
    with pytest.raises(ValidationError, match="steps"):
        train(make_model(suite, seed=3), suite, "unified", steps=-1)
