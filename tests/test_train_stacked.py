"""Runs trained together in one stacked step loop against lone runs, bit for bit.

`train` is the one-run case of `train_runs`, and `tests/test_train_batched.py`
pins it to a task-by-task reference; here a run's numbers must not depend on
which other runs share its stack.
"""

import numpy as np
import pytest

import gdps.pipeline as pl
import gdps.synth as synth
from gdps.cli import main
from gdps.bundle import read_json
from gdps.decompose import make_plan
from gdps.errors import TrainingDivergence
from gdps.grouping import GroupingPlan
from gdps.synth import EVAL_BATCH, Run, collect_bundle, make_model, make_suite, train, train_runs

# θ = 0 seeds whose mined plans split off t3, t1, t0 and t2 (group sizes 1, 3)
# and, for seed 12, {t0, t2} and {t1, t3} (group sizes 2, 2)
SPLITS = {1: "t3", 2: "t1", 5: "t0", 6: "t2"}
PAIRED = 12


def mined_runs(seeds, theta=0.0, activation="silu"):
    """Both modes of each seed, built as `gdps simulate` builds them."""
    runs = []
    for seed in seeds:
        suite = make_suite(4, [[0], [1, 2, 3]], theta, seed=seed)
        model = make_model(suite, seed=seed, activation=activation)
        options = pl.PlanOptions(k_groups=2, seed=seed, activation=activation)
        plan, _ = pl.plan(collect_bundle(model, suite, n_samples=32, seed=seed), options)
        runs += [Run(model, suite, "unified", None, seed), Run(model, suite, "specialized", plan, seed)]
    return runs


def lone(run, **kw):
    try:
        return train(run.model, run.suite, run.mode, plan=run.plan, seed=run.seed, **kw)
    except TrainingDivergence as exc:
        return exc


def bits(log):
    """Every number a TrainLog reports, as exact bit patterns."""
    return (log.losses.shape, log.losses.tobytes(), log.final_losses.tobytes(),
            {t: v.hex() for t, v in log.xtask_cosine_before.items()},
            {t: v.hex() for t, v in log.xtask_cosine_after.items()},
            log.summary_dict())


@pytest.fixture
def stack_sizes(monkeypatch):
    """The number of runs in each stack that `train_runs` trains."""
    sizes = []
    real = synth._train_stack

    def spy(runs, *args):
        sizes.append(len(runs))
        return real(runs, *args)

    monkeypatch.setattr(synth, "_train_stack", spy)
    return sizes


def assert_stacked_equals_lone(runs, **kw):
    stacked = train_runs(runs, **kw)
    for run, got in zip(runs, stacked):
        want = lone(run, **kw)
        assert type(got) is type(want)
        if isinstance(want, TrainingDivergence):
            assert str(got) == str(want)
        else:
            assert bits(got) == bits(want)
    return stacked


def test_differently_routed_plans_share_a_stack(stack_sizes):
    runs = mined_runs([*SPLITS, PAIRED])
    plans = [run.plan for run in runs if run.plan is not None]
    assert [p.grouping.groups[0] for p in plans[:4]] == [(t,) for t in SPLITS.values()]
    assert [len(g) for g in plans[4].grouping.groups] == [2, 2]
    assert_stacked_equals_lone(runs, steps=60, lr=0.05, batch_size=8)
    # five unified runs; four specialized with sizes (1, 3); seed 12's (2, 2) alone
    assert sorted(stack_sizes[:3]) == [1, 4, 5]


def test_group_sizes_and_widths_split_stacks(stack_sizes):
    suite = make_suite(6, [[0], [1, 2], [3, 4, 5]], 70.0, d_in=12, d_out=12, seed=5)
    model = make_model(suite, d_model=16, d_ff=36, seed=5)
    groupings = [(("t0", "t3"), ("t1",), ("t2", "t4", "t5")),
                 (("t1",), ("t0", "t3"), ("t2", "t4", "t5")),
                 (("t0", "t3"), ("t1",), ("t2", "t4", "t5"))]
    runs = []
    for i, (groups, ratio) in enumerate(zip(groupings, (0.5, 0.5, 0.25))):
        grouping = GroupingPlan(groups, method="planted", k=3)
        plan = make_plan(grouping, ratio, 16, 36, (0.2, 0.3, 0.5), seed=i)
        runs.append(Run(model, suite, "specialized", plan, seed=10 + i))
    runs.append(Run(model, suite, "specialized", runs[0].plan, seed=20))
    assert_stacked_equals_lone(runs, steps=30, lr=0.05, batch_size=8)
    # the first and last share sizes (2, 1, 3) and widths; the others stand alone
    assert sorted(stack_sizes[:3]) == [1, 1, 2]


@pytest.mark.parametrize("activation", ["identity", "relu", "silu", "tanh"])
def test_every_activation(activation):
    assert_stacked_equals_lone(mined_runs([5, 1, 3], theta=80.0, activation=activation),
                               steps=40, lr=0.05, batch_size=8)


@pytest.mark.parametrize("steps,lr", [(0, 0.05), (20, 0.0)])
def test_no_steps_and_no_learning_rate(steps, lr):
    assert_stacked_equals_lone(mined_runs([1, 5]), steps=steps, lr=lr, batch_size=8)


@pytest.mark.filterwarnings("error")
def test_a_diverging_run_leaves_the_others_alone(monkeypatch):
    runs = [run for run in mined_runs([1, 2, 5]) if run.mode == "specialized"]
    target, at_step, task = runs[1], 7, 2
    real = synth._routed_step
    calls = []

    def fake_step(z, y, head, branches, act):
        losses, grads = real(z, y, head, branches, act)
        if z.shape[-2] == EVAL_BATCH:
            return losses, grads
        calls.append(None)
        if len(calls) - 1 == at_step:
            for r in range(len(head)):
                if np.array_equal(head[r, 0], target.model.head):
                    losses[r, task] = np.inf
        return losses, grads

    monkeypatch.setattr(synth, "_routed_step", fake_step)
    stacked = train_runs(runs, steps=30, lr=0.05, batch_size=8)
    lone_logs = []
    for run in runs:
        calls.clear()
        lone_logs.append(lone(run, steps=30, lr=0.05, batch_size=8))
    assert isinstance(lone_logs[1], TrainingDivergence)
    assert str(stacked[1]) == str(lone_logs[1])
    assert str(stacked[1]) == f"specialized run diverged at step {at_step}, task t2: loss=inf"
    for i in (0, 2):
        assert bits(stacked[i]) == bits(lone_logs[i])


def test_real_divergence_matches_lone_runs():
    # at lr 2.5, in each mode's stack some of these runs diverge and others do not
    runs = mined_runs([1, 2, 5, 6], theta=80.0)
    results = assert_stacked_equals_lone(runs, steps=120, lr=2.5, batch_size=8)
    for mode in ("unified", "specialized"):
        kinds = {type(r) for run, r in zip(runs, results) if run.mode == mode}
        assert kinds == {TrainingDivergence, synth.TrainLog}


def test_simulate_logs_do_not_depend_on_the_seeds_beside_them(tmp_path, capsys):
    seeds = [1, 5, PAIRED]
    argv = ["simulate", "--theta", "0", "--steps", "50"]
    assert main([*argv, "--seeds", ",".join(map(str, seeds)), "--out", str(tmp_path / "all")]) == 0
    runs = []
    for seed in seeds:
        assert main([*argv, "--seeds", str(seed), "--out", str(tmp_path / str(seed))]) == 0
        runs += read_json(tmp_path / str(seed) / "summary.json", "summary")["runs"]
        for mode in ("unified", "specialized"):
            name = f"log_{mode}_{seed}.csv"
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / str(seed) / name).read_bytes()
    assert read_json(tmp_path / "all" / "summary.json", "summary")["runs"] == runs
