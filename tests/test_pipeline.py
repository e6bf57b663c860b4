import collections
import dataclasses
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import gdps.bundle
from gdps import conflict, grouping, pipeline, subspace
from gdps.bundle import GradientBundle, write_bundle
from gdps.cli import build_parser, main
from gdps.errors import (
    AnalysisError,
    BundleFormatError,
    GdpsError,
    SingularCovarianceError,
    ValidationError,
)
from gdps.grouping import similarity_matrix
from gdps.pipeline import PlanOptions, stage
from gdps.synth import collect_bundle, make_model, make_suite

from conftest import tiny_bundle
from test_acceptance import SEEDS_5, _auto_plan

OPTION_NAMES = {f.name for f in dataclasses.fields(PlanOptions)}


class CountingRegistry(weakref.WeakValueDictionary):
    """A bundle's layer-stack registry that counts the stacks built into it,
    and the most of one layer that were alive at once, by layer."""

    def __init__(self):
        super().__init__()
        self.builds = collections.Counter()
        self.refs = collections.defaultdict(list)
        self.most_alive = collections.Counter()

    def __setitem__(self, layer, stack):
        self.builds[layer] += 1
        self.refs[layer].append(weakref.ref(stack))
        alive = sum(ref() is not None for ref in self.refs[layer])
        self.most_alive[layer] = max(self.most_alive[layer], alive)
        super().__setitem__(layer, stack)


def test_plan_casts_each_payload_once(rng, monkeypatch):
    # No two casts of one layer are ever alive at once, with the spectrum on
    # the side thread or inline.  Inline, the spectrum casts the plan layer
    # again after Method B let its cast go.  Method A and the CCA read the
    # stored rows.  Each other candidate layer of Method B is cast on its own.
    rows = {f"t{i}": rng.standard_normal((5, 12)) for i in range(3)}
    mats = [gdps.bundle.GradientMatrix(t, layer, g * (j + 1))
            for j, layer in enumerate(("L0", "L1", "L2")) for t, g in rows.items()]
    for floor in (0, 1 << 62):
        b = GradientBundle.from_matrices(mats)
        registry = CountingRegistry()
        object.__setattr__(b, "_stacks", registry)
        monkeypatch.setattr(pipeline, "SIDE_MIN_COST", floor)
        pipeline.plan(b, PlanOptions(layer="L1", layers="L2,L1"))
        assert registry.most_alive == {"L1": 1, "L2": 1}, floor
        assert registry.builds["L2"] == 1, floor
    assert registry.builds["L1"] == 2


@pytest.mark.parametrize("threaded", [True, False])
def test_plan_lets_the_stack_go_before_the_cca(rng, monkeypatch, threaded):
    # no one holds the layer's float64 stack while the CCA runs: on its
    # thread the spectrum is done by then, and inline it runs after the CCA
    b = tiny_bundle({f"t{i}": rng.standard_normal((6, 40)) for i in range(4)})
    spectrum_done = threading.Event()
    real_spectrum, real_cca = subspace.joint_spectrum, subspace.pairwise_cca

    def spectrum(*args):
        value = real_spectrum(*args)
        spectrum_done.set()
        return value

    def cca(bundle, layer, lam):
        assert spectrum_done.wait(timeout=30) if threaded else not spectrum_done.is_set()
        held.append(bundle._stacks.get(layer))
        return real_cca(bundle, layer, lam)

    held = []
    monkeypatch.setattr(subspace, "joint_spectrum", spectrum)
    monkeypatch.setattr(subspace, "pairwise_cca", cca)
    monkeypatch.setattr(pipeline, "SIDE_MIN_COST", 0 if threaded else 1 << 62)
    pipeline.plan(b)
    assert held == [None] and spectrum_done.is_set()


@pytest.mark.parametrize("threaded", [True, False])
def test_plan_runs_one_thread_beside_the_caller(rng, monkeypatch, threaded):
    # from the floor up the spectrum runs on that thread, which the CCA waits
    # for; below it the spectrum runs on the caller, after the CCA
    b = tiny_bundle({f"t{i}": rng.standard_normal((6, 40)) for i in range(4)})
    started, spectrum_ran_on = [], []
    spectrum_done = threading.Event()
    real_start, real_spectrum, real_cca = (threading.Thread.start, subspace.joint_spectrum,
                                           subspace.pairwise_cca)

    def start(thread):
        started.append(thread)
        real_start(thread)

    def spectrum(*args):
        spectrum_ran_on.append(threading.current_thread())
        value = real_spectrum(*args)
        spectrum_done.set()
        return value

    def cca(*args):
        assert spectrum_done.wait(timeout=30) if threaded else not spectrum_done.is_set()
        return real_cca(*args)

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(subspace, "joint_spectrum", spectrum)
    monkeypatch.setattr(subspace, "pairwise_cca", cca)
    monkeypatch.setattr(pipeline, "SIDE_MIN_COST", 0 if threaded else 1 << 62)
    pipeline.plan(b)
    assert len(started) == 1 and not started[0].is_alive()
    assert spectrum_ran_on == [started[0] if threaded else threading.current_thread()]


def test_side_thread_floor_splits_the_benchmark_jobs(rng):
    # the spectrum's cost from the rows x columns of the plan layer's stack
    # (the same either way up), and a purity product's from a task's rows x
    # the later tasks' rows x columns: plan-wide's 16 tasks x 64 rows by
    # 4096 columns and plan-deep's 4 x 64 by 8192 offer both jobs above the
    # floor; simulate's 4 x 32 by 1024 offers both below it
    b = tiny_bundle({t: rng.standard_normal((2, 3)) for t in "ab"})

    def taken(cost):  # by a side thread not started, its slot empty
        return pipeline.SideThread(b).hand_off(lambda: None, cost) is not None

    spectrum = subspace.spectrum_cost
    assert spectrum(16 * 64, 4096) == spectrum(4096, 16 * 64)
    above = [spectrum(16 * 64, 4096), spectrum(4 * 64, 8192), 64 * 15 * 64 * 4096,
             64 * 3 * 64 * 8192]
    below = [spectrum(4 * 32, 1024), 32 * 3 * 32 * 1024]
    assert [taken(cost) for cost in above + below] == [True] * 4 + [False] * 2


def test_concurrent_plans_share_one_bundle(rng, monkeypatch):
    # plans on six threads, each spectrum on its plan's side thread, fetch and drop the
    # same layer's stack through one registry under frequent thread switches
    b = tiny_bundle({f"t{i}": rng.standard_normal((6, 40)) for i in range(4)})
    monkeypatch.setattr(pipeline, "SIDE_MIN_COST", 0)

    def result():
        report = pipeline.plan(b)[1].to_dict()
        return {key: report[key] for key in ("similarity", "conflict", "subspace", "plan")}

    want = result()
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=lambda: got.extend(result() for _ in range(3)))
                   for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 18


def _subparser(name):
    return build_parser()._subparsers._group_actions[0].choices[name]


@pytest.mark.parametrize("theta,spread", [(80.0, 5.0), (0.0, 0.0)])
def test_plan_equals_acceptance_reference(theta, spread):
    # the criterion-8 suites; _auto_plan composes the methods independently
    for seed in SEEDS_5:
        suite = make_suite(4, [[0], [1, 2, 3]], theta, seed=seed, noise=0.05, spread_deg=spread)
        model = make_model(suite, seed=seed)
        bundle = collect_bundle(model, suite, n_samples=32, seed=seed)
        options = PlanOptions(seed=seed, k_groups=len(suite.grouping.groups),
                              d_model=model.d_model, d_ff=model.d_ff)
        plan, report = pipeline.plan(bundle, options)
        assert plan.to_dict() == _auto_plan(model, suite, seed).to_dict()
        assert report.plan is plan
        assert report.bundle_fingerprint == bundle.fingerprint()


def test_plan_options_have_one_field_per_plan_flag():
    flags = {a.dest for a in _subparser("plan")._actions} - {"help", "bundle", "out"}
    assert flags == OPTION_NAMES


@pytest.mark.parametrize("argv", [
    ["plan", "--bundle", "b", "--out", "o"],
    ["simulate", "--theta", "80", "--out", "o"],
])
def test_flag_defaults_come_from_plan_options(argv):
    args = vars(build_parser().parse_args(argv))
    shared = OPTION_NAMES & set(args)
    assert len(shared) >= 8
    for name in shared:
        assert args[name] == getattr(PlanOptions(), name), name
    if argv[0] == "simulate":
        assert args["seeds"] == str(PlanOptions().seed)


ACT = ("identity", "relu", "silu", "tanh")
NNI = "_non_negative_int"
BUNDLE_OUT = {("--bundle", "bundle", None, None, None, True),
              ("--out", "out", None, None, None, True)}
SEED = ("--seed", "seed", 2343, NNI, None, False)
# every subcommand's options: (flag, dest, default, type, choices, required)
PARSER = {
    "inspect": {("--bundle", "bundle", None, None, None, True),
                ("--out", "out", None, None, None, False)},
    "group": BUNDLE_OUT | {SEED, ("--layer", "layer", None, None, None, False),
                           ("--k-groups", "k_groups", 2, "int", None, False)},
    "conflict": BUNDLE_OUT | {("--layers", "layers", None, None, None, False),
                              ("--thresholds", "thresholds", "0.05,0.15", None, None, False)},
    "subspace": BUNDLE_OUT | {
        ("--layer", "layer", None, None, None, False),
        ("--top-k", "top_k", 10, "int", None, False),
        ("--lambda", "lam", 0.001, "float", None, False),
        ("--normalize-rows", "normalize_rows", False, None, None, False)},
    "plan": BUNDLE_OUT | {
        SEED, ("--layer", "layer", None, None, None, False),
        ("--layers", "layers", None, None, None, False),
        ("--k-groups", "k_groups", 2, "int", None, False),
        ("--thresholds", "thresholds", "0.05,0.15", None, None, False),
        ("--top-k", "top_k", 10, "int", None, False),
        ("--lambda", "lam", 0.001, "float", None, False),
        ("--normalize-rows", "normalize_rows", False, None, None, False),
        ("--noise", "noise", 0.0001, "float", None, False),
        ("--d-model", "d_model", 16, "int", None, False),
        ("--d-ff", "d_ff", 32, "int", None, False),
        ("--activation", "activation", "silu", None, ACT, False),
        ("--private-rank", "private_rank", 0, NNI, None, False),
        ("--ratio", "ratio", None, "float", None, False),
        ("--cca-noise-coupling", "cca_noise_coupling", False, None, None, False)},
    "decompose": {
        ("--w1", "w1", None, None, None, True), ("--w2", "w2", None, None, None, True),
        ("--plan", "plan", None, None, None, True), ("--out", "out", None, None, None, True),
        ("--noise", "noise", None, "float", None, False),
        ("--seed", "seed", None, NNI, None, False),
        ("--private-rank", "private_rank", 0, NNI, None, False)},
    "simulate": {
        ("--theta", "theta", None, "float", None, True),
        ("--tasks", "tasks", 4, "int", None, False),
        ("--groups", "groups", "0|1,2,3", None, None, False),
        ("--steps", "steps", 500, "int", None, False),
        ("--lr", "lr", 0.05, "float", None, False),
        ("--batch-size", "batch_size", 8, "int", None, False),
        ("--samples", "samples", 32, "int", None, False),
        ("--seeds", "seeds", "2343", None, None, False),
        ("--mode", "mode", "both", None, ("unified", "specialized", "both"), False),
        ("--thresholds", "thresholds", "0.05,0.15", None, None, False),
        ("--top-k", "top_k", 10, "int", None, False),
        ("--noise", "noise", 0.0001, "float", None, False),
        ("--d-model", "d_model", 16, "int", None, False),
        ("--d-ff", "d_ff", 32, "int", None, False),
        ("--activation", "activation", "silu", None, ACT, False),
        ("--private-rank", "private_rank", 0, NNI, None, False),
        ("--target-noise", "target_noise", 0.05, "float", None, False),
        ("--out", "out", None, None, None, True)},
    "report": {
        ("--inputs", "inputs", None, None, None, True),
        ("--format", "format", "md", None, ("json", "md", "csv"), False),
        ("--out", "out", None, None, None, True)},
}


def test_every_subcommand_parses_to_the_pinned_options():
    parsers = build_parser()._subparsers._group_actions[0].choices
    assert set(parsers) == set(PARSER)
    for name, parser in parsers.items():
        options = {("/".join(a.option_strings), a.dest, a.default,
                    getattr(a.type, "__name__", a.type), a.choices and tuple(a.choices),
                    a.required)
                   for a in parser._actions if a.dest != "help"}
        assert options == PARSER[name], name


def test_report_flags_echo_every_option():
    suite = make_suite(4, [[0], [1, 2, 3]], 80.0, seed=5)
    bundle = collect_bundle(make_model(suite, seed=5), suite, seed=5)
    _, report = pipeline.plan(bundle, PlanOptions(seed=5, ratio=0.5))
    assert set(report.flags) == OPTION_NAMES - {"lam"} | {"lambda"}
    assert report.flags["layer"] == bundle.layers[0]
    assert report.flags["layers"] == ",".join(bundle.layers)
    assert report.flags["ratio"] == 0.5 and report.plan.shared_ratio == 0.5
    assert any("forced by flag" in w for w in report.warnings)


@pytest.mark.parametrize("error", [
    ValidationError, BundleFormatError, AnalysisError, SingularCovarianceError,
])
def test_stage_prefixes_and_keeps_type(error):
    with pytest.raises(error) as info:
        with stage("conflict"):
            raise error("boom")
    assert type(info.value) is error
    assert str(info.value) == "[stage: conflict] boom"
    assert isinstance(info.value.__cause__, error) and str(info.value.__cause__) == "boom"


def test_stage_leaves_other_errors_alone():
    with pytest.raises(KeyError) as info:
        with stage("grouping"):
            raise KeyError("x")
    assert not isinstance(info.value, GdpsError) and info.value.__cause__ is None


def _write_stage_bundle(path):
    suite = make_suite(4, [[0], [1, 2, 3]], 80.0, seed=5)
    write_bundle(collect_bundle(make_model(suite, seed=5), suite, seed=5), path)


def _fail_after(seconds, error, message="boom"):
    def fail(*args, **kwargs):
        time.sleep(seconds)
        raise error(message)
    return fail


def _hold_the_hash(monkeypatch, until):
    """Hold each step of every bundle hash until the event `until` is set.

    Returns the list that records, for each step taken, whether `until` was
    set by then.
    """
    real_steps = GradientBundle.fingerprint_steps
    taken = []

    def steps(bundle):
        for h in real_steps(bundle):
            taken.append(until.wait(timeout=30 if all(taken) else 0))
            yield h

    monkeypatch.setattr(GradientBundle, "fingerprint_steps", steps)
    return taken


STAGE_BUNDLE_STEPS = 5  # the manifest, then the entries of 4 tasks at one layer


@pytest.mark.parametrize("name, module, function, error, prefix, rc", [
    ("grouping", grouping, "similarity_matrix", ValidationError, "error", 1),
    ("conflict", conflict, "conflict_report", AnalysisError, "analysis error", 2),
    ("subspace", subspace, "joint_spectrum", SingularCovarianceError, "analysis error", 2),
    ("subspace", subspace, "pairwise_cca", SingularCovarianceError, "analysis error", 2),
])
def test_failing_stage_outlives_no_hash_thread(tmp_path, capsys, monkeypatch,
                                              name, module, function, error, prefix, rc):
    # the hash takes no step until the stage has failed: plan waits for
    # every step before it returns
    _write_stage_bundle(tmp_path / "b")
    failed = threading.Event()
    taken = _hold_the_hash(monkeypatch, failed)

    def fail(*args, **kwargs):
        failed.set()
        raise error("boom")

    monkeypatch.setattr(pipeline, "SIDE_MIN_COST", 0)  # the spectrum on its thread too
    monkeypatch.setattr(module, function, fail)
    before = threading.active_count()
    assert main(["plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "o")]) == rc
    assert capsys.readouterr().err == f"{prefix}: [stage: {name}] boom\n"
    assert threading.active_count() == before
    assert taken == [True] * STAGE_BUNDLE_STEPS


def test_a_handed_off_product_that_raises_is_the_conflict_stage_error(tmp_path, capsys,
                                                                      monkeypatch):
    # the hash is held until Method B hands off its largest product, and the
    # thread runs it before Method B runs its others
    _write_stage_bundle(tmp_path / "b")
    handed, started = threading.Event(), threading.Event()
    taken = _hold_the_hash(monkeypatch, handed)
    real_hand_off = pipeline.SideThread.hand_off
    ran_on = []

    def product():
        ran_on.append(threading.current_thread())
        started.set()
        raise AnalysisError("product failed")

    def hand_off(self, job, cost):
        collect = real_hand_off(self, product, cost)
        if collect is not None:  # not the spectrum, which costs too little
            handed.set()
            assert started.wait(timeout=30)
        return collect

    monkeypatch.setattr(pipeline.SideThread, "hand_off", hand_off)
    monkeypatch.setattr(pipeline, "SIDE_MIN_COST", 1)
    monkeypatch.setattr(subspace, "spectrum_cost", lambda rows, cols: 0)
    before = threading.active_count()
    assert main(["plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "analysis error: [stage: conflict] product failed\n"
    assert threading.active_count() == before
    assert len(ran_on) == 1 and ran_on[0] is not threading.current_thread()
    assert taken == [True] * STAGE_BUNDLE_STEPS
    assert not (tmp_path / "o").exists()


def _job_on(array, started=None):
    """A job that reads `array` and returns the thread it ran on."""
    def job():
        if started is not None:
            started.set()
        return threading.current_thread(), float(array.sum())
    return job


AT_FLOOR = pipeline.SIDE_MIN_COST  # the cost of a job that the side thread takes


def test_the_hash_runs_one_job_between_entries_then_ends(rng, monkeypatch):
    b = tiny_bundle({f"t{i}": rng.standard_normal((3, 8)) for i in range(4)})
    want = b.fingerprint()
    handed, started = threading.Event(), threading.Event()
    taken = _hold_the_hash(monkeypatch, handed)
    before = threading.active_count()
    with pipeline.SideThread(b) as side:
        collect = side.hand_off(_job_on(np.ones(5), started), AT_FLOOR)
        assert side.hand_off(_job_on(np.ones(6)), AT_FLOOR) is None  # one job at a time
        handed.set()
        assert started.wait(timeout=30)
        ran_on, total = collect()
        assert ran_on is not threading.current_thread() and total == 5.0
        deadline = time.monotonic() + 30  # it ends with the hash, told nothing
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before
        assert side.hand_off(_job_on(np.ones(7)), AT_FLOOR) is None  # the caller runs it
        assert side.fingerprint() == want
    assert taken == [True] * 5


def test_a_job_taken_back_runs_on_the_caller_and_lets_go_of_its_operands(rng, monkeypatch):
    b = tiny_bundle({f"t{i}": rng.standard_normal((3, 8)) for i in range(4)})
    want = b.fingerprint()
    collected = threading.Event()
    taken = _hold_the_hash(monkeypatch, collected)
    operands = np.ones(4)
    alive = weakref.ref(operands)
    with pipeline.SideThread(b) as side:
        collect = side.hand_off(_job_on(operands), AT_FLOOR)
        del operands
        assert collect() == (threading.current_thread(), 4.0)
        assert alive() is None  # neither the thread nor the job holds them
        collected.set()
        assert side.fingerprint() == want
    assert taken == [True] * 5


def test_a_job_run_on_the_thread_lets_go_of_its_operands(rng, monkeypatch):
    # the thread runs the job after the manifest, then waits before the first
    # entry: by then neither the job nor the thread holds the operands
    b = tiny_bundle({f"t{i}": rng.standard_normal((3, 8)) for i in range(3)})
    want = b.fingerprint()
    at_entry, release = threading.Event(), threading.Event()
    real_steps = GradientBundle.fingerprint_steps

    def steps(bundle):
        entries = real_steps(bundle)
        yield next(entries)
        at_entry.set()
        release.wait(timeout=30)
        yield from entries

    monkeypatch.setattr(GradientBundle, "fingerprint_steps", steps)
    operands = np.ones(4)
    alive = weakref.ref(operands)
    side = pipeline.SideThread(b)
    collect = side.hand_off(_job_on(operands), AT_FLOOR)
    del operands
    with side:
        try:
            assert at_entry.wait(timeout=30)
            ran_on, total = collect()
            assert ran_on is not threading.current_thread() and total == 4.0
            assert alive() is None
        finally:
            release.set()
        assert side.fingerprint() == want


def test_the_slot_frees_once_a_job_has_run(rng, monkeypatch):
    # the thread runs the first job after the manifest, then waits before the
    # first entry: it takes a second job before the first is collected, and
    # collecting the first leaves the second for the thread
    b = tiny_bundle({f"t{i}": rng.standard_normal((3, 8)) for i in range(3)})
    want = b.fingerprint()
    at_entry, release, started = threading.Event(), threading.Event(), threading.Event()
    real_steps = GradientBundle.fingerprint_steps

    def steps(bundle):
        entries = real_steps(bundle)
        yield next(entries)
        at_entry.set()
        release.wait(timeout=30)
        yield from entries

    monkeypatch.setattr(GradientBundle, "fingerprint_steps", steps)
    side = pipeline.SideThread(b)
    first = side.hand_off(_job_on(np.ones(2)), AT_FLOOR)
    with side:
        try:
            assert at_entry.wait(timeout=30)
            second = side.hand_off(_job_on(np.ones(3), started), AT_FLOOR)
            assert second is not None
            assert first()[1] == 2.0
            assert side.hand_off(_job_on(np.ones(4)), AT_FLOOR) is None  # the second waits
        finally:
            release.set()
        assert started.wait(timeout=30)
        ran_on, total = second()
        assert ran_on is not threading.current_thread() and total == 3.0
        assert side.fingerprint() == want


def test_a_failed_hash_takes_no_more_jobs(rng, monkeypatch):
    b = tiny_bundle({f"t{i}": rng.standard_normal((3, 8)) for i in range(3)})

    def steps(bundle):
        yield None
        raise BundleFormatError("payload gone")

    monkeypatch.setattr(GradientBundle, "fingerprint_steps", steps)
    with pipeline.SideThread(b) as side:
        with pytest.raises(BundleFormatError, match="payload gone"):
            side.fingerprint()
        assert side.hand_off(_job_on(np.ones(2)), AT_FLOOR) is None


@pytest.mark.parametrize("threaded", [True, False])
@pytest.mark.parametrize("failing, name", [
    (("similarity_matrix", "joint_spectrum"), "grouping"),
    (("conflict_report", "joint_spectrum"), "conflict"),
    (("joint_spectrum", "pairwise_cca"), "subspace"),
], ids=["grouping", "conflict", "subspace"])
def test_first_error_in_stage_order_wins(tmp_path, capsys, monkeypatch, threaded, failing, name):
    # a spectrum still running when an earlier stage fails, or failing after
    # the CCA did, is reported as if the stages ran one after another
    _write_stage_bundle(tmp_path / "b")
    errors = {"similarity_matrix": ValidationError, "conflict_report": AnalysisError,
              "joint_spectrum": SingularCovarianceError, "pairwise_cca": AnalysisError}
    modules = {"similarity_matrix": grouping, "conflict_report": conflict,
               "joint_spectrum": subspace, "pairwise_cca": subspace}
    monkeypatch.setattr(pipeline, "SIDE_MIN_COST", 0 if threaded else 1 << 62)
    for function in failing:
        delay = 0.3 if function == "joint_spectrum" else 0.0
        monkeypatch.setattr(modules[function], function,
                            _fail_after(delay, errors[function], f"{function} failed"))
    before = threading.active_count()
    rc = main(["plan", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "o")])
    prefix = "error" if errors[failing[0]] is ValidationError else "analysis error"
    assert capsys.readouterr().err == f"{prefix}: [stage: {name}] {failing[0]} failed\n"
    assert rc == (1 if prefix == "error" else 2)
    assert threading.active_count() == before
    assert not (tmp_path / "o").exists()


def test_a_job_handed_off_before_the_thread_starts_runs_once_and_raises_on_the_caller(rng):
    # handed off before the block, as plan hands off the spectrum, the job
    # runs on the thread right after the manifest
    b = tiny_bundle({f"t{i}": rng.standard_normal((3, 8)) for i in range(3)})
    calls = []

    def job():
        calls.append(threading.current_thread())
        raise KeyError("job")

    side = pipeline.SideThread(b)
    collect = side.hand_off(job, AT_FLOOR)
    with side:
        assert side.fingerprint() == b.fingerprint()
        for _ in range(2):
            with pytest.raises(KeyError, match="job"):
                collect()
    assert len(calls) == 1
    assert calls[0] is not threading.current_thread()


def test_plan_rejects_single_task_bundle():
    suite = make_suite(2, [[0], [1]], 40.0, seed=3)
    bundle = collect_bundle(make_model(suite, seed=3), suite, seed=3)
    single = type(bundle)(bundle.tasks[:1], bundle.layers,
                          {k: v for k, v in bundle.entries.items() if k[0] == bundle.tasks[0]})
    with pytest.raises(ValidationError, match=">= 2 tasks"):
        pipeline.plan(single)


def test_zero_mean_task_is_degenerate_against_every_other_task(rng):
    # rows g_1, -g_1, g_2, -g_2, ... average to exactly zero
    g = rng.standard_normal((3, 12))
    rows = {"a": np.stack([g, -g], axis=1).reshape(6, 12)}
    rows.update({t: rng.standard_normal((6, 12)) + 1.0 for t in ("b", "c", "d")})
    bundle = tiny_bundle(rows)
    sim = similarity_matrix(bundle, "L0")
    n, i = len(bundle.tasks), bundle.tasks.index("a")
    assert np.array_equal(np.delete(sim.s[i], i), np.zeros(n - 1))
    assert np.array_equal(np.delete(sim.s[:, i], i), np.zeros(n - 1))
    assert sim.s[i, i] == 1.0
    assert sim.degenerate_count == n - 1
    _, report = pipeline.plan(bundle)
    assert f"{n - 1} degenerate (zero-norm) mean-gradient pairs" in " ".join(report.warnings)
