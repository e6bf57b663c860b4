"""Desk-scale synthetic multi-task problems with planted gradient conflict.

Targets are rank-one linear maps y = (v0 . x) * u_t: every task reads the
same input direction v0 but writes along its own output direction u_t.
Group base directions share an exact pairwise cosine cos(theta); task
directions jitter around their group base inside a small cone, with jitter
components kept orthogonal to every base so the planted angles survive.
This makes gradient geometry controllable enough to assert tolerances on
measured similarities.

The toy model is trunk -> probe FFN (up, activation, down) -> head, with
trunk and head frozen semi-orthogonal maps so they preserve angles; only the
probe block is analyzed, decomposed, and trained.  One closed-form backward,
`_routed_step`, serves training, the alignment probe and gradient collection,
which keeps the finite-difference oracle in the test suite tight.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bundle import GradientBundle, GradientMatrix
from .decompose import DecompositionPlan, UnifiedFfnWeights, assemble, routed_forward
from .errors import TrainingDivergence, ValidationError
from .grouping import GroupingPlan
from .linalg import unit_rows

PROBE_LAYER = "probe"
SCALE_JITTER = 0.1  # sd of a planted row's scale around 1
INIT_SCALE = 0.3  # probe FFN weights are INIT_SCALE / sqrt(fan_in) times N(0, 1)


def _orthonormal_columns(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    if n > dim:
        raise ValidationError(f"cannot fit {n} orthonormal directions in dimension {dim}")
    q, r = np.linalg.qr(rng.standard_normal((dim, n)))
    return q * np.sign(np.diag(r))


def equiangular_directions(n: int, cos_pairwise: float, dim: int, rng) -> np.ndarray:
    """n unit vectors in R^dim with every pairwise cosine equal to cos_pairwise."""
    if n == 1:
        frame = _orthonormal_columns(dim, 1, rng)
        return frame.T
    if cos_pairwise < 0:
        if n != 2:
            raise ValidationError("negative pairwise cosine only supported for 2 directions")
        frame = _orthonormal_columns(dim, 2, rng)
        u0 = frame[:, 0]
        u1 = cos_pairwise * u0 + np.sqrt(1 - cos_pairwise**2) * frame[:, 1]
        return np.stack([u0, u1])
    if not 0 <= cos_pairwise <= 1:
        raise ValidationError(f"pairwise cosine {cos_pairwise} outside [-1, 1]")
    frame = _orthonormal_columns(dim, n + 1, rng)
    shared = frame[:, 0]
    out = np.empty((n, dim))
    for i in range(n):
        out[i] = np.sqrt(cos_pairwise) * shared + np.sqrt(1 - cos_pairwise) * frame[:, i + 1]
    return out


def _normalize_grouping(grouping, tasks) -> GroupingPlan:
    if isinstance(grouping, GroupingPlan):
        plan = GroupingPlan(grouping.groups, method="planted", k=grouping.k)
    else:
        groups = []
        for g in grouping:
            groups.append(tuple(tasks[i] if isinstance(i, (int, np.integer)) else str(i) for i in g))
        plan = GroupingPlan(tuple(tuple(sorted(g)) for g in groups), method="planted", k=len(groups))
    plan.validate(tasks)
    return plan


def _planted_directions(
    plan: GroupingPlan, tasks, theta_deg: float, spread_deg: float, dim: int, rng
) -> dict:
    n_groups = len(plan.groups)
    n_tasks = len(tasks)
    need = 1 + n_groups + n_tasks
    if dim < need:
        raise ValidationError(
            f"dimension {dim} too small for {n_groups} groups + {n_tasks} tasks "
            f"(need >= {need})"
        )
    c = float(np.cos(np.radians(theta_deg)))
    bases = equiangular_directions(n_groups, c, dim, rng)
    # Jitter directions orthogonal to every base so cross-group angles hold.
    qb = np.linalg.qr(bases.T)[0]
    raw = rng.standard_normal((dim, n_tasks))
    raw -= qb @ (qb.T @ raw)
    jitter, r = np.linalg.qr(raw)
    jitter = jitter * np.sign(np.diag(r))
    half_spread = np.radians(spread_deg) / 2.0
    out = {}
    for i, task in enumerate(tasks):
        g = plan.group_of(task)
        alpha = rng.uniform(0.0, half_spread) if half_spread > 0 else 0.0
        out[task] = np.cos(alpha) * bases[g] + np.sin(alpha) * jitter[:, i]
    return out


def planted_bundle(
    n_tasks: int,
    grouping,
    theta_deg: float,
    d: int,
    m: int,
    seed: int,
    spread_deg: float = 5.0,
    layer: str = PROBE_LAYER,
    task_names=None,
) -> GradientBundle:
    """Gradient bundle whose rows are planted directions times positive scales.

    Every mean gradient is exactly proportional to its task direction, so
    measured similarities equal the planted cosines.
    """
    tasks = list(task_names) if task_names else [f"t{i}" for i in range(n_tasks)]
    if len(tasks) != n_tasks:
        raise ValidationError(f"{len(tasks)} names for {n_tasks} tasks")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    plan = _normalize_grouping(grouping, tasks)
    dirs = _planted_directions(plan, tasks, theta_deg, spread_deg, d, rng)
    matrices = []
    for task in tasks:
        scales = np.abs(1.0 + SCALE_JITTER * rng.standard_normal(m))
        matrices.append(GradientMatrix(task, layer, scales[:, None] * dirs[task][None, :]))
    return GradientBundle.from_matrices(matrices)


@dataclass(frozen=True)
class SyntheticSuite:
    """Reproducible multi-task regression problem with planted structure."""

    tasks: tuple[str, ...]
    grouping: GroupingPlan
    theta_deg: float
    d_in: int
    d_out: int
    seed: int
    noise: float
    spread_deg: float
    v0: np.ndarray = field(repr=False)
    directions: dict = field(repr=False)

    def params_dict(self) -> dict:
        """Everything needed to rebuild this suite with make_suite."""
        return {
            "tasks": list(self.tasks),
            "grouping": self.grouping.to_dict(),
            "theta": self.theta_deg,
            "d_in": self.d_in,
            "d_out": self.d_out,
            "seed": self.seed,
            "noise": self.noise,
            "spread": self.spread_deg,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.params_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def sample_batch(self, task: str, size: int, rng: np.random.Generator, clean: bool = False):
        """Inputs and targets for one task; clean=True drops the target noise."""
        if task not in self.tasks:
            raise ValidationError(f"unknown task {task!r}")
        x = rng.standard_normal((size, self.d_in))
        y = (x @ self.v0)[:, None] * self.directions[task][None, :]
        if self.noise > 0 and not clean:
            y = y + self.noise * rng.standard_normal((size, self.d_out))
        return x, y


def make_suite(
    n_tasks: int,
    grouping,
    theta_deg: float,
    d_in: int = 8,
    d_out: int = 8,
    seed: int = 2343,
    noise: float = 0.05,
    spread_deg: float = 5.0,
) -> SyntheticSuite:
    """Deterministic suite; cross-group target angles are theta by construction."""
    if not 0.0 <= theta_deg <= 90.0:
        raise ValidationError(f"theta must be in [0, 90] degrees, got {theta_deg}")
    if not (np.isfinite(noise) and noise >= 0):
        raise ValidationError(f"target noise must be finite and >= 0, got {noise}")
    tasks = tuple(f"t{i}" for i in range(n_tasks))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(11,)))
    plan = _normalize_grouping(grouping, tasks)
    dirs = _planted_directions(plan, tasks, theta_deg, spread_deg, d_out, rng)
    v0 = rng.standard_normal(d_in)
    v0 /= np.linalg.norm(v0)
    return SyntheticSuite(
        tasks=tasks,
        grouping=plan,
        theta_deg=theta_deg,
        d_in=d_in,
        d_out=d_out,
        seed=seed,
        noise=noise,
        spread_deg=spread_deg,
        v0=v0,
        directions=dirs,
    )


@dataclass
class ToyModel:
    """trunk -> probe FFN -> head; only the probe block is trainable."""

    trunk: np.ndarray  # d_model x d_in, frozen, orthonormal columns
    head: np.ndarray  # d_out x d_model, frozen, orthonormal rows
    probe: UnifiedFfnWeights
    activation: str = "silu"

    @property
    def d_model(self) -> int:
        return self.probe.d_model

    @property
    def d_ff(self) -> int:
        return self.probe.d_ff


def make_model(
    suite: SyntheticSuite,
    d_model: int = 16,
    d_ff: int = 32,
    seed: int = 2343,
    activation: str = "silu",
) -> ToyModel:
    if d_model < max(suite.d_in, suite.d_out):
        raise ValidationError(
            f"d_model={d_model} must be >= max(d_in, d_out) = "
            f"{max(suite.d_in, suite.d_out)} for angle-preserving trunk/head"
        )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(13,)))
    trunk = _orthonormal_columns(d_model, suite.d_in, rng)  # d_model x d_in
    head = _orthonormal_columns(d_model, suite.d_out, rng).T  # d_out x d_model
    w1 = INIT_SCALE / np.sqrt(d_model) * rng.standard_normal((d_ff, d_model))
    w2 = INIT_SCALE / np.sqrt(d_ff) * rng.standard_normal((d_model, d_ff))
    probe = UnifiedFfnWeights(d_model=d_model, d_ff=d_ff, w1=w1, w2=w2)
    return ToyModel(trunk=trunk, head=head, probe=probe, activation=activation)


def _routed_step(z: np.ndarray, y: np.ndarray, head: np.ndarray, branches, act_name: str):
    """Per-task mean-over-batch losses and gradients on stacked (..., batch, d) data.

    Any number of leading axes, (tasks,) or (runs, tasks), index the
    problems; `head` and each branch pair broadcast against them.  Entry
    [..., t] of the losses is problem t's loss and row [..., t, :] of the
    gradient is its [vec(up); vec(down)] of every branch in turn, the layout
    `_pack` gives the parameters.
    """
    p, hs, dhs = routed_forward(z, branches, act_name)
    lead, b = z.shape[:-2], z.shape[-2]
    e = p @ head.swapaxes(-1, -2) - y
    losses = (e**2).reshape(*lead, -1).sum(axis=-1) / (2 * b)
    dp = (e @ head) / b
    grads = []
    for (_, down), h_k, dh_k in zip(branches, hs, dhs):
        da = (dp @ down) * dh_k
        grads.append((da.swapaxes(-1, -2) @ z).reshape(*lead, -1))
        grads.append((dp.swapaxes(-1, -2) @ h_k).reshape(*lead, -1))
    return losses, np.concatenate(grads, axis=-1)


def _pack(weights, lead: int = 0) -> np.ndarray:
    """Copy weights into one buffer, flat past the first `lead` axes."""
    return np.concatenate([w.reshape(*w.shape[:lead], -1) for w in weights], axis=-1)


def _views(buf: np.ndarray, shapes):
    """One view of `buf` per shape, cut in turn from its last axis.

    The inverse of `_pack`: an update of the buffer moves every view.
    """
    views, lo = [], 0
    for shape in shapes:
        hi = lo + math.prod(shape)
        views.append(buf[..., lo:hi].reshape(*buf.shape[:-1], *shape))
        lo = hi
    return views


def _per_sample_probe_grads(model: ToyModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-form per-sample gradients of 1/2 ||err||^2 w.r.t. (w1, w2).

    Returns one flattened row [vec(grad w1); vec(grad w2)] per sample: the
    trainer's step with each sample as its own batch of one.
    """
    z = x @ model.trunk.T
    branches = [(model.probe.w1, model.probe.w2)]
    return _routed_step(z[:, None, :], y[:, None, :], model.head, branches, model.activation)[1]


def collect_bundle(
    model: ToyModel, suite: SyntheticSuite, n_samples: int = 32, seed: int = 2343
) -> GradientBundle:
    """Per-sample gradients of the whole probe block, as one "probe" layer per task."""
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    matrices = []
    for i, task in enumerate(suite.tasks):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(19, i)))
        x, y = suite.sample_batch(task, n_samples, rng)
        matrices.append(GradientMatrix(task, PROBE_LAYER, _per_sample_probe_grads(model, x, y)))
    return GradientBundle.from_matrices(matrices)


@dataclass
class TrainLog:
    """Per-step, per-task losses plus before/after gradient-alignment stats."""

    mode: str
    seed: int
    tasks: tuple[str, ...]
    losses: np.ndarray  # steps x tasks
    final_losses: np.ndarray
    xtask_cosine_before: dict
    xtask_cosine_after: dict
    suite_fingerprint: str
    suite_params: dict
    steps: int
    lr: float

    def final_mean_loss(self) -> float:
        return float(self.final_losses.mean())

    def to_csv(self) -> str:
        lines = ["step,task,loss"]
        for step, row in enumerate(self.losses.tolist()):
            for task, loss in zip(self.tasks, row):
                lines.append(f"{step},{task},{loss!r}")
        return "\n".join(lines) + "\n"

    def summary_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "steps": self.steps,
            "lr": self.lr,
            "suite_fingerprint": self.suite_fingerprint,
            "suite_params": self.suite_params,
            "final_losses": {t: float(v) for t, v in zip(self.tasks, self.final_losses)},
            "final_mean_loss": self.final_mean_loss(),
            "xtask_cosine_before": {t: float(v) for t, v in self.xtask_cosine_before.items()},
            "xtask_cosine_after": {t: float(v) for t, v in self.xtask_cosine_after.items()},
        }


def _xtask_cosines(task_grads: dict) -> dict:
    """Per-task mean cosine against every other task's mean gradient."""
    tasks = list(task_grads)
    unit, _ = unit_rows(np.stack([task_grads[t] for t in tasks]))
    c = unit @ unit.T
    np.fill_diagonal(c, 0.0)
    means = c.sum(axis=1) / max(len(tasks) - 1, 1)
    return {t: float(v) for t, v in zip(tasks, means)}


EVAL_BATCH = 256
DIVERGENCE_GUARD = 1e6


def _stack_batches(suite: SyntheticSuite, size: int, rng, clean: bool = False):
    """One batch per task, drawn in task order, stacked to (tasks, size, d)."""
    pairs = [suite.sample_batch(t, size, rng, clean=clean) for t in suite.tasks]
    return np.stack([x for x, _ in pairs]), np.stack([y for _, y in pairs])


@dataclass(frozen=True)
class Run:
    """One training run: a model on a suite in one mode, with its batch seed.

    `plan` is the decomposition plan of a specialized run and None for a
    unified one.
    """

    model: ToyModel
    suite: SyntheticSuite
    mode: str
    plan: DecompositionPlan | None = None
    seed: int = 2343


def _eval_batch(run: Run):
    """The run's noise-free alignment batch, (tasks, EVAL_BATCH, d), past the trunk."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=run.seed, spawn_key=(29,)))
    x, y = _stack_batches(run.suite, EVAL_BATCH, rng, clean=True)
    return x @ run.model.trunk.T, y


def _run_state(run: Run, batch_size: int):
    """One run's data and trainable weights as arrays, and its layout.

    The weights live in two flat buffers: `shared`, the weights every task
    updates, and `private`, one row per group; `order` lists the task
    indices group by group.  Runs whose layouts and array shapes agree can be
    stacked.
    """
    model, suite, tasks = run.model, run.suite, run.suite.tasks
    batch_rng = np.random.default_rng(np.random.SeedSequence(entropy=run.seed, spawn_key=(23,)))
    x, y = _stack_batches(suite, batch_size, batch_rng)
    # the trunk is frozen, so its features are computed once
    state = {"z": x @ model.trunk.T, "y": y, "head": model.head[None]}
    if run.mode == "unified":
        weights, act, private, sizes = [model.probe.w1, model.probe.w2], model.activation, [], ()
    else:
        run.plan.grouping.validate(tasks)
        ffn = assemble(model.probe, run.plan)
        weights, act = [ffn.shared_up, ffn.shared_down], ffn.activation
        private = [np.stack(ffn.private_up), np.stack(ffn.private_down)]
        sizes = tuple(len(g) for g in run.plan.grouping.groups)
        state["private"] = _pack(private, lead=1)
        state["route"] = np.array([ffn.routing[t] for t in tasks])
        state["order"] = np.array([tasks.index(t) for g in run.plan.grouping.groups for t in g])
    state["shared"] = _pack(weights)
    layout = (run.mode, act, tuple(w.shape for w in weights),
              tuple(w.shape[1:] for w in private), sizes)
    return state, layout


def _train_stack(runs, states, layout, steps: int, lr: float) -> list:
    """Train runs of one layout through one step loop, stacked on a leading axis.

    Returns, per run, its TrainLog or the TrainingDivergence that a lone run
    raises.  No arithmetic mixes two runs, so each run's numbers are those it
    gets alone; a run that diverges leaves the stack and the rest go on.
    """
    mode, act, shared_shapes, private_shapes, sizes = layout
    n = len(runs[0].suite.tasks)
    s = {key: np.stack([state[key] for state in states]) for key in states[0]}
    s["row"] = np.arange(len(runs))
    n_shared = s["shared"].shape[-1]
    bounds = np.cumsum([0, *sizes]).tolist()

    def bind(s):
        """The step and the update of stack `s`, over views of its buffers."""
        shared = tuple(w[:, None] for w in _views(s["shared"], shared_shapes))
        if not private_shapes:
            def update(grads):
                # (lr * sum) / n, not lr * mean: the order the losses are pinned to
                s["shared"] -= lr * grads.sum(axis=1) / n

            return lambda z, y: _routed_step(z, y, s["head"], [shared], act), update
        up, down = _views(s["private"], private_shapes)
        lane, route = np.arange(len(s["row"]))[:, None], s["route"]
        # one (runs, size) index array per group position keeps each run's
        # summation order, however differently the runs route
        members = [(s["order"][:, lo:hi], hi - lo) for lo, hi in zip(bounds, bounds[1:])]

        def step(z, y):
            private = (up[lane, route], down[lane, route])
            return _routed_step(z, y, s["head"], [shared, private], act)

        def update(grads):
            means = np.stack([grads[lane, idx].sum(axis=1) / size for idx, size in members], axis=1)
            s["shared"] -= lr * means[..., :n_shared].mean(axis=1)
            s["private"] -= lr * means[..., n_shared:]

        return step, update

    def eval_xtask(s):
        # Alignment on the weights every task updates, the shared buffer, one
        # run at a time: stacked, the EVAL_BATCH pass would raise peak memory.
        cosines = []
        for r, row in enumerate(s["row"]):
            z, y = _eval_batch(runs[row])
            _, grads = bind({key: v[r:r + 1] for key, v in s.items()})[0](z[None], y[None])
            tasks = runs[row].suite.tasks
            cosines.append(_xtask_cosines({t: grads[0, j, :n_shared] for j, t in enumerate(tasks)}))
        return cosines

    results = [None] * len(runs)
    losses = np.zeros((len(runs), max(steps, 1), n))
    step, update = bind(s)
    before = eval_xtask(s)
    for i in range(max(steps, 1)):
        step_losses, grads = step(s["z"], s["y"])
        losses[s["row"], i] = step_losses
        bad = ~np.isfinite(step_losses) | (step_losses > DIVERGENCE_GUARD)
        if bad.any():
            dead = bad.any(axis=1)
            for r in np.flatnonzero(dead):
                j, row = int(np.argmax(bad[r])), s["row"][r]
                results[row] = TrainingDivergence(
                    f"{mode} run diverged at step {i}, task {runs[row].suite.tasks[j]}: "
                    f"loss={float(step_losses[r, j])}"
                )
            s = {key: v[~dead] for key, v in s.items()}
            if not s["row"].size:
                return results
            grads = grads[~dead]
            step, update = bind(s)
        if steps > 0:
            update(grads)
    after = eval_xtask(s)

    for row, a in zip(s["row"], after):
        run = runs[row]
        results[row] = TrainLog(
            mode=mode,
            seed=run.seed,
            tasks=run.suite.tasks,
            losses=losses[row],
            final_losses=losses[row, -1].copy(),
            xtask_cosine_before=before[row],
            xtask_cosine_after=a,
            suite_fingerprint=run.suite.fingerprint(),
            suite_params=run.suite.params_dict(),
            steps=steps,
            lr=lr,
        )
    return results


def train_runs(runs, steps: int = 500, lr: float = 0.05, batch_size: int = 32) -> list:
    """Full-batch gradient descent of many runs, each on its probe block only.

    Each task gets one fixed training batch of `batch_size` samples drawn up
    front from its run's seed, so the loss series is deterministic and
    constant at lr=0.  Every step runs one forward/backward over all tasks'
    stacked batches, and over every run that shares the layout: mode,
    activation, weight shapes and group sizes in order.

    unified: one probe block, updated with the mean of all tasks' gradients.
    specialized: requires a plan; the shared branch moves by the mean of the
    per-group mean gradients, each private branch only by its own group's
    mean gradient.

    Alignment stats (xtask_cosine_*) are measured on the parameters every
    task updates (whole probe for unified, shared branch for specialized)
    against noise-free targets: sampled target noise would swamp the
    systematic alignment signal near convergence.

    Returns, in the order of `runs`, each run's TrainLog or the
    TrainingDivergence that `train` raises for that run alone.
    """
    for run in runs:
        if run.mode not in ("unified", "specialized"):
            raise ValidationError(f"mode must be unified|specialized, got {run.mode!r}")
        if run.mode == "specialized" and run.plan is None:
            raise ValidationError("specialized mode requires a decomposition plan")
        if run.mode == "unified" and run.plan is not None:
            raise ValidationError("unified mode does not accept a plan")
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps}")
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    if not (np.isfinite(lr) and lr >= 0):
        raise ValidationError(f"lr must be finite and >= 0, got {lr}")

    stacks = {}
    for i, run in enumerate(runs):
        state, layout = _run_state(run, batch_size)
        key = (layout, tuple((k, v.shape) for k, v in state.items()))
        stacks.setdefault(key, []).append((i, state))
    results = [None] * len(runs)
    for (layout, _), members in stacks.items():
        idx = [i for i, _ in members]
        stack = _train_stack([runs[i] for i in idx], [st for _, st in members], layout, steps, lr)
        for i, result in zip(idx, stack):
            results[i] = result
    return results


def train(
    model: ToyModel,
    suite: SyntheticSuite,
    mode: str,
    plan=None,
    steps: int = 500,
    lr: float = 0.05,
    batch_size: int = 32,
    seed: int = 2343,
) -> TrainLog:
    """One run of `train_runs`; a divergence raises TrainingDivergence."""
    result = train_runs([Run(model, suite, mode, plan, seed)], steps=steps, lr=lr,
                        batch_size=batch_size)[0]
    if isinstance(result, TrainingDivergence):
        raise result
    return result


def similarity_delta(log_a: TrainLog, log_b: TrainLog) -> dict:
    """Per-task change in final cross-task gradient cosine, specialized - unified.

    Argument order is irrelevant when the two logs have different modes; with
    equal modes, the difference is log_a - log_b.
    """
    if log_a.suite_fingerprint != log_b.suite_fingerprint:
        raise ValidationError("train logs come from different suites")
    if log_a.tasks != log_b.tasks:
        raise ValidationError("train logs disagree on task lists")
    if log_a.mode != log_b.mode:
        spec = log_a if log_a.mode == "specialized" else log_b
        uni = log_b if spec is log_a else log_a
    else:
        spec, uni = log_a, log_b
    return {
        t: spec.xtask_cosine_after[t] - uni.xtask_cosine_after[t] for t in log_a.tasks
    }
