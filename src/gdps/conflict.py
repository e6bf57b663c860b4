"""Sample-level gradient conflict metrics and the shared-ratio decision rule.

Self-task similarity averages gradient cosines across sample pairs inside one
task; cross-task similarity averages them across tasks.  Their gap delta
feeds a piecewise rule that picks how much of a layer's width stays shared:

    0.75  if delta < low      (default low  = 0.05)
    0.50  if low <= delta < high
    0.25  if delta >= high    (default high = 0.15)

Purity is this toolkit's own bounded stand-in for "how benign are the
cross-task interactions": the fraction of non-degenerate cross-task sample
pairs whose cosine is >= 0.  It is labeled non-standard in every report and
decides nothing.  Delta and the shared ratio depend on the bundle, the
candidate set and the thresholds alone: on no seed, nor on the set's order.

Method B reads each layer's float64 row stack (`gdps.bundle.layer_stack`,
shared with Method C's spectrum half; only the drawn rows are cast when a
task is above `SAMPLE_CAP`) and does not normalise it.  Each task keeps
its c_t non-degenerate rows g_i (`ZERO_NORM_EPS`, the rule of `unit_rows`)
and s_t = sum_i g_i / |g_i|, one weighted row sum.  No Gram matrix is formed
for the means: with sum_{i<j} u_i.u_j = (|s_t|^2 - c_t) / 2,

    S_self_t  = (|s_t|^2 - c_t) / (c_t (c_t - 1))
    S_cross_ab = s_a.s_b / (c_a c_b)

in O(n m d), with a rounding error of a few eps in practice and about
(2m + d) eps at worst.  Purity needs each cross pair's sign, and
sign(u_a.u_b) = sign(g_a.g_b), so it takes one float64 product per task,
of its rows against those of every later task.  A product of two float32
values is exact in float64, so only the summation rounds: every sign is
exact for a cosine farther than about d * 2^-53 from 0.

Given `hand_off`, Method B offers it each layer's largest such product
with its cost in multiply-adds, runs the others itself, and runs the
offered one too when `hand_off` refuses it: `gdps plan`'s side thread runs
it between the bundle fingerprint's entries if it costs enough and the
thread's one slot is free.  The product is the same BLAS call on the same
operands wherever it runs, and the counts are integers, so no bit of a
report depends on where it ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations

import numpy as np

from . import bundle as gb
from .errors import ValidationError
from .linalg import ZERO_NORM_EPS

DEFAULT_LOW = 0.05
DEFAULT_HIGH = 0.15
# shared ratios for delta below low, in [low, high), and at or above high
RATIOS = (0.75, 0.50, 0.25)
SAMPLE_CAP = 512
DRAW_SEED = 2343  # with the task name, seeds the draw from a task above SAMPLE_CAP
DEGENERATE_WARN_FRACTION = 0.10


@dataclass(frozen=True)
class RatioThresholds:
    low: float = DEFAULT_LOW
    high: float = DEFAULT_HIGH

    def __post_init__(self):
        if not (np.isfinite(self.low) and np.isfinite(self.high) and 0 < self.low < self.high):
            raise ValidationError(
                f"thresholds need finite 0 < low < high, got {self.low}, {self.high}"
            )

    def to_dict(self) -> dict:
        return {"low": self.low, "high": self.high, "ratios": list(RATIOS)}


@dataclass(frozen=True)
class LayerConflict:
    layer: str
    s_self: float
    s_cross: float
    delta: float
    purity: float
    degenerate_pairs: int
    total_pairs: int

    def to_dict(self) -> dict:
        return {
            "layer": self.layer,
            "s_self": self.s_self,
            "s_cross": self.s_cross,
            "delta": self.delta,
            "purity": self.purity,
            "purity_definition": "fraction of non-degenerate cross-task pairs with cosine >= 0 (toolkit-defined)",
            "degenerate_pairs": self.degenerate_pairs,
            "total_pairs": self.total_pairs,
        }


@dataclass(frozen=True)
class ConflictReport:
    layers: tuple[LayerConflict, ...]
    candidate_layers: tuple[str, ...]
    delta: float
    shared_ratio: float
    thresholds: RatioThresholds
    warnings: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "layers": [lc.to_dict() for lc in self.layers],
            "candidate_layers": list(self.candidate_layers),
            "delta": self.delta,
            "shared_ratio": self.shared_ratio,
            "thresholds": self.thresholds.to_dict(),
            "warnings": list(self.warnings),
        }


def _maybe_subsample(matrix: np.ndarray, task: str) -> np.ndarray:
    """At most `SAMPLE_CAP` rows, drawn from the task name only: the same in every pair."""
    if matrix.shape[0] <= SAMPLE_CAP:
        return matrix
    task_key = int.from_bytes(task.encode("utf-8"), "little")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[DRAW_SEED, task_key]))
    pick = np.sort(rng.choice(matrix.shape[0], size=SAMPLE_CAP, replace=False))
    return matrix[pick]


@dataclass(frozen=True)
class _Task:
    """One task's rows at one layer, reduced once for every block it enters.

    `sampled` is m_t, the row count after subsampling; `count` is c_t, the
    rows that are not degenerate (norm below `ZERO_NORM_EPS`, the rule of
    `unit_rows`).
    """

    sampled: int
    count: int
    total: np.ndarray  # s_t = sum_i g_i / |g_i|


def _layer_rows(bundle, tasks, layer, need_pairs=False) -> tuple[list[_Task], np.ndarray]:
    """Each task's reduction, and its non-degenerate rows stacked task after task.

    They are the layer's shared float64 stack if every bundle task is read whole.
    """
    stored = [bundle.matrix(task, layer).rows for task in tasks]
    for task, m in zip(tasks, stored):
        if need_pairs and m < 2:
            raise ValidationError(f"task {task} has {m} sample row at layer {layer}; "
                                  "Method B needs >= 2 samples per task")
    sampled = [min(m, SAMPLE_CAP) for m in stored]
    if tuple(tasks) == bundle.tasks and sampled == stored:
        rows = gb.layer_stack(bundle, layer)
    else:
        rows = np.concatenate([_maybe_subsample(gb.sample_gradients(bundle, t, layer), t)
                               for t in tasks], dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    ok = norms >= ZERO_NORM_EPS
    if not ok.all():
        rows, norms = rows[ok], norms[ok]
    counts = [int(np.count_nonzero(k)) for k in np.split(ok, np.cumsum(sampled)[:-1])]
    cuts = np.cumsum(counts)[:-1]
    totals = [w @ r for w, r in zip(np.split(1.0 / norms, cuts), np.split(rows, cuts))]
    return [_Task(*t) for t in zip(sampled, counts, totals)], rows


def _self_mean(t: _Task) -> float:
    """Mean cosine over unordered pairs: sum_{i<j} u_i.u_j = (|s|^2 - c) / 2."""
    c = t.count
    if c < 2:
        return 0.0
    return float((t.total @ t.total - c) / (c * (c - 1)))


def _cross_mean(a: _Task, b: _Task) -> float:
    """Mean cosine over the cross product: sum_ij u_i.v_j = s_a.s_b."""
    if a.count == 0 or b.count == 0:
        return 0.0
    return float(a.total @ b.total / (a.count * b.count))


def _cross_nonneg(parts: list[_Task], rows: np.ndarray, hand_off=None) -> int:
    """How many cross-task pairs of non-degenerate rows have a cosine >= 0.

    The cosine has the sign of g_a.g_b.  Each task's rows meet the rows of
    every later task in one product.  When there are others to run
    meanwhile, the largest goes to `hand_off(job, cost)` with its
    multiply-adds; it returns a function giving the job's value, or None if
    it refuses the job.  The others are run here first.
    """
    cuts = [(end - t.count, end) for t, end in zip(parts[:-1], accumulate(t.count for t in parts))]

    def nonneg(start, end):
        return int(np.count_nonzero(rows[start:end] @ rows[end:].T >= 0.0))

    largest = int(np.argmax([(end - start) * (len(rows) - end) for start, end in cuts]))
    start, end = cuts[largest]
    collect = None
    if hand_off is not None and len(cuts) > 1:
        cost = (end - start) * (len(rows) - end) * rows.shape[1]
        collect = hand_off(lambda: nonneg(start, end), cost)
    count = sum(nonneg(*cut) for i, cut in enumerate(cuts) if collect is None or i != largest)
    return count + (collect() if collect is not None else 0)


def self_similarity(bundle: gb.GradientBundle, task: str, layer: str) -> float:
    """Mean cosine over all unordered sample pairs within one task."""
    (part,), _ = _layer_rows(bundle, [task], layer, need_pairs=True)
    return _self_mean(part)


def cross_similarity(bundle: gb.GradientBundle, task_a: str, task_b: str, layer: str) -> float:
    """Mean cosine over the full cross product of two tasks' sample rows.

    The pair is taken in name order, so swapping the arguments gives the
    same value bit for bit.
    """
    parts, _ = _layer_rows(bundle, sorted((task_a, task_b)), layer)
    return _cross_mean(*parts)


def layer_conflict(bundle: gb.GradientBundle, layer: str, hand_off=None) -> LayerConflict:
    """Per-layer S_self, S_cross, their gap delta, and cross-pair purity.

    Each task's rows, subsampled and in float64, are reduced to the sum s_t
    of their unit rows and the count c_t.  S_self and S_cross come from
    those sums (no Gram matrix), to a few eps; pair counts come from m_t
    and c_t.  Purity counts the signs of one float64
    product per task, of its rows against those of every later task; the
    largest may run on `hand_off` (see `_cross_nonneg`).
    """
    tasks = bundle.tasks
    if len(tasks) < 2:
        raise ValidationError(">= 2 tasks required for cross-task conflict analysis")

    parts, rows = _layer_rows(bundle, tasks, layer, need_pairs=True)
    pairs = list(combinations(parts, 2))

    s_self = float(np.mean([_self_mean(t) for t in parts]))
    s_cross = float(np.mean([_cross_mean(a, b) for a, b in pairs]))
    cross_valid = sum(a.count * b.count for a, b in pairs)
    valid = sum(t.count * (t.count - 1) // 2 for t in parts) + cross_valid
    total = sum(t.sampled * (t.sampled - 1) // 2 for t in parts)
    total += sum(a.sampled * b.sampled for a, b in pairs)
    purity = float(_cross_nonneg(parts, rows, hand_off) / cross_valid) if cross_valid else 1.0

    return LayerConflict(
        layer=layer,
        s_self=s_self,
        s_cross=s_cross,
        delta=s_self - s_cross,
        purity=purity,
        degenerate_pairs=total - valid,
        total_pairs=total,
    )


def _reject_repeats(layers: list) -> None:
    """A candidate layer listed twice would count twice in every mean over the set."""
    repeated = [l for i, l in enumerate(layers) if l in layers[:i]]
    if repeated:
        raise ValidationError(f"candidate layers list {repeated[0]} more than once")


def aggregate_delta(reports, candidate_layers) -> float:
    """Arithmetic mean of per-layer deltas over the candidate set."""
    candidates = list(candidate_layers)
    if not candidates:
        raise ValidationError("candidate layer set is empty")
    _reject_repeats(candidates)
    by_layer = {r.layer: r for r in reports}
    missing = [l for l in candidates if l not in by_layer]
    if missing:
        raise ValidationError(f"candidate layers missing from reports: {missing}")
    return float(np.mean([by_layer[l].delta for l in candidates]))


def _branch(delta: float, thresholds: RatioThresholds) -> int:
    """Which branch `delta` falls in: 0 below low, 1 in [low, high), 2 from high up."""
    return 0 if delta < thresholds.low else 1 if delta < thresholds.high else 2


def map_shared_ratio(delta: float, thresholds: RatioThresholds = RatioThresholds()) -> float:
    """Piecewise step rule; the middle interval is closed on the left."""
    if not np.isfinite(delta):
        raise ValidationError(f"delta must be finite, got {delta}")
    return RATIOS[_branch(delta, thresholds)]


def ratio_branch(delta: float, thresholds: RatioThresholds = RatioThresholds()) -> str:
    """Human-readable record of which branch fired, for decision traces."""
    low, high = thresholds.low, thresholds.high
    return (f"delta < {low}", f"{low} <= delta < {high}",
            f"delta >= {high}")[_branch(delta, thresholds)]


def rank_layers(bundle: gb.GradientBundle, layers=None, hand_off=None) -> list[LayerConflict]:
    """Layers sorted by delta desc, ties broken by id; purity decides nothing."""
    layers = list(layers) if layers is not None else list(bundle.layers)
    if not layers:
        raise ValidationError("rank_layers needs at least one layer")
    for l in layers:  # an unknown name, even an empty one, is named before any repeat
        bundle._check_layer(l)
    _reject_repeats(layers)
    reports = [layer_conflict(bundle, l, hand_off) for l in layers]
    return sorted(reports, key=lambda r: (-r.delta, r.layer))


def conflict_report(
    bundle: gb.GradientBundle,
    candidate_layers=None,
    thresholds: RatioThresholds = RatioThresholds(),
    seed=None,
    hand_off=None,
) -> ConflictReport:
    """Full Method-B result: ranked layers, aggregate delta, shared ratio.

    Delta averages the candidates in bundle layer order, not in the order
    given (and echoed).  `seed` is accepted and ignored.  Each layer's
    largest purity product may run on `hand_off` (see `_cross_nonneg`).
    """
    candidates = tuple(candidate_layers) if candidate_layers else tuple(bundle.layers)
    ranked = rank_layers(bundle, candidates, hand_off)
    delta = aggregate_delta(ranked, [l for l in bundle.layers if l in candidates])
    ratio = map_shared_ratio(delta, thresholds)
    warnings = []
    for lc in ranked:
        if lc.total_pairs and lc.degenerate_pairs / lc.total_pairs > DEGENERATE_WARN_FRACTION:
            warnings.append(
                f"layer {lc.layer}: {lc.degenerate_pairs}/{lc.total_pairs} "
                "gradient pairs degenerate (zero norm); means may be unreliable"
            )
    return ConflictReport(
        layers=tuple(ranked),
        candidate_layers=candidates,
        delta=delta,
        shared_ratio=ratio,
        thresholds=thresholds,
        warnings=tuple(warnings),
    )
