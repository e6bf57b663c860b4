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

`layer_conflict` scores one layer.  `conflict_report` scores each candidate
layer, ranks them and maps their mean delta to the shared ratio; its
candidates pass `check_candidates`, the one candidate rule, which `gdps
plan` and `gdps conflict` apply to `--layers` too.

Method B reads each layer's float64 row stack (`gdps.bundle.layer_stack`,
shared with Method C's spectrum half; only the drawn rows are cast when a
task is above `SAMPLE_CAP`) and neither normalises it nor drops a row.  Of
a task's m_t rows, c_t are non-degenerate (`ZERO_NORM_EPS`, the rule of
`unit_rows`), and s_t = sum_i g_i / |g_i| over them is one weighted row sum
of the task's block.  No Gram matrix is formed for the means: with
sum_{i<j} u_i.u_j = (|s_t|^2 - c_t) / 2,

    S_self_t  = (|s_t|^2 - c_t) / (c_t (c_t - 1))
    S_cross_ab = s_a.s_b / (c_a c_b)

in O(n m d), with a rounding error of a few eps in practice and about
(2m + d) eps at worst.  Purity needs each cross pair's sign, and
sign(u_a.u_b) = sign(g_a.g_b), so it takes one float64 product per task,
of its m_t rows against those of every later task.  A product of two
float32 values is exact in float64, so only the summation rounds: every
sign is exact for a cosine farther than about d * 2^-53 from 0.  A
degenerate row is all zeros, so its products are exactly +-0 and count as
>= 0: the sum m_a m_b - sum c_a c_b of such pairs is then subtracted.

Given `hand_off`, `gdps plan`'s side thread, Method B offers it every such
product (`_cross_nonneg`).  Wherever one runs, it is the same BLAS call on
the same operands, and the counts are integers, so no bit of a report
depends on where it ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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
    """One task's rows at one layer, reduced once for every block it enters:
    m_t rows after subsampling, c_t of them not degenerate."""

    sampled: int
    count: int
    total: np.ndarray  # s_t = sum_i g_i / |g_i|


def _layer_rows(bundle, layer) -> tuple[list[_Task], np.ndarray]:
    """Each task's reduction, and the rows it was reduced from, task after task.

    The rows are the layer's shared float64 stack, or the drawn rows
    concatenated if a task is above `SAMPLE_CAP`; none is dropped.  A task
    with a degenerate row copies its valid rows out of its block to reduce.
    """
    stored = [bundle.matrix(task, layer).rows for task in bundle.tasks]
    for task, m in zip(bundle.tasks, stored):
        if m < 2:
            raise ValidationError(f"task {task} has {m} sample row at layer {layer}; "
                                  "Method B needs >= 2 samples per task")
    sampled = [min(m, SAMPLE_CAP) for m in stored]
    if sampled == stored:
        rows = gb.layer_stack(bundle, layer)
    else:
        rows = np.concatenate([_maybe_subsample(gb.sample_gradients(bundle, t, layer), t)
                               for t in bundle.tasks], dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    cuts = np.cumsum(sampled)[:-1]
    parts = []
    for m, block, norm in zip(sampled, np.split(rows, cuts), np.split(norms, cuts)):
        ok = norm >= ZERO_NORM_EPS
        if not ok.all():
            block, norm = block[ok], norm[ok]
        parts.append(_Task(m, len(norm), (1.0 / norm) @ block))
    return parts, rows


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
    """How many cross-task pairs of stored rows have a product g_a.g_b >= 0,
    a degenerate row's pairs (+-0) among them.

    Each task's block of m_t rows meets the rows of every later task in one
    product, offered to `hand_off(job, cost)` at its multiply-adds, costliest
    first; what it returns is called for the count, cheapest first.
    """
    n, d = rows.shape
    ends = accumulate(t.sampled for t in parts)
    offers = sorted(((t.sampled * (n - end) * d, end - t.sampled, end)
                     for t, end in zip(parts[:-1], ends)), reverse=True)
    offer = hand_off or (lambda job, cost: job)

    def nonneg(start, end):
        return int(np.count_nonzero(rows[start:end] @ rows[end:].T >= 0.0))

    jobs = [offer(partial(nonneg, start, end), cost) for cost, start, end in offers]
    return sum(job() for job in reversed(jobs))


def layer_conflict(bundle: gb.GradientBundle, layer: str, hand_off=None) -> LayerConflict:
    """Per-layer S_self, S_cross, their gap delta, and cross-pair purity.

    S_self and S_cross come from each task's s_t and c_t (no Gram matrix),
    pair counts from m_t and c_t.  Purity takes the signs of the products
    of the stored rows, each offered to `hand_off` (`_cross_nonneg`),
    less the sum m_a m_b - sum c_a c_b of pairs that touch a degenerate row.
    """
    if len(bundle.tasks) < 2:
        raise ValidationError(">= 2 tasks required for cross-task conflict analysis")

    parts, rows = _layer_rows(bundle, layer)
    pairs = list(combinations(parts, 2))

    s_self = float(np.mean([_self_mean(t) for t in parts]))
    s_cross = float(np.mean([_cross_mean(a, b) for a, b in pairs]))
    cross_valid = sum(a.count * b.count for a, b in pairs)
    cross_total = sum(a.sampled * b.sampled for a, b in pairs)
    valid = sum(t.count * (t.count - 1) // 2 for t in parts) + cross_valid
    total = sum(t.sampled * (t.sampled - 1) // 2 for t in parts) + cross_total
    purity = 1.0 if not cross_valid else float(
        (_cross_nonneg(parts, rows, hand_off) - (cross_total - cross_valid)) / cross_valid)

    return LayerConflict(
        layer=layer,
        s_self=s_self,
        s_cross=s_cross,
        delta=s_self - s_cross,
        purity=purity,
        degenerate_pairs=total - valid,
        total_pairs=total,
    )


def check_candidates(bundle: gb.GradientBundle, layers=None) -> tuple[str, ...]:
    """Method B's candidate layers: None is every layer of the bundle.

    An empty list, an unknown id (named first, even an empty one) or an id
    listed twice, which would count twice in every mean over the set, is a
    ValidationError.
    """
    if layers is None:
        return tuple(bundle.layers)
    layers = tuple(layers)
    if not layers:
        raise ValidationError("candidate layer list is empty; Method B needs at least one layer")
    for l in layers:
        bundle._check_layer(l)
    repeated = [l for i, l in enumerate(layers) if l in layers[:i]]
    if repeated:
        raise ValidationError(f"candidate layers list {repeated[0]} more than once")
    return layers


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


def conflict_report(
    bundle: gb.GradientBundle,
    candidate_layers=None,
    thresholds: RatioThresholds = RatioThresholds(),
    seed=None,
    hand_off=None,
) -> ConflictReport:
    """Full Method-B result: the candidates' layers by delta, highest first
    and ties by id (purity decides nothing), their mean delta and its ratio.

    The mean takes the candidates in bundle layer order, not in the order
    given (and echoed).  `seed` is accepted and ignored.  Each purity
    product is offered to `hand_off` (see `_cross_nonneg`).
    """
    candidates = check_candidates(bundle, candidate_layers)
    ranked = sorted((layer_conflict(bundle, l, hand_off) for l in candidates),
                    key=lambda r: (-r.delta, r.layer))
    by_layer = {lc.layer: lc.delta for lc in ranked}
    delta = float(np.mean([by_layer[l] for l in bundle.layers if l in by_layer]))
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
