"""Task grouping from mean-gradient geometry.

Builds the task-level cosine similarity matrix from each task's mean
gradient (`gdps.bundle.mean_gradient`, accumulated in float64 from the
stored float32 rows, so the layer is never cast whole), converts it to
distances (d = 1 - s), and partitions tasks two ways: Lloyd k-means on the
distance profiles and single-linkage agglomeration on the distance matrix.
The two partitions are cross-checked; agreement is tagged ``consensus``.

All tie-breaks are lexicographic on task identifiers so results are
reproducible across platforms and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bundle as gb
from .errors import ValidationError
from .linalg import unit_rows

DEFAULT_GROUPS = 2
MATRIX_TOL = 1e-12
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100


def _check_matrix(kind: str, tasks, m: np.ndarray, diag: float, lo: float, hi: float) -> None:
    """Square over `tasks`, symmetric, `diag` on the diagonal, entries in [lo, hi]."""
    n = len(tasks)
    if m.shape != (n, n):
        raise ValidationError(f"{kind} matrix shape {m.shape} != ({n}, {n})")
    if not np.allclose(m, m.T, atol=MATRIX_TOL):
        raise ValidationError(f"{kind} matrix is not symmetric")
    if not np.allclose(np.diag(m), diag, atol=MATRIX_TOL):
        raise ValidationError(f"{kind} matrix diagonal is not {diag:g}")
    if m.min() < lo - MATRIX_TOL or m.max() > hi + MATRIX_TOL:
        raise ValidationError(f"{kind} entries outside [{lo:g}, {hi:g}]")


@dataclass(frozen=True)
class SimilarityMatrix:
    """Task cosines; checked when built."""

    tasks: tuple[str, ...]
    s: np.ndarray
    degenerate_count: int = 0

    def __post_init__(self):
        _check_matrix("similarity", self.tasks, self.s, 1.0, -1.0, 1.0)


@dataclass(frozen=True)
class DistanceMatrix:
    """Task distances d = 1 - s; checked when built."""

    tasks: tuple[str, ...]
    d: np.ndarray

    def __post_init__(self):
        _check_matrix("distance", self.tasks, self.d, 0.0, 0.0, 2.0)


@dataclass(frozen=True)
class GroupingPlan:
    """An exact partition of the task list into parameter-sharing groups."""

    groups: tuple[tuple[str, ...], ...]
    method: str
    k: int
    warnings: tuple[str, ...] = ()

    def validate(self, tasks=None) -> None:
        flat = [t for g in self.groups for t in g]
        if len(flat) != len(set(flat)):
            raise ValidationError("grouping assigns some task to more than one group")
        if any(len(g) == 0 for g in self.groups):
            raise ValidationError("grouping contains an empty group")
        if not 1 <= self.k <= len(flat):
            raise ValidationError(f"group count k={self.k} outside [1, {len(flat)}]")
        if self.k != len(self.groups):
            raise ValidationError(f"k={self.k} but {len(self.groups)} groups present")
        if tasks is not None and set(flat) != set(tasks):
            raise ValidationError(
                f"grouping covers {sorted(flat)} but the task list is {sorted(tasks)}"
            )

    def group_of(self, task: str) -> int:
        for i, g in enumerate(self.groups):
            if task in g:
                return i
        raise ValidationError(f"task {task!r} not in any group")

    def to_dict(self) -> dict:
        return {"method": self.method, "k": self.k, "groups": [list(g) for g in self.groups]}

    @classmethod
    def from_dict(cls, d: dict, src: str = "grouping") -> "GroupingPlan":
        """Inverse of to_dict; a missing field, one of the wrong kind or an
        invalid partition raises ValidationError naming `src` and the field.
        """
        groups = gb.json_field(
            src, d, "groups",
            lambda v: isinstance(v, list) and all(
                isinstance(g, list) and all(isinstance(t, str) for t in g) for g in v),
            "a list of lists of task names")
        plan = cls(
            groups=tuple(tuple(g) for g in groups),
            method=gb.json_field(src, d, "method", str, "a string"),
            k=gb.json_field(src, d, "k", gb.is_json_int, "an integer"),
        )
        try:
            plan.validate()
        except ValidationError as exc:
            raise ValidationError(f"{src}: {exc}") from exc
        return plan


def _canonical_groups(groups) -> tuple[tuple[str, ...], ...]:
    # Members sorted within groups; groups ordered by size then leading member.
    norm = [tuple(sorted(g)) for g in groups if g]
    norm.sort(key=lambda g: (len(g), g[0]))
    return tuple(norm)


def similarity_matrix(bundle: gb.GradientBundle, layer: str) -> SimilarityMatrix:
    """Pairwise cosine between per-task mean gradients, clipped; diagonal forced to 1.

    A pair with a degenerate mean (see `unit_rows`) has cosine 0 and is
    counted in `degenerate_count`.
    """
    tasks = bundle.tasks
    unit, ok = unit_rows(np.stack([gb.mean_gradient(bundle, t, layer) for t in tasks]))
    s = np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(s, 1.0)
    n, c = len(tasks), int(ok.sum())
    degenerate = n * (n - 1) // 2 - c * (c - 1) // 2
    return SimilarityMatrix(tuple(tasks), s, degenerate_count=degenerate)


def to_distance(sim: SimilarityMatrix) -> DistanceMatrix:
    """Elementwise d = 1 - s with an exactly-zero diagonal."""
    d = 1.0 - sim.s
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(sim.tasks, d)


@dataclass(frozen=True)
class KmeansState:
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations: int


def _kmeans_once(points: np.ndarray, k: int, rng: np.random.Generator):
    n = points.shape[0]
    # k-means++ seeding.
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    for c in range(1, k):
        d2 = np.min(
            ((points[:, None, :] - centroids[None, :c, :]) ** 2).sum(axis=2), axis=1
        )
        total = d2.sum()
        if total <= 0:
            centroids[c] = points[int(rng.integers(n))]
            continue
        probs = d2 / total
        centroids[c] = points[int(rng.choice(n, p=probs))]

    assign = np.full(n, -1)
    it = 0
    for it in range(1, KMEANS_MAX_ITER + 1):
        dist2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = dist2.argmin(axis=1)
        if (new_assign == assign).all():
            break
        assign = new_assign
        for c in range(k):
            mask = assign == c
            if mask.any():
                centroids[c] = points[mask].mean(axis=0)
            else:
                # Re-seed an empty cluster at the farthest point.
                far = dist2.min(axis=1).argmax()
                centroids[c] = points[far]
    dist2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assign = dist2.argmin(axis=1)
    inertia = float(dist2[np.arange(n), assign].sum())
    return centroids, assign, inertia, it


def kmeans(points, k: int, seed: int) -> KmeansState:
    """Lloyd k-means, best of `KMEANS_RESTARTS` seeded k-means++ runs by inertia."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValidationError("kmeans expects a 2-D array of feature vectors")
    n = pts.shape[0]
    if k < 1:
        raise ValidationError("kmeans needs k >= 1")
    if k > n:
        raise ValidationError(f"kmeans needs k <= n ({k} > {n})")
    streams = np.random.SeedSequence(seed).spawn(KMEANS_RESTARTS)
    best = None
    for stream in streams:
        rng = np.random.default_rng(stream)
        cent, assign, inertia, it = _kmeans_once(pts, k, rng)
        if best is None or inertia < best[2] - 1e-15:
            best = (cent, assign, inertia, it)
    cent, assign, inertia, it = best
    return KmeansState(cent, assign, inertia, it)


def linkage_merges(dist: DistanceMatrix):
    """Agglomeration trace: all n - 1 (distance, cluster_a, cluster_b) merges.

    Clusters are named by their lexicographically smallest member; when several
    pairs tie on distance, the pair with the smallest (name_a, name_b) merges.
    """
    tasks = dist.tasks
    clusters: list[set[str]] = [{t} for t in tasks]
    idx = {t: i for i, t in enumerate(tasks)}
    merges = []
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d_ab = min(dist.d[idx[x], idx[y]] for x in clusters[a] for y in clusters[b])
                name = tuple(sorted((min(clusters[a]), min(clusters[b]))))
                key = (d_ab, name)
                if best is None or key < best[0]:
                    best = (key, a, b)
        (d_ab, name), a, b = best
        merges.append((float(d_ab), name[0], name[1]))
        clusters[a] = clusters[a] | clusters[b]
        del clusters[b]
    return merges


def _replay_merges(tasks, merges) -> list[set[str]]:
    """Clusters left after applying a merge trace to singletons."""
    by_name = {t: {t} for t in tasks}
    for _, a, b in merges:
        by_name[a] |= by_name.pop(b)  # a < b, so the union keeps the name a
    return list(by_name.values())


def single_linkage(dist: DistanceMatrix, k: int) -> GroupingPlan:
    """Merge the closest clusters until k remain: the first n - k merges of `linkage_merges`."""
    n = len(dist.tasks)
    if not 1 <= k <= n:
        raise ValidationError(f"single_linkage needs 1 <= k <= {n}, got {k}")
    clusters = _replay_merges(dist.tasks, linkage_merges(dist)[: n - k])
    plan = GroupingPlan(_canonical_groups(clusters), method="hierarchical", k=k)
    plan.validate(dist.tasks)
    return plan


def kmeans_grouping(dist: DistanceMatrix, k: int, seed: int) -> GroupingPlan:
    """K-means on distance-matrix rows (each task's distance profile).

    The matrix is permuted to task-name order first, so that the seeded
    draws pick the same tasks whatever the bundle's task order.
    """
    order = sorted(range(len(dist.tasks)), key=dist.tasks.__getitem__)
    state = kmeans(dist.d[np.ix_(order, order)], k, seed)
    names = [dist.tasks[i] for i in order]
    groups = [
        [t for t, a in zip(names, state.assignments) if a == c] for c in range(k)
    ]
    groups = [g for g in groups if g]
    if len(groups) != k:
        raise ValidationError(f"k-means produced {len(groups)} non-empty clusters, wanted {k}")
    plan = GroupingPlan(_canonical_groups(groups), method="kmeans", k=k)
    plan.validate(dist.tasks)
    return plan


def consensus_from_distance(
    dist: DistanceMatrix, k: int = DEFAULT_GROUPS, seed: int = 2343
) -> GroupingPlan:
    """Run both clusterings on one distance matrix and cross-check.

    Agreement yields method="consensus"; disagreement falls back to the
    hierarchical partition with an explicit warning.
    """
    if len(dist.tasks) < 2:
        raise ValidationError(">= 2 tasks required for cross-task grouping")
    hier = single_linkage(dist, k)
    km = kmeans_grouping(dist, k, seed)
    if hier.groups == km.groups:
        return GroupingPlan(hier.groups, method="consensus", k=k)
    warn = (
        "kmeans and hierarchical clustering disagree "
        f"(kmeans={[list(g) for g in km.groups]}, "
        f"hierarchical={[list(g) for g in hier.groups]}); keeping hierarchical"
    )
    return GroupingPlan(hier.groups, method="hierarchical", k=k, warnings=(warn,))


def consensus_group(
    bundle: gb.GradientBundle, layer: str, k: int = DEFAULT_GROUPS, seed: int = 2343
) -> GroupingPlan:
    """`consensus_from_distance` on the layer's mean-gradient distance matrix."""
    return consensus_from_distance(to_distance(similarity_matrix(bundle, layer)), k, seed)
