"""The plan pipeline: Methods A, B and C composed into one decomposition plan.

`plan(bundle, options)` groups the tasks (A), sets the shared ratio from
self/cross-task conflict (B), weights the groups by subspace energy (C) and
returns the `DecompositionPlan` with the `PipelineReport` that explains it.
`PlanOptions` has one field per `gdps plan` flag.  Each step runs inside
`stage(name)`, which prefixes any GdpsError with ``[stage: name]`` and keeps
its type, so the CLI exit code does not change.  The bundle fingerprint is
hashed on a second thread while the methods run: sha256 and the methods'
BLAS products both release the GIL, so a process's CPU time may exceed its
wall time.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import conflict as cf
from . import decompose as dc
from . import grouping as gr
from . import report as rp
from . import subspace as sb
from .bundle import GradientBundle
from .errors import GdpsError, ValidationError


@dataclass(frozen=True)
class PlanOptions:
    """One field per `gdps plan` flag other than --bundle and --out."""

    seed: int = dc.DEFAULT_SEED
    layer: str | None = None  # Methods A and C; None is the bundle's first layer
    layers: str | None = None  # comma-separated Method B candidates; None is every layer
    k_groups: int = gr.DEFAULT_GROUPS
    thresholds: str = f"{cf.DEFAULT_LOW},{cf.DEFAULT_HIGH}"
    top_k: int = sb.DEFAULT_TOP_K
    lam: float = sb.DEFAULT_LAMBDA
    normalize_rows: bool = False
    noise: float = dc.DEFAULT_NOISE_SCALE
    d_model: int = 16
    d_ff: int = 32
    activation: str = dc.DEFAULT_ACTIVATION
    private_rank: int = 0  # 0 lets make_plan choose r
    ratio: float | None = None  # forces the shared ratio; None takes Method B's
    cca_noise_coupling: bool = False


@contextmanager
def stage(name: str):
    """Re-raise any GdpsError prefixed with ``[stage: name]``, keeping its type."""
    try:
        yield
    except GdpsError as exc:
        raise type(exc)(f"[stage: {name}] {exc}") from exc


def parse_thresholds(text: str) -> cf.RatioThresholds:
    try:
        low, high = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"--thresholds expects 'low,high', got {text!r}") from exc
    return cf.RatioThresholds(low=low, high=high)


def resolve_layer(bundle: GradientBundle, layer: str | None) -> str:
    if layer is None:
        return bundle.layers[0]
    bundle._check_layer(layer)
    return layer


def plan(bundle: GradientBundle, options: PlanOptions = PlanOptions()):
    """(DecompositionPlan, PipelineReport) of Methods A+B+C on `bundle`.

    The report's flags echo `options`, with the layer and the candidate
    layers resolved against the bundle.
    """
    layer = resolve_layer(bundle, options.layer)
    candidates = options.layers.split(",") if options.layers else list(bundle.layers)
    for name in candidates:
        bundle._check_layer(name)
    cf._reject_repeats(candidates)
    thresholds = parse_thresholds(options.thresholds)
    if len(bundle.tasks) < 2:
        raise ValidationError(">= 2 tasks required for cross-task analysis")

    fingerprint = []
    hasher = threading.Thread(target=lambda: fingerprint.append(bundle.fingerprint()),
                              name="gdps-fingerprint")
    hasher.start()
    try:
        with stage("grouping"):
            sim = gr.similarity_matrix(bundle, layer)
            dist = gr.to_distance(sim)
            grouping = gr.consensus_from_distance(dist, k=options.k_groups, seed=options.seed)
            merges = gr.linkage_merges(dist)
        with stage("conflict"):
            conflict = cf.conflict_report(bundle, candidates, thresholds, seed=options.seed)
        with stage("subspace"):
            subspace = sb.subspace_report(
                bundle, layer, k=options.top_k, lam=options.lam,
                normalize_rows=options.normalize_rows,
            )
            p_g = sb.group_energy(subspace.proportions, grouping, bundle.tasks)
    finally:
        hasher.join()

    warnings = [*grouping.warnings, *conflict.warnings, *subspace.warnings]
    shared_ratio = conflict.shared_ratio
    if options.ratio is not None:
        shared_ratio = options.ratio
        warnings.append(
            f"shared_ratio {options.ratio} forced by flag; measured delta "
            f"{conflict.delta:.6f} maps to {conflict.shared_ratio}"
        )
    noise_scale = options.noise
    if options.cca_noise_coupling:
        n = len(bundle.tasks)
        off = [subspace.cca[i, j] for i in range(n) for j in range(n) if i != j]
        factor = max(0.0, 1.0 - float(np.mean(off)))
        noise_scale = options.noise * factor
        warnings.append(f"private-init noise scaled by (1 - mean off-diagonal rho) = {factor:.6f}")
    if sim.degenerate_count:
        warnings.append(
            f"{sim.degenerate_count} degenerate (zero-norm) mean-gradient pairs in the similarity matrix"
        )

    with stage("plan-build"):
        decomposition = dc.make_plan(
            grouping, shared_ratio, options.d_model, options.d_ff, p_g,
            r=options.private_rank or None, noise_scale=noise_scale, seed=options.seed,
            activation=options.activation,
        )

    flags = dataclasses.asdict(options)
    flags.update(layer=layer, layers=",".join(candidates), ratio=options.ratio or 0.0)
    flags["lambda"] = flags.pop("lam")
    report = rp.PipelineReport(
        # a hash that raised on its thread is taken again here, to raise in the caller
        bundle_fingerprint=fingerprint[0] if fingerprint else bundle.fingerprint(),
        tasks=bundle.tasks,
        layer=layer,
        similarity=sim.s,
        distance=dist.d,
        merges=merges,
        grouping=grouping,
        conflict=conflict,
        subspace=subspace,
        plan=decomposition,
        flags=flags,
        warnings=tuple(warnings),
    )
    return decomposition, report
