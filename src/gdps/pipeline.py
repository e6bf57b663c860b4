"""The plan pipeline: Methods A, B and C composed into one decomposition plan.

`plan(bundle, options)` groups the tasks (A), sets the shared ratio from
self/cross-task conflict (B), weights the groups by subspace energy (C) and
returns the `DecompositionPlan` with the `PipelineReport` that explains it.
`PlanOptions` has one field per `gdps plan` flag.  Each stage is one call
(`group_tasks`, `conflict_report`, `subspace_report`), which the `gdps
group`, `conflict` and `subspace` commands make too, inside `stage(name)`:
it prefixes any GdpsError with ``[stage: name]`` and keeps its type, so the
CLI exit code does not change.

`plan` casts the layer to its float64 stack (`gdps.bundle.layer_stack`)
once, and holds it only while a stage reads all of it: Method B, and the
Gram of Method C's spectrum half, which lets go of a wide stack before its
`eigh`.  Method A takes each task's mean, and the CCA half of C centres
each task, from the stored float32 rows.

Two jobs run on second threads beside Methods A, B and the CCA half of C:
the bundle fingerprint, always, and Method C's spectrum half (the joint
Gram and its `eigh`) when the layer's float64 stack holds at least
`OVERLAP_MIN_BYTES`.  The spectrum thread starts while `plan` holds the
stack, and takes it from the bundle's registry (a thread held back until
after Method B would cast the layer again).  Below the gate the spectrum
runs inline after Method B, before `plan` lets the stack go.
sha256 and the BLAS and LAPACK calls release the GIL, so a process's CPU
time may exceed its wall time.  Errors are reported as if the stages ran
one after another: grouping, conflict, spectrum, CCA.  Every thread is
joined before `plan` returns or raises.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from . import conflict as cf
from . import decompose as dc
from . import grouping as gr
from . import report as rp
from . import subspace as sb
from .bundle import GradientBundle, layer_stack
from .errors import GdpsError, ValidationError

# Method C's spectrum half runs on a second thread only for a layer stack of
# at least this many bytes.  A thread that allocates or calls BLAS costs peak
# RSS, which a small plan never wins back.  Measured with one BLAS thread on a
# 2-core host: simulate's plans stack 1 MB and spend 2.5 ms in the spectrum,
# and with every plan threaded `gdps simulate`'s two benchmark calls peaked
# 1.5 MB (3 %) higher; plan-deep's 16.8 MB stack spends 0.02 s in it and
# plan-wide's 33.5 MB one 0.34 s.
OVERLAP_MIN_BYTES = 8 << 20


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


def resolve_candidates(bundle: GradientBundle, layers: str | None) -> list[str]:
    """Method B's candidate layers from a comma-separated --layers value.

    None is every layer of the bundle; an unknown or repeated name is a
    ValidationError, raised before any stage runs.
    """
    candidates = layers.split(",") if layers else list(bundle.layers)
    for name in candidates:
        bundle._check_layer(name)
    cf._reject_repeats(candidates)
    return candidates


@contextmanager
def beside(job):
    """Run `job()` on a second thread for the body of the with block.

    Yields `result()`, which waits for the job and returns its value or
    raises its exception on the caller.  The thread is joined when the block
    exits, normally or by an exception, so no thread outlives it; an outcome
    that no one asks for is dropped.
    """
    outcome = []

    def run():
        try:
            outcome.append((job(), None))
        except BaseException as exc:  # handed to the caller by result()
            outcome.append((None, exc))

    thread = threading.Thread(target=run, name="gdps-beside")
    thread.start()

    def result():
        thread.join()
        value, error = outcome[0]
        if error is not None:
            raise error
        return value

    try:
        yield result
    finally:
        thread.join()


def group_tasks(bundle: GradientBundle, layer: str, options: PlanOptions):
    """Method A at `layer`: (similarity, distance, consensus grouping, merges)."""
    with stage("grouping"):
        sim = gr.similarity_matrix(bundle, layer)
        dist = gr.to_distance(sim)
        grouping = gr.consensus_from_distance(dist, k=options.k_groups, seed=options.seed)
        return sim, dist, grouping, gr.linkage_merges(dist)


def plan(bundle: GradientBundle, options: PlanOptions = PlanOptions()):
    """(DecompositionPlan, PipelineReport) of Methods A+B+C on `bundle`.

    The report's flags echo `options`, with the layer and the candidate
    layers resolved against the bundle.
    """
    layer = resolve_layer(bundle, options.layer)
    candidates = resolve_candidates(bundle, options.layers)
    thresholds = parse_thresholds(options.thresholds)
    if len(bundle.tasks) < 2:
        raise ValidationError(">= 2 tasks required for cross-task analysis")

    # Held until Method B and the spectrum's Gram have read it; the spectrum
    # job fetches the stack itself, so that only its own frame keeps it.
    stack = layer_stack(bundle, layer)
    job = lambda: sb.joint_spectrum(bundle, layer, options.top_k, options.normalize_rows)
    with beside(bundle.fingerprint) as fingerprint, (
        beside(job) if stack.nbytes >= OVERLAP_MIN_BYTES else nullcontext()
    ) as spectrum:
        sim, dist, grouping, merges = group_tasks(bundle, layer, options)
        with stage("conflict"):
            conflict = cf.conflict_report(bundle, candidates, thresholds, seed=options.seed)
        with stage("subspace"):
            if spectrum is None:
                joint = job()
                spectrum = lambda: joint
            del stack
            subspace = sb.subspace_report(bundle, layer, options.top_k, options.lam,
                                          options.normalize_rows, spectrum=spectrum)
            p_g = sb.group_energy(subspace.proportions, grouping, bundle.tasks)

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
        bundle_fingerprint=fingerprint(),
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
