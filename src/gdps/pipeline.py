"""The plan pipeline: Methods A, B and C composed into one decomposition plan.

`plan(bundle, options)` groups the tasks (A), sets the shared ratio from
self/cross-task conflict (B), weights the groups by subspace energy (C) and
returns the `DecompositionPlan` with the `PipelineReport` that explains it.
`PlanOptions` has one field per `gdps plan` flag.  Each stage is one call
(`group_tasks`, `conflict_report`, `subspace_report`), which the `gdps
group`, `conflict` and `subspace` commands make too, inside `stage(name)`:
it prefixes any GdpsError with ``[stage: name]`` and keeps its type, so the
CLI exit code does not change.

Method A and the CCA half of C read the stored float32 rows; Method B and
the spectrum half of C read the layer's float64 stack (`layer_stack`).
Where the spectrum would factor the row Gram of exactly the rows Method B
reads, `plan` forms that Gram once, from one cast (`conflict.row_gram`):
Method B counts purity from it and the spectrum only factors it.
`plan` runs one thread beside them (`SideThread`), which hashes the bundle
fingerprint one entry at a time and, after the manifest and after each
entry, runs the oldest job handed to it that no one has started.  `plan`
offers it every job at its cost in multiply-adds, and it takes none below
`SIDE_MIN_COST`: first the shared Gram and the spectrum, before the thread
starts, then each purity product of Method B (`gdps.conflict`).  The caller
collects each job where the stage commands run it (the Gram in Method B,
the spectrum after the CCA, as `gdps subspace` does), and runs there any
job the thread has not started.  sha256 and the BLAS and LAPACK calls
release the GIL, so a process's CPU time may exceed its wall time.  Errors
are reported as if the stages ran one after another: grouping, conflict
(the shared Gram's among them), spectrum, CCA.  The thread is joined
before `plan` returns or raises.
"""

from __future__ import annotations

import collections
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

# The multiply-adds from which the side thread takes a job.  There a job
# costs BLAS and LAPACK buffers of that thread's own, which a cheap job never
# wins back.  Plan-wide's row Gram costs 4.3e9 and its eigh 1.1e9;
# plan-deep's Gram 5.4e8, its eigh 1.7e7 and its other layers' largest
# purity products 1.0e8; simulate's Gram 1.7e7 and its eigh 2.1e6 (its
# one layer is the plan layer, so it offers no product).  The floor lies a
# factor of 2 or more from each of these; the smaller products fall on
# either side of it.
SIDE_MIN_COST = 4e7


@dataclass(frozen=True)
class PlanOptions:
    """One field per `gdps plan` flag other than --bundle and --out."""

    seed: int = dc.DEFAULT_SEED  # the k-means restarts and the private-init noise
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


def resolve_candidates(bundle: GradientBundle, layers: str | None) -> tuple[str, ...]:
    """Method B's candidate layers from a comma-separated --layers value,
    checked by `conflict.check_candidates` before any stage runs."""
    return cf.check_candidates(bundle, None if layers is None else layers.split(","))


class SideThread:
    """The one thread that `plan` runs beside its caller, for the body of a with block.

    It hashes `bundle` one entry at a time (`fingerprint_steps`), and after
    the manifest and after each entry runs the oldest waiting job that no
    one has started.  It ends when the hash is done, told nothing; the with
    block joins it on every path.  `fingerprint()` returns the digest, or
    raises the hash's error on the caller.

    `hand_off(fn, cost)`, before the block too, returns `collect()`.  From
    `SIDE_MIN_COST` up `fn` waits for the thread, in the order given; below
    it `fn` is never queued, so its first collector runs it.  Whoever claims
    the job first, the thread or a `collect`, runs it once and then lets go
    of `fn`; every `collect` waits for it and returns its value or raises
    its exception.
    """

    def __init__(self, bundle: GradientBundle):
        self._bundle = bundle
        self._waiting = collections.deque()  # appended by callers, popped by the thread
        self._digest = self._error = None
        self._thread = threading.Thread(target=self._hash, name="gdps-side")

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._thread.join()

    def _hash(self):
        try:
            for h in self._bundle.fingerprint_steps():
                while self._waiting and not self._waiting.popleft()():
                    pass  # skip a job its collector claimed
            self._digest = h.hexdigest()
        except BaseException as exc:  # raised on the caller by fingerprint()
            self._error = exc

    def fingerprint(self) -> str:
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._digest

    def hand_off(self, fn, cost):
        claim, done, outcome = threading.Lock(), threading.Event(), None

        def run():  # True if this call claimed the job, and so ran it
            nonlocal fn, outcome
            if not claim.acquire(blocking=False):
                return False
            try:
                outcome = fn(), None
            except BaseException as exc:  # raised on the caller by collect()
                outcome = None, exc
            fn = None  # let go of its operands before the caller can go on
            done.set()
            return True

        def collect():
            run()
            done.wait()
            value, error = outcome
            if error is not None:
                raise error
            return value

        if cost >= SIDE_MIN_COST:
            self._waiting.append(run)
        return collect


def group_tasks(bundle: GradientBundle, layer: str, options: PlanOptions):
    """Method A at `layer`: (similarity, distance, consensus grouping, merges)."""
    with stage("grouping"):
        sim = gr.similarity_matrix(bundle, layer)
        dist = gr.to_distance(sim)
        grouping = gr.consensus_from_distance(dist, k=options.k_groups, seed=options.seed)
        return sim, dist, grouping, gr.linkage_merges(dist)


def _hand_off_spectrum(side: SideThread, bundle: GradientBundle, layer: str,
                       candidates: tuple[str, ...], options: PlanOptions):
    """Hand Method C's spectrum to `side`, and the collects of the row Grams
    that Method B reads, by layer.

    When the spectrum would factor the row Gram of exactly the rows Method
    B reads at `layer` (a candidate, wide, rows not normalised, no task
    above `SAMPLE_CAP`), that Gram is one job (`conflict.row_gram`), handed
    off first, and the spectrum is its eigh alone: n^2 d and n^3
    multiply-adds for n rows of d columns, the two terms of
    `spectrum_cost`.  Else the spectrum forms its own Gram.
    """
    rows = sb._task_rows(bundle, layer)
    n, d = sum(rows), bundle.layer_dim(layer)
    shared = (layer in candidates and n <= d and not options.normalize_rows
              and max(rows) <= cf.SAMPLE_CAP)
    if not shared:
        return side.hand_off(lambda: sb.joint_spectrum(
            bundle, layer, options.top_k, options.normalize_rows), sb.spectrum_cost(n, d)), {}
    gram = side.hand_off(lambda: cf.row_gram(bundle, layer), n * n * d)
    spectrum = side.hand_off(lambda: sb.joint_spectrum(
        bundle, layer, options.top_k, gram=gram().gram), n ** 3)
    return spectrum, {layer: gram}


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

    side = SideThread(bundle)
    spectrum, row_grams = _hand_off_spectrum(side, bundle, layer, candidates, options)
    with side:
        sim, dist, grouping, merges = group_tasks(bundle, layer, options)
        with stage("conflict"):
            conflict = cf.conflict_report(bundle, candidates, thresholds,
                                          hand_off=side.hand_off, row_grams=row_grams)
        del row_grams  # the spectrum, if it has not run yet, is the Gram's last reader
        with stage("subspace"):
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
    flags.update(layer=layer, layers=",".join(candidates))
    flags["lambda"] = flags.pop("lam")
    report = rp.PipelineReport(
        bundle_fingerprint=side.fingerprint(),
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
