"""Joint gradient subspace analysis: stacked SVD, energy shares, ridge CCA.

Method C has two halves that share no intermediate.  The spectrum half
(`joint_spectrum`) is the one that reads a layer's whole float64 row stack
(`gdps.bundle.layer_stack`, which Method B reads too).  It factors the
stack, row-normalised on request, from one `eigh` of the Gram matrix of its
short side: sigma = sqrt(max(lambda, 0)) and the left factor U, with no
long-side projection, and a wide stack is let go once its Gram is formed.
Each task's energy is its rows' part of the top-k joint energy, read from
sigma and U alone, and the energy proportions p_i decide how much residual
capacity each group later receives.  The CCA half (`pairwise_cca`) measures
pairwise subspace alignment by the leading ridge-regularized canonical
correlation of the raw task samples, computed one way for every shape:
each side's stored rows, centred in float64, are factored once
(`linalg.gram_svd`; the dual, kernel form of ridge CCA, Hardoon et al.
2004) and every pair only builds a small core from the two factors
(canonical correlations from the factors of each side, Bjorck & Golub
1973; the factor-then-correlate structure of SVCCA).  It takes each rho
from one values-only SVD of the core as it is formed.  At lambda = 0 a
rank-deficient factor has no whitening and raises SingularCovarianceError.
`subspace_report` joins the two halves; it may take the spectrum half that
`gdps.pipeline.plan` has handed to its side thread, offered at its
`spectrum_cost`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .bundle import GradientBundle, layer_stack, sample_gradients
from .errors import SingularCovarianceError, ValidationError
from .grouping import GroupingPlan
from .linalg import SvdResult, gini, gram_svd, unit_rows

DEFAULT_TOP_K = 10
DEFAULT_LAMBDA = 1e-3


def check_lambda(lam: float) -> None:
    if not (np.isfinite(lam) and lam >= 0):
        raise ValidationError(f"lambda must be finite and >= 0, got {lam}")


def _task_rows(bundle: GradientBundle, layer: str) -> list[int]:
    """Each task's stored row count at `layer`, in bundle task order."""
    return [bundle.matrix(task, layer).rows for task in bundle.tasks]


def _joint_rows(bundle: GradientBundle, layer: str, normalize_rows: bool) -> np.ndarray:
    """The stack Method C factors: the layer's stack, its rows made unit on request."""
    x = layer_stack(bundle, layer)
    return unit_rows(x)[0] if normalize_rows else x


def _eigh_factor(gram: np.ndarray):
    """(sigma, q) of a short-side Gram matrix, from one eigh.

    sigma = sqrt(max(lambda, 0)) from the eigenvalues, non-increasing, and q
    the eigenvectors in the same order.
    """
    lam, q = np.linalg.eigh(gram)
    return np.sqrt(np.maximum(lam[::-1], 0.0)), q[:, ::-1]


def _reciprocal(sigma: np.ndarray) -> np.ndarray:
    """1 / sigma, and 0 where sigma is 0."""
    return np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > 0.0)


def joint_svd(bundle: GradientBundle, layer: str, normalize_rows: bool = False) -> SvdResult:
    """Thin SVD of the row-wise stack of all tasks' matrices at a layer.

    sigma and u are the factor `subspace_report` reads, from one `eigh` of
    the Gram matrix of the stack's short side; for a wide stack v = X^T u /
    sigma, zero where sigma is 0.  sigma**2, and so every energy, share,
    Gini and top-1 value taken from it, is accurate to about
    eps * sigma[0]**2.  A tail sigma resolves only to about sqrt(eps) *
    sigma[0] (a zero direction reported up to 2.9e-8 * sigma[0] on stacks
    with duplicated tasks), and its column of v is only as accurate as that.
    """
    x = _joint_rows(bundle, layer, normalize_rows)
    if x.shape[0] <= x.shape[1]:
        sigma, u = _eigh_factor(x @ x.T)
        return SvdResult(u, sigma, (x.T @ u) * _reciprocal(sigma))
    sigma, v = _eigh_factor(x.T @ x)
    return SvdResult((x @ v) * _reciprocal(sigma), sigma, v)


def _task_energies(u: np.ndarray, sigma: np.ndarray, rows: list[int], k: int, layer: str):
    """(E_i, p_i) of tasks whose rows are consecutive blocks of `rows` rows of u."""
    available = sigma.size
    if not 1 <= k <= available:
        raise ValidationError(f"top-k must be in [1, {available}], got {k}")
    if sum(rows) != u.shape[0]:
        raise ValidationError(f"joint factor has {u.shape[0]} rows, layer {layer!r} has {sum(rows)}")
    row_energy = u[:, :k] ** 2 @ sigma[:k] ** 2
    energies = np.add.reduceat(row_energy, np.cumsum([0] + rows[:-1]))
    total = energies.sum()
    if total <= 0.0:
        raise ValidationError(f"all task energies are zero at layer {layer!r}")
    return energies, energies / total


def energy_proportions(
    bundle: GradientBundle,
    layer: str,
    k: int = DEFAULT_TOP_K,
    joint: SvdResult | None = None,
):
    """Per-task energies E_i = sum_{j<k} ||G_i v_j||^2 and shares p_i.

    G_i v_j = sigma_j U[rows_i, j], so E_i = sum_{j<k} sigma_j^2 ||U[rows_i, j]||^2
    comes from the joint factor alone; no task is read again.  `joint` must
    come from `joint_svd` of the same bundle and layer, and carries its
    `normalize_rows`; without it the raw rows are factored here.
    """
    if joint is None:
        joint = joint_svd(bundle, layer)
    return _task_energies(joint.u, joint.sigma, _task_rows(bundle, layer), k, layer)


def spectrum_stats(sigma) -> tuple[float, float]:
    """(top1 energy share, Gini) over the full spectrum of squared singular values."""
    s = np.asarray(sigma, dtype=np.float64).ravel()
    if s.size == 0:
        raise ValidationError("empty spectrum")
    if (np.diff(s) > 1e-12).any():
        raise ValidationError("spectrum must be non-increasing")
    energies = s**2
    total = energies.sum()
    if total <= 0.0:
        raise ValidationError("all-zero spectrum")
    return float(energies[0] / total), gini(energies)


@dataclass(frozen=True)
class CcaResult:
    rho: float
    w_a: np.ndarray
    w_b: np.ndarray
    lam: float


def _dual_factor(a: np.ndarray, lam: float) -> SvdResult:
    """Per-side factor of ridge CCA: thin SVD of A/sqrt(m), A column-centred.

    A may be a task's stored float32 rows: they are centred in float64, the
    same bits as centring their float64 cast, with no cast copy.  The factor
    depends on one task and its row count only, so a pairwise report
    computes it once per task.  It comes from the Gram matrix of the short side (`gram_svd`), so a wide
    side costs an m x m eigenproblem, not a d-wide SVD.  At lam = 0 the
    side's covariance V diag(s^2) V^T must be invertible: a factor with
    fewer sigma than columns, or with sigma_min^2 at the floor
    max(cols * sigma_max^2, 1) * eps of a cols x cols eigensolver, raises
    SingularCovarianceError.
    """
    m, cols = a.shape
    if m < 2:
        raise ValidationError("centered covariance needs at least 2 rows")
    a = a - a.mean(axis=0, dtype=np.float64)
    f = gram_svd(a / np.sqrt(m))
    if lam <= 0.0:
        floor = max(cols * f.sigma[0] ** 2, 1.0) * np.finfo(np.float64).eps
        if f.sigma.size < cols or f.sigma[-1] ** 2 <= floor:
            raise SingularCovarianceError(
                "covariance is numerically singular at lambda=0; rerun with a positive lambda"
            )
    return f


def _dual_core(ua, sa, ub, sb, lam: float) -> np.ndarray:
    """Per-pair core of ridge CCA.

    The whitened cross-covariance has the same nonzero singular values as
    K = diag(sa/sqrt(sa^2+lam)) Ua^T Ub diag(sb/sqrt(sb^2+lam)), a problem of
    the size of the two factors, whatever the number of columns.
    """
    fa = sa / np.sqrt(sa**2 + lam)
    fb = sb / np.sqrt(sb**2 + lam)
    # Ua^T is copied so that numpy never sees Ua^T @ Ua as one buffer and
    # takes its symmetric (syrk) kernel on a report's diagonal: the entry then
    # rounds as ridge_cca(a, a) does, which factors each side separately.
    return (fa[:, None] * (ua.T.copy() @ ub)) * fb[None, :]


def _leading_rho(core: np.ndarray) -> float:
    """The leading singular value of one core, in [0, 1], from a values-only SVD.

    `ridge_cca` and `pairwise_cca` both take rho here, so every entry of a
    report equals the `ridge_cca` rho of its pair.
    """
    return float(np.clip(np.linalg.svd(core, compute_uv=False)[0], 0.0, 1.0))


def ridge_cca(g_a, g_b, lam: float = DEFAULT_LAMBDA) -> CcaResult:
    """Leading canonical correlation with ridge lam*I on both auto-covariances.

    rho is the leading singular value of the whitened cross-covariance
    (Gamma_aa + lam I)^(-1/2) Gamma_ab (Gamma_bb + lam I)^(-1/2).  It is taken
    the same way for every shape: each side is factored once,
    A/sqrt(m) = U diag(s) V^T, and `_dual_core` builds the small core of the
    two factors; rho comes from `_leading_rho`, the directions from the
    core's leading singular vectors x, y.  The back-transformed
    w = V diag(1/sqrt(s^2+lam)) x are the projection directions (unit
    regularized norm).  At lam = 0 a side with fewer sigma than columns, or
    with sigma_min^2 <= max(cols * sigma_max^2, 1) * eps, raises
    SingularCovarianceError.
    """
    a = np.asarray(g_a, dtype=np.float64)
    b = np.asarray(g_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError("ridge_cca expects 2-D sample matrices")
    if a.shape[0] != b.shape[0]:
        raise ValidationError(f"row-count mismatch: {a.shape[0]} vs {b.shape[0]}")
    check_lambda(lam)
    fa = _dual_factor(a, lam)
    fb = _dual_factor(b, lam)
    core = _dual_core(fa.u, fa.sigma, fb.u, fb.sigma, lam)
    x, _, yh = np.linalg.svd(core, full_matrices=False)
    w_a = fa.v @ (x[:, 0] / np.sqrt(fa.sigma**2 + lam))
    w_b = fb.v @ (yh[0, :] / np.sqrt(fb.sigma**2 + lam))
    return CcaResult(rho=_leading_rho(core), w_a=w_a, w_b=w_b, lam=lam)


def group_energy(proportions, grouping: GroupingPlan, tasks) -> np.ndarray:
    """Sum per-task energy shares within each group; output follows group order."""
    tasks = list(tasks)
    p = np.asarray(proportions, dtype=np.float64)
    if p.size != len(tasks):
        raise ValidationError(f"{p.size} proportions for {len(tasks)} tasks")
    grouping.validate(tasks)
    share = {t: float(p[i]) for i, t in enumerate(tasks)}
    return np.array([sum(share[t] for t in g) for g in grouping.groups])


def spectrum_csv(sigma: np.ndarray) -> str:
    """`index,sigma,energy_share` rows of a spectrum; an all-zero one has share 0."""
    energies = sigma**2
    total = energies.sum() if energies.sum() > 0 else 1.0
    lines = ["index,sigma,energy_share"]
    for i, (s, share) in enumerate(zip(sigma.tolist(), (energies / total).tolist())):
        lines.append(f"{i},{s!r},{share!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SubspaceReport:
    layer: str
    k: int
    sigma: np.ndarray
    energies: np.ndarray
    proportions: np.ndarray
    top1_share: float
    gini: float
    cca: np.ndarray
    lam: float
    tasks: tuple[str, ...]
    normalize_rows: bool = False
    warnings: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "layer": self.layer,
            "k": self.k,
            "tasks": list(self.tasks),
            "sigma": [float(x) for x in self.sigma],
            "energies": [float(x) for x in self.energies],
            "proportions": [float(x) for x in self.proportions],
            "top1_share": self.top1_share,
            "gini": self.gini,
            "cca": [[float(x) for x in row] for row in self.cca],
            "lambda": self.lam,
            "normalize_rows": self.normalize_rows,
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class JointSpectrum:
    """The spectrum half of a `SubspaceReport`, in fields of the same names."""

    sigma: np.ndarray
    k: int
    energies: np.ndarray
    proportions: np.ndarray
    top1_share: float
    gini: float
    normalize_rows: bool
    warnings: tuple[str, ...]


def spectrum_cost(rows: int, cols: int) -> int:
    """The multiply-adds of `joint_spectrum` on a rows x cols stack, its Gram
    plus the eigh: short**2 * (long + short) for its short and long sides."""
    short, long = sorted((rows, cols))
    return short * short * (long + short)


def joint_spectrum(bundle: GradientBundle, layer: str, k: int = DEFAULT_TOP_K,
                   normalize_rows: bool = False) -> JointSpectrum:
    """Method C's spectrum half: sigma, the top-k energies and shares, spectrum stats.

    sigma and U come from one eigh of the Gram matrix of the stack's short
    side (see `joint_svd`).  A wide stack's U is the eigenvector matrix
    itself, so this lets go of the stack (and of its unit rows) once the
    Gram is formed, before eigh fills its buffers; a tall one is kept for
    U = X V / sigma.  k is clipped to the spectrum size, with a warning.
    """
    x = _joint_rows(bundle, layer, normalize_rows)
    if x.shape[0] <= x.shape[1]:
        gram = x @ x.T
        del x
        sigma, u = _eigh_factor(gram)
    else:
        sigma, v = _eigh_factor(x.T @ x)
        u = (x @ v) * _reciprocal(sigma)
    k_eff = min(k, sigma.size)
    warnings = []
    if k_eff != k:
        warnings.append(f"top-k clipped from {k} to the spectrum size {k_eff}")
    energies, proportions = _task_energies(u, sigma, _task_rows(bundle, layer), k_eff, layer)
    top1, g = spectrum_stats(sigma)
    return JointSpectrum(sigma, k_eff, energies, proportions, top1, g, normalize_rows,
                         tuple(warnings))


def pairwise_cca(bundle: GradientBundle, layer: str, lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Method C's CCA half: the symmetric matrix of leading ridge-CCA rho.

    Rows are paired by index; unequal sample counts truncate to the smaller
    task.  Every entry equals `ridge_cca(a[:m], b[:m], lam).rho` of the two
    tasks' samples; a diagonal entry without whitening at lambda = 0 stays 1.
    Each task's stored rows are read as they are: the layer is never cast
    whole.
    """
    samples = [sample_gradients(bundle, task, layer) for task in bundle.tasks]
    rows = [a.shape[0] for a in samples]
    n = len(samples)
    factors = {}  # (task index, row count) -> (U, s) of the task's ridge-CCA factor

    def factor(i, m):
        if (i, m) not in factors:
            f = _dual_factor(samples[i][:m], lam)
            factors[i, m] = f.u, f.sigma
        return factors[i, m]

    def core(i, j):
        m = min(rows[i], rows[j])
        return _dual_core(*factor(i, m), *factor(j, m), lam)

    cca = np.eye(n)
    for i, j in combinations(range(n), 2):
        cca[i, j] = cca[j, i] = _leading_rho(core(i, j))
    for i in range(n):
        try:
            cca[i, i] = _leading_rho(core(i, i))
        except SingularCovarianceError:
            pass  # no whitening at lambda = 0: the entry stays 1
    return cca


def subspace_report(
    bundle: GradientBundle,
    layer: str,
    k: int = DEFAULT_TOP_K,
    lam: float = DEFAULT_LAMBDA,
    normalize_rows: bool = False,
    spectrum=None,
) -> SubspaceReport:
    """Full Method-C result for one layer: spectrum, energies, pairwise CCA.

    `spectrum()`, if given, returns this layer's `joint_spectrum` for the same
    k and normalize_rows.  It is awaited after the CCA, and its error replaces
    the CCA's, as if it ran first.
    """
    check_lambda(lam)
    rows = _task_rows(bundle, layer)
    if spectrum is None:
        spectrum = lambda: joint_spectrum(bundle, layer, k, normalize_rows)
    try:
        cca = pairwise_cca(bundle, layer, lam)
    finally:
        joint = spectrum()
    warnings = list(joint.warnings)
    if len(set(rows)) > 1:
        warnings.append(
            "cca pairing: unequal sample counts truncated to the smaller task "
            "(index pairing is a toolkit choice, not part of the published method)"
        )
    fields = {**vars(joint), "warnings": tuple(warnings)}
    return SubspaceReport(layer=layer, tasks=bundle.tasks, cca=cca, lam=lam, **fields)
