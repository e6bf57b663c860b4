"""Joint gradient subspace analysis: stacked SVD, energy shares, ridge CCA.

All tasks' gradient matrices at a layer are stacked row-wise (in bundle task
order, row-normalised on request) and factored once.  Each task's energy is
its rows' part of the top-k joint energy, read from that one factor, and the
energy proportions p_i decide how much residual capacity each group later
receives.  Pairwise subspace alignment is measured by the leading
ridge-regularized canonical correlation, computed one way for every shape:
each side's centred rows are factored once and every pair only solves a
small core built from the two factors (canonical correlations from the
factors of each side, Bjorck & Golub 1973; the factor-then-correlate
structure of SVCCA).  Both the joint stack and each task's centred rows are
factored from the Gram matrix of their short side (`linalg.gram_svd`); for a
task's rows that is the dual, kernel form of ridge CCA (Hardoon et al.
2004).  At lambda = 0 a rank-deficient factor has no whitening and raises
SingularCovarianceError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import bundle as gb
from .errors import SingularCovarianceError, ValidationError
from .grouping import GroupingPlan
from .linalg import SvdResult, gini, gram_svd, unit_rows

DEFAULT_TOP_K = 10
DEFAULT_LAMBDA = 1e-3


def joint_svd(bundle: gb.GradientBundle, layer: str, normalize_rows: bool = False) -> SvdResult:
    """Thin SVD of the row-wise stack of all tasks' matrices at a layer.

    It comes from the Gram matrix of the stack's short side (`gram_svd`):
    sigma**2, and so every energy, share, Gini and top-1 value taken from
    it, is accurate to about eps * sigma[0]**2.  A sigma below about
    sqrt(eps) * sigma[0] resolves only to about 1e-8 * sigma[0], and where
    sigma is 0 the matching column of v is zero.
    """
    blocks = []
    for task in bundle.tasks:
        g = gb.sample_gradients(bundle, task, layer).astype(np.float64)
        blocks.append(unit_rows(g)[0] if normalize_rows else g)
    return gram_svd(np.vstack(blocks))


def energy_proportions(
    bundle: gb.GradientBundle,
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
    available = joint.sigma.size
    if not 1 <= k <= available:
        raise ValidationError(f"top-k must be in [1, {available}], got {k}")
    rows = [bundle.matrix(task, layer).rows for task in bundle.tasks]
    if sum(rows) != joint.u.shape[0]:
        raise ValidationError(
            f"joint factor has {joint.u.shape[0]} rows, layer {layer!r} has {sum(rows)}"
        )
    row_energy = joint.u[:, :k] ** 2 @ joint.sigma[:k] ** 2
    energies = np.add.reduceat(row_energy, np.cumsum([0] + rows[:-1]))
    total = energies.sum()
    if total <= 0.0:
        raise ValidationError(f"all task energies are zero at layer {layer!r}")
    return energies, energies / total


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

    It depends on one task and its row count only, so a pairwise report
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
    a = a - a.mean(axis=0)
    f = gram_svd(a / np.sqrt(m))
    if lam <= 0.0:
        floor = max(cols * f.sigma[0] ** 2, 1.0) * np.finfo(np.float64).eps
        if f.sigma.size < cols or f.sigma[-1] ** 2 <= floor:
            raise SingularCovarianceError(
                "covariance is numerically singular at lambda=0; rerun with a positive lambda"
            )
    return f


def _dual_core(ua, sa, ub, sb, lam: float):
    """Per-pair core of ridge CCA: (rho, left, right) singular triplet.

    The whitened cross-covariance has the same nonzero singular values as
    K = diag(sa/sqrt(sa^2+lam)) Ua^T Ub diag(sb/sqrt(sb^2+lam)), a problem of
    the size of the two factors, whatever the number of columns.
    """
    fa = sa / np.sqrt(sa**2 + lam)
    fb = sb / np.sqrt(sb**2 + lam)
    # Ua^T is copied so that numpy never sees Ua^T @ Ua as one buffer and
    # takes its symmetric (syrk) kernel on a report's diagonal: the entry then
    # rounds as ridge_cca(a, a) does, which factors each side separately.
    core = (fa[:, None] * (ua.T.copy() @ ub)) * fb[None, :]
    u, s, vh = np.linalg.svd(core, full_matrices=False)
    return float(np.clip(s[0], 0.0, 1.0)), u[:, 0], vh[0, :]


def ridge_cca(g_a, g_b, lam: float = DEFAULT_LAMBDA) -> CcaResult:
    """Leading canonical correlation with ridge lam*I on both auto-covariances.

    rho is the leading singular value of the whitened cross-covariance
    (Gamma_aa + lam I)^(-1/2) Gamma_ab (Gamma_bb + lam I)^(-1/2).  It is taken
    the same way for every shape: each side is factored once,
    A/sqrt(m) = U diag(s) V^T, and `_dual_core` solves the small core of the
    two factors.  The back-transformed singular vectors
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
    if not (np.isfinite(lam) and lam >= 0):
        raise ValidationError(f"lambda must be finite and >= 0, got {lam}")
    fa = _dual_factor(a, lam)
    fb = _dual_factor(b, lam)
    rho, x, y = _dual_core(fa.u, fa.sigma, fb.u, fb.sigma, lam)
    w_a = fa.v @ (x / np.sqrt(fa.sigma**2 + lam))
    w_b = fb.v @ (y / np.sqrt(fb.sigma**2 + lam))
    return CcaResult(rho=rho, w_a=w_a, w_b=w_b, lam=lam)


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


def subspace_report(
    bundle: gb.GradientBundle,
    layer: str,
    k: int = DEFAULT_TOP_K,
    lam: float = DEFAULT_LAMBDA,
    normalize_rows: bool = False,
) -> SubspaceReport:
    """Full Method-C result for one layer: spectrum, energies, pairwise CCA."""
    if not (np.isfinite(lam) and lam >= 0):
        raise ValidationError(f"lambda must be finite and >= 0, got {lam}")
    joint = joint_svd(bundle, layer, normalize_rows=normalize_rows)
    k_eff = min(k, joint.sigma.size)
    warnings = []
    if k_eff != k:
        warnings.append(f"top-k clipped from {k} to the spectrum size {k_eff}")
    energies, proportions = energy_proportions(bundle, layer, k_eff, joint=joint)
    top1, g = spectrum_stats(joint.sigma)

    tasks = bundle.tasks
    n = len(tasks)
    cca = np.eye(n)
    samples = [gb.sample_gradients(bundle, t, layer).astype(np.float64) for t in tasks]
    factors = {}  # (task index, row count) -> (U, s) of the task's ridge-CCA factor

    def factor(i, m):
        if (i, m) not in factors:
            f = _dual_factor(samples[i][:m], lam)
            factors[i, m] = f.u, f.sigma
        return factors[i, m]

    def rho(i, j):
        # Rows are paired by index; unequal sample counts truncate to the min.
        # Each entry equals ridge_cca(samples[i][:m], samples[j][:m], lam).rho.
        m = min(samples[i].shape[0], samples[j].shape[0])
        return _dual_core(*factor(i, m), *factor(j, m), lam)[0]

    truncated_any = False
    for i, j in combinations(range(n), 2):
        cca[i, j] = cca[j, i] = rho(i, j)
        truncated_any = truncated_any or samples[i].shape[0] != samples[j].shape[0]
    if truncated_any:
        warnings.append(
            "cca pairing: unequal sample counts truncated to the smaller task "
            "(index pairing is a toolkit choice, not part of the published method)"
        )
    for i in range(n):
        try:
            cca[i, i] = rho(i, i)
        except SingularCovarianceError:
            cca[i, i] = 1.0

    return SubspaceReport(
        layer=layer,
        k=k_eff,
        sigma=joint.sigma,
        energies=energies,
        proportions=proportions,
        top1_share=top1,
        gini=g,
        cca=cca,
        lam=lam,
        tasks=tuple(tasks),
        normalize_rows=normalize_rows,
        warnings=tuple(warnings),
    )
