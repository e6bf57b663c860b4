"""Dense kernels with explicit numerical contracts.

Everything here is a pure function on float64 arrays: `check_finite`, the
one finiteness rule of every matrix, unit rows under `ZERO_NORM_EPS`, the
one zero-norm rule that every cosine in the toolkit uses (Method B applies
it to row norms and forms no unit rows), thin SVD (direct, or from the Gram
matrix of the short side), and the Gini statistic of singular-value spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SvdConvergenceError, ValidationError

ZERO_NORM_EPS = 1e-300


def unit_rows(matrix) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a 2-D matrix scaled to unit norm, plus a mask of the rows scaled.

    A row whose norm is below ZERO_NORM_EPS is degenerate: it stays zero and
    its mask entry is False, so its cosine with any row is 0.  For float32
    data this flags exactly the all-zero rows.  Degenerate rows are a
    data-quality signal, not an error; callers that aggregate cosines count them.
    """
    unit = np.array(matrix, dtype=np.float64)  # always a copy: the input is never written
    norms = np.linalg.norm(unit, axis=1)
    ok = norms >= ZERO_NORM_EPS
    unit /= np.where(ok, norms, 1.0)[:, None]
    unit[~ok] = 0.0
    return unit, ok


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: sigma is non-increasing, u and v have orthonormal columns.

    From `svd` every triplet is accurate to about eps * sigma[0].  From
    `gram_svd` sigma**2 is accurate to about eps * sigma[0]**2, so every
    energy share taken from it is as accurate as from `svd`; a sigma below
    about sqrt(eps) * sigma[0] resolves only to about 1e-8 * sigma[0], its
    column on the long side is only as orthogonal as that allows, and where
    sigma is 0 that column is zero.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T

    def truncate(self, r: int) -> "SvdResult":
        if r < 0 or r > self.sigma.size:
            raise ValidationError(f"truncation rank {r} outside [0, {self.sigma.size}]")
        return SvdResult(self.u[:, :r], self.sigma[:r], self.v[:, :r])


def check_finite(data: np.ndarray, what: str, error=ValidationError) -> None:
    """Raise `error` naming `what` and the first non-finite entry, in row-major
    order, of an array of any rank: by row and col for a matrix, else by index."""
    finite = np.isfinite(data)
    if not finite.all():
        index = [int(i) for i in np.unravel_index(np.argmin(finite), finite.shape)]
        where = "row {}, col {}".format(*index) if len(index) == 2 else f"index {index}"
        raise error(f"{what}: non-finite entry at {where}")


def _finite_matrix(matrix, name: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or min(m.shape) < 1:
        raise ValidationError(f"{name} expects a non-empty 2-D matrix, got shape {m.shape}")
    check_finite(m, f"{name} input")
    return m


def svd(matrix) -> SvdResult:
    """Thin SVD of a finite real matrix."""
    m = _finite_matrix(matrix, "svd")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(
            f"SVD did not converge on a {m.shape[0]}x{m.shape[1]} matrix: {exc}"
        ) from exc
    return SvdResult(u, s, vh.T)


def gram_svd(matrix) -> SvdResult:
    """Thin SVD of a finite real matrix from the Gram matrix of its short side.

    With M wide (rows <= cols), Q from `eigh(M M^T)` is the left factor and
    one projection B = Q^T M gives the rest: sigma_j is the norm of row j of
    B and v_j is that row normalised.  A tall M is handled through M^T.  The
    cost is one min(shape)^2 eigenproblem and two products with M, against
    a full-width SVD.  Taking sigma from the projection, not from the square
    root of an eigenvalue, keeps a zero or rank-deficient tail near
    eps * sigma[0]; see SvdResult for the accuracy of each part.
    """
    m = _finite_matrix(matrix, "gram_svd")
    wide = m.shape[0] <= m.shape[1]
    short = m if wide else m.T
    _, q = np.linalg.eigh(short @ short.T)
    b = q.T @ short
    sigma = np.linalg.norm(b, axis=1)
    order = np.argsort(-sigma, kind="stable")
    q, b, sigma = q[:, order], b[order], sigma[order]
    b /= np.where(sigma > 0.0, sigma, 1.0)[:, None]
    return SvdResult(q, sigma, b.T) if wide else SvdResult(b.T, sigma, q)


def gini(values) -> float:
    """Mean absolute difference over 2*mean: 0 for uniform, (k-1)/k for one-hot.

    gini(x) = sum_ij |x_i - x_j| / (2 k^2 mean(x)) for non-negative x.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValidationError("gini of an empty vector")
    if (x < 0).any():
        raise ValidationError("gini requires non-negative values")
    total = float(x.sum())
    if total <= 0.0:
        raise ValidationError("gini of an all-zero vector is undefined")
    k = x.size
    # O(k log k) via the sorted identity; equals the pairwise double sum.
    xs = np.sort(x)
    ranks = np.arange(1, k + 1, dtype=np.float64)
    pairwise = 2.0 * float(((2.0 * ranks - k - 1.0) * xs).sum())
    return pairwise / (2.0 * k * total)
