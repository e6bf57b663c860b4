import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdps.errors import BundleFormatError, ValidationError
from gdps.linalg import check_finite, gini, gram_svd, svd, unit_rows


def brute_force_gini(x):
    x = np.asarray(x, dtype=np.float64)
    k = x.size
    total = 0.0
    for i in range(k):
        for j in range(k):
            total += abs(x[i] - x[j])
    return total / (2.0 * k * k * x.mean())


def cosines(*rows):
    """Every pairwise cosine of the given rows, from their unit rows."""
    unit, _ = unit_rows(np.array(rows, dtype=np.float64))
    return unit @ unit.T


def test_cosine_identity():
    assert cosines([1.0, 0.0], [1.0, 0.0])[0, 1] == 1.0


def test_cosine_orthogonal():
    assert cosines([1.0, 0.0], [0.0, 1.0])[0, 1] == 0.0


def test_cosine_analytic_45_degrees():
    assert abs(cosines([1.0, 1.0], [1.0, 0.0])[0, 1] - 0.70710678) < 1e-8


def test_cosine_zero_norm_flagged_not_raised():
    unit, ok = unit_rows(np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]]))
    assert ok.tolist() == [False, True, True]
    assert np.array_equal(unit[0], [0.0, 0.0])
    assert np.allclose(unit[2], [0.6, 0.8], rtol=0, atol=1e-16)
    c = unit @ unit.T
    assert c[0, 1] == c[0, 2] == 0.0


def test_cosine_clamped_and_scale_invariant(rng):
    for _ in range(50):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        c = cosines(u, v)
        assert np.all(np.abs(c) <= 1.0 + 1e-15)
        assert np.all(np.abs(np.diag(c) - 1.0) <= 1e-15)
        assert abs(cosines(3.7 * u, 0.002 * v)[0, 1] - c[0, 1]) < 1e-12
        assert cosines(v, u)[0, 1] == c[0, 1] == c[1, 0]


def masked_divide_unit_rows(matrix):
    """The reference formula: a masked divide into a zeroed output."""
    g = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(g, axis=1)
    ok = norms >= 1e-300
    return np.divide(g, norms[:, None], out=np.zeros_like(g), where=ok[:, None]), ok


def test_unit_rows_bit_identical_to_masked_divide_and_input_untouched(rng):
    random = rng.standard_normal((9, 7))
    random[[2, 5]] = 0.0
    subnormal = np.zeros((4, 3))
    subnormal[0, 0] = 5e-324  # norm below ZERO_NORM_EPS: degenerate, not divided
    subnormal[1] = [1e-301, -2e-301, 0.0]
    subnormal[2] = [1e-150, 3e-150, -1e-150]
    subnormal[3, 2] = -7.0
    inputs = [
        random,
        np.zeros((3, 5)),
        subnormal,
        rng.standard_normal((6, 11)).astype(np.float32) * np.float32(1e-41),
        (rng.standard_normal((6, 11)) * 1e37).astype(np.float32),
    ]
    for matrix in inputs:
        before = matrix.copy()
        unit, ok = unit_rows(matrix)
        want, want_ok = masked_divide_unit_rows(matrix)
        assert unit.dtype == np.float64
        assert np.array_equal(unit, want) and np.array_equal(ok, want_ok)
        assert not np.signbit(unit[~ok]).any()
        assert np.array_equal(matrix, before)
    assert unit_rows(subnormal)[1].tolist() == [False, False, True, True]


def test_svd_diagonal():
    res = svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(res.sigma, [3.0, 2.0, 1.0])


def test_svd_rank_one():
    a = np.array([2.0, 0.0, 0.0])
    b = np.array([0.0, 5.0])
    res = svd(np.outer(a, b))
    assert abs(res.sigma[0] - 10.0) < 1e-10
    assert np.all(res.sigma[1:] < 1e-10)


def test_svd_reconstruction_random(rng):
    m = rng.standard_normal((20, 8))
    res = svd(m)
    rel = np.linalg.norm(m - res.reconstruct()) / np.linalg.norm(m)
    assert rel <= 1e-10
    # orthonormal factors
    assert np.allclose(res.u.T @ res.u, np.eye(8), atol=1e-8)
    assert np.allclose(res.v.T @ res.v, np.eye(8), atol=1e-8)
    assert np.all(np.diff(res.sigma) <= 1e-12)


def test_svd_frobenius_identity(rng):
    for _ in range(10):
        m = rng.standard_normal((rng.integers(2, 12), rng.integers(2, 12)))
        res = svd(m)
        assert abs((res.sigma**2).sum() - (m**2).sum()) <= 1e-10 * (m**2).sum()


def test_svd_eckart_young(rng):
    m = rng.standard_normal((12, 9))
    res = svd(m)
    for k in (1, 3, 7):
        approx = res.truncate(k).reconstruct()
        resid = np.linalg.norm(m - approx)
        tail = np.sqrt((res.sigma[k:] ** 2).sum())
        assert abs(resid - tail) <= 1e-8 * max(tail, 1.0)


def test_svd_rejects_bad_input():
    with pytest.raises(ValidationError):
        svd(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValidationError):
        svd(np.zeros((0, 3)))


def assert_gram_svd_matches_svd(mat):
    """gram_svd against np.linalg.svd: shapes, sigma within 1e-12 * sigma_0, factors."""
    got = gram_svd(mat)
    want = np.linalg.svd(mat, compute_uv=False)
    k = min(mat.shape)
    assert got.u.shape == (mat.shape[0], k)
    assert got.v.shape == (mat.shape[1], k)
    assert np.all(np.diff(got.sigma) <= 0.0)
    scale = max(float(want[0]), np.finfo(np.float64).tiny)
    assert np.max(np.abs(got.sigma - want)) <= 1e-12 * scale
    # the factors reproduce the matrix, and the Gram side is orthonormal
    assert np.max(np.abs(got.reconstruct() - mat)) <= 1e-12 * scale
    short = got.u if mat.shape[0] <= mat.shape[1] else got.v
    assert np.allclose(short.T @ short, np.eye(k), atol=1e-12)
    return got


def planted_stack(rng, n_tasks, rows, cols, noise=0.5):
    """Row-wise stack of tasks shaped like the benchmark's: a planted direction plus noise."""
    dirs = np.linalg.qr(rng.standard_normal((cols, n_tasks)))[0].T
    blocks = [
        np.abs(1.0 + 0.1 * rng.standard_normal(rows))[:, None] * dirs[i]
        + noise / np.sqrt(cols) * rng.standard_normal((rows, cols))
        for i in range(n_tasks)
    ]
    return np.vstack(blocks).astype(np.float32).astype(np.float64)


def test_gram_svd_wide_benchmark_shape(rng):
    # 16 tasks x 64 samples x 4096 columns, float32-valued like a bundle
    assert_gram_svd_matches_svd(planted_stack(rng, 16, 64, 4096))


def test_gram_svd_tall(rng):
    assert_gram_svd_matches_svd(planted_stack(rng, 5, 60, 40))
    assert_gram_svd_matches_svd(rng.standard_normal((300, 7)))


def test_gram_svd_duplicate_tasks(rng):
    a, b = rng.standard_normal((12, 90)), rng.standard_normal((12, 90))
    assert_gram_svd_matches_svd(np.vstack([a, b, a, a]))
    assert_gram_svd_matches_svd(np.vstack([a, b, a, a]).T)


def test_gram_svd_rank_deficient(rng):
    low = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 120))
    got = assert_gram_svd_matches_svd(low)
    assert np.all(got.sigma[3:] <= 1e-13 * got.sigma[0])
    assert_gram_svd_matches_svd(low.T)


def test_gram_svd_zero_rows_and_zero_matrix(rng):
    mat = rng.standard_normal((20, 50))
    mat[[0, 7, 8, 19]] = 0.0
    assert_gram_svd_matches_svd(mat)
    assert_gram_svd_matches_svd(mat.T)
    zero = gram_svd(np.zeros((4, 9)))
    assert np.array_equal(zero.sigma, np.zeros(4))
    # where sigma is 0 the column of the long side is zero
    assert np.array_equal(zero.v, np.zeros((9, 4)))


def test_gram_svd_graded_spectrum(rng):
    n, d = 48, 400
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((d, n)))[0]
    sigma = np.logspace(0.0, -12.0, n)
    for mat in ((u * sigma) @ v.T, v @ (sigma[:, None] * u.T)):
        got = gram_svd(mat)
        want = np.linalg.svd(mat, compute_uv=False)
        # energies are accurate to eps * sigma_0^2 over the whole spectrum
        assert np.max(np.abs(got.sigma**2 - want**2)) <= 1e-13 * want[0] ** 2
        # sigma itself is accurate to eps * sigma_0 above sqrt(eps) * sigma_0
        head = want >= 1e-6 * want[0]
        assert np.max(np.abs(got.sigma[head] - want[head])) <= 1e-12 * want[0]


@settings(max_examples=60, deadline=None, database=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    rank=st.integers(0, 40),
    zero_rows=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_svd_property_random_shapes(rows, cols, rank, zero_rows, seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)  # 0 stands for a full-rank draw
    if rank == 0:
        mat = rng.standard_normal((rows, cols))
    else:
        mat = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    mat[rng.permutation(rows)[:zero_rows]] = 0.0
    assert_gram_svd_matches_svd(mat)


@pytest.mark.parametrize("shape, bad, where", [
    ((3, 4), (1, 2), "row 1, col 2"),
    ((2, 3, 4), (0, 0, 0), "index [0, 0, 0]"),
    ((2, 3, 4), (1, 2, 0), "index [1, 2, 0]"),
    ((5,), (3,), "index [3]"),
    ((), (), "index []"),
])
def test_check_finite_names_the_first_bad_entry_of_any_rank(shape, bad, where):
    data = np.zeros(shape)
    data[bad] = np.nan
    if data.ndim:
        data.reshape(-1)[-1] = np.inf  # a later bad entry is not the one named
    with pytest.raises(BundleFormatError) as info:
        check_finite(data, "x", BundleFormatError)
    assert str(info.value) == f"x: non-finite entry at {where}"
    check_finite(np.zeros(shape), "x")


def test_gram_svd_rejects_bad_input():
    with pytest.raises(ValidationError, match="gram_svd"):
        gram_svd(np.array([[np.inf, 1.0]]))
    with pytest.raises(ValidationError, match="gram_svd"):
        gram_svd(np.zeros((3, 0)))


def test_gini_uniform_is_zero():
    assert gini([1.0, 1.0, 1.0, 1.0]) == 0.0


def test_gini_one_hot():
    # brute force: sum |x_i - x_j| = 6, denominator 2*16*0.25 = 8
    assert abs(brute_force_gini([1.0, 0.0, 0.0, 0.0]) - 0.75) < 1e-15
    assert abs(gini([1.0, 0.0, 0.0, 0.0]) - 0.75) < 1e-12


def test_gini_2_1_1_matches_brute_force():
    want = brute_force_gini([2.0, 1.0, 1.0])  # = 4 / 24 = 1/6
    assert abs(want - 1.0 / 6.0) < 1e-15
    assert abs(gini([2.0, 1.0, 1.0]) - want) < 1e-12


def test_gini_random_matches_brute_force(rng):
    for _ in range(20):
        x = rng.random(int(rng.integers(2, 12)))
        assert abs(gini(x) - brute_force_gini(x)) < 1e-10


def test_gini_invariances(rng):
    x = rng.random(9)
    g = gini(x)
    assert abs(gini(x[::-1]) - g) < 1e-12
    assert abs(gini(17.3 * x) - g) < 1e-12
    assert 0.0 <= g < 1.0


def test_gini_errors():
    with pytest.raises(ValidationError):
        gini([0.0, 0.0])
    with pytest.raises(ValidationError):
        gini([1.0, -0.5])
    with pytest.raises(ValidationError):
        gini([])


def test_svdresult_truncate_bounds(rng):
    res = svd(rng.standard_normal((5, 4)))
    with pytest.raises(ValidationError):
        res.truncate(9)
