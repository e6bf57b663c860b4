import weakref

import numpy as np
import pytest
import scipy.linalg

import gdps.bundle
import gdps.subspace
from gdps import pipeline
from gdps.errors import SingularCovarianceError, ValidationError
from gdps.grouping import GroupingPlan, similarity_matrix
from gdps.linalg import gini as linalg_gini
from gdps.linalg import svd, unit_rows
from gdps.subspace import (
    DEFAULT_LAMBDA,
    energy_proportions,
    group_energy,
    joint_spectrum,
    joint_svd,
    layer_stack,
    pairwise_cca,
    ridge_cca,
    spectrum_csv,
    spectrum_stats,
    subspace_report,
)

from conftest import tiny_bundle


def oracle_cca_rho(a, b, lam):
    """Largest generalized eigenvalue route, independent of the SVD solver."""
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    m = a.shape[0]
    caa = a.T @ a / m + lam * np.eye(a.shape[1])
    cbb = b.T @ b / m + lam * np.eye(b.shape[1])
    cab = a.T @ b / m
    lhs = cab @ np.linalg.solve(cbb, cab.T)
    evals = scipy.linalg.eigh(lhs, caa, eigvals_only=True)
    return float(np.sqrt(max(evals.max(), 0.0)))


def primal_cca_rho(a, b, lam):
    """Reference rho by primal whitening: top singular value of
    (Caa + lam I)^(-1/2) Cab (Cbb + lam I)^(-1/2) with d x d covariances.

    At lam = 0 a covariance whose smallest eigenvalue is at the floor
    max(d * largest, 1) * eps raises, as it has no inverse square root.
    """

    def cov(x, y):
        x = x - x.mean(axis=0)
        y = y - y.mean(axis=0)
        return x.T @ y / x.shape[0]

    def inv_sqrt(c):
        sym = 0.5 * (c + c.T) + lam * np.eye(c.shape[0])
        evals, evecs = np.linalg.eigh(sym)
        floor = max(sym.shape[0] * np.abs(evals).max(), 1.0) * np.finfo(np.float64).eps
        if lam <= 0.0 and evals.min() <= floor:
            raise SingularCovarianceError("singular covariance at lambda=0")
        return (evecs / np.sqrt(np.maximum(evals, floor))) @ evecs.T

    core = inv_sqrt(cov(a, a)) @ cov(a, b) @ inv_sqrt(cov(b, b))
    return float(np.clip(np.linalg.svd(core, compute_uv=False)[0], 0.0, 1.0))


def brute_force_energies(bundle, layer, k):
    joint = joint_svd(bundle, layer)
    energies = []
    for task in bundle.tasks:
        g = bundle.matrix(task, layer).data.astype(np.float64)
        e = 0.0
        for j in range(k):
            proj = g @ joint.v[:, j]
            e += float((proj**2).sum())
        energies.append(e)
    return np.array(energies)


def test_joint_svd_single_task_equals_plain(rng):
    rows = rng.standard_normal((6, 4))
    b = tiny_bundle({"a": rows})
    j = joint_svd(b, "L0")
    p = svd(b.matrix("a", "L0").data.astype(np.float64))
    assert np.allclose(j.sigma, p.sigma)


def test_joint_svd_simple_stack():
    b = tiny_bundle({"a": [[1.0, 0.0]], "b": [[0.0, 0.0]]})
    j = joint_svd(b, "L0")
    assert abs(j.sigma[0] - 1.0) < 1e-12
    assert abs(j.sigma[1]) < 1e-12


def test_joint_svd_row_permutation_invariant_sigma(rng):
    rows = {t: rng.standard_normal((4, 5)) for t in ("a", "b", "c")}
    s1 = joint_svd(tiny_bundle(rows), "L0").sigma
    swapped = {"b": rows["b"], "c": rows["c"], "a": rows["a"]}
    s2 = joint_svd(tiny_bundle(swapped), "L0").sigma
    assert np.allclose(s1, s2, atol=1e-10)


def test_energy_hand_example():
    b = tiny_bundle({"g1": [[2.0, 0.0]], "g2": [[1.0, 0.0]]})
    energies, props = energy_proportions(b, "L0", k=1)
    assert np.allclose(energies, [4.0, 1.0], atol=1e-12)
    assert np.allclose(props, [0.8, 0.2], atol=1e-12)


def test_energy_identical_tasks_equal_shares(rng):
    rows = rng.standard_normal((5, 6))
    b = tiny_bundle({"a": rows, "b": rows, "c": rows})
    _, props = energy_proportions(b, "L0", k=3)
    assert np.allclose(props, 1.0 / 3.0, atol=1e-12)


def test_energy_full_k_parseval(rng):
    rows = {t: rng.standard_normal((4, 5)) for t in ("a", "b")}
    b = tiny_bundle(rows)
    joint = joint_svd(b, "L0")
    k = joint.sigma.size
    energies, props = energy_proportions(b, "L0", k=k)
    for i, t in enumerate(("a", "b")):
        frob = float((b.matrix(t, "L0").data.astype(np.float64) ** 2).sum())
        assert abs(energies[i] - frob) < 1e-10 * max(frob, 1.0)
    assert abs(props.sum() - 1.0) < 1e-12


def test_energy_matches_brute_force(rng):
    rows = {t: rng.standard_normal((6, 8)) for t in ("a", "b", "c")}
    b = tiny_bundle(rows)
    for k in (1, 3, 5):
        energies, props = energy_proportions(b, "L0", k=k)
        want = brute_force_energies(b, "L0", k)
        assert np.max(np.abs(energies - want)) < 1e-9
        assert abs(props.sum() - 1.0) < 1e-9
        assert np.all(props >= 0)


def test_energy_row_permutation_within_task(rng):
    rows = rng.standard_normal((6, 5))
    other = rng.standard_normal((4, 5))
    b1 = tiny_bundle({"a": rows, "b": other})
    b2 = tiny_bundle({"a": rows[::-1], "b": other})
    e1, _ = energy_proportions(b1, "L0", k=2)
    e2, _ = energy_proportions(b2, "L0", k=2)
    assert np.allclose(e1, e2, atol=1e-9)


def test_energy_reads_no_task_given_the_joint_factor(rng, monkeypatch):
    rows = {t: rng.standard_normal((m, 12)) for t, m in (("a", 5), ("b", 3), ("c", 7))}
    b = tiny_bundle(rows)
    joint = joint_svd(b, "L0")
    want = brute_force_energies(b, "L0", 4)

    def no_read(*args):
        raise AssertionError("energy_proportions re-read a task")

    monkeypatch.setattr(gdps.bundle, "sample_gradients", no_read)
    energies, _ = energy_proportions(b, "L0", k=4, joint=joint)
    assert np.allclose(energies, want, rtol=1e-12, atol=0.0)


def test_energy_normalized_rows_from_the_joint_factor(rng):
    rows = {t: rng.standard_normal((m, 9)) * (1.0 + 10.0 * rng.random((m, 1)))
            for t, m in (("a", 4), ("b", 6))}
    unit = {t: g / np.linalg.norm(g, axis=1, keepdims=True) for t, g in rows.items()}
    b = tiny_bundle(rows)
    joint = joint_svd(b, "L0", normalize_rows=True)
    energies, props = energy_proportions(b, "L0", k=3, joint=joint)
    want, want_props = energy_proportions(tiny_bundle(unit), "L0", k=3)
    assert np.allclose(energies, want, rtol=1e-6)
    assert np.allclose(props, want_props, rtol=1e-6)


def test_energy_rejects_a_foreign_joint_factor(rng):
    b = tiny_bundle({"a": rng.standard_normal((4, 6)), "b": rng.standard_normal((3, 6))})
    other = tiny_bundle({"a": rng.standard_normal((5, 6)), "b": rng.standard_normal((3, 6))})
    with pytest.raises(ValidationError, match="rows"):
        energy_proportions(b, "L0", k=2, joint=joint_svd(other, "L0"))


def test_energy_k_bounds(rng):
    b = tiny_bundle({"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((2, 4))})
    with pytest.raises(ValidationError):
        energy_proportions(b, "L0", k=0)
    with pytest.raises(ValidationError):
        energy_proportions(b, "L0", k=99)


def test_spectrum_stats_uniform():
    top1, g = spectrum_stats([1.0, 1.0, 1.0, 1.0])
    assert top1 == 0.25
    assert g == 0.0


def test_spectrum_stats_dominant():
    top1, g = spectrum_stats([3.0, 1.0, 1.0, 1.0])
    assert abs(top1 - 0.75) < 1e-12
    assert g > 0.0


def test_spectrum_stats_rank_one():
    top1, g = spectrum_stats([5.0, 0.0, 0.0])
    assert top1 == 1.0


def test_spectrum_stats_matches_linalg_gini(rng):
    sigma = np.sort(np.abs(rng.standard_normal(8)))[::-1]
    _, g = spectrum_stats(sigma)
    assert abs(g - linalg_gini(sigma**2)) < 1e-12


def test_spectrum_stats_validation():
    with pytest.raises(ValidationError):
        spectrum_stats([0.0, 0.0])
    with pytest.raises(ValidationError):
        spectrum_stats([1.0, 2.0])  # increasing


def test_cca_self_correlation_full_rank(rng):
    g = rng.standard_normal((40, 6))
    assert abs(ridge_cca(g, g, 0.0).rho - 1.0) < 1e-6


def test_cca_zero_cross_covariance(rng):
    # columns orthogonal to each other and to the all-ones vector: the
    # cross-covariance is exactly zero and stays so after centering
    m = 24
    q, _ = np.linalg.qr(np.column_stack([np.ones(m), rng.standard_normal((m, 6))]))
    a = q[:, 1:4]
    b = q[:, 4:7]
    res = ridge_cca(a, b, 0.0)
    assert abs(res.rho) < 1e-8


def test_cca_disjoint_support_with_ridge():
    # a lives in dim 1, b in dim 2, and the active sequences are orthogonal
    # after centering, so the cross-covariance is exactly zero
    a = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    b = np.array([[0.0, 5.0], [0.0, 5.0], [0.0, 3.0], [0.0, 3.0]])
    assert ridge_cca(a, b, 0.1).rho < 1e-8


def test_cca_monotone_in_lambda_vs_oracle(rng):
    for _ in range(10):
        a = rng.standard_normal((30, 5))
        b = rng.standard_normal((30, 5))
        rhos = []
        for lam in (0.0, 0.1, 1.0, 10.0):
            got = ridge_cca(a, b, lam).rho
            want = oracle_cca_rho(a, b, lam)
            assert abs(got - want) < 1e-8
            rhos.append(got)
        assert all(x >= y - 1e-12 for x, y in zip(rhos, rhos[1:]))


def test_cca_symmetric(rng):
    a = rng.standard_normal((25, 4))
    b = rng.standard_normal((25, 4))
    for lam in (0.0, 0.5):
        assert abs(ridge_cca(a, b, lam).rho - ridge_cca(b, a, lam).rho) < 1e-10


def test_cca_invariant_under_invertible_maps(rng):
    a = rng.standard_normal((40, 4))
    b = rng.standard_normal((40, 4))
    base = ridge_cca(a, b, 0.0).rho
    for _ in range(3):
        ta = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        tb = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        got = ridge_cca(a @ ta, b @ tb, 0.0).rho
        assert abs(got - base) < 1e-8


def test_cca_directions_unit_regularized_norm(rng):
    a = rng.standard_normal((30, 5))
    b = rng.standard_normal((30, 5))
    lam = 0.3
    res = ridge_cca(a, b, lam)
    ac = a - a.mean(axis=0)
    caa = ac.T @ ac / 30 + lam * np.eye(5)
    assert abs(res.w_a @ caa @ res.w_a - 1.0) < 1e-8


def test_cca_singular_at_lambda_zero(rng):
    a = np.zeros((10, 3))
    a[:, 0] = rng.standard_normal(10)
    with pytest.raises(SingularCovarianceError, match="positive lambda"):
        ridge_cca(a, a.copy(), 0.0)
    full = rng.standard_normal((20, 4))
    deficient = [
        np.column_stack([full, full[:, :1]]),  # a repeated column
        np.column_stack([full, np.zeros(20)]),  # a zero column
        np.column_stack([full, np.full(20, 3.0)]),  # a constant column, zero once centred
        rng.standard_normal((20, 20)),  # d = m: centring leaves rank m - 1
    ]
    for a in deficient:
        with pytest.raises(SingularCovarianceError):
            primal_cca_rho(a, full, 0.0)
        for pair in ((a, full), (full, a)):
            with pytest.raises(SingularCovarianceError, match="positive lambda"):
                ridge_cca(*pair, 0.0)
            assert 0.0 <= ridge_cca(*pair, 1e-3).rho <= 1.0
    # wide sides (d > m) never have an invertible covariance
    for m, d in ((4, 5), (10, 11), (10, 200), (32, 1024)):
        wide = rng.standard_normal((m, d))
        for pair in ((wide, wide), (wide, rng.standard_normal((m, 3)))):
            with pytest.raises(SingularCovarianceError, match="positive lambda"):
                ridge_cca(*pair, 0.0)


def test_cca_row_mismatch():
    with pytest.raises(ValidationError, match="row-count"):
        ridge_cca(np.zeros((3, 2)), np.zeros((4, 2)), 0.1)


def test_cca_dual_route_matches_direct(rng):
    # tall pairs, where the primal whitening exists: the factor route must
    # give the same rho for every lambda, 0 included
    for _ in range(200):
        m = int(rng.integers(10, 61))
        a = rng.standard_normal((m, int(rng.integers(1, m))))
        b = rng.standard_normal((m, int(rng.integers(1, m))))
        for lam in (0.0, 1e-3, 0.1, 1.0, 10.0):
            assert abs(ridge_cca(a, b, lam).rho - primal_cca_rho(a, b, lam)) < 1e-12


def test_cca_dual_used_for_wide_matrices(rng):
    a = rng.standard_normal((10, 200))
    b = rng.standard_normal((10, 200))
    res = ridge_cca(a, b, 0.01)
    assert 0.0 <= res.rho <= 1.0
    with pytest.raises(SingularCovarianceError):
        ridge_cca(a, b, 0.0)


def test_group_energy():
    plan = GroupingPlan((("t0",), ("t1", "t2", "t3")), "consensus", 2)
    p_g = group_energy([0.1, 0.2, 0.3, 0.4], plan, ["t0", "t1", "t2", "t3"])
    assert np.allclose(p_g, [0.1, 0.9])
    single = GroupingPlan((("t0", "t1", "t2", "t3"),), "consensus", 1)
    assert np.allclose(group_energy([0.25] * 4, single, [f"t{i}" for i in range(4)]), [1.0])
    quarter = group_energy([0.25] * 4, plan, [f"t{i}" for i in range(4)])
    assert np.allclose(quarter, [0.25, 0.75])
    with pytest.raises(ValidationError):
        group_energy([0.5, 0.5], plan, ["t0", "t1", "t2", "t3"])


def test_subspace_report_fields(rng):
    rows = {t: rng.standard_normal((6, 10)) for t in ("a", "b", "c")}
    b = tiny_bundle(rows)
    rep = subspace_report(b, "L0", k=4, lam=1e-3)
    assert rep.k == 4
    assert abs(rep.proportions.sum() - 1.0) < 1e-9
    assert 0.0 < rep.top1_share <= 1.0
    assert np.allclose(rep.cca, rep.cca.T, atol=1e-10)
    assert np.all(rep.cca >= -1e-12) and np.all(rep.cca <= 1.0 + 1e-12)
    csv = spectrum_csv(rep.sigma)
    assert csv.splitlines()[0] == "index,sigma,energy_share"
    assert len(csv.splitlines()) == rep.sigma.size + 1
    d = rep.to_dict()
    assert set(d) >= {"layer", "k", "sigma", "proportions", "cca", "lambda"}


def test_subspace_report_truncation_warning(rng):
    # unequal sample counts trigger the index-pairing truncation warning
    b = tiny_bundle({"a": rng.standard_normal((6, 5)), "b": rng.standard_normal((4, 5))})
    rep = subspace_report(b, "L0", k=2)
    assert any("truncated" in w for w in rep.warnings)


def ridge_cca_loop(bundle, layer, lam):
    """The CCA matrix as one ridge_cca call per pair and per diagonal entry."""
    samples = [bundle.matrix(t, layer).data.astype(np.float64) for t in bundle.tasks]
    n = len(samples)
    rho = np.eye(n)
    for i in range(n):
        for j in range(i, n):
            m = min(samples[i].shape[0], samples[j].shape[0])
            try:
                rho[i, j] = rho[j, i] = ridge_cca(samples[i][:m], samples[j][:m], lam).rho
            except SingularCovarianceError:
                rho[i, j] = rho[j, i] = 1.0
    return rho


def test_subspace_report_cca_equals_ridge_cca_loop_dual_route(rng):
    # d > 4m on every pair: the factored sample-space route, with truncated pairs
    rows = {"a": 9, "b": 12, "c": 9, "d": 15}
    b = tiny_bundle({t: rng.standard_normal((m, 80)) for t, m in rows.items()})
    for lam in (1e-3, 0.5):
        report = subspace_report(b, "L0", k=3, lam=lam)
        assert np.array_equal(report.cca, ridge_cca_loop(b, "L0", lam))
        assert any("truncated" in w for w in report.warnings)


def test_subspace_report_cca_equals_ridge_cca_loop_primal_route(rng):
    # tall tasks (d < m), where the primal whitening exists, including lambda = 0
    rows = {"a": 20, "b": 24, "c": 20}
    b = tiny_bundle({t: rng.standard_normal((m, 6)) for t, m in rows.items()})
    samples = [b.matrix(t, "L0").data.astype(np.float64) for t in b.tasks]
    for lam in (0.0, 1e-3):
        report = subspace_report(b, "L0", k=3, lam=lam)
        assert np.array_equal(report.cca, ridge_cca_loop(b, "L0", lam))
        for i in range(3):
            for j in range(3):
                m = min(samples[i].shape[0], samples[j].shape[0])
                want = primal_cca_rho(samples[i][:m], samples[j][:m], lam)
                assert abs(report.cca[i, j] - want) < 1e-12


def test_subspace_report_diagonal_equals_ridge_cca_on_shared_factor(rng):
    # 32 x 1024 per task (the simulate probe's shape): the diagonal's Ua^T Ua
    # comes from one cached factor and must still round as ridge_cca(a, a) does
    b = tiny_bundle({t: rng.standard_normal((32, 1024)) for t in "abcd"})
    report = subspace_report(b, "L0", k=3)
    assert np.array_equal(report.cca, ridge_cca_loop(b, "L0", DEFAULT_LAMBDA))


def test_subspace_report_factors_each_task_once(rng, monkeypatch):
    n, m, d = 5, 8, 64
    b = tiny_bundle({f"t{i}": rng.standard_normal((m, d)) for i in range(n)})
    shapes = {"svd": [], "eigh": []}

    def counting(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, call)

    counting("svd")
    counting("eigh")
    subspace_report(b, "L0", k=3)

    def matrices(name, shape):
        # a batched call over a (..., r, c) stack counts each matrix in it
        return sum(int(np.prod(s[:-2])) for s in shapes[name] if s[-2:] == shape)

    assert shapes["eigh"].count((m, m)) == n  # one m x m sample Gram per task
    assert shapes["eigh"].count((n * m, n * m)) == 1  # the joint stack's Gram
    assert matrices("svd", (m, d)) == 0  # no d-wide SVD is left
    assert matrices("svd", (m, m)) == n * (n + 1) // 2  # one core per pair and diagonal entry
    assert len(shapes["svd"]) == n * (n + 1) // 2  # one values-only call per core, as it is formed


def assert_parts_reproduce_the_report(b, k, normalize_rows=False):
    joint = joint_svd(b, "L0", normalize_rows=normalize_rows)
    energies, props = energy_proportions(b, "L0", k, joint=joint)
    top1, g = spectrum_stats(joint.sigma)
    rho = ridge_cca_loop(b, "L0", DEFAULT_LAMBDA)
    options = pipeline.PlanOptions(top_k=k, normalize_rows=normalize_rows, k_groups=2)
    for report in (subspace_report(b, "L0", k=k, normalize_rows=normalize_rows),
                   pipeline.plan(b, options)[1].subspace):
        assert np.array_equal(joint.sigma, report.sigma)
        assert np.array_equal(energies, report.energies)
        assert np.array_equal(props, report.proportions)
        assert (top1, g) == (report.top1_share, report.gini)
        assert np.array_equal(rho, report.cca)


def test_joint_svd_and_energy_proportions_reproduce_the_report_bit_for_bit(rng, monkeypatch):
    # the traced benchmark rebuilds a report from its public parts with
    # array_equal; plan's spectrum half on its thread or inline changes no bit
    wide = tiny_bundle({t: rng.standard_normal((m, 70)) for t, m in (("a", 6), ("b", 9), ("c", 6))})
    tall = tiny_bundle({t: rng.standard_normal((m, 7)) for t, m in (("a", 12), ("b", 10))})
    scaled = tiny_bundle({t: rng.standard_normal((8, 30)) * (1.0 + 10.0 * rng.random((8, 1)))
                          for t in "abc"})
    for gate in (0, 1 << 62):  # every stack on the thread, then none
        monkeypatch.setattr(pipeline, "OVERLAP_MIN_BYTES", gate)
        assert_parts_reproduce_the_report(wide, 4)
        assert_parts_reproduce_the_report(tall, 3)
        assert_parts_reproduce_the_report(scaled, 5, normalize_rows=True)


def test_report_above_the_overlap_gate_is_bit_for_bit_its_parts(rng):
    # a stack large enough that plan runs the spectrum half on its own thread
    rows = {t: rng.standard_normal((m, 4096)).astype(np.float32)
            for t, m in (("a", 64), ("b", 80), ("c", 48), ("d", 64))}
    b = tiny_bundle(rows)
    assert layer_stack(b, "L0").nbytes >= pipeline.OVERLAP_MIN_BYTES
    assert_parts_reproduce_the_report(b, 10)
    assert_parts_reproduce_the_report(b, 10, normalize_rows=True)


def test_layer_stack_blocks_are_views_of_one_float64_stack(rng):
    rows = {t: rng.standard_normal((m, 5)).astype(np.float32) for t, m in (("a", 3), ("b", 4))}
    stack = layer_stack(tiny_bundle(rows), "L0")
    assert stack.dtype == np.float64 and stack.shape == (7, 5)
    # each task's rows are one block of the stack, in task order
    assert np.array_equal(stack[:3], rows["a"].astype(np.float64))
    assert np.array_equal(stack[3:], rows["b"].astype(np.float64))


def spy_on_stacks(monkeypatch):
    """Weak references to every stack layer_stack returns to gdps.subspace."""
    refs = []
    real = gdps.subspace.layer_stack

    def fetch(bundle, layer):
        stack = real(bundle, layer)
        refs.append(weakref.ref(stack))
        return stack

    monkeypatch.setattr(gdps.subspace, "layer_stack", fetch)
    return refs


def spy_on_eigh(monkeypatch, seen):
    """Call seen() inside every np.linalg.eigh, before it allocates."""
    real = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        seen()
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)


@pytest.mark.parametrize("normalize_rows", [False, True])
def test_wide_joint_spectrum_lets_the_stack_go_before_eigh(rng, monkeypatch, normalize_rows):
    # a wide stack's U is eigh's own eigenvectors: the stack, and its unit
    # rows, are dropped once the Gram is formed
    b = tiny_bundle({t: rng.standard_normal((6, 40)) for t in "abc"})
    want = (joint_spectrum(b, "L0", 4, normalize_rows), joint_svd(b, "L0", normalize_rows))
    refs = spy_on_stacks(monkeypatch)
    units = []
    real_unit_rows = gdps.subspace.unit_rows

    def unit_rows(x):
        unit, ok = real_unit_rows(x)
        units.append(weakref.ref(unit))
        return unit, ok

    monkeypatch.setattr(gdps.subspace, "unit_rows", unit_rows)
    inside = []
    spy_on_eigh(monkeypatch, lambda: inside.append(
        (b._stacks.get("L0"), [r() for r in refs + units])))
    got = joint_spectrum(b, "L0", 4, normalize_rows)
    assert len(refs) == 1 and len(units) == int(normalize_rows)
    assert inside == [(None, [None] * (1 + normalize_rows))]
    assert np.array_equal(got.sigma, want[0].sigma)
    assert np.array_equal(got.sigma, want[1].sigma)
    assert np.array_equal(got.energies, want[0].energies)


def test_tall_joint_spectrum_keeps_the_stack_for_u(rng, monkeypatch):
    # a tall stack's U = X V / sigma needs X after eigh: sigma and U are joint_svd's
    b = tiny_bundle({t: rng.standard_normal((m, 7)) for t, m in (("a", 12), ("b", 10))})
    joint = joint_svd(b, "L0")
    refs = spy_on_stacks(monkeypatch)
    inside = []
    spy_on_eigh(monkeypatch, lambda: inside.append(b._stacks.get("L0") is not None))
    got = joint_spectrum(b, "L0", 3)
    assert inside == [True] and refs[0]() is None
    assert np.array_equal(got.sigma, joint.sigma)
    energies, props = energy_proportions(b, "L0", 3, joint=joint)
    assert np.array_equal(got.energies, energies)
    assert np.array_equal(got.proportions, props)


def test_similarity_and_cca_never_cast_the_whole_layer(rng, monkeypatch):
    # Method A's means and the CCA's centring read each task's stored rows,
    # with the same bits as from their float64 cast
    b = tiny_bundle({t: rng.standard_normal((m, 30)) for t, m in (("a", 8), ("b", 6), ("c", 8))})
    unit, _ = unit_rows(np.stack([b.matrix(t, "L0").data.astype(np.float64).mean(axis=0)
                                  for t in b.tasks]))
    cosines = np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(cosines, 1.0)
    want = (cosines, ridge_cca_loop(b, "L0", DEFAULT_LAMBDA))
    calls = []
    monkeypatch.setattr(gdps.bundle, "layer_stack", lambda *args: calls.append(args))
    monkeypatch.setattr(gdps.subspace, "layer_stack", lambda *args: calls.append(args))
    assert np.array_equal(similarity_matrix(b, "L0").s, want[0])
    assert np.array_equal(pairwise_cca(b, "L0", DEFAULT_LAMBDA), want[1])
    assert calls == []


def test_subspace_report_factors_only_the_task_samples(rng, monkeypatch):
    n, m, d = 4, 6, 50
    b = tiny_bundle({f"t{i}": rng.standard_normal((m, d)) for i in range(n)})
    shapes = []
    real = gdps.subspace.gram_svd

    def spy(matrix):
        shapes.append(np.shape(matrix))
        return real(matrix)

    def no_joint(*args, **kwargs):
        raise AssertionError("subspace_report called joint_svd")

    monkeypatch.setattr(gdps.subspace, "gram_svd", spy)
    monkeypatch.setattr(gdps.subspace, "joint_svd", no_joint)
    subspace_report(b, "L0", k=3)
    assert shapes == [(m, d)] * n  # one CCA factor per task; the stack never goes through gram_svd


def direct_energies(b, layer, k):
    """Energies and shares from np.linalg.svd of the float64 stack."""
    samples = [b.matrix(t, layer).data.astype(np.float64) for t in b.tasks]
    _, _, vh = np.linalg.svd(np.vstack(samples), full_matrices=False)
    energies = np.array([float(((g @ vh[:k].T) ** 2).sum()) for g in samples])
    return energies, energies / energies.sum()


def test_subspace_report_energies_match_a_direct_svd(rng):
    a = rng.standard_normal((12, 40))
    cases = [
        # rank-deficient stack: two identical tasks, rank 24 of 36 rows
        (tiny_bundle({"a": a, "b": rng.standard_normal((12, 40)), "c": a}), (1, 5, 20)),
        # tall stack: 45 rows of 9 columns
        (tiny_bundle({t: rng.standard_normal((15, 9)) for t in "abc"}), (1, 4, 9)),
    ]
    for b, ks in cases:
        for k in ks:
            report = subspace_report(b, "L0", k=k)
            want, want_props = direct_energies(b, "L0", k)
            assert np.allclose(report.energies, want, rtol=1e-12, atol=0.0)
            assert np.allclose(report.proportions, want_props, rtol=1e-12, atol=0.0)


def test_subspace_report_zero_direction_sigma_bound(rng):
    # The joint sigma are square roots of Gram eigenvalues, so a zero direction
    # reports up to about sqrt(eps) * sigma_0, not 0: measured at most
    # 2.0e-8 * sigma_0 here and 2.9e-8 * sigma_0 on 16 x 64 x 4096 stacks of
    # 8 duplicated tasks.
    for _ in range(20):
        m = int(rng.integers(4, 40))
        d = int(rng.integers(3 * m + 1, 300))
        a = rng.standard_normal((m, d)) * rng.uniform(0.01, 100.0)
        b = tiny_bundle({"a": a, "b": a, "c": rng.standard_normal((m, d))})
        sigma = subspace_report(b, "L0", k=3).sigma
        assert sigma.size == 3 * m
        assert np.all(sigma[2 * m:] <= 1e-7 * sigma[0])


def test_subspace_report_rejects_negative_lambda(rng):
    b = tiny_bundle({"a": rng.standard_normal((4, 40)), "b": rng.standard_normal((4, 40))})
    with pytest.raises(ValidationError, match="lambda"):
        subspace_report(b, "L0", k=2, lam=-1.0)
