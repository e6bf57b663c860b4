"""Output checks computed apart from the program.

Every check here recomputes a published quantity from the benchmark's own
inputs with numpy, by a different route than gdps takes where one exists
(sample-space Gram matrices instead of feature-space SVDs), or tests a
property the method guarantees.  Nothing here imports gdps.  Each function
returns a list of human-readable failures; an empty list means the output
is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from inputs import PlanSpec, read_gdm

LOW, HIGH = 0.05, 0.15  # the paper's thresholds on delta
RATIOS = (0.75, 0.50, 0.25)
TOP_K = 10  # `gdps plan` defaults
LAMBDA = 1e-3


def shared_ratio_rule(delta: float) -> float:
    """The paper's piecewise rule from conflict delta to shared ratio."""
    if delta < LOW:
        return RATIOS[0]
    if delta < HIGH:
        return RATIOS[1]
    return RATIOS[2]


def _close(a, b, tol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)) <= tol))


def load_layer(bundle_dir: Path, spec: PlanSpec, layer: str) -> list[np.ndarray]:
    return [read_gdm(bundle_dir / f"{t}__{layer}.gdm").astype(np.float64) for t in spec.tasks]


def layer_conflict(mats: list[np.ndarray]) -> dict:
    """S_self, S_cross, delta and purity from one Gram matrix of unit rows."""
    units = [g / np.linalg.norm(g, axis=1, keepdims=True) for g in mats]
    sizes = [u.shape[0] for u in units]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    stacked = np.vstack(units)
    gram = stacked @ stacked.T
    n = len(mats)
    selfs, crosses = [], []
    nonneg = cross_pairs = 0
    for a in range(n):
        block = gram[offs[a]:offs[a + 1], offs[a]:offs[a + 1]]
        selfs.append(block[np.triu_indices(sizes[a], k=1)].mean())
        for b in range(a + 1, n):
            block = gram[offs[a]:offs[a + 1], offs[b]:offs[b + 1]]
            crosses.append(block.mean())
            nonneg += int((block >= 0.0).sum())
            cross_pairs += block.size
    s_self, s_cross = float(np.mean(selfs)), float(np.mean(crosses))
    total = sum(m * (m - 1) // 2 for m in sizes) + cross_pairs
    return {"s_self": s_self, "s_cross": s_cross, "delta": s_self - s_cross,
            "purity": nonneg / cross_pairs, "total_pairs": total}


def joint_energy(mats: list[np.ndarray], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and per-task top-k energies from the stacked sample Gram.

    With X = [G_1; ...; G_n] = U S V^T, the energy of task i in the top-k
    right singular directions is sum_j<k s_j^2 ||U[rows_i, j]||^2, so one
    symmetric eigendecomposition of X X^T gives every energy.
    """
    stacked = np.vstack(mats)
    evals, evecs = np.linalg.eigh(stacked @ stacked.T)
    order = np.argsort(evals)[::-1]
    evals, evecs = np.clip(evals[order], 0.0, None), evecs[:, order]
    offs = np.concatenate([[0], np.cumsum([g.shape[0] for g in mats])])
    energies = np.array([
        float((evals[:k] * (evecs[offs[i]:offs[i + 1], :k] ** 2).sum(axis=0)).sum())
        for i in range(len(mats))
    ])
    return np.sqrt(evals), energies


def _ridge_projector(g: np.ndarray, lam: float) -> np.ndarray:
    """K (K + lam I)^-1 for the centred sample Gram K = A A^T / m."""
    m = g.shape[0]
    a = g - g.mean(axis=0)
    k = a @ a.T / m
    return np.linalg.solve(k + lam * np.eye(m), k)


def cca_matrix(mats: list[np.ndarray], lam: float) -> np.ndarray:
    """Leading ridge canonical correlations, from sample-space Gram matrices.

    Off the diagonal, rho^2 is the top eigenvalue of P_a P_b with
    P = K (K + lam I)^-1.  On it, rho = max s^2 / (s^2 + lam) over the
    singular values s of the centred A / sqrt(m).
    """
    n = len(mats)
    rho = np.zeros((n, n))
    proj = [_ridge_projector(g, lam) for g in mats]
    for i, g in enumerate(mats):
        m = g.shape[0]
        s = np.linalg.svd((g - g.mean(axis=0)) / np.sqrt(m), compute_uv=False)
        rho[i, i] = float(np.max(s**2 / (s**2 + lam)))
        for j in range(i + 1, n):
            top = float(np.max(np.linalg.eigvals(proj[i] @ proj[j]).real))
            rho[i, j] = rho[j, i] = math.sqrt(max(top, 0.0))
    return rho


def check_plan(spec: PlanSpec, inputs: Path, out: Path) -> list[str]:
    """Check plan.json and report.json of `gdps plan` against the inputs."""
    fails = []
    plan = json.loads((out / "plan.json").read_text())
    report = json.loads((out / "report.json").read_text())
    bundle = inputs / "bundle"

    groups = {frozenset(g) for g in plan["grouping"]["groups"]}
    if groups != spec.planted_groups():
        fails.append(f"grouping {sorted(map(sorted, groups))} is not the planted partition")

    by_layer = {lc["layer"]: lc for lc in report["conflict"]["layers"]}
    if sorted(by_layer) != spec.layers:
        fails.append(f"conflict covers layers {sorted(by_layer)}, not {spec.layers}")
        return fails
    deltas = []
    first = None
    for layer in spec.layers:
        mats = load_layer(bundle, spec, layer)
        if first is None:
            first = mats
        ref = layer_conflict(mats)
        got = by_layer[layer]
        deltas.append(ref["delta"])
        for key in ("s_self", "s_cross", "delta", "purity"):
            if not _close(got[key], ref[key], 1e-9):
                fails.append(f"{layer}: {key} = {got[key]!r}, recomputed {ref[key]!r}")
        if got["total_pairs"] != ref["total_pairs"] or got["degenerate_pairs"] != 0:
            fails.append(f"{layer}: pair counts {got['total_pairs']}/{got['degenerate_pairs']}, "
                         f"expected {ref['total_pairs']}/0")
    delta = float(np.mean(deltas))
    if not _close(report["conflict"]["delta"], delta, 1e-9):
        fails.append(f"aggregate delta {report['conflict']['delta']!r}, recomputed {delta!r}")
    ratio = shared_ratio_rule(delta)
    if plan["shared_ratio"] != ratio or report["conflict"]["shared_ratio"] != ratio:
        fails.append(f"shared ratio {plan['shared_ratio']} does not follow the rule "
                     f"for delta {delta:.6f} ({ratio})")

    means = np.array([g.mean(axis=0) for g in first])
    unit = means / np.linalg.norm(means, axis=1, keepdims=True)
    sim = np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(sim, 1.0)
    if not _close(report["similarity"], sim, 1e-9):
        fails.append("mean-gradient similarity matrix differs from the recomputation")

    sub = report["subspace"]
    sigma, energies = joint_energy(first, TOP_K)
    if not _close(sub["sigma"], sigma[: len(sub["sigma"])], 1e-9 * sigma[0]):
        fails.append("joint singular values differ from the stacked-Gram eigenvalues")
    props = np.asarray(sub["proportions"])
    if abs(props.sum() - 1.0) > 1e-12:
        fails.append(f"energy proportions sum to {props.sum()!r}")
    if not _close(props, energies / energies.sum(), 1e-7):
        fails.append("energy proportions differ from the stacked-Gram eigendecomposition")

    cca = np.asarray(sub["cca"])
    if not np.array_equal(cca, cca.T) or cca.min() < 0.0 or cca.max() > 1.0:
        fails.append("CCA matrix is not symmetric in [0, 1]")
    ref = cca_matrix(first, LAMBDA)
    if not _close(np.diag(cca), np.diag(ref), 1e-9):
        fails.append("diagonal CCA rho differs from max s^2/(s^2+lambda)")
    if not _close(cca, ref, 1e-7):
        fails.append("off-diagonal CCA rho differs from the sample-space Gram computation")

    n_groups = len(plan["grouping"]["groups"])
    if plan["d_s"] + n_groups * plan["d_p"] != plan["d_ff"] or plan["d_ff"] != spec.d_ff:
        fails.append(f"d_s + N*d_p = {plan['d_s']} + {n_groups}*{plan['d_p']} != d_ff {spec.d_ff}")
    if plan["d_s"] > plan["shared_ratio"] * plan["d_ff"]:
        fails.append(f"d_s {plan['d_s']} exceeds shared_ratio * d_ff")
    share = dict(zip(spec.tasks, energies / energies.sum()))
    p_g = [float(sum(share[t] for t in g)) for g in plan["grouping"]["groups"]]
    if not _close(plan["p_g"], p_g, 1e-7):
        fails.append(f"group energies {plan['p_g']} differ from recomputed {p_g}")
    return fails


def _frobenius_tolerance(d_model: int, width: int, noise: float, scale: float) -> float:
    # Padding noise adds an N(0, noise^2) product of inner width `width`;
    # float32 storage adds a relative error near 2^-24 per factor entry.
    return 6.0 * d_model * math.sqrt(width) * noise**2 + 1e-6 * scale


def check_decompose(spec: PlanSpec, inputs: Path, plan_path: Path, ffn_dir: Path,
                    stdout: str) -> list[str]:
    """Check the specialized block of `gdps decompose` by Eckart-Young."""
    fails = []
    plan = json.loads(plan_path.read_text())
    meta = json.loads((ffn_dir / "ffn.json").read_text())
    n = len(plan["grouping"]["groups"])
    d_model, d_s, d_p, r = spec.d_model, plan["d_s"], plan["d_p"], plan["r"]
    if (meta["d_model"], meta["d_s"], meta["d_p"], meta["n_groups"]) != (d_model, d_s, d_p, n):
        fails.append(f"ffn.json dims {meta} disagree with the plan")
        return fails
    if d_s + n * d_p != spec.d_ff:
        fails.append(f"d_s + N*d_p = {d_s + n * d_p} != d_ff {spec.d_ff}")
    routed = {t: g for g, grp in enumerate(plan["grouping"]["groups"]) for t in grp}
    if meta["routing"] != routed:
        fails.append("routing table does not follow the plan's groups")

    w1 = read_gdm(inputs / "w1.gdm").astype(np.float64)
    w2 = read_gdm(inputs / "w2.gdm").astype(np.float64)
    w_equiv = w2 @ w1
    u, sigma, vt = np.linalg.svd(w_equiv)
    tail = float(np.sqrt((sigma[r:] ** 2).sum()))
    noise = plan["noise_scale"]
    scale = float(np.linalg.norm(w_equiv))

    # Eckart-Young: the shared branch is the rank-r truncation of W, so its
    # residual is the tail energy; group g's branch is p_g times the next t
    # singular triplets, the top-t part of p_g * (W - W_r).
    up = read_gdm(ffn_dir / "shared_up.gdm").astype(np.float64)
    down = read_gdm(ffn_dir / "shared_down.gdm").astype(np.float64)
    if up.shape != (d_s, d_model) or down.shape != (d_model, d_s):
        fails.append(f"shared shapes {up.shape}, {down.shape}")
        return fails
    w_r = (u[:, :r] * sigma[:r]) @ vt[:r]
    tol = _frobenius_tolerance(d_model, d_s - r, noise, scale)
    resid = float(np.linalg.norm(w_equiv - down @ up))
    if abs(resid - tail) > tol or np.linalg.norm(down @ up - w_r) > tol:
        fails.append(f"shared branch is not the rank-{r} truncation "
                     f"(residual {resid!r}, Eckart-Young tail {tail!r})")

    printed = [line for line in stdout.splitlines() if line.startswith("residual frobenius norm")]
    if len(printed) != 1:
        fails.append("decompose did not print its residual")
    else:
        value = float(printed[0].split("=")[1].split()[0])
        if abs(value - tail) > 0.51e-3 * 10 ** math.floor(math.log10(tail)):
            fails.append(f"printed residual {value} is not the Eckart-Young tail {tail:.6e}")

    t = max(1, min(d_p // n, d_model))
    band = (u[:, r:r + t] * sigma[r:r + t]) @ vt[r:r + t]
    tol = _frobenius_tolerance(d_model, d_p - t, noise, scale)
    for g in range(n):
        gu = read_gdm(ffn_dir / f"group{g}_up.gdm").astype(np.float64)
        gd = read_gdm(ffn_dir / f"group{g}_down.gdm").astype(np.float64)
        if gu.shape != (d_p, d_model) or gd.shape != (d_model, d_p):
            fails.append(f"group {g} shapes {gu.shape}, {gd.shape}")
        elif np.linalg.norm(gd @ gu - plan["p_g"][g] * band) > tol:
            fails.append(f"group {g} branch is not p_g times singular triplets {r}..{r + t - 1}")
    return fails


def check_inspect(spec: PlanSpec, stdout: str) -> list[str]:
    """`gdps inspect` must describe exactly the generated bundle."""
    try:
        info = json.loads(stdout)
    except json.JSONDecodeError:
        return ["inspect printed no JSON"]
    fails = []
    if info.get("tasks") != spec.tasks:
        fails.append(f"inspect tasks {info.get('tasks')}")
    if info.get("layers") != [{"id": lay, "cols": spec.cols} for lay in spec.layers]:
        fails.append("inspect layers disagree with the manifest")
    rows = {(e["task"], e["layer"]): e["rows"] for e in info.get("entries", [])}
    if rows != {(t, lay): spec.rows for t in spec.tasks for lay in spec.layers}:
        fails.append("inspect entries disagree with the manifest")
    return fails


def check_simulate(summary_path: Path, seeds: list[int], theta: float, steps: int,
                   planted: list[list[str]]) -> list[str]:
    """No divergence; at theta = 80 specialized wins >= 4 of 5 seeds and the
    plan recovers the planted grouping."""
    fails = []
    summary = json.loads(summary_path.read_text())
    p = summary["params"]
    if (p["seeds"], p["theta"], p["steps"], p["mode"]) != (seeds, theta, steps, "both"):
        fails.append(f"summary params {p} do not echo the command")
    runs = summary["runs"]
    if [run["seed"] for run in runs] != seeds:
        return fails + ["summary does not hold one run per seed"]
    wins = 0
    for run in runs:
        uni, spec = run.get("unified", {}), run.get("specialized", {})
        if "final_mean_loss" not in uni or "final_mean_loss" not in spec:
            fails.append(f"seed {run['seed']}: a training run diverged")
            continue
        losses = [uni["final_mean_loss"], spec["final_mean_loss"]]
        if not all(math.isfinite(x) and x >= 0.0 for x in losses):
            fails.append(f"seed {run['seed']}: losses {losses}")
        wins += int(spec["final_mean_loss"] < uni["final_mean_loss"])
        plan = run["plan"]
        n = len(plan["grouping"]["groups"])
        if plan["d_s"] + n * plan["d_p"] != plan["d_ff"]:
            fails.append(f"seed {run['seed']}: d_s + N*d_p != d_ff")
        if theta >= 80.0 and sorted(map(sorted, plan["grouping"]["groups"])) != sorted(planted):
            fails.append(f"seed {run['seed']}: grouping {plan['grouping']['groups']} "
                         f"is not the planted {planted}")
    if theta >= 80.0 and wins < math.ceil(0.8 * len(seeds)):
        fails.append(f"specialized beat unified on {wins} of {len(seeds)} seeds at theta={theta}")
    return fails
