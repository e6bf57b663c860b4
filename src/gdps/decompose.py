"""Materialize a sharing plan as a decomposed, routed feed-forward block.

The unified block's equivalent map W_equiv = W2 @ W1 is SVD-factored once;
the top-r symmetric factors (U_r sqrt(S_r), sqrt(S_r) V_r^T) seed the shared
branch and are padded with small seeded Gaussian noise up to the shared
width.  The residual W_equiv - W_r of the noise-free rank-r reconstruction
is, by Eckart-Young, the tail of the same factorization: each group's
private branch is built from singular triplets r .. r+t-1 scaled by the
group's energy share p_g, so the residual is never factored again.  Padding
noise exists to break symmetry for later training and must not bias the
private initialization.

Forward evaluation routes each task to its group: the input goes through the
shared up-projection and the group's private up-projection, both activated,
and the two hidden blocks are projected back and summed (equivalently, a
concatenated hidden layer of width d_s + d_p with a split down-projection).
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bundle import (dump_json, is_json_int, is_json_number, json_field, read_json,
                     read_matrix_file, write_matrix_file, write_text)
from .errors import AnalysisError, ValidationError
from .grouping import GroupingPlan
from .linalg import SvdResult, check_finite, svd

DEFAULT_NOISE_SCALE = 1e-4
DEFAULT_SEED = 2343
DEFAULT_ACTIVATION = "silu"
ACTIVATIONS = ("identity", "relu", "silu", "tanh")


def _sigmoid(a):
    # exp(-|a|) never overflows; where() picks the numerator, 1 or e, of one division
    a = np.asarray(a, dtype=np.float64)
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


def activation_pair(name: str):
    """a -> (act(a), act'(a)), sharing the sigmoid or tanh between the two."""
    if name == "identity":
        return lambda a: (a, np.ones_like(a))
    if name == "relu":
        return lambda a: (np.maximum(a, 0.0), (a > 0.0).astype(np.float64))
    if name == "silu":
        def silu_pair(a):
            s = _sigmoid(a)
            return a * s, s * (1.0 + a * (1.0 - s))
        return silu_pair
    if name == "tanh":
        def tanh_pair(a):
            t = np.tanh(a)
            return t, 1.0 - t**2
        return tanh_pair
    raise ValidationError(f"unknown activation {name!r}; choose from {ACTIVATIONS}")


def activation_fn(name: str):
    """a -> act(a), the first half of `activation_pair`."""
    pair = activation_pair(name)
    return lambda a: pair(a)[0]


@dataclass(frozen=True)
class UnifiedFfnWeights:
    """The block being decomposed: up-projection w1, down-projection w2."""

    d_model: int
    d_ff: int
    w1: np.ndarray  # d_ff x d_model
    w2: np.ndarray  # d_model x d_ff

    def __post_init__(self):
        object.__setattr__(self, "w1", np.asarray(self.w1, dtype=np.float64))
        object.__setattr__(self, "w2", np.asarray(self.w2, dtype=np.float64))
        if self.w1.shape != (self.d_ff, self.d_model):
            raise ValidationError(
                f"w1 shape {self.w1.shape} != (d_ff, d_model) = ({self.d_ff}, {self.d_model})"
            )
        if self.w2.shape != (self.d_model, self.d_ff):
            raise ValidationError(
                f"w2 shape {self.w2.shape} != (d_model, d_ff) = ({self.d_model}, {self.d_ff})"
            )
        # read_matrix_file names the file of a stored weight; this covers weights built in memory
        check_finite(self.w1, "unified weights w1")
        check_finite(self.w2, "unified weights w2")


@dataclass(frozen=True)
class DecompositionPlan:
    """Everything needed to split one FFN block: widths, energies, seeds."""

    grouping: GroupingPlan
    shared_ratio: float
    d_model: int
    d_ff: int
    d_s: int
    d_p: int
    p_g: tuple[float, ...]
    r: int
    noise_scale: float = DEFAULT_NOISE_SCALE
    seed: int = DEFAULT_SEED
    activation: str = DEFAULT_ACTIVATION

    def __post_init__(self):
        n = len(self.grouping.groups)
        if self.d_s <= 0 or self.d_p <= 0:
            raise ValidationError(f"widths must be positive: d_s={self.d_s}, d_p={self.d_p}")
        if self.d_s + n * self.d_p != self.d_ff:
            raise ValidationError(
                f"width split violated: d_s + N*d_p = {self.d_s} + {n}*{self.d_p} "
                f"!= d_ff = {self.d_ff}"
            )
        if len(self.p_g) != n:
            raise ValidationError(f"{len(self.p_g)} group energies for {n} groups")
        # written so that a NaN, which fails every comparison, fails the test
        if not (all(p >= 0 for p in self.p_g) and abs(sum(self.p_g) - 1.0) <= 1e-9):
            raise ValidationError(
                f"group energies must be finite, non-negative and sum to 1: {self.p_g}"
            )
        if not 0 < self.shared_ratio <= 1:
            raise ValidationError(f"shared_ratio must be in (0, 1], got {self.shared_ratio}")
        if not 1 <= self.r <= min(self.d_model, self.d_s):
            raise ValidationError(
                f"truncation rank r={self.r} outside [1, min(d_model, d_s) = "
                f"{min(self.d_model, self.d_s)}]"
            )
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValidationError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")

    @property
    def n_groups(self) -> int:
        return len(self.grouping.groups)

    @property
    def routing(self) -> dict:
        """task -> index of its group in the grouping."""
        return {task: g for g, group in enumerate(self.grouping.groups) for task in group}

    def to_dict(self) -> dict:
        return {
            "grouping": self.grouping.to_dict(),
            "shared_ratio": self.shared_ratio,
            "d_model": self.d_model,
            "d_ff": self.d_ff,
            "d_s": self.d_s,
            "d_p": self.d_p,
            "p_g": list(self.p_g),
            "r": self.r,
            "noise_scale": self.noise_scale,
            "seed": self.seed,
            "activation": self.activation,
        }

    @classmethod
    def from_dict(cls, d: dict, src: str = "plan") -> "DecompositionPlan":
        """Inverse of to_dict; a missing field, one of the wrong kind or a
        violated invariant raises ValidationError naming `src` and the field.

        The integer fields must be JSON integers (not bools or floats), the
        seed non-negative, and shared_ratio, noise_scale and each p_g entry
        finite JSON numbers.
        """
        if not isinstance(d, dict):
            raise ValidationError(f"{src}: a plan is a JSON object, got {type(d).__name__}")
        grouping = GroupingPlan.from_dict(
            json_field(src, d, "grouping", dict, "an object"), f"{src}: grouping")
        fields = {name: json_field(src, d, name, is_json_int, "an integer")
                  for name in ("d_model", "d_ff", "d_s", "d_p", "r")}
        fields["seed"] = json_field(src, d, "seed", lambda v: is_json_int(v, minimum=0),
                                    "an integer >= 0")
        for name in ("shared_ratio", "noise_scale"):
            fields[name] = float(json_field(src, d, name, is_json_number, "a finite number"))
        p_g = json_field(src, d, "p_g",
                         lambda v: isinstance(v, list) and all(is_json_number(x) for x in v),
                         "a list of finite numbers")
        activation = json_field(src, d, "activation", str, "a string")
        try:
            return cls(grouping=grouping, p_g=tuple(float(x) for x in p_g),
                       activation=activation, **fields)
        except ValidationError as exc:
            raise ValidationError(f"{src}: {exc}") from exc


def split_widths(d_ff: int, shared_ratio: float, n_groups: int) -> tuple[int, int]:
    """Largest feasible (d_s, d_p) with d_s <= ratio*d_ff and d_s + N*d_p = d_ff.

    d_s is rounded down until the leftover capacity divides evenly across the
    groups and d_s itself is a multiple of the group count.
    """
    if n_groups < 1:
        raise ValidationError("need at least one group")
    if not 0 < shared_ratio <= 1:
        raise ValidationError(f"shared ratio must be in (0, 1], got {shared_ratio}")
    target = int(np.floor(shared_ratio * d_ff))
    for d_s in range(target, 0, -1):
        if d_s % n_groups == 0 and (d_ff - d_s) % n_groups == 0 and d_ff - d_s > 0:
            return d_s, (d_ff - d_s) // n_groups
    raise ValidationError(
        f"no feasible shared/private split for d_ff={d_ff}, ratio={shared_ratio}, "
        f"N={n_groups}"
    )


def make_plan(
    grouping: GroupingPlan,
    shared_ratio: float,
    d_model: int,
    d_ff: int,
    p_g,
    r: int | None = None,
    noise_scale: float = DEFAULT_NOISE_SCALE,
    seed: int = DEFAULT_SEED,
    activation: str = DEFAULT_ACTIVATION,
) -> DecompositionPlan:
    """Derive widths from the ratio and build a validated plan."""
    d_s, d_p = split_widths(d_ff, shared_ratio, len(grouping.groups))
    if r is None:
        r = max(1, min(d_s // 4, d_model, d_s))
    return DecompositionPlan(
        grouping=grouping,
        shared_ratio=shared_ratio,
        d_model=d_model,
        d_ff=d_ff,
        d_s=d_s,
        d_p=d_p,
        p_g=tuple(float(x) for x in p_g),
        r=r,
        noise_scale=noise_scale,
        seed=seed,
        activation=activation,
    )


@dataclass(frozen=True)
class SpecializedFfn:
    """A plan and its weights: a shared branch and one private pair per group.

    Widths, `routing` (task -> group) and `activation` are read from the plan.
    """

    plan: DecompositionPlan
    shared_up: np.ndarray  # d_s x d_model
    shared_down: np.ndarray  # d_model x d_s
    private_up: tuple[np.ndarray, ...]  # each d_p x d_model
    private_down: tuple[np.ndarray, ...]  # each d_model x d_p

    def __post_init__(self):
        p, n_up, n_down = self.plan, len(self.private_up), len(self.private_down)
        if not n_up == n_down == p.n_groups:
            raise ValidationError(
                f"{n_up} private up and {n_down} down branches for a plan of {p.n_groups} groups")
        shapes = [("shared_up", self.shared_up, (p.d_s, p.d_model)),
                  ("shared_down", self.shared_down, (p.d_model, p.d_s))]
        for g, (up, down) in enumerate(zip(self.private_up, self.private_down)):
            shapes += [(f"group {g} up", up, (p.d_p, p.d_model)),
                       (f"group {g} down", down, (p.d_model, p.d_p))]
        for name, w, want in shapes:
            if w.shape != want:
                raise ValidationError(f"{name} shape {w.shape} != {want}")

    @property
    def routing(self) -> dict:
        return self.plan.routing

    @property
    def activation(self) -> str:
        return self.plan.activation


def equiv_weight(w: UnifiedFfnWeights) -> np.ndarray:
    """Equivalent linear map of the block: w2 @ w1 (d_model x d_model)."""
    return w.w2 @ w.w1


def _pad_inner(factor_left: np.ndarray, factor_right: np.ndarray, width: int, rng, scale: float):
    """Grow the inner dimension of a (left, right) factor pair to `width`.

    New columns of the left factor and rows of the right factor are filled
    with N(0, scale^2) noise; draws happen in a fixed order so results are
    reproducible for any scale, including exactly zero.
    """
    d_left, r = factor_left.shape
    d_right = factor_right.shape[1]
    if width < r:
        raise ValidationError(f"cannot pad from {r} down to {width}")
    left = np.zeros((d_left, width))
    right = np.zeros((width, d_right))
    left[:, :r] = factor_left
    right[:r, :] = factor_right
    left[:, r:] = scale * rng.standard_normal((d_left, width - r))
    right[r:, :] = scale * rng.standard_normal((width - r, d_right))
    return left, right


def _sqrt_factors(dec: SvdResult, start: int, count: int, scale: float = 1.0):
    """Symmetric sqrt factors of scale * (singular triplets start .. start+count-1).

    Returns (left: rows x count, right: count x cols); where the spectrum has
    fewer than `count` triplets from `start` on, the missing ones are zero.
    """
    sigma = scale * dec.sigma[start:start + count]
    sqrt_sigma = np.sqrt(sigma)
    left = np.zeros((dec.u.shape[0], count))
    right = np.zeros((count, dec.v.shape[0]))
    left[:, :sigma.size] = dec.u[:, start:start + count] * sqrt_sigma
    right[:sigma.size, :] = sqrt_sigma[:, None] * dec.v[:, start:start + count].T
    return left, right


def _shared_branch(dec: SvdResult, plan: DecompositionPlan):
    """Rank-r factors of a factored W_equiv: (left, right, padded w1, padded w2)."""
    if plan.r > dec.sigma.size:
        raise ValidationError(f"rank {plan.r} exceeds available spectrum {dec.sigma.size}")
    left, right = _sqrt_factors(dec, 0, plan.r)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=plan.seed, spawn_key=(0,)))
    w1_factor, w2_factor = _pad_inner(left, right, plan.d_s, rng, plan.noise_scale)
    return left, right, w1_factor, w2_factor


def _private_branches(dec: SvdResult, start: int, plan: DecompositionPlan, t: int | None):
    """Per-group (up, down) from triplets start .. start+t-1 scaled by p_g.

    `dec` factors a map whose residual is its tail from `start` on; an
    all-zero tail falls back to pure noise branches.
    """
    n = plan.n_groups
    if t is None:
        t = max(1, min(plan.d_p // n, plan.d_model))
    if not 1 <= t <= min(plan.d_p, plan.d_model):
        raise ValidationError(f"private rank t={t} outside [1, {min(plan.d_p, plan.d_model)}]")

    zero_residual = not np.any(dec.sigma[start:])
    branches = []
    for g in range(n):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=plan.seed, spawn_key=(1, g))
        )
        if zero_residual:
            up = plan.noise_scale * rng.standard_normal((plan.d_p, plan.d_model))
            down = plan.noise_scale * rng.standard_normal((plan.d_model, plan.d_p))
            branches.append((up, down))
            continue
        left, right = _sqrt_factors(dec, start, t, plan.p_g[g])
        down, up = _pad_inner(left, right, plan.d_p, rng, plan.noise_scale)
        branches.append((up, down))
    return branches


def _factor_equiv(w_equiv: np.ndarray, plan: DecompositionPlan) -> SvdResult:
    w_equiv = np.asarray(w_equiv, dtype=np.float64)
    if w_equiv.shape != (plan.d_model, plan.d_model):
        raise ValidationError(
            f"w_equiv shape {w_equiv.shape} != ({plan.d_model}, {plan.d_model})"
        )
    return svd(w_equiv)


def shared_factors(w_equiv: np.ndarray, plan: DecompositionPlan):
    """Rank-r symmetric SVD factors padded to width d_s, plus the rank-r map.

    Returns (w1_factor: d_model x d_s, w2_factor: d_s x d_model,
    w_shared_equiv: d_model x d_model).  w_shared_equiv excludes the noise
    padding by construction.
    """
    left, right, w1_factor, w2_factor = _shared_branch(_factor_equiv(w_equiv, plan), plan)
    return w1_factor, w2_factor, left @ right


def residual(w_equiv: np.ndarray, w_shared_equiv: np.ndarray) -> np.ndarray:
    w_equiv = np.asarray(w_equiv, dtype=np.float64)
    w_shared_equiv = np.asarray(w_shared_equiv, dtype=np.float64)
    if w_equiv.shape != w_shared_equiv.shape:
        raise ValidationError(
            f"shape mismatch: {w_equiv.shape} vs {w_shared_equiv.shape}"
        )
    return w_equiv - w_shared_equiv


def private_init(w_res: np.ndarray, plan: DecompositionPlan, t: int | None = None):
    """Energy-weighted per-group factors of the residual map.

    The residual is SVD-factored once; group g's branch is its top t
    directions (default d_p // group count) scaled by p_g, as symmetric sqrt
    factors noise-padded to width d_p.  Returns a list of
    (up: d_p x d_model, down: d_model x d_p) pairs in group order.
    """
    return _private_branches(svd(w_res), 0, plan, t)


def factor_block(w: UnifiedFfnWeights, plan: DecompositionPlan, private_rank: int | None = None):
    """`assemble`, plus the one SVD of W_equiv it was built from.

    The residual ||W_equiv - W_r||_F is the tail of that spectrum,
    sqrt(sum_{i >= r} sigma_i^2).
    """
    if (w.d_model, w.d_ff) != (plan.d_model, plan.d_ff):
        raise ValidationError(
            f"weights are ({w.d_model}, {w.d_ff}) but plan expects "
            f"({plan.d_model}, {plan.d_ff})"
        )
    dec = _factor_equiv(equiv_weight(w), plan)
    _, _, w1_factor, w2_factor = _shared_branch(dec, plan)
    branches = _private_branches(dec, plan.r, plan, private_rank)
    ffn = SpecializedFfn(plan, shared_up=w2_factor, shared_down=w1_factor,
                         private_up=tuple(up for up, _ in branches),
                         private_down=tuple(down for _, down in branches))
    return ffn, dec


def assemble(w: UnifiedFfnWeights, plan: DecompositionPlan, private_rank: int | None = None) -> SpecializedFfn:
    """Full pipeline: equivalent map -> one SVD -> shared and private branches."""
    return factor_block(w, plan, private_rank)[0]


def routed_forward(x: np.ndarray, branches, act: str):
    """The routed block on x, (batch, d) or (..., batch, d): all branches summed.

    `branches` lists (up, down) weight pairs that broadcast against the
    leading axes of x, such as (runs, tasks): a 2-D pair is shared by every
    row of x, and a (tasks, ., .) pair holds each task's own weights (its
    group's private branch, gathered by route).  The activation and its
    derivative are evaluated once over all branches' pre-activations.
    Returns the output and, per branch, the activations and their
    derivatives.
    """
    pre = [x @ up.swapaxes(-1, -2) for up, _ in branches]
    h, dh = activation_pair(act)(pre[0] if len(pre) == 1 else np.concatenate(pre, axis=-1))
    bounds = np.cumsum([0] + [a_k.shape[-1] for a_k in pre]).tolist()
    hs = [h[..., lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    dhs = [dh[..., lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    out = hs[0] @ branches[0][1].swapaxes(-1, -2)
    for h_k, (_, down) in zip(hs[1:], branches[1:]):
        out = out + h_k @ down.swapaxes(-1, -2)
    return out, hs, dhs


def forward(ffn: SpecializedFfn, x, task: str) -> np.ndarray:
    """Routed evaluation: concat(act(x Ws^T), act(x Wp^T)) -> split down-proj."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2:
        raise ValidationError(f"forward expects a vector or a 2-D batch, got shape {x.shape}")
    if x.shape[1] != ffn.plan.d_model:
        raise ValidationError(f"input width {x.shape[1]} != d_model {ffn.plan.d_model}")
    check_finite(x, "forward input")
    if task not in ffn.routing:
        raise ValidationError(f"task {task!r} has no route; known: {sorted(ffn.routing)}")
    g = ffn.routing[task]
    branches = [(ffn.shared_up, ffn.shared_down), (ffn.private_up[g], ffn.private_down[g])]
    out = routed_forward(x, branches, ffn.activation)[0]
    return out[0] if squeeze else out


def unified_forward(w: UnifiedFfnWeights, x, activation: str = "identity") -> np.ndarray:
    """Reference forward pass of the undecomposed block."""
    x = np.asarray(x, dtype=np.float64)
    return routed_forward(x, [(w.w1, w.w2)], activation)[0]


FFN_META_NAME = "ffn.json"


def _ffn_meta(plan: DecompositionPlan) -> dict:
    """The ffn.json of a block built to `plan`: the plan echo and the layout keys."""
    return {"d_model": plan.d_model, "d_s": plan.d_s, "d_p": plan.d_p, "n_groups": plan.n_groups,
            "routing": plan.routing, "activation": plan.activation, "plan": plan.to_dict()}


def save_ffn(ffn: SpecializedFfn, path) -> None:
    """Directory layout: ffn.json + one .gdm file per weight matrix.

    A matrix with an entry that float32 cannot hold (a finite float64 that
    the cast would make infinite) raises AnalysisError naming the matrix,
    before any file is written: `load_ffn` would refuse it.
    """
    root = Path(path)
    matrices = {"shared_up": ffn.shared_up, "shared_down": ffn.shared_down}
    for g, (up, down) in enumerate(zip(ffn.private_up, ffn.private_down)):
        matrices.update({f"group{g}_up": up, f"group{g}_down": down})
    with np.errstate(over="ignore"):  # an overflow is refused below, not warned of
        stored = {name: m.astype("<f4") for name, m in matrices.items()}
    for name, m in stored.items():
        check_finite(m, f"refusing to write {name}.gdm as float32", AnalysisError)
    meta = dump_json(_ffn_meta(ffn.plan))
    for name, m in stored.items():
        write_matrix_file(root / f"{name}.gdm", m)
    write_text(root / FFN_META_NAME, meta)


def load_ffn(path) -> SpecializedFfn:
    """Inverse of save_ffn; weights come back as float64 of their float32 storage.

    The plan echo in ffn.json is required and says how many group files to
    read.  Every other key must have the JSON text that save_ffn writes for
    that plan (so `true` is not `1` and `8.0` is not `8`); a key that
    contradicts the plan raises ValidationError naming the file and the key.
    """
    root = Path(path)
    meta_path = root / FFN_META_NAME
    if not meta_path.is_file():
        raise ValidationError(f"no {FFN_META_NAME} in {root}")
    meta = read_json(meta_path, "block metadata")
    src = str(meta_path)
    plan = DecompositionPlan.from_dict(json_field(src, meta, "plan"), f"{src}: plan")
    for key, want in _ffn_meta(plan).items():
        if key != "plan":
            text = dump_json(want)
            json_field(src, meta, key, lambda v: v == want and dump_json(v) == text,
                       f"{reprlib.repr(want)} to agree with its plan")

    def read(name):
        return read_matrix_file(root / f"{name}.gdm").astype(np.float64)

    shared_up, shared_down = read("shared_up"), read("shared_down")
    private_up = tuple(read(f"group{g}_up") for g in range(plan.n_groups))
    private_down = tuple(read(f"group{g}_down") for g in range(plan.n_groups))
    try:
        return SpecializedFfn(plan, shared_up, shared_down, private_up, private_down)
    except ValidationError as exc:
        raise ValidationError(f"{root}: {exc}") from exc
