"""Seeded inputs of the benchmark, written without the gdps package.

Bundles follow the documented on-disk format: a directory with
``manifest.json`` plus one ``<task>__<layer>.gdm`` file per entry, each the
magic ``GDM1``, a little-endian u32 row count and u32 column count, then the
float32 payload in row-major order.  The unified FFN weights ``w1.gdm``
(d_ff x d_model) and ``w2.gdm`` (d_model x d_ff) use the same file format.

Nothing here imports gdps: a change to ``gdps.synth`` or ``write_bundle``
cannot change what the benchmark feeds the program.

Regenerate the inputs of one workload by hand with

    python3 bench/inputs.py --workload plan-deep --seed 1 --out bench/_work/in
"""

from __future__ import annotations

import argparse
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"GDM1"
HEADER = struct.Struct("<4sII")


@dataclass(frozen=True)
class PlanSpec:
    """Shape and planted structure of one plan workload."""

    n_tasks: int
    n_layers: int
    rows: int
    cols: int
    groups: tuple[tuple[int, ...], ...]
    theta_deg: float
    d_model: int
    d_ff: int
    # Whether the round runs `gdps decompose` on w1/w2 after `gdps plan`.
    decompose: bool = True
    # Tasks of one group sit inside a cone of this full angle around the
    # group direction; rows are scale * direction + isotropic noise of this
    # norm, so every matrix has full row rank and the CCA is not degenerate.
    spread_deg: float = 10.0
    noise: float = 0.5
    scale_jitter: float = 0.1

    def task(self, i: int) -> str:
        return f"t{i:02d}"

    def layer(self, j: int) -> str:
        return f"L{j:02d}"

    @property
    def tasks(self) -> list[str]:
        return [self.task(i) for i in range(self.n_tasks)]

    @property
    def layers(self) -> list[str]:
        return [self.layer(j) for j in range(self.n_layers)]

    def planted_groups(self) -> set[frozenset[str]]:
        return {frozenset(self.task(i) for i in g) for g in self.groups}


@dataclass(frozen=True)
class SimulateSpec:
    """Arguments of the two `gdps simulate` calls of one round."""

    n_seeds: int
    steps: int
    theta_conflict: float = 80.0
    theta_control: float = 0.0


PLAN_SPECS = {
    # ROADMAP's 16 x 4096 x 64 grid point: two planted groups of eight.
    "plan-wide": PlanSpec(
        n_tasks=16, n_layers=1, rows=64, cols=4096,
        groups=(tuple(range(0, 8)), tuple(range(8, 16))),
        theta_deg=75.0, d_model=16, d_ff=32,
    ),
    # The paper's shape: four tasks, 24 wide layers, a 1024 x 4096 FFN.  No
    # decompose: at this size it fails on some seeds (see CHANGES.md).
    "plan-deep": PlanSpec(
        n_tasks=4, n_layers=24, rows=64, cols=8192,
        groups=((0, 1), (2, 3)),
        theta_deg=75.0, d_model=1024, d_ff=4096, decompose=False,
    ),
}

SIMULATE_SPEC = SimulateSpec(n_seeds=5, steps=500)

# Plan workloads small enough for the benchmark's own tests.  simulate keeps
# its size: the ordering it checks needs the full 500 steps.
TINY_PLAN_SPECS = {
    "plan-wide": PlanSpec(
        n_tasks=6, n_layers=1, rows=16, cols=96,
        groups=((0, 1, 2), (3, 4, 5)), theta_deg=75.0, d_model=16, d_ff=32,
    ),
    "plan-deep": PlanSpec(
        n_tasks=4, n_layers=3, rows=16, cols=128,
        groups=((0, 1), (2, 3)), theta_deg=75.0, d_model=32, d_ff=128, decompose=False,
    ),
}

WORKLOAD_KEYS = {"plan-wide": 1, "plan-deep": 2, "simulate": 3}


def rng_for(workload: str, seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOAD_KEYS[workload], *key]))


def simulate_seeds(seed: int, spec: SimulateSpec) -> list[int]:
    """The --seeds list of `gdps simulate`, derived from the workload seed."""
    base = 1000 + int(rng_for("simulate", seed).integers(0, 1_000_000))
    return [base + i for i in range(spec.n_seeds)]


def write_gdm(path: Path, data: np.ndarray) -> None:
    arr = np.ascontiguousarray(data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_gdm(path: Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    magic, rows, cols = HEADER.unpack_from(blob)
    if magic != MAGIC or len(blob) != HEADER.size + 4 * rows * cols:
        raise ValueError(f"{path}: not a well-formed .gdm file")
    return np.frombuffer(blob, dtype="<f4", offset=HEADER.size).reshape(rows, cols)


def planted_directions(spec: PlanSpec, rng: np.random.Generator) -> np.ndarray:
    """Unit task directions: group bases at pairwise angle theta, tasks in a cone.

    One orthonormal frame holds a shared axis, one axis per group and one
    jitter axis per task, so the planted angles hold exactly.
    """
    n_groups = len(spec.groups)
    q, r = np.linalg.qr(rng.standard_normal((spec.cols, 1 + n_groups + spec.n_tasks)))
    frame = q * np.sign(np.diag(r))
    c = float(np.cos(np.radians(spec.theta_deg)))
    bases = np.sqrt(c) * frame[:, :1] + np.sqrt(1.0 - c) * frame[:, 1 : 1 + n_groups]
    dirs = np.empty((spec.n_tasks, spec.cols))
    half = np.radians(spec.spread_deg) / 2.0
    for g, members in enumerate(spec.groups):
        for i in members:
            alpha = rng.uniform(0.0, half)
            dirs[i] = np.cos(alpha) * bases[:, g] + np.sin(alpha) * frame[:, 1 + n_groups + i]
    return dirs


def write_plan_inputs(workload: str, spec: PlanSpec, seed: int, out: Path) -> None:
    """Write `bundle/` and, for decompose, `w1.gdm` and `w2.gdm` under `out`."""
    bundle = out / "bundle"
    bundle.mkdir(parents=True, exist_ok=True)
    records = []
    for j, layer in enumerate(spec.layers):
        rng = rng_for(workload, seed, 1, j)
        dirs = planted_directions(spec, rng)
        for i, task in enumerate(spec.tasks):
            scales = np.abs(1.0 + spec.scale_jitter * rng.standard_normal(spec.rows))
            noise = rng.standard_normal((spec.rows, spec.cols), dtype=np.float32)
            noise *= np.float32(spec.noise / np.sqrt(spec.cols))
            rows = noise + (scales[:, None] * dirs[i][None, :]).astype(np.float32)
            name = f"{task}__{layer}.gdm"
            write_gdm(bundle / name, rows)
            records.append({"task": task, "layer": layer, "rows": spec.rows,
                            "cols": spec.cols, "path": name})
    manifest = {
        "version": "1",
        "element_type": "f32le",
        "tasks": spec.tasks,
        "layers": [{"id": layer, "cols": spec.cols} for layer in spec.layers],
        "records": records,
    }
    (bundle / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    if not spec.decompose:
        return
    rng = rng_for(workload, seed, 2)
    write_gdm(out / "w1.gdm", rng.standard_normal((spec.d_ff, spec.d_model)) / np.sqrt(spec.d_model))
    write_gdm(out / "w2.gdm", rng.standard_normal((spec.d_model, spec.d_ff)) / np.sqrt(spec.d_ff))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(PLAN_SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_plan_inputs(args.workload, PLAN_SPECS[args.workload], args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
