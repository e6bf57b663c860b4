"""Self-contained pipeline reports: one JSON/Markdown pair per analysis run.

A report echoes every input (bundle fingerprint, seeds, flags) so that
re-running the command with the echoed flags reproduces the artifact byte
for byte; the only volatile value is the timestamp, isolated in a single
top-level field that hash comparisons drop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .bundle import dump_json
from .conflict import ConflictReport, ratio_branch
from .decompose import DecompositionPlan
from .grouping import GroupingPlan
from .subspace import SubspaceReport

TOOL_VERSION = "0.1.0"

# Defaults that come from the published decision rules themselves, as opposed
# to choices this toolkit had to make; reports echo the distinction.
METHOD_DEFAULT_KEYS = ("thresholds.low", "thresholds.high", "ratios", "seed")
TOOL_DEFAULT_KEYS = ("k_groups", "top_k", "lambda", "noise_scale", "activation")


def default_provenance() -> dict:
    prov = {k: "method-default" for k in METHOD_DEFAULT_KEYS}
    prov.update({k: "tool-default" for k in TOOL_DEFAULT_KEYS})
    return prov


@dataclass
class PipelineReport:
    bundle_fingerprint: str
    tasks: tuple[str, ...]
    layer: str
    similarity: np.ndarray
    distance: np.ndarray
    merges: list
    grouping: GroupingPlan
    conflict: ConflictReport
    subspace: SubspaceReport
    plan: DecompositionPlan
    flags: dict
    warnings: tuple[str, ...] = field(default=())
    tool_version: str = TOOL_VERSION

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "bundle_fingerprint": self.bundle_fingerprint,
            "tasks": list(self.tasks),
            "layer": self.layer,
            "similarity": [[float(x) for x in row] for row in self.similarity],
            "distance": [[float(x) for x in row] for row in self.distance],
            "merges": [[float(d_), a, b] for d_, a, b in self.merges],
            "grouping": self.grouping.to_dict(),
            "conflict": self.conflict.to_dict(),
            "subspace": self.subspace.to_dict(),
            "plan": self.plan.to_dict(),
            "flags": self.flags,
            "flag_provenance": default_provenance(),
            "warnings": list(self.warnings),
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }

    def to_json(self) -> str:
        return dump_json(self.to_dict())

    def to_markdown(self) -> str:
        c = self.conflict
        lines = [
            "# Gradient-driven sharing plan",
            "",
            f"- tool version: {self.tool_version}",
            f"- bundle fingerprint: `{self.bundle_fingerprint}`",
            f"- tasks: {', '.join(self.tasks)}",
            f"- analysis layer: {self.layer}",
            "",
            "## Grouping (Method A)",
            "",
            f"- method: {self.grouping.method} (k={self.grouping.k})",
        ]
        for i, g in enumerate(self.grouping.groups):
            lines.append(f"- group {i}: {{{', '.join(g)}}}")
        lines += [
            "",
            "## Conflict and shared ratio (Method B)",
            "",
            "| layer | s_self | s_cross | delta | purity |",
            "|---|---|---|---|---|",
        ]
        for lc in c.layers:
            lines.append(
                f"| {lc.layer} | {lc.s_self:.4f} | {lc.s_cross:.4f} "
                f"| {lc.delta:.4f} | {lc.purity:.4f} |"
            )
        lines += [
            "",
            f"- aggregate delta = {c.delta:.6f} over candidates {list(c.candidate_layers)}",
            f"- branch fired: {ratio_branch(c.delta, c.thresholds)}",
            f"- shared_ratio = {c.shared_ratio}",
            "",
            "## Subspace energy (Method C)",
            "",
            f"- top-{self.subspace.k} directions; lambda = {self.subspace.lam}",
            f"- top-1 energy share = {self.subspace.top1_share:.4f}; "
            f"spectrum gini = {self.subspace.gini:.4f}",
        ]
        for t, p in zip(self.subspace.tasks, self.subspace.proportions):
            lines.append(f"- p[{t}] = {p:.4f}")
        p = self.plan
        lines += [
            "",
            "## Decomposition plan",
            "",
            f"- d_model={p.d_model}, d_ff={p.d_ff}, d_s={p.d_s}, d_p={p.d_p}, r={p.r}",
            f"- group energies p_g = {[round(x, 4) for x in p.p_g]}",
            f"- noise_scale={p.noise_scale}, seed={p.seed}, activation={p.activation}",
        ]
        if self.warnings:
            lines += ["", "## Warnings", ""]
            lines += [f"- {w}" for w in self.warnings]
        lines += ["", "## Flags", ""]
        for k in sorted(self.flags):
            lines.append(f"- {k} = {self.flags[k]}")
        return "\n".join(lines) + "\n"


def similarity_csv(tasks, matrix) -> str:
    lines = ["task," + ",".join(tasks)]
    for t, row in zip(tasks, matrix):
        lines.append(t + "," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def merges_csv(merges) -> str:
    lines = ["step,distance,cluster_a,cluster_b"]
    for i, (d, a, b) in enumerate(merges):
        lines.append(f"{i},{d!r},{a},{b}")
    return "\n".join(lines) + "\n"


def hash_excluding_timestamp(json_text: str) -> str:
    import hashlib

    data = json.loads(json_text)
    data.pop("timestamp", None)
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
