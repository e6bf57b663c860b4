"""Command-line pipeline: analyze bundles, emit plans, materialize, simulate.

Subcommands: inspect, group, conflict, subspace, plan (A+B+C composed),
decompose, simulate, report.  Exit codes: 0 success, 1 input/validation
error, 2 numerical/analysis error; an error raised inside a stage carries
the prefix ``[stage: name]`` and keeps its exit code.  All configuration
flows through flags.  `plan` and `simulate` both run `gdps.pipeline.plan`,
and `group`, `conflict` and `subspace` its stage calls.  Each flag of a
`gdps.pipeline.PlanOptions` field is declared once, in `PLAN_FLAGS`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import conflict as cf
from . import decompose as dc
from . import grouping as gr
from . import report as rp
from . import subspace as sb
from . import pipeline as pl
from . import synth as sy
from .bundle import (dump_json, is_json_int, is_json_number, json_field, read_bundle,
                     read_json, read_matrix_file, write_text)
from .errors import AnalysisError, GdpsError, TrainingDivergence, ValidationError

DEFAULTS = pl.PlanOptions()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [_non_negative_int(s) for s in text.split(",") if s != ""]
    except argparse.ArgumentTypeError as exc:
        raise ValidationError(f"--seeds: {exc}") from exc
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ValidationError(f"--seeds lists seed {repeated[0]} more than once")
    return seeds


def _parse_groups(text: str, n_tasks: int):
    groups = []
    for part in text.split("|"):
        try:
            idx = [int(x) for x in part.split(",") if x != ""]
        except ValueError as exc:
            raise ValidationError(f"--groups expects task indices like '0|1,2,3', got {text!r}") from exc
        if any(not 0 <= i < n_tasks for i in idx):
            raise ValidationError(f"--groups indices out of range for {n_tasks} tasks: {part!r}")
        groups.append(idx)
    return groups


def _check_out(out: Path) -> None:
    """Fail before any work when `out` is not, and cannot be made, a directory.

    Nothing is created here, so a usage error found later leaves no
    directory behind; the writers make it.
    """
    for p in (out, *out.parents):
        if p.exists():
            if not p.is_dir():
                raise ValidationError(f"cannot write {out}: {p} is not a directory")
            if not os.access(p, os.W_OK | os.X_OK):
                raise ValidationError(f"cannot write {out}: {p} is not writable")
            return


def _load_bundle(path: str):
    with pl.stage("bundle-load"):
        return read_bundle(path)


def cmd_inspect(args) -> int:
    bundle = _load_bundle(args.bundle)
    info = {
        "fingerprint": bundle.fingerprint(),
        "tasks": list(bundle.tasks),
        "layers": [
            {"id": lay, "cols": bundle.layer_dim(lay)} for lay in bundle.layers
        ],
        "entries": [
            {"task": t, "layer": lay, "rows": bundle.matrix(t, lay).rows}
            for t in bundle.tasks
            for lay in bundle.layers
        ],
    }
    print(dump_json(info), end="")
    if args.out:
        write_text(Path(args.out) / "inspect.json", dump_json(info))
    return 0


def cmd_group(args) -> int:
    bundle = _load_bundle(args.bundle)
    layer = pl.resolve_layer(bundle, args.layer)
    sim, dist, plan, merges = pl.group_tasks(bundle, layer, _plan_options(args))
    out = Path(args.out)
    write_text(out / "grouping.json", dump_json(plan.to_dict()))
    write_text(out / "similarity.csv", rp.similarity_csv(sim.tasks, sim.s))
    write_text(out / "distance.csv", rp.similarity_csv(dist.tasks, dist.d))
    write_text(out / "merges.csv", rp.merges_csv(merges))
    print(f"method={plan.method} k={plan.k}")
    for i, g in enumerate(plan.groups):
        print(f"group {i}: {', '.join(g)}")
    for w in plan.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_conflict(args) -> int:
    bundle = _load_bundle(args.bundle)
    candidates = pl.resolve_candidates(bundle, args.layers)
    thresholds = pl.parse_thresholds(args.thresholds)
    with pl.stage("conflict"):
        report = cf.conflict_report(bundle, candidates, thresholds)
    write_text(Path(args.out) / "conflict.json", dump_json(report.to_dict()))
    for lc in report.layers:
        print(
            f"{lc.layer}: s_self={lc.s_self:.4f} s_cross={lc.s_cross:.4f} "
            f"delta={lc.delta:.4f} purity={lc.purity:.4f}"
        )
    print(f"delta={report.delta:.6f} branch=({cf.ratio_branch(report.delta, thresholds)}) "
          f"shared_ratio={report.shared_ratio}")
    return 0


def cmd_subspace(args) -> int:
    bundle = _load_bundle(args.bundle)
    layer = pl.resolve_layer(bundle, args.layer)
    with pl.stage("subspace"):
        report = sb.subspace_report(
            bundle, layer, k=args.top_k, lam=args.lam, normalize_rows=args.normalize_rows
        )
    out = Path(args.out)
    write_text(out / "subspace.json", dump_json(report.to_dict()))
    write_text(out / "spectrum.csv", sb.spectrum_csv(report.sigma))
    print(f"layer={layer} k={report.k} top1_share={report.top1_share:.4f} gini={report.gini:.4f}")
    for t, p in zip(report.tasks, report.proportions):
        print(f"p[{t}] = {p:.4f}")
    return 0


def _plan_options(args, **fixed) -> pl.PlanOptions:
    """PlanOptions from every parsed flag that names one of its fields."""
    given = {**vars(args), **fixed}
    return pl.PlanOptions(
        **{f.name: given[f.name] for f in dataclasses.fields(pl.PlanOptions) if f.name in given}
    )


def cmd_plan(args) -> int:
    bundle = _load_bundle(args.bundle)
    plan, report = pl.plan(bundle, _plan_options(args))
    report = dataclasses.replace(report, flags={"bundle": args.bundle, **report.flags})
    out = Path(args.out)
    write_text(out / "plan.json", dump_json(plan.to_dict()))
    write_text(out / "report.json", report.to_json())
    write_text(out / "report.md", report.to_markdown())
    print(f"groups: {[list(g) for g in plan.grouping.groups]} (method={plan.grouping.method})")
    print(f"delta={report.conflict.delta:.6f} shared_ratio={plan.shared_ratio}")
    print(f"d_s={plan.d_s} d_p={plan.d_p} r={plan.r} p_g={[round(x, 4) for x in plan.p_g]}")
    print(f"wrote {out / 'plan.json'}, {out / 'report.json'}, {out / 'report.md'}")
    return 0


def cmd_decompose(args) -> int:
    plan_path = Path(args.plan)
    if not plan_path.is_file():
        raise ValidationError(f"plan file not found: {plan_path}")
    plan = dc.DecompositionPlan.from_dict(read_json(plan_path, "plan"), str(plan_path))
    if args.noise is not None or args.seed is not None:
        plan = dataclasses.replace(
            plan,
            noise_scale=plan.noise_scale if args.noise is None else args.noise,
            seed=plan.seed if args.seed is None else args.seed,
        )

    w1 = read_matrix_file(args.w1).astype(np.float64)
    w2 = read_matrix_file(args.w2).astype(np.float64)
    d_ff, d_model = w1.shape
    if w2.shape != (d_model, d_ff) or (d_model, d_ff) != (plan.d_model, plan.d_ff):
        raise ValidationError(
            f"shape mismatch: w1 {w1.shape}, w2 {w2.shape}, "
            f"plan expects w1 ({plan.d_ff}, {plan.d_model}), w2 ({plan.d_model}, {plan.d_ff})"
        )
    weights = dc.UnifiedFfnWeights(d_model=d_model, d_ff=d_ff, w1=w1, w2=w2)

    with pl.stage("decompose"):
        ffn, dec = dc.factor_block(weights, plan, private_rank=args.private_rank or None)
        res_norm = float(np.sqrt((dec.sigma[plan.r:] ** 2).sum()))
        rel = res_norm / max(float(np.sqrt((dec.sigma**2).sum())), 1e-300)

    out = Path(args.out)
    dc.save_ffn(ffn, out)
    print(f"shared_up {ffn.shared_up.shape}, shared_down {ffn.shared_down.shape}")
    for g in range(len(ffn.private_up)):
        print(f"group {g}: up {ffn.private_up[g].shape}, down {ffn.private_down[g].shape}")
    print(f"residual frobenius norm = {res_norm:.3e} (relative {rel:.3e})")
    print(f"wrote specialized block to {out}")
    return 0


def cmd_simulate(args) -> int:
    seeds = _parse_seeds(str(args.seeds))
    if not seeds:
        raise ValidationError("--seeds must list at least one integer")
    groups = _parse_groups(args.groups, args.tasks)
    modes = ["unified", "specialized"] if args.mode == "both" else [args.mode]
    out = Path(args.out)
    plan_options = _plan_options(args, k_groups=len(groups))

    runs, jobs = [], []
    for seed in seeds:
        suite = sy.make_suite(
            args.tasks,
            groups,
            args.theta,
            seed=seed,
            noise=args.target_noise,
        )
        model = sy.make_model(
            suite, d_model=args.d_model, d_ff=args.d_ff, seed=seed, activation=args.activation
        )
        entry = {"seed": seed, "theta": args.theta}
        plan = None
        if "specialized" in modes:
            bundle = sy.collect_bundle(model, suite, n_samples=args.samples, seed=seed)
            plan, _ = pl.plan(bundle, dataclasses.replace(plan_options, seed=seed))
            entry["plan"] = plan.to_dict()
        jobs += [sy.Run(model, suite, mode, plan if mode == "specialized" else None, seed)
                 for mode in modes]
        runs.append(entry)
    results = iter(sy.train_runs(jobs, steps=args.steps, lr=args.lr, batch_size=args.batch_size))

    for seed, entry in zip(seeds, runs):
        logs = {}
        for mode in modes:
            log = next(results)
            if isinstance(log, TrainingDivergence):
                entry[mode] = {"diverged": str(log)}
                print(f"seed {seed} {mode}: diverged ({log})", file=sys.stderr)
                continue
            logs[mode] = log
            entry[mode] = log.summary_dict()
            write_text(out / f"log_{mode}_{seed}.csv", log.to_csv())
        if len(logs) == 2:
            delta = sy.similarity_delta(logs["specialized"], logs["unified"])
            entry["similarity_delta"] = {t: float(v) for t, v in delta.items()}
            entry["similarity_delta_mean"] = float(np.mean(list(delta.values())))

    summary = {"params": {**{k: getattr(args, k) for k in args.echoed}, "seeds": seeds},
               "runs": runs}
    write_text(out / "summary.json", dump_json(summary))
    write_text(out / "summary.md", _simulate_markdown(summary))
    print(_simulate_markdown(summary))
    return 0


def _simulate_markdown(summary: dict) -> str:
    p = summary["params"]
    lines = [
        "# Simulation summary",
        "",
        f"- theta = {p['theta']} deg, tasks = {p['tasks']}, groups = {p['groups']}",
        f"- steps = {p['steps']}, lr = {p['lr']}, seeds = {p['seeds']}",
        "",
        "| seed | unified final loss | specialized final loss | winner | mean cosine delta |",
        "|---|---|---|---|---|",
    ]
    for run in summary["runs"]:
        uni = run.get("unified", {})
        spec = run.get("specialized", {})
        u = uni.get("final_mean_loss")
        s = spec.get("final_mean_loss")
        if u is not None and s is not None:
            winner = "specialized" if s < u else "unified"
        else:
            winner = "n/a"
        delta = run.get("similarity_delta_mean")
        lines.append(
            f"| {run['seed']} | {u if u is not None else 'div/na'} "
            f"| {s if s is not None else 'div/na'} | {winner} "
            f"| {delta if delta is not None else 'n/a'} |"
        )
    return "\n".join(lines) + "\n"


def _read_plan_report(src: str, data: dict) -> dict:
    """A plan report's record for `gdps report`: its source and every field used, read up front.

    "csvs" maps each per-plan CSV's name to its text.  A missing key or a
    value of the wrong kind raises ValidationError naming the file and the
    field.
    """
    number_list = (lambda v: isinstance(v, list) and all(is_json_number(x) for x in v),
                   "a list of finite numbers")
    low, high, delta, shared_ratio = (
        json_field(src, data, f"conflict.{name}", is_json_number, "a finite number")
        for name in ("thresholds.low", "thresholds.high", "delta", "shared_ratio"))
    sigma = json_field(src, data, "subspace.sigma", *number_list)
    grouping = gr.GroupingPlan.from_dict(json_field(src, data, "grouping", dict, "an object"),
                                         f"{src}: grouping")
    tasks, similarity, merges = (json_field(src, data, name)
                                 for name in ("tasks", "similarity", "merges"))
    try:
        return {
            "source": src,
            "delta": delta,
            "branch": cf.ratio_branch(delta, cf.RatioThresholds(low, high)),
            "shared_ratio": shared_ratio,
            "groups": [list(g) for g in grouping.groups],
            "method": grouping.method,
            "grouping": data["grouping"],
            "csvs": {
                "similarity": rp.similarity_csv(tasks, similarity),
                "merges": rp.merges_csv(merges),
                "spectrum": sb.spectrum_csv(np.asarray(sigma, dtype=np.float64)),
            },
        }
    except (TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{src}: malformed plan report: {exc}") from exc


def _read_sim_summary(src: str, data: dict) -> dict:
    """A simulate summary's record for `gdps report`: its source and every field used.

    Each run becomes {seed, unified, specialized}, a mode's entry being its
    final mean loss or None.  A missing key or a value of the wrong kind
    raises ValidationError naming the file and the field.
    """
    params = json_field(src, data, "params", dict, "an object")
    rows = []
    for i in range(len(json_field(src, data, "runs", list, "a list"))):
        run = json_field(src, data, f"runs[{i}]", dict, "an object")
        row = {"seed": json_field(src, data, f"runs[{i}].seed", is_json_int, "an integer")}
        for mode in ("unified", "specialized"):
            # a mode that was skipped, or whose entry records a divergence, has no loss
            row[mode] = None
            if mode in run and "final_mean_loss" in json_field(src, data, f"runs[{i}].{mode}",
                                                               dict, "an object"):
                row[mode] = json_field(src, data, f"runs[{i}].{mode}.final_mean_loss",
                                       is_json_number, "a finite number")
        rows.append(row)
    return {"source": src, "params": params, "runs": rows}


def _report_markdown(plans: list, sims: list) -> str:
    """consolidated.md: one section per plan record, then a loss table over the simulations."""
    lines = ["# Consolidated report", ""]
    for i, plan in enumerate(plans):
        lines += [
            f"## Plan {i}: `{plan['source']}`",
            "",
            f"- delta = {plan['delta']:.6f}",
            f"- branch fired: {plan['branch']}",
            f"- shared_ratio = {plan['shared_ratio']}",
            f"- grouping: {plan['groups']} (method={plan['method']})",
            "",
        ]
    if sims:
        lines += ["## Simulations", ""]
        lines.append("| seed |" + "".join(
            f" unified {i} | specialized {i} |" for i in range(len(sims))))
        lines.append("|---|" + "---|---|" * len(sims))
        for seed in sorted({run["seed"] for sim in sims for run in sim["runs"]}):
            row = f"| {seed} |"
            for sim in sims:
                run = next((r for r in sim["runs"] if r["seed"] == seed), {})
                uni, spec = run.get("unified"), run.get("specialized")
                row += f" {'n/a' if uni is None else uni} | {'n/a' if spec is None else spec} |"
            lines.append(row)
        lines.append("")
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    inputs = [x for x in str(args.inputs).split(",") if x]
    if not inputs:
        raise ValidationError("--inputs must list at least one file or directory")
    plans = []
    sims = []
    for raw in inputs:
        path = Path(raw)
        if path.is_dir():
            for candidate in ("report.json", "summary.json"):
                if (path / candidate).is_file():
                    path = path / candidate
                    break
        if not path.is_file():
            raise ValidationError(f"input not found: {raw}")
        data = read_json(path, "JSON input")
        if "conflict" in data:
            plans.append(_read_plan_report(str(path), data))
        elif "runs" in data:
            sims.append(_read_sim_summary(str(path), data))
        else:
            raise ValidationError(f"{path}: not a recognized plan report or simulate summary")

    out = Path(args.out)
    for i, plan in enumerate(plans):
        for name, text in plan["csvs"].items():
            write_text(out / f"{name}_{i}.csv", text)
    if args.format == "md":
        text = _report_markdown(plans, sims)
        write_text(out / "consolidated.md", text)
        print(text)
    elif args.format == "json":
        fields = ("source", "delta", "branch", "shared_ratio", "grouping")
        consolidated = {"plans": [{k: plan[k] for k in fields} for plan in plans],
                        "simulations": [{k: sim[k] for k in ("source", "params")} for sim in sims]}
        write_text(out / "consolidated.json", dump_json(consolidated))
    else:
        rows = ["kind,source,delta,branch,shared_ratio,seed,unified,specialized"]
        for plan in plans:
            rows.append(f"plan,{plan['source']},{plan['delta']!r},\"{plan['branch']}\","
                        f"{plan['shared_ratio']},,,")
        for sim in sims:
            for run in sim["runs"]:
                uni = "" if run["unified"] is None else run["unified"]
                spec = "" if run["specialized"] is None else run["specialized"]
                rows.append(f"simulate,{sim['source']},,,,{run['seed']},{uni},{spec}")
        write_text(out / "consolidated.csv", "\n".join(rows) + "\n")
    return 0


# Each PlanOptions field's flag and argparse keywords; its default is the field's.
PLAN_FLAGS = {
    "seed": ("--seed", {"type": _non_negative_int}),
    "layer": ("--layer", {}),
    "layers": ("--layers", {"help": "comma-separated candidate layers"}),
    "k_groups": ("--k-groups", {"type": int}),
    "thresholds": ("--thresholds", {}),
    "top_k": ("--top-k", {"type": int}),
    "lam": ("--lambda", {"type": float}),
    "normalize_rows": ("--normalize-rows", {"action": "store_true"}),
    "noise": ("--noise", {"type": float}),
    "d_model": ("--d-model", {"type": int}),
    "d_ff": ("--d-ff", {"type": int}),
    "activation": ("--activation", {"choices": dc.ACTIVATIONS}),
    "private_rank": ("--private-rank", {"type": _non_negative_int, "help":
                     "the plan's shared truncation rank r (0: d_s // 4, capped at d_model)"}),
    "ratio": ("--ratio", {"type": float, "help":
              "force the shared ratio instead of deriving it from delta"}),
    "cca_noise_coupling": ("--cca-noise-coupling", {"action": "store_true", "help":
                           "scale private-init noise by (1 - mean off-diagonal CCA rho)"}),
}


def _plan_flags(p, *names) -> None:
    for name in names:
        flag, keywords = PLAN_FLAGS[name]
        p.add_argument(flag, dest=name, default=getattr(DEFAULTS, name), **keywords)


def build_parser() -> _Parser:
    parser = _Parser(prog="gdps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="summarize a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_inspect)

    def analysis(name, help, func, *flags):
        p = sub.add_parser(name, help=help)
        p.add_argument("--bundle", required=True, help="bundle directory")
        p.add_argument("--out", required=True, help="output directory")
        _plan_flags(p, *flags)
        p.set_defaults(func=func)

    analysis("group", "Method A: cluster tasks", cmd_group, "seed", "layer", "k_groups")
    analysis("conflict", "Method B: conflict scores and ratio", cmd_conflict,
             "layers", "thresholds")
    analysis("subspace", "Method C: joint spectrum and CCA", cmd_subspace,
             "layer", "top_k", "lam", "normalize_rows")
    analysis("plan", "compose Methods A+B+C into a decomposition plan", cmd_plan, *PLAN_FLAGS)

    p = sub.add_parser("decompose", help="materialize a plan on unified weights")
    p.add_argument("--w1", required=True, help=".gdm file, d_ff x d_model")
    p.add_argument("--w2", required=True, help=".gdm file, d_model x d_ff")
    p.add_argument("--plan", required=True, help="plan.json from `gdps plan`")
    p.add_argument("--out", required=True)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--private-rank", type=_non_negative_int, default=DEFAULTS.private_rank,
                   help="rank t of each private branch (0: d_p // groups, capped at d_model)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("simulate", help="train unified vs specialized on a synthetic suite")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--tasks", type=int, default=4)
    p.add_argument("--groups", default="0|1,2,3", help="task indices, groups separated by |")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--samples", type=int, default=32, help="gradient samples per task")
    p.add_argument("--seeds", default=str(DEFAULTS.seed))
    p.add_argument("--mode", choices=["unified", "specialized", "both"], default="both")
    _plan_flags(p, "thresholds", "top_k", "noise", "d_model", "d_ff", "activation",
                "private_rank")
    p.add_argument("--target-noise", type=float, default=0.05)
    p.add_argument("--out", required=True)
    # summary.json echoes every flag but --out.  No --lambda, since no output reads the
    # CCA; the plans' ridge stays in args for code that rebuilds them (bench/worker.py).
    p.set_defaults(func=cmd_simulate, lam=DEFAULTS.lam, echoed=[
        a.dest for a in p._actions if a.option_strings and a.dest not in ("help", "out")])

    p = sub.add_parser("report", help="consolidate prior outputs into one report")
    p.add_argument("--inputs", required=True, help="comma-separated output files or dirs")
    p.add_argument("--format", choices=["json", "md", "csv"], default="md")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out is not None:
            _check_out(Path(args.out))
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2
    except GdpsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
