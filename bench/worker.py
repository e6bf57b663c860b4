"""One round of a benchmark workload, run in a fresh interpreter.

    python3 bench/worker.py ROUND.json RESULT.json

ROUND.json names the source tree, the `gdps` commands of the round and
whether to trace.  Untraced, the worker imports gdps.cli, then runs the
commands through gdps.cli.main, timing wall and CPU time of this process
and reading its peak resident memory.  Traced, it runs no command: it
rebuilds the outputs of an untraced round's commands stage by stage from
the public entry points of each module, one span around each call, and
then times the parts of the subspace report separately.  Spans stay in
memory and go to RESULT.json when the round ends.

Both kinds of round start cold, in their own interpreter: the first large
allocations of a process fault in fresh pages, which costs the first call
of a pipeline seconds that a second call in the same process does not pay.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _rchar() -> int:
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    return 0


class Tracer:
    """Spans (name, start, end, parent index) plus bytes read inside I/O spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, io_bytes: bool = False):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        before = _rchar() if io_bytes else 0
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            if io_bytes:
                rec["bytes_read"] = _rchar() - before
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def children_time(self, index: int) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] == index)


def run_commands(main, commands: list[list[str]], out: Path) -> list[dict]:
    """Each command through gdps.cli.main, stdout kept in a file per command."""
    records = []
    for i, argv in enumerate(commands):
        buf = io.StringIO()
        c0, t0 = _cpu_s(), time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
        stdout_path = out / f"stdout_{i}.txt"
        stdout_path.write_text(buf.getvalue())
        records.append({"argv": argv, "rc": rc, "wall_s": wall, "cpu_s": cpu,
                        "stdout": str(stdout_path)})
    return records


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GDPS_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


class Rebuild:
    """The plan, decompose and simulate pipelines, one span per public call.

    Each rebuild follows what the command computes for its output and
    nothing more, so command time minus these spans is the command's own
    glue (argument handling and any work it repeats).
    """

    def __init__(self, tracer: Tracer):
        import numpy as np

        import gdps
        from gdps import cli
        from gdps import conflict as cf
        from gdps import decompose as dc
        from gdps import grouping as gr
        from gdps import report as rp
        from gdps import subspace as sb
        from gdps import synth as sy

        self.np, self.gdps, self.cli = np, gdps, cli
        self.cf, self.dc, self.gr, self.rp, self.sb, self.sy = cf, dc, gr, rp, sb, sy
        self.tr = tracer
        self.conflicts = []  # every ConflictReport, for the pair count
        self.subspace_inputs = []  # (bundle, layer, SubspaceReport) for the CCA attribution

    def _args(self, argv):
        return self.cli.build_parser().parse_args(argv)

    def _plan_from_bundle(self, bundle, args, layer, candidates, seed, k, with_merges):
        gr, cf, sb, dc, tr = self.gr, self.cf, self.sb, self.dc, self.tr
        low, high = (float(x) for x in args.thresholds.split(","))
        thresholds = cf.RatioThresholds(low=low, high=high)
        with tr.span("grouping.similarity"):
            sim = gr.similarity_matrix(bundle, layer)
            dist = gr.to_distance(sim)
        with tr.span("grouping.consensus"):
            hier = gr.single_linkage(dist, k)
            km = gr.kmeans_grouping(dist, k, seed)
        method = "consensus" if hier.groups == km.groups else "hierarchical"
        grouping = gr.GroupingPlan(hier.groups, method=method, k=k)
        merges = None
        if with_merges:
            with tr.span("grouping.merges"):
                merges = gr.linkage_merges(dist)
        with tr.span("conflict.report"):
            conflict = cf.conflict_report(bundle, candidates, thresholds, seed=seed)
        with tr.span("subspace.report"):
            subspace = sb.subspace_report(bundle, layer, k=args.top_k, lam=args.lam,
                                          normalize_rows=bool(getattr(args, "normalize_rows", False)))
            p_g = sb.group_energy(subspace.proportions, grouping, bundle.tasks)
        with tr.span("decompose.make_plan"):
            plan = dc.make_plan(
                grouping=grouping, shared_ratio=conflict.shared_ratio,
                d_model=args.d_model, d_ff=args.d_ff, p_g=tuple(float(x) for x in p_g),
                r=args.private_rank if args.private_rank and args.private_rank > 0 else None,
                noise_scale=args.noise, seed=seed, activation=args.activation,
            )
        self.conflicts.append(conflict)
        self.subspace_inputs.append((bundle, layer, subspace))
        return sim, dist, merges, grouping, conflict, subspace, plan

    def plan(self, argv, out: Path) -> None:
        args, tr = self._args(argv), self.tr
        with tr.span("rebuild.plan"):
            with tr.span("bundle.read", io_bytes=True):
                bundle = self.gdps.read_bundle(args.bundle)
            with tr.span("bundle.fingerprint", io_bytes=True):
                fingerprint = self.gdps.bundle_fingerprint(args.bundle)
            layer = args.layer or bundle.layers[0]
            candidates = args.layers.split(",") if args.layers else list(bundle.layers)
            sim, dist, merges, grouping, conflict, subspace, plan = self._plan_from_bundle(
                bundle, args, layer, candidates, args.seed, args.k_groups, with_merges=True)
            with tr.span("report.write"):
                out.mkdir(parents=True, exist_ok=True)
                (out / "plan.json").write_text(
                    json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n")
                report = self.rp.PipelineReport(
                    bundle_fingerprint=fingerprint, tasks=bundle.tasks, layer=layer,
                    similarity=sim.s, distance=dist.d, merges=merges, grouping=grouping,
                    conflict=conflict, subspace=subspace, plan=plan,
                    flags={k: v for k, v in vars(args).items() if k != "func"},
                )
                (out / "report.json").write_text(report.to_json())
                (out / "report.md").write_text(report.to_markdown())

    def decompose(self, argv, out: Path):
        args, tr, dc, np = self._args(argv), self.tr, self.dc, self.np
        with tr.span("rebuild.decompose"):
            with tr.span("decompose.make_plan"):
                plan = dc.DecompositionPlan.from_dict(json.loads(Path(args.plan).read_text()))
            with tr.span("bundle.read", io_bytes=True):
                w1 = self.gdps.bundle.read_matrix_file(args.w1)
                w2 = self.gdps.bundle.read_matrix_file(args.w2)
            with tr.span("decompose.assemble"):
                weights = dc.UnifiedFfnWeights(d_model=plan.d_model, d_ff=plan.d_ff,
                                               w1=w1.astype(np.float64), w2=w2.astype(np.float64))
                ffn = dc.assemble(weights, plan, private_rank=args.private_rank or None)
            with tr.span("decompose.save"):
                dc.save_ffn(ffn, out)
        return ffn

    def simulate(self, argv, out: Path) -> list[dict]:
        args, tr, sy = self._args(argv), self.tr, self.sy
        seeds = [int(s) for s in str(args.seeds).split(",") if s]
        groups = [[int(x) for x in part.split(",") if x] for part in args.groups.split("|")]
        runs = []
        with tr.span("rebuild.simulate"):
            for seed in seeds:
                with tr.span("synth.collect"):
                    suite = sy.make_suite(args.tasks, groups, args.theta, seed=seed,
                                          noise=args.target_noise)
                    model = sy.make_model(suite, d_model=args.d_model, d_ff=args.d_ff,
                                          seed=seed, activation=args.activation)
                    bundle = sy.collect_bundle(model, suite, n_samples=args.samples, seed=seed)
                *_, plan = self._plan_from_bundle(
                    bundle, args, bundle.layers[0], list(bundle.layers), seed, len(groups),
                    with_merges=False)
                logs = {}
                with tr.span("synth.train_unified"):
                    logs["unified"] = sy.train(model, suite, "unified", steps=args.steps,
                                               lr=args.lr, batch_size=args.batch_size, seed=seed)
                with tr.span("synth.train_specialized"):
                    logs["specialized"] = sy.train(model, suite, "specialized", plan=plan,
                                                   steps=args.steps, lr=args.lr,
                                                   batch_size=args.batch_size, seed=seed)
                    sy.similarity_delta(logs["specialized"], logs["unified"])
                with tr.span("report.write"):
                    out.mkdir(parents=True, exist_ok=True)
                    for mode, log in logs.items():
                        (out / f"log_{mode}_{seed}.csv").write_text(log.to_csv())
                runs.append({"seed": seed, "plan": plan.to_dict(),
                             **{m: log.final_mean_loss() for m, log in logs.items()}})
        return runs

    def attribute_subspace(self) -> list[str]:
        """Time the parts of each subspace report; they must reproduce it."""
        np, sb, tr = self.np, self.sb, self.tr
        fails = []
        for bundle, layer, report in self.subspace_inputs:
            with tr.span("subspace.joint_svd"):
                joint = sb.joint_svd(bundle, layer)
            with tr.span("subspace.energy"):
                _, props = sb.energy_proportions(bundle, layer, report.k, joint=joint)
            samples = [self.gdps.sample_gradients(bundle, t, layer).astype(np.float64)
                       for t in bundle.tasks]
            n = len(samples)
            rho = np.eye(n)
            for i in range(n):
                for j in range(i, n):
                    a, b = samples[i], samples[j]
                    m = min(a.shape[0], b.shape[0])
                    with tr.span("subspace.cca"):
                        try:
                            rho[i, j] = rho[j, i] = sb.ridge_cca(a[:m], b[:m], report.lam).rho
                        except self.gdps.SingularCovarianceError:
                            rho[i, j] = 1.0
            if not (np.array_equal(props, report.proportions) and np.array_equal(rho, report.cca)):
                fails.append(f"subspace parts do not reproduce the report at layer {layer}")
        return fails


def traced(rb: Rebuild, commands: list[list[str]], walls: list[float], out: Path) -> dict:
    """Rebuild every command's output; compare it with the command's own."""
    import numpy as np

    tr = rb.tr
    fails: dict[str, list[str]] = {}
    for i, argv in enumerate(commands):
        name = argv[0]
        dest = out / f"rebuild_{i}"
        problems = fails.setdefault(f"rebuild-{i}-{name}", [])
        cmd_out = Path(argv[argv.index("--out") + 1])
        if name == "plan":
            rb.plan(argv, dest)
            if (dest / "plan.json").read_bytes() != (cmd_out / "plan.json").read_bytes():
                problems.append("rebuilt plan.json differs from the command's")
        elif name == "decompose":
            ffn = rb.decompose(argv, dest)
            for f in sorted(cmd_out.iterdir()):
                if f.read_bytes() != (dest / f.name).read_bytes():
                    problems.append(f"rebuilt {f.name} differs from the command's")
            with tr.span("decompose.load"):
                back = rb.dc.load_ffn(dest)
            pairs = [(back.shared_up, ffn.shared_up), (back.shared_down, ffn.shared_down),
                     *zip(back.private_up, ffn.private_up), *zip(back.private_down, ffn.private_down)]
            if not all(np.array_equal(a, b.astype(np.float32).astype(np.float64)) for a, b in pairs):
                problems.append("load_ffn does not return save_ffn's weights rounded to float32")
            if back.routing != ffn.routing or back.plan != ffn.plan:
                problems.append("load_ffn does not return save_ffn's routing and plan")
        elif name == "simulate":
            runs = rb.simulate(argv, dest)
            summary = json.loads((cmd_out / "summary.json").read_text())
            for mine, theirs in zip(runs, summary["runs"]):
                same = (json.dumps(mine["plan"], sort_keys=True) == json.dumps(theirs["plan"], sort_keys=True)
                        and mine["unified"] == theirs["unified"]["final_mean_loss"]
                        and mine["specialized"] == theirs["specialized"]["final_mean_loss"])
                if not same:
                    problems.append(f"seed {mine['seed']}: rebuilt plan or losses differ")
                for mode in ("unified", "specialized"):
                    f = f"log_{mode}_{mine['seed']}.csv"
                    if (dest / f).read_bytes() != (cmd_out / f).read_bytes():
                        problems.append(f"rebuilt {f} differs from the command's")
    fails["rebuild-subspace-parts"] = rb.attribute_subspace()
    metrics = per_layer_metrics(tr, commands, walls, rb)
    return {"metrics": metrics, "fails": fails, "spans": tr.spans}


def per_layer_metrics(tr: Tracer, commands, walls, rb: Rebuild) -> dict:
    """Per-layer metrics of a traced round.

    cli.glue_s is the untraced commands' wall time minus the spans the
    rebuild needed for the same outputs; trace.overhead_s is the rebuild's
    wall time outside those spans.
    """
    cmd_wall = {"plan": 0.0, "decompose": 0.0, "simulate": 0.0}
    for argv, wall in zip(commands, walls):
        cmd_wall[argv[0]] += wall
    rebuilds = [i for i, s in enumerate(tr.spans) if s["name"].startswith("rebuild.")]
    needed = sum(tr.children_time(i) for i in rebuilds)
    rebuild_wall = sum(tr.spans[i]["end"] - tr.spans[i]["start"] for i in rebuilds)
    io_bytes = sum(s.get("bytes_read", 0) for s in tr.spans)
    pairs = sum(lc.total_pairs for c in rb.conflicts for lc in c.layers)
    conflict_s = tr.total("conflict.report")
    train_s = tr.total("synth.train_unified") + tr.total("synth.train_specialized")
    steps = 0
    for argv in commands:
        if argv[0] == "simulate":
            args = rb._args(argv)
            steps += 2 * args.steps * len([s for s in str(args.seeds).split(",") if s])
    cca_calls = tr.count("subspace.cca")
    m = {
        "bundle.read_s": (tr.total("bundle.read"), "s"),
        "bundle.fingerprint_s": (tr.total("bundle.fingerprint"), "s"),
        "bundle.mb_read": (io_bytes / 1e6, "MB"),
        "grouping.similarity_s": (tr.total("grouping.similarity"), "s"),
        "grouping.consensus_s": (tr.total("grouping.consensus"), "s"),
        "grouping.merges_s": (tr.total("grouping.merges"), "s"),
        "conflict.report_s": (conflict_s, "s"),
        "conflict.pairs": (pairs, "count"),
        "conflict.pairs_per_s": (pairs / conflict_s if conflict_s else 0.0, "1/s"),
        "subspace.report_s": (tr.total("subspace.report"), "s"),
        "subspace.joint_svd_s": (tr.total("subspace.joint_svd"), "s"),
        "subspace.energy_s": (tr.total("subspace.energy"), "s"),
        "subspace.cca_s": (tr.total("subspace.cca"), "s"),
        "subspace.cca_call_ms": (1e3 * tr.total("subspace.cca") / cca_calls if cca_calls else 0.0, "ms"),
        "decompose.make_plan_s": (tr.total("decompose.make_plan"), "s"),
        "decompose.assemble_s": (tr.total("decompose.assemble"), "s"),
        "decompose.save_s": (tr.total("decompose.save"), "s"),
        "decompose.load_s": (tr.total("decompose.load"), "s"),
        "report.write_s": (tr.total("report.write"), "s"),
        "synth.collect_s": (tr.total("synth.collect"), "s"),
        "synth.train_unified_s": (tr.total("synth.train_unified"), "s"),
        "synth.train_specialized_s": (tr.total("synth.train_specialized"), "s"),
        "synth.steps_per_s": (steps / train_s if train_s else 0.0, "steps/s"),
        "cli.plan_s": (cmd_wall["plan"], "s"),
        "cli.decompose_s": (cmd_wall["decompose"], "s"),
        "cli.simulate_s": (cmd_wall["simulate"], "s"),
        "cli.glue_s": (sum(cmd_wall.values()) - needed, "s"),
        "trace.overhead_s": (rebuild_wall - needed, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    cfg_path, result_path = (argv or sys.argv[1:])
    cfg = json.loads(Path(cfg_path).read_text())
    sys.path.insert(0, cfg["src"])
    out = Path(cfg["out"])
    if cfg["trace"]:
        result = traced(Rebuild(Tracer()), cfg["commands"], cfg["command_walls"], out)
    else:
        from gdps import cli

        records = run_commands(cli.main, cfg["commands"], out)
        result = {
            "commands": records,
            "run_s": sum(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result["environment"] = environment()
    Path(result_path).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
