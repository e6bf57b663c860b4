"""End-to-end benchmark of `gdps plan`, `decompose` and `simulate`.

    python3 bench/run.py --workload plan-wide --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The benchmark writes its inputs from --seed, then runs whole
rounds of the workload's commands, each round in a fresh interpreter with
one BLAS thread and GDPS_THREADS=1, while the rounds run so far leave room
for another within --seconds.  Every command's output is checked against
computations made apart from the program (checks.py); a wrong output, a
non-zero exit code or an artifact that differs between rounds counts as a
failed operation.

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics (setup_s, run_s, cpu_s, peak_rss_mb); with --trace 1
it runs one traced round and reports the per-layer metrics instead.  The
line before it records the environment, host steal over the run and every
round.  Everything the run writes stays under bench/_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Fixed thread counts: one BLAS thread and no gdps thread pool.  On a small
# shared host, more threads than the program can use add steal and noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "GDPS_THREADS": "1"}
os.environ.update(THREAD_ENV)

import checks  # noqa: E402  (after the thread settings: it imports numpy)
from inputs import PLAN_SPECS, SIMULATE_SPEC, TINY_PLAN_SPECS, simulate_seeds, write_plan_inputs  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("plan-wide", "plan-deep", "simulate")
SETUP_LAUNCHES = 5
CHILD_TIMEOUT_S = 170
PLANTED_SIMULATE_GROUPS = [["t0"], ["t1", "t2", "t3"]]  # `gdps simulate` default groups


def steal_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole host from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Run:
    """One benchmark run: inputs, rounds, checks and the operations ledger."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path,
                 tiny: bool = False):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.inputs = work / "inputs"
        self.plan_spec = (TINY_PLAN_SPECS if tiny else PLAN_SPECS).get(workload)
        self.ops: list[dict] = []

    # -- operations ledger -------------------------------------------------

    def record(self, name: str, fails: list[str]) -> None:
        self.ops.append({"op": name, "fails": list(fails)})
        for f in fails:
            print(f"check failed: {name}: {f}", file=sys.stderr)

    def check(self, name: str, fn, *args) -> None:
        """Record one operation; output too malformed to check counts as failed."""
        try:
            fails = fn(*args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            fails = [f"malformed output: {type(exc).__name__}: {exc}"]
        self.record(name, fails)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op["fails"])

    # -- inputs and commands -----------------------------------------------

    def make_inputs(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        if self.plan_spec is not None:
            write_plan_inputs(self.workload, self.plan_spec, self.seed, self.inputs)

    def commands(self, out: Path) -> list[list[str]]:
        if self.plan_spec is not None:
            spec = self.plan_spec
            commands = [["plan", "--bundle", str(self.inputs / "bundle"), "--out", str(out / "plan"),
                         "--d-model", str(spec.d_model), "--d-ff", str(spec.d_ff)]]
            if spec.decompose:
                commands.append(["decompose", "--w1", str(self.inputs / "w1.gdm"),
                                 "--w2", str(self.inputs / "w2.gdm"),
                                 "--plan", str(out / "plan" / "plan.json"), "--out", str(out / "ffn")])
            return commands
        seeds = ",".join(map(str, simulate_seeds(self.seed, SIMULATE_SPEC)))
        return [
            ["simulate", "--theta", str(theta), "--seeds", seeds, "--steps", str(SIMULATE_SPEC.steps),
             "--mode", "both", "--out", str(out / f"sim{int(theta)}")]
            for theta in (SIMULATE_SPEC.theta_conflict, SIMULATE_SPEC.theta_control)
        ]

    # -- set-up time -------------------------------------------------------

    def setup_launches(self) -> list[float]:
        """Median-able wall times of fresh interpreters up to the first command.

        Plan workloads launch `gdps inspect` on their bundle (import, read,
        validate, fingerprint); simulate launches `import gdps.cli`.  One
        untimed launch first compiles bytecode and warms the file cache.
        """
        if self.plan_spec is not None:
            argv = [sys.executable, "-m", "gdps.cli", "inspect", "--bundle", str(self.inputs / "bundle")]
        else:
            argv = [sys.executable, "-c", "import gdps.cli"]
        times, outputs = [], []
        for i in range(SETUP_LAUNCHES + 1):
            t0 = time.perf_counter()
            proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, cwd=self.work)
            wall = time.perf_counter() - t0
            if i == 0:
                continue
            times.append(wall)
            fails = [] if proc.returncode == 0 else [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
            if self.plan_spec is not None and not fails:
                fails += checks.check_inspect(self.plan_spec, proc.stdout)
                if outputs and proc.stdout != outputs[0]:
                    fails.append("inspect output differs between launches")
            outputs.append(proc.stdout)
            self.record(f"setup-{i}", fails)
        return times

    # -- rounds ------------------------------------------------------------

    def round(self, k: int) -> dict:
        """One untraced round in a fresh interpreter."""
        out = self.work / f"round{k}"
        out.mkdir(parents=True)
        commands = self.commands(out)
        result = self._worker(out, "round", {"commands": commands, "trace": False})
        result.update(dir=str(out), commands_argv=commands)
        return result

    def traced_round(self, untraced: dict) -> dict:
        """Rebuild an untraced round's outputs, traced, in another fresh interpreter."""
        return self._worker(Path(untraced["dir"]), "trace", {
            "commands": untraced["commands_argv"], "trace": True,
            "command_walls": [c["wall_s"] for c in untraced["commands"]]})

    def _worker(self, out: Path, name: str, cfg: dict) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        cfg = {"src": str(ROOT / "src"), "out": str(out), **cfg}
        (out / f"{name}.json").write_text(json.dumps(cfg))
        t0 = time.perf_counter()
        with open(out / f"{name}.log", "w") as log:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(out / f"{name}.json"),
                                   str(out / f"{name}_result.json")], env=child_env(), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S, cwd=self.work)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed:\n{(out / f'{name}.log').read_text()[-3000:]}")
        result = json.loads((out / f"{name}_result.json").read_text())
        result["process_s"] = wall
        return result

    def artifacts(self, round_dir: Path) -> dict:
        """Hash of every command output, `timestamp` left out of report.json."""
        hashes = {}
        for path in sorted(round_dir.rglob("*")):
            rel = path.relative_to(round_dir)
            if not path.is_file() or rel.parts[0].startswith("rebuild") or rel.parent == Path("."):
                continue
            data = path.read_bytes()
            if path.name == "report.json":
                try:
                    report = json.loads(data)
                    report.pop("timestamp", None)
                    data = json.dumps(report, sort_keys=True).encode()
                except (ValueError, AttributeError):
                    pass  # malformed: compared byte for byte
            hashes[str(rel)] = hashlib.sha256(data).hexdigest()
        return hashes

    def check_round(self, result: dict) -> None:
        """Full checks of one round's command outputs."""
        out = Path(result["dir"])
        for i, (argv, rec) in enumerate(zip(result["commands_argv"], result["commands"])):
            name = f"{Path(result['dir']).name}-{argv[0]}-{i}"
            if rec["rc"] != 0:
                self.record(name, [f"exit code {rec['rc']}"])
                continue
            if argv[0] == "plan":
                self.check(name, checks.check_plan, self.plan_spec, self.inputs, out / "plan")
            elif argv[0] == "decompose":
                self.check(name, checks.check_decompose, self.plan_spec, self.inputs,
                           out / "plan" / "plan.json", out / "ffn", Path(rec["stdout"]).read_text())
            else:
                theta = float(argv[argv.index("--theta") + 1])
                self.check(name, checks.check_simulate,
                           Path(argv[argv.index("--out") + 1]) / "summary.json",
                           simulate_seeds(self.seed, SIMULATE_SPEC), theta,
                           SIMULATE_SPEC.steps, PLANTED_SIMULATE_GROUPS)

    def check_repeat(self, result: dict, first: dict, first_hashes: dict) -> None:
        """A later round passes when its artifacts equal the fully checked first round's."""
        hashes = self.artifacts(Path(result["dir"]))
        for i, (argv, rec) in enumerate(zip(result["commands_argv"], result["commands"])):
            top = Path(argv[argv.index("--out") + 1]).name
            mine = {k: v for k, v in hashes.items() if Path(k).parts[0] == top}
            theirs = {k: v for k, v in first_hashes.items() if Path(k).parts[0] == top}
            fails = [] if rec["rc"] == 0 else [f"exit code {rec['rc']}"]
            if not fails and mine != theirs:
                fails.append(f"{top} artifacts differ from the first round's")
            if not fails and first["commands"][i]["rc"] != 0:
                fails.append("the first round of this command failed")
            self.record(f"{Path(result['dir']).name}-{argv[0]}-{i}", fails)

    # -- the run -----------------------------------------------------------

    def measure(self) -> tuple[dict, dict]:
        """Returns (metrics, details)."""
        self.make_inputs()
        if self.trace:
            result = self.round(1)
            self.check_round(result)
            if any(c["rc"] != 0 for c in result["commands"]):
                raise RuntimeError("a command failed; there is nothing to rebuild")
            trace = self.traced_round(result)
            for name, fails in trace["fails"].items():
                self.record(name, fails)
            return trace["metrics"], {"rounds": [self.summary(result)], "spans": trace["spans"],
                                      "trace_process_s": trace["process_s"]}

        launches = self.setup_launches()
        rounds = []
        t0 = time.perf_counter()
        while True:
            rounds.append(self.round(len(rounds) + 1))
            elapsed = time.perf_counter() - t0
            if elapsed + rounds[-1]["process_s"] > self.seconds:
                break
        self.check_round(rounds[0])
        first_hashes = self.artifacts(Path(rounds[0]["dir"]))
        for r in rounds[1:]:
            self.check_repeat(r, rounds[0], first_hashes)
        med = lambda key: statistics.median(r[key] for r in rounds)  # noqa: E731
        metrics = {
            "setup_s": {"value": statistics.median(launches), "unit": "s"},
            "run_s": {"value": med("run_s"), "unit": "s"},
            "cpu_s": {"value": med("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        }
        return metrics, {"setup_launches_s": launches, "rounds": [self.summary(r) for r in rounds]}

    @staticmethod
    def summary(result: dict) -> dict:
        return {
            "run_s": result["run_s"], "cpu_s": result["cpu_s"], "peak_rss_mb": result["peak_rss_mb"],
            "process_s": result["process_s"], "environment": result["environment"],
            "commands": [{"command": c["argv"][0], "rc": c["rc"], "wall_s": c["wall_s"],
                          "cpu_s": c["cpu_s"]} for c in result["commands"]],
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gdps" / "cli.py").is_file():
        print(f"error: no gdps sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "_work" / f"{label}-{os.getpid()}"
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    steal0, total0 = steal_ticks()
    try:
        metrics, details = run.measure()
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal1, total1 = steal_ticks()
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        host_steal_ticks=steal1 - steal0, host_total_ticks=total1 - total0,
        attempted=len(run.ops), failed=run.failed,
        failures=[op for op in run.ops if op["fails"]],
    )
    results = BENCH / "_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{label}.json").write_text(json.dumps({"details": details, "metrics": metrics}, indent=1))
    print(json.dumps({"environment": details["rounds"][0]["environment"],
                      "host_steal_ticks": details["host_steal_ticks"],
                      "host_total_ticks": details["host_total_ticks"],
                      "rounds": len(details["rounds"])}))
    print(json.dumps({"correct": run.failed == 0, "attempted": len(run.ops),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
