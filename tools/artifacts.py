"""Write gdps's fixed artifact set and print one sha256 digest per file.

The set is what a change that keeps every artifact byte-identical is
checked on:

- `gdps plan` and `gdps conflict` on the plan-wide and plan-deep inputs of
  seeds 4242 and 9001, written by `bench/inputs.py` (imported, not changed);
- `gdps decompose` of each plan-wide plan;
- `gdps simulate --theta 80 --seeds 1,2,3` and `--theta 0 --seeds 4,5`.

Every command runs in this process, with the gdps that PYTHONPATH names,
from the output directory and on relative paths, so no absolute path
enters an artifact.  Each command's standard output is kept as
`stdout.txt` beside its files; the inputs are deleted once their commands
have run.  The output is one `<sha256>  <path>` line per file, sorted by
path, with each `report.json` hashed after its timestamp value is blanked.
So two trees' outputs differ exactly in the files whose bytes differ:

    PYTHONPATH=../parent/src python3 tools/artifacts.py --out /tmp/old > old.txt
    PYTHONPATH=src python3 tools/artifacts.py --out /tmp/new > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PLAN_SEEDS = (4242, 9001)
SIMULATE_RUNS = (("80", "1,2,3"), ("0", "4,5"))
TIMESTAMP = re.compile(rb'("timestamp": )"[^"]*"')


def run(main, argv: list[str], out: Path) -> None:
    """`gdps <argv>`, its standard output kept as `out/stdout.txt`."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"gdps {' '.join(argv)} exited {rc}")
    out.mkdir(parents=True, exist_ok=True)
    (out / "stdout.txt").write_text(captured.getvalue())


def write_set(main, inputs) -> None:
    """Every command of the set, run from the current directory."""
    for workload in ("plan-wide", "plan-deep"):
        spec = inputs.PLAN_SPECS[workload]
        for seed in PLAN_SEEDS:
            name = f"{workload}-{seed}"
            data = Path("inputs") / name
            inputs.write_plan_inputs(workload, spec, seed, data)
            bundle = str(data / "bundle")
            run(main, ["plan", "--bundle", bundle, "--out", f"{name}/plan",
                       "--d-model", str(spec.d_model), "--d-ff", str(spec.d_ff)], Path(name, "plan"))
            run(main, ["conflict", "--bundle", bundle, "--out", f"{name}/conflict"],
                Path(name, "conflict"))
            if spec.decompose:
                run(main, ["decompose", "--w1", str(data / "w1.gdm"), "--w2", str(data / "w2.gdm"),
                           "--plan", f"{name}/plan/plan.json", "--out", f"{name}/ffn"],
                    Path(name, "ffn"))
            shutil.rmtree("inputs")
    for theta, seeds in SIMULATE_RUNS:
        out = f"simulate-theta{theta}"
        run(main, ["simulate", "--theta", theta, "--seeds", seeds, "--out", out], Path(out))


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        data, n = TIMESTAMP.subn(rb'\1""', data)
        if n != 1:
            raise SystemExit(f"{path}: expected one timestamp, found {n}")
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="a new or empty directory")
    args = parser.parse_args(argv)
    out = Path(args.out)
    if out.exists() and any(out.iterdir()):
        parser.error(f"--out {out} is not empty")
    out.mkdir(parents=True, exist_ok=True)

    sys.dont_write_bytecode = True  # import the benchmark's input writer, leave bench/ as it is
    sys.path.insert(0, str(ROOT / "bench"))
    import inputs
    from gdps import cli

    print(f"gdps from {Path(cli.__file__).parent}", file=sys.stderr)
    os.chdir(out)
    write_set(cli.main, inputs)
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        print(f"{digest(path)}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
