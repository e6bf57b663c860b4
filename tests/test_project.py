"""The README's Python runs, and the package metadata agrees with the source."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gdps

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_readme_has_python():
    assert README_BLOCKS


@pytest.mark.parametrize("code", README_BLOCKS, ids=lambda c: c.splitlines()[0])
def test_readme_python_runs(code, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **ONE_THREAD}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_command_line_runs(tmp_path):
    # the bash block under "Command line", each command run from this source tree
    section = README.split("\n## Command line\n", 1)[1]
    script = re.search(r"^```bash\n(.*?)^```", section, flags=re.MULTILINE | re.DOTALL).group(1)
    script = script.replace("/tmp/", f"{tmp_path}/")
    script = re.sub(r"^gdps ", "python -m gdps.cli ", script, flags=re.MULTILINE)
    script = script.replace("python -", f"{sys.executable} -")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **ONE_THREAD}
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report" / "consolidated.md").is_file()


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib: Python 3.10 has no TOML reader
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
    assert match and match.group(1) == gdps.__version__
