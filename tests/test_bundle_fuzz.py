"""Corrupted bundles: every damaged manifest, header or payload ends
`gdps inspect` in exit 1 with one `error:` line that names the damaged file.

Each example copies a small valid bundle, damages one thing and runs the
command in-process.  The damage is always detectable by the format: a
payload flip that leaves a finite float32 is a valid bundle (the format has
no checksum), so payload flips here always set the exponent bits.
"""

import contextlib
import io
import json
import math
import os
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdps.bundle import (
    HEADER,
    MANIFEST_NAME,
    RECORD_KEYS,
    GradientBundle,
    GradientMatrix,
    write_bundle,
)
from gdps.cli import main

# No two entries share a shape, so a record pointed at another entry's file
# disagrees with it.
ROWS = {"alpha": 2, "beta": 4}
COLS = {"L0": 3, "L1": 5}
FILES = sorted(f"{t}__{lay}.gdm" for t in ROWS for lay in COLS)

FUZZ = settings(max_examples=15, deadline=None, database=None, derandomize=True)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 10) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    rng = np.random.default_rng(7)
    root = tmp_path_factory.mktemp("fuzz") / "bundle"
    write_bundle(GradientBundle.from_matrices([
        GradientMatrix(task, layer, rng.standard_normal((rows, cols)))
        for task, rows in ROWS.items() for layer, cols in COLS.items()
    ]), root)
    assert inspect(root)[0] == 0
    return root


@contextlib.contextmanager
def damaged_copy(template):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "bundle"
        shutil.copytree(template, root)
        yield root


def inspect(root):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["inspect", "--bundle", str(root)])
    return rc, err.getvalue()


def assert_clean_exit_1(root, *names):
    rc, err = inspect(root)
    assert rc == 1, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert any(name in err for name in names), err


def edit_manifest(root, edit):
    path = root / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def not_a_permutation_of(original):
    return lambda v: not (isinstance(v, list) and sorted(map(json.dumps, v))
                          == sorted(map(json.dumps, original)))


TOP_LEVEL = {
    "version": lambda orig: lambda v: v != orig,
    "element_type": lambda orig: lambda v: v != orig,
    "tasks": not_a_permutation_of,
    "layers": not_a_permutation_of,
    "records": not_a_permutation_of,
}


@pytest.mark.parametrize("key", sorted(TOP_LEVEL))
@FUZZ
@given(delete=st.booleans(), data=st.data())
def test_manifest_top_level_field(template, key, delete, data):
    original = json.loads((template / MANIFEST_NAME).read_text())[key]
    value = data.draw(json_values.filter(TOP_LEVEL[key](original)))
    with damaged_copy(template) as root:
        edit_manifest(root, lambda m: m.pop(key) if delete else m.update({key: value}))
        assert_clean_exit_1(root, MANIFEST_NAME)


@pytest.mark.parametrize("key", RECORD_KEYS)
@FUZZ
@given(index=st.integers(0, len(FILES) - 1), delete=st.booleans(), data=st.data())
def test_manifest_record_field(template, index, key, delete, data):
    original = json.loads((template / MANIFEST_NAME).read_text())["records"][index][key]
    values = json_values
    if key in ("rows", "cols"):
        # near misses that int() would have let through, and Infinity
        near = [float(original), original + 0.5, str(original), True, math.inf, -math.inf]
        values = json_values | st.sampled_from(near)
    if key == "path":
        missing = st.text(alphabet="abz._\0", max_size=6).map(lambda t: "nope_" + t)
        specials = st.sampled_from(["", ".", "..", "/", "../" + original, MANIFEST_NAME] + FILES)
        values = json_values | missing | specials
    value = data.draw(values.filter(lambda v: not (type(v) is type(original) and v == original)))
    with damaged_copy(template) as root:
        edit_manifest(root, lambda m: m["records"][index].pop(key) if delete
                      else m["records"][index].update({key: value}))
        # a changed path may instead be named as the file it points at
        named = [str(root / value)] if key == "path" and isinstance(value, str) else []
        assert_clean_exit_1(root, MANIFEST_NAME, *named)


@pytest.mark.parametrize("edit", [
    lambda m: m["records"][0].update(rows=float(m["records"][0]["rows"])),
    lambda m: m["records"][0].update(cols=math.inf),
    lambda m: m["records"][0].update(path="nope\0.gdm"),
    lambda m: m.update(tasks=5),
    lambda m: m.update(tasks=m["tasks"] + m["tasks"][:1]),
    lambda m: m["layers"][0].update(id=["L0"]),
    lambda m: m.pop("records"),
    lambda m: m["records"].append(dict(m["records"][0])),
], ids=["float-rows", "infinite-cols", "nul-path", "int-tasks", "repeated-task",
        "list-layer-id", "no-records", "repeated-record"])
def test_manifest_known_bad_values(template, edit):
    # cases that once ended in a traceback, or in exit 0
    with damaged_copy(template) as root:
        edit_manifest(root, edit)
        assert_clean_exit_1(root, MANIFEST_NAME)


def test_manifest_nested_too_deep(template):
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
    with damaged_copy(template) as root:
        (root / MANIFEST_NAME).write_text("[" * 100_000)
        assert_clean_exit_1(root, MANIFEST_NAME)


@FUZZ
@given(data=st.data())
def test_manifest_truncated(template, data):
    text = (template / MANIFEST_NAME).read_text()
    cut = data.draw(st.integers(0, len(text.rstrip()) - 1))
    with damaged_copy(template) as root:
        (root / MANIFEST_NAME).write_text(text[:cut])
        assert_clean_exit_1(root, MANIFEST_NAME)


def entry_size(name):
    task, layer = name[: -len(".gdm")].split("__")
    return ROWS[task], COLS[layer]


@FUZZ
@given(name=st.sampled_from(FILES), data=st.data())
def test_gdm_truncated_or_extended(template, name, data):
    blob = (template / name).read_bytes()
    damaged = data.draw(
        st.integers(0, len(blob) - 1).map(lambda cut: blob[:cut])
        | st.binary(min_size=1, max_size=8).map(lambda tail: blob + tail)
    )
    with damaged_copy(template) as root:
        (root / name).write_bytes(damaged)
        assert_clean_exit_1(root, name)


@FUZZ
@given(name=st.sampled_from(FILES), bit=st.integers(0, 8 * HEADER.size - 1))
def test_gdm_header_bit_flip(template, name, bit):
    blob = bytearray((template / name).read_bytes())
    blob[bit // 8] ^= 1 << (bit % 8)
    with damaged_copy(template) as root:
        (root / name).write_bytes(bytes(blob))
        assert_clean_exit_1(root, name)


@FUZZ
@given(name=st.sampled_from(FILES), data=st.data(),
       sign=st.booleans(), mantissa=st.integers(0, 2**23 - 1))
def test_gdm_payload_non_finite(template, name, data, sign, mantissa):
    rows, cols = entry_size(name)
    index = data.draw(st.integers(0, rows * cols - 1))
    blob = bytearray((template / name).read_bytes())
    word = (sign << 31) | 0x7F800000 | mantissa  # every exponent bit set: inf or nan
    struct.pack_into("<I", blob, HEADER.size + 4 * index, word)
    with damaged_copy(template) as root:
        (root / name).write_bytes(bytes(blob))
        assert_clean_exit_1(root, name)


@FUZZ
@given(name=st.sampled_from(FILES), rows=st.integers(1, 6), cols=st.integers(1, 6))
def test_gdm_wrong_shape(template, name, rows, cols):
    # a self-consistent file whose shape disagrees with its manifest record
    if (rows, cols) == entry_size(name):
        rows += 1
    blob = HEADER.pack(b"GDM1", rows, cols) + np.ones(rows * cols, dtype="<f4").tobytes()
    with damaged_copy(template) as root:
        (root / name).write_bytes(blob)
        assert_clean_exit_1(root, name)


@pytest.mark.parametrize("name", FILES)
def test_gdm_missing(template, name):
    with damaged_copy(template) as root:
        (root / name).unlink()
        assert_clean_exit_1(root, name)


@pytest.mark.parametrize("name", FILES)
def test_gdm_not_a_regular_file(template, name):
    # opening a FIFO with no writer blocks, and reading one never ends
    with damaged_copy(template) as root:
        (root / name).unlink()
        os.mkfifo(root / name)
        assert_clean_exit_1(root, name)
