import ast
import gc
import hashlib
import json
import mmap
import os
import re
import resource
import signal
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import gdps
from gdps.bundle import (
    GradientBundle,
    GradientMatrix,
    bundle_fingerprint,
    dump_json,
    is_json_int,
    is_json_number,
    json_field,
    layer_stack,
    mean_gradient,
    read_bundle,
    read_json,
    read_matrix_file,
    sample_gradients,
    write_bundle,
    write_matrix_file,
    write_text,
)
from gdps.errors import AnalysisError, BundleFormatError, ValidationError


def make_bundle(rng, tasks=("a", "b"), layers=("L0",), rows=3, cols=4):
    mats = []
    for t in tasks:
        for lay in layers:
            mats.append(GradientMatrix(t, lay, rng.standard_normal((rows, cols))))
    return GradientBundle.from_matrices(mats)


def test_write_creates_manifest_and_matrix_files(tmp_path, rng):
    bundle = make_bundle(rng)
    write_bundle(bundle, tmp_path / "b")
    files = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files == ["a__L0.gdm", "b__L0.gdm", "manifest.json"]


def test_round_trip_bit_identical(tmp_path, rng):
    bundle = make_bundle(rng, tasks=("x", "y"), layers=("L0", "L1"), rows=5, cols=7)
    write_bundle(bundle, tmp_path / "b")
    back = read_bundle(tmp_path / "b")
    assert back.tasks == bundle.tasks
    assert back.layers == bundle.layers
    for key, m in bundle.entries.items():
        assert back.entries[key].data.tobytes() == m.data.tobytes()


def test_missing_entry_rejected_naming_pair(rng):
    mats = [
        GradientMatrix("a", "L0", rng.standard_normal((2, 3))),
        GradientMatrix("a", "L1", rng.standard_normal((2, 3))),
        GradientMatrix("b", "L0", rng.standard_normal((2, 3))),
    ]
    tasks, layers = ("a", "b"), ("L0", "L1")
    entries = {(m.task, m.layer): m for m in mats}
    bundle = GradientBundle(tasks, layers, entries)
    with pytest.raises(ValidationError, match=r"\('b', 'L1'\)"):
        bundle.validate()
    with pytest.raises(ValidationError, match=r"\('b', 'L1'\)"):
        write_bundle(bundle, "/tmp/never-created")


def test_layer_column_mismatch_rejected(rng):
    mats = [
        GradientMatrix("a", "L0", rng.standard_normal((2, 3))),
        GradientMatrix("b", "L0", rng.standard_normal((2, 4))),
    ]
    entries = {(m.task, m.layer): m for m in mats}
    bundle = GradientBundle(("a", "b"), ("L0",), entries)
    with pytest.raises(ValidationError, match="column count"):
        bundle.validate()


def test_truncated_payload_rejected(tmp_path, rng):
    bundle = make_bundle(rng)
    write_bundle(bundle, tmp_path / "b")
    target = tmp_path / "b" / "a__L0.gdm"
    blob = target.read_bytes()
    target.write_bytes(blob[:-4])
    with pytest.raises(BundleFormatError, match="payload length"):
        read_bundle(tmp_path / "b")


def test_trailing_garbage_rejected(tmp_path, rng):
    bundle = make_bundle(rng)
    write_bundle(bundle, tmp_path / "b")
    target = tmp_path / "b" / "a__L0.gdm"
    target.write_bytes(target.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(BundleFormatError, match="payload length"):
        read_bundle(tmp_path / "b")


def test_zero_rows_header_rejected(tmp_path):
    path = tmp_path / "z.gdm"
    path.write_bytes(struct.pack("<4sII", b"GDM1", 0, 3))
    with pytest.raises(BundleFormatError, match="empty shape"):
        read_matrix_file(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "z.gdm"
    path.write_bytes(struct.pack("<4sII", b"NOPE", 1, 1) + b"\x00" * 4)
    with pytest.raises(BundleFormatError, match="magic"):
        read_matrix_file(path)


def test_non_finite_payload_rejected(tmp_path, rng):
    bundle = make_bundle(rng)
    write_bundle(bundle, tmp_path / "b")
    raw = (tmp_path / "b" / "a__L0.gdm").read_bytes()
    payload = np.frombuffer(raw[12:], dtype="<f4").copy()
    payload[1] = np.nan
    (tmp_path / "b" / "a__L0.gdm").write_bytes(raw[:12] + payload.tobytes())
    with pytest.raises(BundleFormatError, match="non-finite entry at row 0, col 1") as info:
        read_bundle(tmp_path / "b")
    assert "a__L0.gdm" in str(info.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_read_matrix_file_rejects_non_finite_naming_the_file(tmp_path, value):
    path = tmp_path / "w.gdm"
    data = np.arange(6.0).reshape(2, 3)
    data[1, 2] = value
    write_matrix_file(path, data)
    with pytest.raises(BundleFormatError, match="non-finite entry at row 1, col 2") as info:
        read_matrix_file(path)
    assert str(path) in str(info.value)
    assert read_matrix_file(path, finite=False).shape == (2, 3)


def test_manifest_shape_disagreement_rejected(tmp_path, rng):
    bundle = make_bundle(rng)
    write_bundle(bundle, tmp_path / "b")
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    manifest["records"][0]["rows"] = 99
    (tmp_path / "b" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(BundleFormatError, match="disagrees with manifest"):
        read_bundle(tmp_path / "b")


def test_missing_manifest(tmp_path):
    with pytest.raises(BundleFormatError, match="manifest.json"):
        read_bundle(tmp_path)


def test_non_finite_in_memory_rejected():
    with pytest.raises(ValidationError, match="non-finite"):
        GradientMatrix("a", "L0", np.array([[1.0, np.inf]]))


def test_empty_matrix_rejected():
    with pytest.raises(ValidationError):
        GradientMatrix("a", "L0", np.zeros((0, 3)))


def test_mean_gradient_symmetry():
    b = GradientBundle.from_matrices(
        [GradientMatrix("a", "L0", np.array([[1.0, 3.0], [3.0, 1.0]]))]
    )
    assert np.allclose(mean_gradient(b, "a", "L0"), [2.0, 2.0])


def test_mean_gradient_single_row_identity():
    b = GradientBundle.from_matrices(
        [GradientMatrix("a", "L0", np.array([[5.0, 0.0, -1.0]]))]
    )
    assert np.allclose(mean_gradient(b, "a", "L0"), [5.0, 0.0, -1.0])


def test_mean_gradient_statistical(rng):
    # 100 draws around (1, -1) with unit variance: mean within 3 sigma/sqrt(100).
    rows = np.array([1.0, -1.0]) + rng.standard_normal((100, 2))
    b = GradientBundle.from_matrices([GradientMatrix("a", "L0", rows)])
    got = mean_gradient(b, "a", "L0")
    assert np.all(np.abs(got - np.array([1.0, -1.0])) < 3.0 / 10.0 + 0.05)


def test_sample_gradients_identity_and_consistency(rng):
    rows = rng.standard_normal((3, 4))
    b = GradientBundle.from_matrices([GradientMatrix("a", "L0", rows)])
    view = sample_gradients(b, "a", "L0")
    assert view.shape == (3, 4)
    assert np.array_equal(view, rows.astype(np.float32))
    assert not view.flags.writeable
    # cross-operation consistency: mean of rows equals mean_gradient
    manual = view.astype(np.float64).sum(axis=0) / view.shape[0]
    assert np.max(np.abs(manual - mean_gradient(b, "a", "L0"))) < 1e-12


def test_mean_gradient_reads_the_stored_rows_without_a_stack(rng, monkeypatch):
    # a loop over tasks must not cast the whole layer once per call
    shapes = {"a": (3, 5), "b": (1, 7), "c": (513, 33), "d": (64, 8192)}
    want = {}
    for task, shape in shapes.items():
        b = GradientBundle.from_matrices(
            [GradientMatrix(task, "L0", rng.standard_normal(shape).astype(np.float32))])
        want[task] = (b, layer_stack(b, "L0").mean(axis=0))
    calls = []
    monkeypatch.setattr(gdps.bundle, "layer_stack", lambda *args: calls.append(args))
    for task, (b, mean) in want.items():
        for _ in range(2):
            got = mean_gradient(b, task, "L0")
            assert got.dtype == np.float64 and np.array_equal(got, mean)
    assert calls == []


def test_layer_stack_is_shared_while_held(rng):
    b = make_bundle(rng, layers=("L0", "L1"))
    stack = layer_stack(b, "L0")
    assert layer_stack(b, "L0") is stack
    assert layer_stack(b, "L1") is not stack


def test_layer_stack_dies_with_its_last_holder(rng):
    b = make_bundle(rng)
    stack = layer_stack(b, "L0")
    ref = weakref.ref(stack)
    del stack
    gc.collect()
    assert ref() is None
    assert layer_stack(b, "L0").shape == (6, 4)  # cast again, not served dead


def test_layer_stack_is_read_only(rng):
    stack = layer_stack(make_bundle(rng), "L0")
    with pytest.raises(ValueError):
        stack[0, 0] = 1.0
    with pytest.raises(ValueError):
        stack[3:][0, 0] = 1.0  # a view of it is read-only too


@pytest.mark.parametrize("task, layer, broken", [
    ("a,b", "L0", r"task identifier 'a,b' holds ','"),
    ("a", "L,0", r"layer identifier 'L,0' holds ','"),
    ("a/b", "L0", r"task identifier 'a/b' holds '/'"),
    ("a", "", r"layer identifier '' is empty"),
    ("a", "L\n0", r"layer identifier 'L\\n0' holds a line break"),
    (1, "L0", r"task identifier 1 is not a string"),
])
def test_every_bundle_keeps_the_identifier_rule(rng, task, layer, broken):
    # from_matrices refuses what write_bundle would, and says which rule broke
    with pytest.raises(ValidationError, match=broken):
        GradientBundle.from_matrices([GradientMatrix(task, layer, rng.standard_normal((2, 3)))])


def test_write_refuses_two_entries_on_one_file_name(tmp_path):
    # task a__b at layer c and task a at layer b__c both join to a__b__c.gdm
    pairs = [("a__b", "c"), ("a__b", "b__c"), ("a", "c"), ("a", "b__c")]
    bundle = GradientBundle.from_matrices([GradientMatrix(t, l, np.full((1, 2), float(v)))
                                           for v, (t, l) in enumerate(pairs, start=1)])
    with pytest.raises(ValidationError, match=re.escape(
            "entries (task, layer) ('a__b', 'c') and ('a', 'b__c') would both be written "
            "to a__b__c.gdm")):
        write_bundle(bundle, tmp_path / "b")
    assert not (tmp_path / "b").exists()


def test_unknown_task_layer_errors(rng):
    b = make_bundle(rng)
    with pytest.raises(ValidationError, match="unknown task"):
        mean_gradient(b, "zz", "L0")
    with pytest.raises(ValidationError, match="unknown layer"):
        sample_gradients(b, "a", "L9")


def test_fingerprint_stable_and_sensitive(tmp_path, rng):
    bundle = make_bundle(rng)
    write_bundle(bundle, tmp_path / "b1")
    write_bundle(bundle, tmp_path / "b2")
    assert bundle_fingerprint(tmp_path / "b1") == bundle_fingerprint(tmp_path / "b2")
    other = make_bundle(np.random.default_rng(999))
    write_bundle(other, tmp_path / "b3")
    assert bundle_fingerprint(tmp_path / "b1") != bundle_fingerprint(tmp_path / "b3")


def test_round_trip_many_random_bundles(tmp_path):
    rng = np.random.default_rng(7)
    for i in range(20):
        tasks = tuple(f"t{j}" for j in range(int(rng.integers(1, 5))))
        layers = tuple(f"L{j}" for j in range(int(rng.integers(1, 4))))
        layer_cols = {lay: int(rng.integers(1, 9)) for lay in layers}
        mats = []
        for t in tasks:
            for lay in layers:
                rows = int(rng.integers(1, 6))
                mats.append(
                    GradientMatrix(t, lay, rng.standard_normal((rows, layer_cols[lay])))
                )
        bundle = GradientBundle.from_matrices(mats)
        path = tmp_path / f"rb{i}"
        write_bundle(bundle, path)
        back = read_bundle(path)
        assert back.tasks == bundle.tasks and back.layers == bundle.layers
        for key, m in bundle.entries.items():
            assert back.entries[key].data.tobytes() == m.data.tobytes()


def _random_bundle(rng):
    tasks = tuple(f"t{j}" for j in range(int(rng.integers(1, 5))))
    layers = tuple(f"L{j}" for j in range(int(rng.integers(1, 4))))
    layer_cols = {lay: int(rng.integers(1, 9)) for lay in layers}
    return GradientBundle.from_matrices(
        GradientMatrix(t, lay, rng.standard_normal((int(rng.integers(1, 6)), layer_cols[lay])))
        for t in tasks
        for lay in layers
    )


def test_fingerprint_of_written_bundle_equals_in_memory(tmp_path):
    rng = np.random.default_rng(11)
    for i in range(20):
        bundle = _random_bundle(rng)
        write_bundle(bundle, tmp_path / f"b{i}")
        assert bundle_fingerprint(tmp_path / f"b{i}") == bundle.fingerprint()


def _reversed_keys(obj):
    if isinstance(obj, dict):
        return {k: _reversed_keys(obj[k]) for k in reversed(list(obj))}
    if isinstance(obj, list):
        return [_reversed_keys(x) for x in obj]
    return obj


def test_fingerprint_depends_only_on_content(tmp_path, rng):
    bundle = make_bundle(rng, tasks=("a", "b", "c"), layers=("L0", "L1"))
    root = tmp_path / "b"
    write_bundle(bundle, root)
    expected = bundle.fingerprint()

    # records layer-major and reversed, files renamed, keys reversed, other indentation
    manifest_path = root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["records"].sort(key=lambda r: (r["layer"], r["task"]), reverse=True)
    for i, rec in enumerate(manifest["records"]):
        (root / rec["path"]).rename(root / f"entry{i}.gdm")
        rec["path"] = f"entry{i}.gdm"
    manifest_path.write_text(json.dumps(_reversed_keys(manifest), indent=7))
    assert bundle_fingerprint(root) == expected

    gdm = root / "entry0.gdm"
    raw = bytearray(gdm.read_bytes())
    raw[12] ^= 1  # lowest mantissa bit of the first float32: still finite
    gdm.write_bytes(bytes(raw))
    assert bundle_fingerprint(root) != expected


@pytest.mark.parametrize("text,match", [
    ('{"a": NaN}', "NaN"),
    ('{"a": [1, Infinity]}', "Infinity"),
    ('{"a": -Infinity}', "-Infinity"),
    ("[1, 2]", "not a JSON object"),
    ("{", "unreadable"),
])
def test_read_json_strict(tmp_path, text, match):
    path = tmp_path / "in.json"
    path.write_text(text)
    with pytest.raises(BundleFormatError, match=match) as info:
        read_json(path, "manifest", BundleFormatError)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("data,dotted,ok,message", [
    ({"a": {"b": 1}}, "a.c", None, "lacks 'a.c'"),
    ({"a": [{"b": 1}]}, "a[1].b", None, "lacks 'a[1].b'"),
    ({"a": [{"b": True}]}, "a[0].b", is_json_int, "'a[0].b' must be"),
    ({"a": 1e999}, "a", is_json_number, "'a' must be"),
    ({"a": 10**400}, "a", is_json_number, "'a' must be"),
    ({"a": "1"}, "a", is_json_number, "'a' must be"),
    ({"a": -1}, "a", lambda v: is_json_int(v, minimum=0), "'a' must be"),
    ({"a": ["x", 1]}, "a", str, "'a' must be"),
])
def test_json_field_names_source_and_field(data, dotted, ok, message):
    with pytest.raises(ValidationError, match=f"^src.json: {re.escape(message)}"):
        json_field("src.json", data, dotted, ok, "right")
    assert json_field("src.json", {"a": [{"b": 2}]}, "a[0].b", is_json_int, "an int") == 2


def gdps_nodes(match) -> set:
    """(module, enclosing function) of every AST node in src/gdps that `match` accepts."""
    found = set()

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if match(child):
                found.add((module, where))
            visit(child, module, where)

    for path in Path(gdps.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.name, "<module>")
    return found


def test_one_json_reader():
    # read_json is the one place src/gdps parses a file; hash_excluding_timestamp
    # parses a string its caller hands it
    found = gdps_nodes(lambda node: (
        isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
        and isinstance(node.value, ast.Name) and node.value.id == "json"
        or isinstance(node, ast.ImportFrom) and node.module == "json"))
    assert found == {("bundle.py", "read_json"), ("report.py", "hash_excluding_timestamp")}


def test_one_json_format():
    # dump_json is the one place src/gdps lays out a JSON file; the
    # fingerprint and hash dumps, which have no indent, are not files
    found = gdps_nodes(lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
        and any(kw.arg == "indent" for kw in node.keywords)))
    assert found == {("bundle.py", "dump_json")}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dump_json_refuses_non_finite(value):
    with pytest.raises(AnalysisError, match="refusing to write JSON"):
        dump_json({"a": [1.0, {"b": value}]})


def test_dump_json_layout():
    assert dump_json({"b": 1, "a": [0.5]}) == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'


@pytest.mark.parametrize("where", ["file", "file/sub"])
def test_writers_name_the_path_of_an_unwritable_file(tmp_path, where):
    (tmp_path / "file").write_text("x")
    target = tmp_path / where / "out.json"
    with pytest.raises(ValidationError, match=re.escape(f"cannot write {target}")):
        write_text(target, "{}\n")
    with pytest.raises(ValidationError, match=re.escape(f"cannot write {tmp_path / where}")):
        write_bundle(make_bundle(np.random.default_rng(0)), tmp_path / where)
    assert (tmp_path / "file").read_text() == "x"


def test_a_failed_write_leaves_no_sibling_file(tmp_path):
    (tmp_path / "dir").mkdir()
    with pytest.raises(ValidationError, match=re.escape(f"cannot write {tmp_path / 'dir'}")):
        write_text(tmp_path / "dir", "{}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]


def _is_mapped(arr) -> bool:
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return isinstance(arr, memoryview) and isinstance(arr.obj, mmap.mmap)


@pytest.mark.parametrize("soft,mapped", [(resource.RLIM_INFINITY, True), (4, True), (3, False)])
def test_bundle_maps_only_within_half_the_descriptor_limit(tmp_path, rng, monkeypatch, soft, mapped):
    # two entries: mapped while they fit in half the soft limit, copied beyond it
    bundle = make_bundle(rng)
    write_bundle(bundle, tmp_path / "b")
    monkeypatch.setattr(gdps.bundle.resource, "getrlimit", lambda which: (soft, soft))
    loaded = read_bundle(tmp_path / "b")
    assert [_is_mapped(m.data) for m in loaded.entries.values()] == [mapped, mapped]
    assert all(not m.data.flags.writeable for m in loaded.entries.values())
    assert loaded.fingerprint() == bundle.fingerprint()


@pytest.mark.parametrize("mapped", [True, False])
def test_the_stepped_digest_is_the_one_fingerprint(tmp_path, rng, monkeypatch, mapped):
    # one step for the manifest and one per entry; the last step's digest is
    # fingerprint(), bundle_fingerprint(path) and a plain sha256 of the
    # written files: the manifest as json.dumps with sorted keys, then each
    # .gdm file whole, in sorted (task, layer) order
    bundle = make_bundle(rng, tasks=("b", "a", "c"), layers=("L1", "L0"), rows=3, cols=5)
    root = tmp_path / "b"
    write_bundle(bundle, root)
    soft = resource.RLIM_INFINITY if mapped else 1
    monkeypatch.setattr(gdps.bundle.resource, "getrlimit", lambda which: (soft, soft))
    loaded = read_bundle(root)
    assert all(_is_mapped(m.data) == mapped for m in loaded.entries.values())
    plain = hashlib.sha256(
        json.dumps(json.loads((root / "manifest.json").read_text()), sort_keys=True).encode())
    for task, layer in sorted(loaded.entries):
        plain.update((root / f"{task}__{layer}.gdm").read_bytes())
    digests = [h.hexdigest() for h in loaded.fingerprint_steps()]
    assert len(set(digests)) == len(digests) == 1 + len(loaded.entries)
    assert digests[-1] == plain.hexdigest()
    assert digests[-1] == loaded.fingerprint() == bundle.fingerprint() == bundle_fingerprint(root)


REWRITE_MAPPED_BUNDLE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
from gdps import bundle as gb
if sys.argv[2] == "in-place":
    def write_in_place(path, data):
        with open(path, "wb") as fh:
            fh.write(gb.HEADER.pack(gb.MAGIC, *data.shape))
            fh.write(data.tobytes())
    gb.write_matrix_file = write_in_place
gb.write_bundle(gb.read_bundle(sys.argv[1]), sys.argv[1])
"""


@pytest.mark.parametrize("writer,returncode", [("replace", 0), ("in-place", -signal.SIGBUS)])
def test_rewriting_a_bundle_over_its_own_mapping(tmp_path, rng, writer, returncode):
    # in a child, because truncating a mapped payload in place ends the process with SIGBUS;
    # payloads span several pages, so the writer reads past the truncated file's end
    write_bundle(make_bundle(rng, rows=4, cols=2048), tmp_path / "b")
    before = {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
    env = {**os.environ, "PYTHONPATH": str(Path(gdps.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", REWRITE_MAPPED_BUNDLE, str(tmp_path / "b"), writer],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == returncode, proc.stderr
    if writer == "replace":
        assert {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()} == before
