"""Gradient snapshot bundles: the on-disk and in-memory input of the toolkit.

A bundle holds one matrix of flattened per-sample gradients for every
(task, layer) pair.  On disk it is a directory with a ``manifest.json`` plus
one ``<task>__<layer>.gdm`` file per entry; the ``.gdm`` payload is the magic
``GDM1``, a little-endian u32 row count, u32 column count, then rows*cols
float32 values in row-major order.  Storage is float32 for bit-exact
portability; `layer_stack` casts a whole layer to float64 once and shares
it while any caller holds it.

`read_bundle` maps each payload read-only from the page cache, so every
matrix of a loaded bundle is a read-only view of a mapping, not a copy.
Each mapping holds a duplicate of its file's descriptor, so a bundle with
more entries than half the soft ``RLIMIT_NOFILE`` is copied instead.
gdps writes every file by replacing it (a sibling file, then `os.replace`),
so rewriting a mapped file leaves the mapping intact; a ``.gdm`` that
another process truncates in place while gdps holds it mapped ends the
process with SIGBUS.

This module also owns how gdps reads and writes every JSON file
(manifest, plan, ``ffn.json``, reports): `read_json` parses it strictly
and `json_field` judges each field, both naming the file; `dump_json` is
the one format written, and `write_text` and `write_matrix_file` the one
rule for writing a file.  `read_matrix_file` refuses a path that is not a
regular file and applies `gdps.linalg.check_finite` to every .gdm file it reads.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import mmap
import os
import reprlib
import resource
import stat
import struct
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AnalysisError, BundleFormatError, ValidationError
from .linalg import check_finite

MAGIC = b"GDM1"
HEADER = struct.Struct("<4sII")
MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = "1"
ELEMENT_TYPE = "f32le"


def _as_float32(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype == np.float32 and arr.flags.c_contiguous and not arr.flags.writeable:
        return arr
    arr = np.array(arr, dtype=np.float32, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GradientMatrix:
    """m x d matrix of per-sample gradients for one (task, layer) pair."""

    task: str
    layer: str
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_float32(self.data))
        if self.data.ndim != 2:
            raise ValidationError(
                f"gradient matrix ({self.task}, {self.layer}): expected 2-D data, "
                f"got ndim={self.data.ndim}"
            )
        if self.rows < 1 or self.cols < 1:
            raise ValidationError(
                f"gradient matrix ({self.task}, {self.layer}): empty shape {self.data.shape}"
            )
        check_finite(self.data, f"gradient matrix ({self.task}, {self.layer})")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class GradientBundle:
    """All gradient matrices of one snapshot, keyed by (task, layer)."""

    tasks: tuple[str, ...]
    layers: tuple[str, ...]
    entries: dict = field(repr=False)
    # layer -> the `layer_stack` result that some caller still holds
    _stacks: weakref.WeakValueDictionary = field(
        default_factory=weakref.WeakValueDictionary, init=False, compare=False, repr=False)

    @classmethod
    def from_matrices(cls, matrices) -> "GradientBundle":
        """Build a bundle from GradientMatrix objects, inferring task/layer order."""
        tasks: list[str] = []
        layers: list[str] = []
        entries = {}
        for m in matrices:
            if m.task not in tasks:
                tasks.append(m.task)
            if m.layer not in layers:
                layers.append(m.layer)
            key = (m.task, m.layer)
            if key in entries:
                raise ValidationError(f"duplicate entry for (task, layer) = {key}")
            entries[key] = m
        bundle = cls(tuple(tasks), tuple(layers), entries)
        bundle.validate()
        return bundle

    def validate(self) -> None:
        if not self.tasks or not self.layers:
            raise ValidationError("bundle has no tasks or no layers")
        for kind, ids in (("task", self.tasks), ("layer", self.layers)):
            for value in ids:
                _check_identifier(kind, value)
        if len(set(self.tasks)) != len(self.tasks) or len(set(self.layers)) != len(self.layers):
            raise ValidationError(
                f"bundle lists a task or layer twice: {list(self.tasks)}, {list(self.layers)}"
            )
        seen = set()
        for task in self.tasks:
            for layer in self.layers:
                key = (task, layer)
                if key not in self.entries:
                    raise ValidationError(f"bundle is missing entry for (task, layer) = {key}")
                m = self.entries[key]
                if (m.task, m.layer) != key:
                    raise ValidationError(f"entry stored under {key} labels itself {(m.task, m.layer)}")
                seen.add(key)
        extra = set(self.entries) - seen
        if extra:
            raise ValidationError(f"bundle has entries outside its task/layer grid: {sorted(extra)}")
        for layer in self.layers:
            cols = {self.entries[(t, layer)].cols for t in self.tasks}
            if len(cols) != 1:
                raise ValidationError(
                    f"layer {layer!r}: tasks disagree on column count ({sorted(cols)})"
                )

    def fingerprint(self) -> str:
        """sha256 of the manifest write_bundle writes (``json.dumps`` with sorted
        keys), then each entry's 12-byte .gdm header and payload in sorted
        (task, layer) order: the same in memory as for the written directory.
        """
        for h in self.fingerprint_steps():
            pass
        return h.hexdigest()

    def fingerprint_steps(self):
        """The fingerprint's sha256 object, yielded after the manifest and after
        each entry in turn; the hexdigest of the last is `fingerprint()`."""
        h = hashlib.sha256(json.dumps(_manifest(self), sort_keys=True).encode())
        yield h
        for key in sorted(self.entries):
            m = self.entries[key]
            h.update(HEADER.pack(MAGIC, m.rows, m.cols))
            h.update(np.ascontiguousarray(m.data, dtype="<f4"))
            yield h

    def layer_dim(self, layer: str) -> int:
        self._check_layer(layer)
        return self.entries[(self.tasks[0], layer)].cols

    def matrix(self, task: str, layer: str) -> GradientMatrix:
        self._check_task(task)
        self._check_layer(layer)
        return self.entries[(task, layer)]

    def _check_task(self, task: str) -> None:
        if task not in self.tasks:
            raise ValidationError(f"unknown task {task!r}; bundle has {list(self.tasks)}")

    def _check_layer(self, layer: str) -> None:
        if layer not in self.layers:
            raise ValidationError(f"unknown layer {layer!r}; bundle has {list(self.layers)}")


def sample_gradients(bundle: GradientBundle, task: str, layer: str) -> np.ndarray:
    """Read-only view of the stored m x d float32 matrix."""
    return bundle.matrix(task, layer).data


def mean_gradient(bundle: GradientBundle, task: str, layer: str) -> np.ndarray:
    """Arithmetic mean over sample rows, accumulated in float64 from the stored
    rows: bit for bit the mean of the task's rows of `layer_stack`, with no copy."""
    return sample_gradients(bundle, task, layer).mean(axis=0, dtype=np.float64)


def layer_stack(bundle: GradientBundle, layer: str) -> np.ndarray:
    """Every task's sample rows at a layer, in bundle task order, as one
    read-only float64 stack, cast once and shared: while any caller holds a
    layer's stack, every call returns it."""
    stack = bundle._stacks.get(layer)
    if stack is None:
        stack = np.concatenate([sample_gradients(bundle, t, layer) for t in bundle.tasks],
                               axis=0, dtype=np.float64)
        stack.flags.writeable = False
        bundle._stacks[layer] = stack
    return stack


def _entry_filename(task: str, layer: str) -> str:
    return f"{task}__{layer}.gdm"


def _check_identifier(kind: str, value) -> None:
    """Refuse a task or layer id that a file name, a comma-separated list or a line cannot hold."""
    if not isinstance(value, str):
        broken = "is not a string"
    elif not value:
        broken = "is empty"
    elif any(c in value for c in "/\\\0"):
        broken = "holds '/', '\\' or NUL, which no file name can carry"
    elif "," in value:
        broken = "holds ',', which separates ids in --layers and in CSV rows"
    elif any(c in value for c in "\r\n"):
        broken = "holds a line break"
    else:
        return
    raise ValidationError(f"{kind} identifier {value!r} {broken}")


def _manifest(bundle: GradientBundle) -> dict:
    """The manifest of a bundle: one record per entry, task-major."""
    records = []
    for task in bundle.tasks:
        for layer in bundle.layers:
            m = bundle.entries[(task, layer)]
            records.append({"task": task, "layer": layer, "rows": m.rows, "cols": m.cols,
                            "path": _entry_filename(task, layer)})
    return {
        "version": FORMAT_VERSION,
        "element_type": ELEMENT_TYPE,
        "tasks": list(bundle.tasks),
        "layers": [{"id": lay, "cols": bundle.layer_dim(lay)} for lay in bundle.layers],
        "records": records,
    }


def write_matrix_file(path, data: np.ndarray) -> None:
    """Write one .gdm file under the rule of `write_text`."""
    arr = np.ascontiguousarray(data, dtype="<f4")
    _replace_file(path, HEADER.pack(MAGIC, arr.shape[0], arr.shape[1]), arr)


def _read_payload(path, mapped: bool):
    """The bytes of the file at `path`: a read-only mapping if `mapped`, else a copy.

    A file shorter than the header is always copied (an empty file cannot
    be mapped, and the header check rejects it either way).  A FIFO or a
    device, whose open may block or whose read may never end, is refused.
    """
    with open(path, "rb", opener=lambda p, f: os.open(p, f | os.O_NONBLOCK)) as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise ValueError("not a regular file")
        if mapped and info.st_size >= HEADER.size:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        return fh.read()


def read_matrix_file(path: Path, finite: bool = True, mapped: bool = False) -> np.ndarray:
    """The read-only float32 matrix in one .gdm file; a view of a mapping if `mapped`.

    A file that cannot be read, is malformed, or (with `finite`) holds a
    NaN or infinity raises BundleFormatError naming the file.
    """
    try:
        blob = _read_payload(path, mapped)
    except (OSError, ValueError) as exc:
        raise BundleFormatError(f"cannot read matrix file {path}: {exc}") from exc
    if len(blob) < HEADER.size:
        raise BundleFormatError(f"{path}: file shorter than the 12-byte header")
    magic, rows, cols = HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise BundleFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if rows < 1 or cols < 1:
        raise BundleFormatError(f"{path}: header declares empty shape {rows}x{cols}")
    expected = HEADER.size + 4 * rows * cols
    if len(blob) != expected:
        raise BundleFormatError(
            f"{path}: payload length {len(blob)} does not match header "
            f"{rows}x{cols} (expected {expected} bytes)"
        )
    arr = np.frombuffer(blob, dtype="<f4", offset=HEADER.size).reshape(rows, cols)
    if finite:
        check_finite(arr, str(path), BundleFormatError)
    return arr


def write_bundle(bundle: GradientBundle, path) -> None:
    """Write manifest + one .gdm file per entry; re-reading is bit-identical."""
    bundle.validate()
    root = Path(path)
    manifest = _manifest(bundle)
    owners = {}  # ids may join to one name: task a__b at layer c, task a at layer b__c
    for rec in manifest["records"]:
        first = owners.setdefault(rec["path"], (rec["task"], rec["layer"]))
        if first != (rec["task"], rec["layer"]):
            raise ValidationError(f"entries (task, layer) {first} and {(rec['task'], rec['layer'])} "
                                  f"would both be written to {rec['path']}")
    for rec in manifest["records"]:
        write_matrix_file(root / rec["path"], bundle.entries[rec["task"], rec["layer"]].data)
    write_text(root / MANIFEST_NAME, dump_json(manifest))


RECORD_KEYS = ("task", "layer", "rows", "cols", "path")


def _refuse_constant(literal: str):
    raise ValueError(f"{literal} is not JSON; gdps never writes it")


def dump_json(obj) -> str:
    """The text of every JSON file gdps writes: sorted keys, indent 2, a final newline.

    A NaN or Infinity anywhere in `obj` raises AnalysisError: gdps never
    writes them, and `read_json` refuses them.
    """
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise AnalysisError(f"refusing to write JSON: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write `text` to the file at `path` by replacing it, making its parent directories.

    An OSError (a parent that is a file, a path that is a directory)
    raises ValidationError naming the path.
    """
    _replace_file(path, text.encode("utf-8"))


def _replace_file(path, *chunks) -> None:
    """Write `chunks` to a sibling file, then rename it over `path`.

    The old file is never truncated in place, so a mapping of it (a bundle
    read by `read_bundle`) keeps its pages.  An OSError removes the sibling
    and raises ValidationError naming `path`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def read_json(path, kind: str, error=ValidationError) -> dict:
    """The JSON object in the file at `path`, parsed strictly.

    An unreadable file, text that is not UTF-8 or not JSON (both
    ValueErrors), nesting too deep for the parser, a NaN or Infinity
    literal, or a top level that is not an object raises `error` naming the
    file and calling it a `kind`.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_refuse_constant)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"{path}: unreadable {kind}: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: {kind} is not a JSON object")
    return data


def is_json_int(value, minimum: int | None = None) -> bool:
    """A JSON integer: int, not bool (the parser gives floats for 2.0 and 1e999)."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and (minimum is None or value >= minimum))


def is_json_number(value) -> bool:
    """A finite JSON number, int or float but not bool, that float64 holds."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def json_field(src: str, data, dotted: str, ok=None, kind: str = "", error=ValidationError):
    """The value at `dotted` in parsed JSON: keys joined by '.', list items as '[i]'.

    A missing key or item, or a value that `ok` (a type or a predicate)
    rejects, raises `error` naming `src` and `dotted`; `kind` says what `ok`
    accepts.
    """
    value = data
    for step in dotted.replace("[", ".[").split("."):
        if step.startswith("["):
            key = int(step[1:-1])
            found = isinstance(value, list) and key < len(value)
        else:
            key, found = step, isinstance(value, dict) and step in value
        if not found:
            raise error(f"{src}: lacks {dotted!r}")
        value = value[key]
    if ok is not None and not (isinstance(value, ok) if isinstance(ok, type) else ok(value)):
        raise error(f"{src}: {dotted!r} must be {kind}, got {reprlib.repr(value)}")
    return value


def _manifest_records(root: Path, src: str, manifest: dict) -> list[dict]:
    """The manifest's records, each complete and pointing inside the bundle.

    A record lacking a field, holding one of the wrong kind, or whose path
    resolves outside the bundle directory, is a format error naming the
    manifest and the field.  Each returned record
    gains its "shape" as integers and its "file" path.
    """
    records = json_field(src, manifest, "records", list, "a list", BundleFormatError)
    base = root.resolve()
    checked = []
    for i in range(len(records)):
        json_field(src, manifest, f"records[{i}]", dict, "an object", BundleFormatError)
        rec = {}
        for key in RECORD_KEYS:
            ok, kind = (is_json_int, "an integer") if key in ("rows", "cols") else (str, "a string")
            rec[key] = json_field(src, manifest, f"records[{i}].{key}", ok, kind, BundleFormatError)
        fpath = root / rec["path"]
        try:
            resolved = fpath.resolve()
        except (OSError, ValueError) as exc:
            raise BundleFormatError(
                f"{src}: 'records[{i}].path' {rec['path']!r} is not a usable path: {exc}"
            ) from exc
        if not resolved.is_relative_to(base):
            raise BundleFormatError(
                f"{src}: 'records[{i}].path' {rec['path']!r} lies outside the bundle"
            )
        checked.append({**rec, "shape": (rec["rows"], rec["cols"]), "file": fpath})
    return checked


def _manifest_layers(src: str, manifest: dict) -> list[tuple]:
    """The declared (layer id, column count) pairs, in manifest order."""
    specs = json_field(src, manifest, "layers", list, "a list", BundleFormatError)
    return [(json_field(src, manifest, f"layers[{i}].id", str, "a string", BundleFormatError),
             json_field(src, manifest, f"layers[{i}].cols", is_json_int, "an integer",
                        BundleFormatError))
            for i in range(len(specs))]


def _mappings_fit(count: int) -> bool:
    """Whether `count` mappings, each holding a duplicate descriptor, fit in half
    the soft RLIMIT_NOFILE, leaving the other half to the rest of the process."""
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    return soft == resource.RLIM_INFINITY or count <= soft // 2


def read_bundle(path) -> GradientBundle:
    """Load and fully validate a bundle directory written by write_bundle."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise BundleFormatError(f"no {MANIFEST_NAME} in {root}")
    manifest = read_json(manifest_path, "manifest", BundleFormatError)
    src = str(manifest_path)
    json_field(src, manifest, "version", lambda v: v == FORMAT_VERSION,
               repr(FORMAT_VERSION), BundleFormatError)
    json_field(src, manifest, "element_type", lambda v: v == ELEMENT_TYPE,
               repr(ELEMENT_TYPE), BundleFormatError)
    tasks = json_field(src, manifest, "tasks",
                       lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
                       "a list of strings", BundleFormatError)
    layer_specs = _manifest_layers(src, manifest)
    layers = [layer for layer, _ in layer_specs]
    declared_cols = dict(layer_specs)

    records = _manifest_records(root, src, manifest)
    mapped = _mappings_fit(len(records))
    entries = {}
    for rec in records:
        task, layer = rec["task"], rec["layer"]
        fpath = rec["file"]
        if (task, layer) in entries:
            raise BundleFormatError(
                f"{manifest_path}: duplicate entry for (task, layer) = {(task, layer)}")
        # GradientMatrix checks finiteness once, below
        arr = read_matrix_file(fpath, finite=False, mapped=mapped)
        if arr.shape != rec["shape"]:
            raise BundleFormatError(
                f"{fpath}: file shape {arr.shape} disagrees with manifest record "
                f"({rec['rows']}, {rec['cols']}) for (task, layer) = ({task}, {layer}) "
                f"in {manifest_path}"
            )
        if layer in declared_cols and arr.shape[1] != declared_cols[layer]:
            raise BundleFormatError(
                f"{fpath}: layer {layer!r} declares cols={declared_cols[layer]} "
                f"in {manifest_path} but file has cols={arr.shape[1]}"
            )
        try:
            entries[task, layer] = GradientMatrix(task, layer, arr)
        except ValidationError as exc:
            raise BundleFormatError(f"{fpath}: {exc}") from exc

    bundle = GradientBundle(tuple(tasks), tuple(layers), entries)
    try:
        bundle.validate()
    except ValidationError as exc:
        raise BundleFormatError(f"{manifest_path}: {exc}") from exc
    return bundle


def bundle_fingerprint(path) -> str:
    """Content hash of a bundle directory: ``read_bundle(path).fingerprint()``."""
    return read_bundle(path).fingerprint()
