"""Corrupted plans: a plan field replaced by a value of another JSON kind, by
a NaN or Infinity literal, or deleted, ends `gdps decompose` in exit 1 with
one `error:` line that names the plan file and the field (or the literal,
which is refused while parsing).

Each example edits one field of a valid plan, top-level or inside
`grouping`, and runs the command in-process.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdps.bundle import write_matrix_file
from gdps.cli import main
from gdps.decompose import make_plan
from gdps.grouping import GroupingPlan

FUZZ = settings(max_examples=15, deadline=None, database=None, derandomize=True)

KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-5, 10),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=6),
    "list": st.lists(st.integers(-2, 2), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
}
# The JSON kinds each field accepts; a number accepts an int or a float.
FIELDS = {
    ("grouping",): {"object"},
    ("shared_ratio",): {"int", "float"},
    ("noise_scale",): {"int", "float"},
    ("p_g",): {"list"},
    ("activation",): {"string"},
    **{(name,): {"int"} for name in ("d_model", "d_ff", "d_s", "d_p", "r", "seed")},
    ("grouping", "method"): {"string"},
    ("grouping", "k"): {"int"},
    ("grouping", "groups"): {"list"},
}
LITERALS = ["NaN", "Infinity", "-Infinity"]
SENTINEL = "__literal__"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("plan_fuzz")
    rng = np.random.default_rng(3)
    write_matrix_file(root / "w1.gdm", rng.standard_normal((12, 8)))
    write_matrix_file(root / "w2.gdm", rng.standard_normal((8, 12)))
    plan = make_plan(GroupingPlan((("t0",), ("t1", "t2")), "consensus", 2),
                     0.5, 8, 12, p_g=(0.4, 0.6), seed=7)
    return root, plan.to_dict()


def decompose(root, text):
    plan_path = root / "edited_plan.json"
    plan_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["decompose", "--w1", str(root / "w1.gdm"), "--w2", str(root / "w2.gdm"),
                   "--plan", str(plan_path), "--out", str(root / "ffn")])
    return rc, err.getvalue(), plan_path


def test_unedited_plan_decomposes(inputs):
    root, plan = inputs
    assert decompose(root, json.dumps(plan))[0] == 0


@pytest.mark.parametrize("path", sorted(FIELDS), ids=".".join)
@FUZZ
@given(data=st.data())
def test_plan_field_of_wrong_kind(inputs, path, data):
    root, plan = inputs
    plan = json.loads(json.dumps(plan))
    *parents, key = path
    holder = plan
    for name in parents:
        holder = holder[name]
    wrong = [k for k in KINDS if k not in FIELDS[path]]
    edit = data.draw(st.sampled_from(["delete", "literal"] + wrong))
    if edit == "delete":
        del holder[key]
        expect = repr(key)
    elif edit == "literal":
        holder[key] = SENTINEL
        expect = data.draw(st.sampled_from(LITERALS))
    else:
        holder[key] = data.draw(KINDS[edit])
        expect = repr(key)
    rc, err, plan_path = decompose(root, json.dumps(plan).replace(f'"{SENTINEL}"', expect))
    assert rc == 1, err
    assert err.count("\n") == 1 and err.startswith("error:"), err
    assert str(plan_path) in err and expect in err, err
