"""Fuzzing `verify`: mutated shipped certificates must give a verdict, never
a crash, and "ok" only for a document that re-encodes to itself."""

import functools
import json

import pytest

from fatpoints.reduction import (
    MAX_NESTING,
    certificate_from_dict,
    certificate_to_dict,
    certificate_to_json,
)
from helpers import invoke_stdin, nested_merges, shipped_certificates

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@functools.cache
def _shipped_texts():
    return [certificate_to_json(cert) for cert in shipped_certificates()]


def _positions(doc):
    """Every (path, value) in a JSON document, the root included."""
    out, todo = [], [((), doc)]
    while todo:
        path, value = todo.pop()
        out.append((path, value))
        if isinstance(value, (dict, list)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            todo.extend((path + (key,), child) for key, child in items)
    return out


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


# stands for a 0 nested deep in lists, spliced into the document's text
_BURIED = "buried-value"
_RETYPED = [None, True, 0, -1, 2**70, 1.5, "x", [], {}, [0, 0, 0], _BURIED]
# each edit, and the (path, value) positions it applies to
_EDITS = {
    "drop": lambda path, value: bool(path),
    "retype": lambda path, value: True,
    "lengthen": lambda path, value: isinstance(value, list),
    "reorder": lambda path, value: isinstance(value, list) and len(value) > 1,
    "add-key": lambda path, value: isinstance(value, dict),
    "nest": lambda path, value: not path,
}


@hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
@hypothesis.given(st.data())
def test_verify_fuzzed_certificates(data):
    doc = json.loads(data.draw(st.sampled_from(_shipped_texts())))
    depth = data.draw(st.integers(1, 5000))
    for _ in range(data.draw(st.integers(1, 3))):
        edit = data.draw(st.sampled_from(sorted(_EDITS)))
        positions = [(p, v) for p, v in _positions(doc) if _EDITS[edit](p, v)]
        if not positions:  # the document was retyped to a scalar
            continue
        path, value = positions[data.draw(st.integers(0, len(positions) - 1))]
        if edit == "retype":
            new = data.draw(st.sampled_from(_RETYPED))
            if path:
                _parent(doc, path)[path[-1]] = new
            else:
                doc = new
        elif edit == "drop":
            del _parent(doc, path)[path[-1]]
        elif edit == "lengthen":
            value.extend(value[: data.draw(st.integers(1, 3))] or [0])
        elif edit == "reorder":
            value.reverse()
        elif edit == "add-key":
            value[data.draw(st.sampled_from(["note", "N", "rule", "k"]))] = 1
        else:
            doc = nested_merges(doc, data.draw(st.integers(1, 2 * MAX_NESTING)))
    text = json.dumps(doc).replace(f'"{_BURIED}"', "[" * depth + "0" + "]" * depth)
    code, out, err = invoke_stdin(["verify", "--cert", "-"], text)
    assert (code, err) in ((0, ""), (1, ""))
    verdict = json.loads(out)
    assert verdict["ok"] is (code == 0)
    if verdict["ok"]:
        doc = json.loads(text)
        assert certificate_to_dict(certificate_from_dict(doc)) == doc
