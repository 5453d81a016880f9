"""The CLI input contract under fuzzing: on small `complex` and
`filtered_complex` documents, and on mutations of small bordism certificates,
valid or not, every command exits 0, 1 or 2 and prints no traceback.

The examples are derandomized, so every run checks the same documents.
"""

import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stratabord.cli import run

COMMANDS = (
    ["validate"],
    ["validate", "--with-boundary"],
    ["stratify"],
    ["links", "--all"],
    ["homology"],
    ["ih"],
    ["classify", "--class", "witt:Q"],
    ["bordism", "to-intrinsic"],
    ["bordism", "cylinder"],
)


@st.composite
def documents(draw):
    """A document on at most 8 vertices; its simplices may leave the carrier."""
    nverts = draw(st.integers(1, 8))
    simplex = st.lists(st.integers(0, nverts - 1), min_size=1, max_size=4, unique=True)
    facets = draw(st.lists(simplex, min_size=1, max_size=8))
    if draw(st.booleans()):
        return {"type": "complex", "facets": facets}
    faces = sorted(
        {s for f in facets for k in range(1, len(f) + 1) for s in itertools.combinations(sorted(f), k)}
    )
    some_simplices = st.lists(st.one_of(st.sampled_from(faces), simplex), max_size=4)
    doc = {
        "type": "filtered_complex",
        "facets": facets,
        "skeleta": draw(st.lists(some_simplices, max_size=4)),
        "classical": draw(st.booleans()),
    }
    if draw(st.booleans()):
        doc["boundary"] = draw(some_simplices)
    if draw(st.booleans()):
        doc["orientation"] = [[f, draw(st.sampled_from((1, -1)))] for f in facets]
    return doc


@given(documents())
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_command_exits_0_1_or_2_without_a_traceback(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        capsys.readouterr()
        code = run(command + [str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (command, doc, err)
        assert "Traceback" not in err, (command, doc, err)


# Small certificates to mutate: cylinders with and without a side piece, and
# bordisms to the intrinsic stratification.
CERTIFICATE_SOURCES = (
    ("cylinder", "catalog:S1"),
    ("cylinder", {"type": "complex", "facets": [[0, 1], [1, 2]]}),
    ("to-intrinsic", "catalog:S1"),
    ("to-intrinsic", "catalog:S2"),
)
LABELS = ("plus", "minus", "side")


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    wd = tmp_path_factory.mktemp("certificates")
    out = []
    for i, (mode, space) in enumerate(CERTIFICATE_SOURCES):
        if isinstance(space, dict):
            path = wd / f"space{i}.json"
            path.write_text(json.dumps(space))
            space = str(path)
        path = wd / f"cert{i}.json"
        assert run(["bordism", mode, space, "--out", str(path)]) == 0
        out.append((str(path), json.loads(path.read_text())))
    return out


def paths(doc, prefix=()):
    """The path of every value inside a JSON document, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


VALUES = st.one_of(
    st.integers(-3, 12), st.sampled_from([None, True, "plus", "x", [], {}, [[0, 1]], 2**64])
)
OPS = st.sampled_from(("delete", "replace", "negate", "repeat"))
# Up to three edits, each at a path picked from the document as it is then.
EDITS = st.lists(st.tuples(st.integers(0, 10**6), OPS, VALUES), min_size=1, max_size=3)


def mutate(doc, edits):
    """A copy of doc with each edit applied: delete the value at the picked
    path, replace it, negate it if it is a number, or repeat a list entry."""
    doc = json.loads(json.dumps(doc))
    for pick, op, value in edits:
        where = list(paths(doc))
        if not where:
            break
        *head, key = where[pick % len(where)]
        parent = doc
        for k in head:
            parent = parent[k]
        if op == "delete":
            del parent[key]
        elif op == "replace":
            parent[key] = value
        elif op == "negate" and isinstance(parent[key], int):
            parent[key] = -parent[key]
        elif op == "repeat" and isinstance(parent, list):
            parent.append(parent[key])
    return doc


@pytest.mark.parametrize("which", range(len(CERTIFICATE_SOURCES)))
def test_a_repeated_piece_is_a_usage_error(certificates, tmp_path, capsys, which):
    """Repeating a piece repeats its label: every certificate command exits 2
    with one error line, and glue takes neither copy."""
    base, doc = certificates[which]
    pick = list(paths(doc)).index(("pieces", 0))
    path = str(tmp_path / "repeated.json")
    with open(path, "w") as fh:
        json.dump(mutate(doc, [(pick, "repeat", None)]), fh)
    for command in (
        ["bordism", "verify", path],
        ["glue", path, base, "--along", "plus,minus"],
        ["glue", base, path, "--along", "plus,minus"],
    ):
        capsys.readouterr()
        assert run(command) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (command, err)


@given(
    st.integers(0, len(CERTIFICATE_SOURCES) - 1),
    EDITS,
    st.sampled_from(LABELS),
    st.sampled_from(LABELS),
)
@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_certificate_commands_exit_0_1_or_2_without_a_traceback(
    certificates, tmp_path, capsys, which, edits, l1, l2
):
    base, doc = certificates[which]
    path = str(tmp_path / "mutated.json")
    with open(path, "w") as fh:
        json.dump(mutate(doc, edits), fh)
    for command in (
        ["bordism", "verify", path],
        ["glue", path, base, "--along", f"{l1},{l2}"],
        ["glue", base, path, "--along", f"{l1},{l2}"],
    ):
        capsys.readouterr()
        code = run(command)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (command, edits, err)
        assert "Traceback" not in err, (command, edits, err)
