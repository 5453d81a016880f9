"""The CLI input contract under fuzzing: on small `complex` and
`filtered_complex` documents, valid or not, every command exits 0, 1 or 2
and prints no traceback.

The examples are derandomized, so every run checks the same documents.
"""

import itertools
import json

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
