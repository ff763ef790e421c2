"""local_cohomology reports pinned over a grid of quivers, fields, indices,
sides and (m_max, trunc) pairs.

The fixture holds `local_cohomology(...).describe()`, or the text of the
StabilizationError it raised, for every grid point; it was recorded on a
trusted commit, before the stage labels were listed once per (summand,
stage, degree).  Regenerate it only for an intended change of reports:

    PYTHONPATH=src python3 tests/test_local_cohomology_pinned.py
"""

import json
import pathlib

import pytest

from quiverhom.exactlin import Field
from quiverhom.homology import StabilizationError, local_cohomology
from quiverhom.quiver import parse_quiver

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "local_cohomology.json"

QUIVERS = {
    "a2": "vertices: 2\narrow x 1 2\n",
    "a3": "vertices: 3\narrow x 1 2\narrow y 2 3\n",
    "three_cycle": "vertices: 3\narrow a 1 2\narrow b 2 3\narrow c 3 1\n",
    "kronecker": "vertices: 2\narrow u 1 2\narrow v 1 2\n",
    "tree": "vertices: 4\narrow a 1 2\narrow b 3 2\narrow c 2 4\n",
    "loop_with_tail": "vertices: 2\narrow x 1 1\narrow t 1 2\n",
    "point": "vertices: 1\n",
    # sigma = id here, so the report carries a cycle product
    "loop": "vertices: 1\narrow x 1 1\n",
    "two_cycle_and_three_cycle": ("vertices: 5\narrow a 1 2\narrow b 2 1\n"
                                  "arrow c 3 4\narrow d 4 5\narrow e 5 3\n"),
}
FIELDS = {"Q": Field(0), "F2147483647": Field(2147483647)}
STAGES = ((8, 8), (9, 8), (12, 20))


def grid():
    for name in QUIVERS:
        for field in FIELDS:
            for index in (0, 1):
                for side in ("left", "right"):
                    for m_max, trunc in STAGES:
                        yield f"{name} {field} {index} {side} {m_max} {trunc}"


def outcome(key):
    name, field, index, side, m_max, trunc = key.split()
    quiver = parse_quiver(QUIVERS[name])[0]
    try:
        report = local_cohomology(quiver, int(index), int(m_max), int(trunc), FIELDS[field], side)
    except StabilizationError as exc:
        return {"error": str(exc)}
    return json.loads(json.dumps(report.describe()))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_the_grid(pinned):
    assert sorted(pinned) == sorted(grid())


@pytest.mark.parametrize("key", list(grid()))
def test_local_cohomology_matches_fixture(pinned, key):
    assert outcome(key) == pinned[key]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({key: outcome(key) for key in grid()}, sort_keys=True,
                                  separators=(",", ":")) + "\n", encoding="utf-8")
