"""Value semantics of the package's value classes (subclasses of
`quiver.Record`): equality, hash and repr over the slot fields, as a
dataclass's, and no per-instance `__dict__`."""

import pytest

from quiverhom.exactlin import Field
from quiverhom.homology import ExtReport, HomIntoCReport, LocalCohReport, RationalPartReport
from quiverhom.pathcoalg import BigradedDims
from quiverhom.quiver import (
    Arrow,
    GrowthVerdict,
    Path,
    Quiver,
    Record,
    enumerate_paths,
    growth_gate,
    parse_quiver,
)
from quiverhom.regularity import NakayamaReport, RegularityVerdict
from quiverhom.repmod import GradedPresentation, VertexTwist

THREE_CYCLE = "vertices: 3\narrow a 1 2\narrow b 2 3\narrow c 3 1\n"
LOOP = parse_quiver("vertices: 1\narrow x 1 1\n")[0]
RECORDS = (Arrow, Quiver, Path, GrowthVerdict, BigradedDims, VertexTwist, GradedPresentation,
           ExtReport, RationalPartReport, HomIntoCReport, LocalCohReport, RegularityVerdict,
           NakayamaReport)


def _fields(cls) -> tuple:
    """Hashable field values, in slot order, that cls's constructor accepts."""
    if cls is Quiver:
        return 1, (Arrow("x", 0, 0),)
    if cls is GradedPresentation:
        return LOOP, "left", Field(0), ((0, 0),), (), ((),)
    return tuple(range(len(cls.__slots__)))  # the other constructors do not validate


def test_every_record_is_covered():
    assert set(Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_and_hash_are_the_field_tuples(cls):
    fields = _fields(cls)
    a, b = cls(*fields), cls(*fields)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert all(getattr(a, name) == value for name, value in zip(cls.__slots__, fields))
    other = RECORDS[RECORDS.index(cls) - 1]
    assert a != other(*_fields(other))
    assert Arrow(0, 1, 2) != Path(0, 1, 2)  # a field tuple equals only its own class's
    if cls not in (Quiver, GradedPresentation):
        assert a != cls(*fields[:-1], -1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_instances_have_no_dict(cls):
    a = cls(*_fields(cls))
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.extra = 1


def test_path_and_arrow_repr_keep_their_text():
    # verify's coalgebra suite sorts triples of paths by repr
    assert repr(Path(0, 1, (2, 0))) == "Path(source=0, target=1, arrows=(2, 0))"
    assert repr(Path(3, 3)) == "Path(source=3, target=3, arrows=())"
    assert repr(Arrow("x", 0, 1)) == "Arrow(label='x', source=0, target=1)"
    assert repr(LOOP) == "Quiver(vertex_count=1, arrows=(Arrow(label='x', source=0, target=0),))"


def test_equal_quivers_share_cached_results():
    first, second = parse_quiver(THREE_CYCLE)[0], parse_quiver(THREE_CYCLE)[0]
    assert first is not second and first == second and hash(first) == hash(second)
    assert growth_gate(second) is growth_gate(first)
    assert enumerate_paths(second, 4) is enumerate_paths(first, 4)
    table = enumerate_paths(first, 4)
    assert table.contains(Path(0, 2, (0, 1))) and {Path(0, 2, (0, 1)): 1}[Path(0, 2, (0, 1))] == 1


def test_quiver_still_validates():
    with pytest.raises(ValueError, match="vertex_count must be >= 1"):
        Quiver(0, ())
    with pytest.raises(ValueError, match="duplicate arrow label 'x'"):
        Quiver(1, (Arrow("x", 0, 0), Arrow("x", 0, 0)))
    with pytest.raises(ValueError, match="arrow 'x' endpoint out of range"):
        Quiver(1, (Arrow("x", 0, 1),))
