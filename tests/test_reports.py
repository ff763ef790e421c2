"""Every describe() payload must be JSON-serializable with exact integers."""

import json
import random

from quiverhom.exactlin import Field
from quiverhom.pathcoalg import bigraded_dims
from quiverhom.quiver import growth_gate, parse_quiver
from quiverhom.repmod import (
    identity_twist,
    presentation_of_rep,
    random_graded_rep,
    simple,
    truncated_free,
)
from quiverhom.homology import (
    ext_comodule_C,
    ext_fd,
    ext_vs_algebra,
    hom_into_C,
    local_cohomology,
    rational_part,
)
from quiverhom.regularity import (
    as_regular_check,
    chi_probe,
    cy_check,
    dualizing_report,
    inner_test,
    nakayama,
)

Q = Field(0)
TWO_CYCLE = parse_quiver("vertices: 2\narrow x 1 2\narrow y 2 1\n")[0]


def _roundtrips(payload):
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == json.loads(text)
    return text


def test_all_reports_serialize():
    rng = random.Random(4)
    m = random_graded_rep(TWO_CYCLE, rng, "left", Q, max_per_degree=1, max_degree=2)
    while m.total_dim == 0:
        m = random_graded_rep(TWO_CYCLE, rng, "left", Q, max_per_degree=1, max_degree=2)
    s = simple(TWO_CYCLE, 0, "left", Q)
    payloads = [
        growth_gate(TWO_CYCLE).describe(),
        bigraded_dims(TWO_CYCLE, 4).describe(),
        m.describe(),
        identity_twist(TWO_CYCLE).describe(),
        presentation_of_rep(m).describe(),
        ext_fd(m, s, 1).describe(),
        ext_vs_algebra(s, 1, 10).describe(),
        ext_comodule_C(TWO_CYCLE, 0, 1, 10, Q).describe(),
        rational_part(presentation_of_rep(m), 10).describe(),
        rational_part(truncated_free(TWO_CYCLE, 0, 10, "left", Q), 10).describe(),
        hom_into_C(presentation_of_rep(m), 8).describe(),
        local_cohomology(TWO_CYCLE, 1, 8, 10, Q).describe(),
        as_regular_check(TWO_CYCLE, 10, Q).describe(),
        nakayama(TWO_CYCLE, 10, 8, Q).describe(),
        inner_test(TWO_CYCLE, identity_twist(TWO_CYCLE), Q),
        chi_probe(TWO_CYCLE, 8, Q),
        cy_check(TWO_CYCLE, [s], 10, 8, Q),
        dualizing_report(nakayama(TWO_CYCLE, 10, 8, Q)),
    ]
    for payload in payloads:
        text = _roundtrips(payload)
        assert "Fraction" not in text
