"""The behaviour bar: K and status exact, f_K to 1e-12 relative on converged runs.

tests/data/behaviour_reference.json was recorded by
tests/make_behaviour_reference.py, which names its cases and the commit
that produced it; this test reruns the same cases through the same code.
"""

import json

import numpy as np
from make_behaviour_reference import REFERENCE, record


def test_recorded_behaviour_is_kept():
    reference = json.loads(REFERENCE.read_text())
    got = record(reference["seeds"])
    assert list(got) == list(reference["cases"])
    for name, want in reference["cases"].items():
        case = got[name]
        assert (case["K"], case["status"]) == (want["K"], want["status"]), name
        if "f" in want:
            f, f_ref = np.array(case["f"]), np.array(want["f"])
            assert np.max(np.abs(f - f_ref)) <= 1e-12 * np.max(np.abs(f_ref)), name
