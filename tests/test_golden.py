"""Every output byte of the golden CLI flows, against ``tests/golden/digests.json``."""
import json

import numpy as np
import pytest

import golden
from lobmix.seeds import RNG_LAYOUT


def test_outputs_match_golden_digests(tmp_path):
    want = json.loads(golden.DIGESTS.read_text())
    # numpy does not promise stable Generator streams across versions, so the digests hold for one version only
    if (want["numpy"], want["rng_layout"]) != (np.__version__, RNG_LAYOUT):
        pytest.fail(
            f"digests were written under numpy {want['numpy']} and rng_layout {want['rng_layout']}, "
            f"this is numpy {np.__version__} and rng_layout {RNG_LAYOUT}"
        )
    got = golden.run_flows(tmp_path)
    diff = golden.differences(want, got)
    assert not diff, "outputs differ from the golden digests:\n" + "\n".join(diff)
