"""Every run of the "same behaviour" matrix (``same_behaviour.py``) prints,
writes and exits bit for bit as the committed digest table records.

The digests depend on numpy's FFT and on the platform's libm, so they pin
bits only on the numpy version and machine the table was taken on.
Elsewhere a differing digest cannot tell a change in the program from a
change in the platform, so the test skips there and names both; the table
is regenerated on the platform it records, not wherever the suite runs.
"""

import json

import pytest
from same_behaviour import MATRIX, TABLE, label, platform_key, record

TABLE_DATA = json.loads(TABLE.read_text())


def test_table_covers_the_matrix_exactly():
    assert list(TABLE_DATA["runs"]) == [label(argv) for argv in MATRIX]


@pytest.mark.parametrize("argv", MATRIX, ids=label)
def test_run_is_bit_identical_to_its_digests(argv, tmp_path):
    recorded = {key: TABLE_DATA[key] for key in platform_key()}
    if recorded != platform_key():
        pytest.skip(f"digests were taken on {recorded}, this is {platform_key()}")
    assert record(argv, tmp_path) == TABLE_DATA["runs"][label(argv)]
