"""Every test starts with the proof-step memos empty, so that a pinned
count of products does not depend on which tests ran before."""

import pytest

from qcongruence import theorems


def clear_memos():
    theorems._proof_rows.cache_clear()
    theorems._rising_rows.cache_clear()


@pytest.fixture(autouse=True)
def _cold_memos():
    clear_memos()
