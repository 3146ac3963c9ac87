import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from iqtuples import arith, classno  # noqa: E402


@pytest.fixture(autouse=True)
def empty_memos():
    """Start every test with no factorization or form count remembered."""
    arith._rho_memo.clear()
    classno._h_memo.clear()
