import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from iqtuples import arith, classno  # noqa: E402


@pytest.fixture(autouse=True)
def empty_memos():
    """Start every test with no member sieve, member or form count remembered."""
    arith._sieve_memo.clear()
    arith._member_memo.clear()
    classno._h_memo.clear()


@pytest.fixture
def large_proofs(monkeypatch):
    """Each value from 10^8 up that _split or is_prime is called on, in order."""
    seen = []

    def recording(real):
        def call(n, *rest):
            if n >= 10**8:
                seen.append(n)
            return real(n, *rest)
        return call

    monkeypatch.setattr(arith, "_split", recording(arith._split))
    monkeypatch.setattr(arith, "is_prime", recording(arith.is_prime))
    return seen
