"""Acceptance gate: every numbered criterion must hold exactly.

Each test runs one criterion from ``wallx.selftest`` — the same runners
behind the ``wallx selftest`` command — so a mismatch surfaces the failing
identity in the criterion's own exception.
"""

import pytest

from wallx.selftest import CRITERIA


@pytest.mark.parametrize(
    "criterion", CRITERIA, ids=[f"criterion_{c.number:02d}" for c in CRITERIA]
)
def test_acceptance_criterion(criterion):
    criterion.run()
