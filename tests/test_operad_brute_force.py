"""verify_laws against a law sweep built from the public compose alone."""

import pytest

from posetmat.compose import ALL_KINDS, kind_name
from posetmat.operad import verify_laws

from helpers import brute_force_laws


@pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_name)
def test_exhaustive_order_three_matches_brute_force(kind):
    # verdict, cases checked and skipped, and the minimal witness with both sides
    assert verify_laws(kind, 3) == brute_force_laws(kind, 3)
