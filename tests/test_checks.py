"""Every entry of the shared invariant battery, all tiers."""

import pytest

from quadhecke.checks import CHECKS


@pytest.mark.parametrize("fn", [fn for _, _, fn in CHECKS],
                         ids=[f"{name}[{tier}]" for name, tier, _ in CHECKS])
def test_check(fn):
    residual, tol = fn()
    assert abs(residual) <= tol


def test_registry_shape():
    names = [name for name, _, _ in CHECKS]
    assert len(set(names)) == len(names)
    assert {tier for _, tier, _ in CHECKS} == {"quick", "full", "exhaustive"}
