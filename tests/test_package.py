"""The package's public name list."""

import types

import subspace_bandit


def test_all_lists_exactly_the_public_names():
    """__all__ and the names __init__ imports must not drift apart."""
    public = {
        name
        for name, value in vars(subspace_bandit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(subspace_bandit.__all__) == len(set(subspace_bandit.__all__))
    assert set(subspace_bandit.__all__) == public


def test_every_listed_name_resolves():
    for name in subspace_bandit.__all__:
        assert getattr(subspace_bandit, name) is not None, name
