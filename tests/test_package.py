"""The package namespace: every exported name resolves."""

import riskengine


def test_every_exported_name_resolves():
    missing = [name for name in riskengine.__all__ if not hasattr(riskengine, name)]
    assert missing == []
    assert len(set(riskengine.__all__)) == len(riskengine.__all__)
