"""Marks every test of test_acceptance.py slow, so `pytest -m "not slow"` runs the fast suite."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.slow)
