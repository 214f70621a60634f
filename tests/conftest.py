"""Fail any test that leaves a thread running."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"the test left threads running: {left}"
