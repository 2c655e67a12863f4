"""Keeps ``benchmarks/conftest.py``'s session fixture out of this directory.

That fixture builds the IGB-Full workload (~10 s) for the figure
benchmarks; the harness self-test runs every workload in child processes
and needs none of it.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def warm_workloads():
    yield
