"""Fixtures shared across the test packages."""

import importlib.util
import sys
from pathlib import Path

import pytest

GENERATOR_PATH = Path(__file__).resolve().parents[1] / "perfbench" / \
    "generator.py"

#: The start of the ``ResourceWarning`` a ``ServingEngine`` emits when it
#: is collected with its workers running (``shutdown()`` never called).
LEAKED_ENGINE = "ServingEngine collected with"


def pytest_configure(config):
    """Make a leaked serving engine fail the test that leaked it.

    The warning comes from a finalizer, so once it is an error it
    reaches pytest as an unraisable exception; the second filter makes
    that report an error too.  Both match the leak warning's message
    only: any other ``ResourceWarning`` (an unclosed file) keeps its
    default handling.
    """
    config.addinivalue_line(
        "filterwarnings", f"error:{LEAKED_ENGINE}:ResourceWarning")
    config.addinivalue_line(
        "filterwarnings",
        f"error:(?s).*ResourceWarning. {LEAKED_ENGINE}"
        f":pytest.PytestUnraisableExceptionWarning")


@pytest.fixture(scope="session")
def generator():
    """``perfbench/generator.py`` (the seeded program generator of the
    ``lib-generated`` workload) as a module, loaded read-only: no
    ``sys.path`` change and no bytecode written next to it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_generator", GENERATOR_PATH)
    module = importlib.util.module_from_spec(spec)
    # ``dataclasses`` resolves the module through ``sys.modules``.
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module
