"""Child processes started by the tests import kcert from this checkout.

pytest's ``pythonpath`` setting only reaches the test process itself; the
``python -m kcert.cli`` subprocesses see PYTHONPATH, so the checkout's src
goes in front of it.

Every test must also leave no child process behind, alive or unreaped: a
split Krylov chain reaps its helper however the chain ends.
"""

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    try:
        found = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process outlived the test: waitpid gave %r"
                % (found,))
