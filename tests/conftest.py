"""Child processes started by the tests import kcert from this checkout.

pytest's ``pythonpath`` setting only reaches the test process itself; the
``python -m kcert.cli`` subprocesses see PYTHONPATH, so the checkout's src
goes in front of it.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))
