"""Locate the checkout the benchmark runs in and put its ``src`` first on the
import path, so that the program under test is the one built from this
checkout and never an installed copy.  Exits with status 2 when the checkout
holds no program sources."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")

if not os.path.isfile(os.path.join(SRC, "imodal", "__init__.py")):
    print(f"error: no imodal sources under {SRC}", file=sys.stderr)
    sys.exit(2)
if sys.path[:1] != [SRC]:
    sys.path.insert(0, SRC)


def subprocess_env() -> dict:
    """Environment for child interpreters: the checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env
