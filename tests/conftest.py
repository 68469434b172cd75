import os
from pathlib import Path

import pytest

from covg import braid_com, exactla, fixture

# tests that start `python -m covg.cli` in a subprocess import the same source tree
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def figure1():
    return fixture("figure1")


@pytest.fixture(scope="session")
def figure1_rect():
    return fixture("figure1-rectangle")


@pytest.fixture(scope="session")
def braid1():
    return braid_com(1)


@pytest.fixture(scope="session")
def braid2():
    return braid_com(2)


@pytest.fixture(scope="session")
def braid3():
    return braid_com(3)


@pytest.fixture(scope="session")
def braid4():
    return braid_com(4)


@pytest.fixture(scope="session")
def corpus(figure1, figure1_rect, braid1, braid2, braid3, braid4):
    """The COMs every counting/structure suite runs over."""
    return {
        "figure1": figure1,
        "figure1-rectangle": figure1_rect,
        "braid1": braid1,
        "braid2": braid2,
        "braid3": braid3,
        "braid4": braid4,
    }


@pytest.fixture(scope="session")
def fp_engines():
    """A generator function over the two prime-field engines: it yields
    "exact" with `_NUMPY_POINTS` past every locus, then "numpy" with it at 0,
    so a filtration over F_p takes that engine while the loop body runs."""

    def engines():
        for name, points in (("exact", 2**62), ("numpy", 0)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(exactla, "_NUMPY_POINTS", points)
                yield name

    return engines
