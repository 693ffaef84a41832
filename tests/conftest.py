import sys
from functools import lru_cache

import pytest

from nilchain import RootSystemSpec, build_root_system


@lru_cache(maxsize=None)
def system(family: str, rank: int):
    return build_root_system(RootSystemSpec(family, rank))


# Every system the acceptance criteria quantify over.
ACCEPTANCE_SYSTEMS = [
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("B", 2),
    ("B", 3),
    ("C", 3),
    ("G", 2),
    ("D", 4),
]


@pytest.fixture
def a2():
    return system("A", 2)


@pytest.fixture
def b2():
    return system("B", 2)


@pytest.fixture
def g2():
    return system("G", 2)


@pytest.fixture
def digit_limits(monkeypatch):
    """Call it and loop: each pass runs at one int-to-str digit limit.

    The limits are Python's default, 640 (the smallest it allows) and 0
    (none).  Each is set in this process and in ``PYTHONINTMAXSTRDIGITS``
    for subprocesses; the limit in force before is restored afterwards.
    """
    saved = sys.get_int_max_str_digits()

    def limits():
        for limit in (sys.int_info.default_max_str_digits, 640, 0):
            sys.set_int_max_str_digits(limit)
            monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", str(limit))
            yield limit

    yield limits
    sys.set_int_max_str_digits(saved)
