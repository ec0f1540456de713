"""The merge kernel is pure Python, and the package reports it."""

import pointideal
from pointideal.deltamerge import merge_with_sources


def test_pure_kernel_importable():
    assert pointideal.BACKEND == "python"
    assert merge_with_sources([(1,)], [], [(0,)], [], 1)[0] == [(0,), (1,)]
