"""The merge kernel is pure Python, and the package reports it."""

import pointideal
from pointideal import _merge_py


def test_pure_kernel_importable():
    assert pointideal.BACKEND == "python"
    assert _merge_py.merge([(1,)], [], [(0,)], [], 1)[0] == [(0,), (1,)]
