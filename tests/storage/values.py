"""Checks that every value of a column lives once.

A generation's values are its chunks. :func:`value_bytes` sums the numpy
arrays reachable from storage objects (through their containers, not
through indexes or dictionaries), so a cached concatenation or any other
second copy of the values shows up as bytes beyond ``size * itemsize``.
"""

import gc

import numpy as np

from repro.storage import Column
from repro.storage.snapshot import ColumnBody, ColumnSnapshot

#: What the walk follows; anything else (indexes, dictionaries, locks,
#: types) is a leaf it skips.
_FOLLOW = (tuple, list, dict, set, Column, ColumnSnapshot, ColumnBody)


def value_arrays(*roots) -> list:
    """The distinct numpy arrays reachable from ``roots``."""
    seen, arrays, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, _FOLLOW):
            stack.extend(gc.get_referents(obj))
    return arrays


def value_bytes(*generations: ColumnSnapshot) -> int:
    """Bytes of the arrays the column generations hold."""
    return sum(a.nbytes for a in value_arrays(*generations))


def assert_values_live_once(column: Column, generation: ColumnSnapshot) -> None:
    """``generation`` holds its values once, and each chunk of the live
    ``column`` is, or shares memory with, the generation's chunk."""
    assert value_bytes(generation) == generation.size * generation.tail.itemsize
    if len(column) == 0:
        assert generation.size == 0
        return
    live = column.pieces
    assert len(live) == len(generation.chunks)
    for mine, theirs in zip(live, generation.chunks):
        assert mine is theirs or np.shares_memory(mine, theirs)
