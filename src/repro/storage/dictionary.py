"""Dictionary encoding for string columns.

Every string column stores int64 *codes*; the dictionary maps codes to the
string values. This is the paper's "mapping function" that represents
categorical and character data as numerical values so histograms can
interpolate over them (Section 3.1).

Codes are assigned in insertion order, so range semantics over codes are
only meaningful for equality / IN predicates — which is how the engine uses
them. ``sort_permutation`` gives a lexicographic view when an ORDER BY needs
real string ordering.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..errors import InvalidValueError, StorageError

MISSING_CODE = -1  # returned by lookup() for values not in the dictionary


class StringDictionary:
    """Bidirectional mapping between string values and int64 codes."""

    def __init__(self, values: Iterable[str] = ()):
        self._values: List[str] = []
        self._codes: Dict[str, int] = {}
        for v in values:
            self.encode(v)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: str) -> bool:
        return value in self._codes

    def encode(self, value: str) -> int:
        """Return the code for ``value``, adding it if unseen."""
        if not isinstance(value, str):
            raise StorageError(f"dictionary values must be str, got {value!r}")
        code = self._codes.get(value)
        if code is None:
            if not value.isascii():
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError:
                    raise InvalidValueError(
                        f"{value!r} holds a lone surrogate, which UTF-8 "
                        "cannot encode"
                    ) from None
            code = len(self._values)
            self._values.append(value)
            self._codes[value] = code
        return code

    def encode_many(self, values: Iterable[str]) -> np.ndarray:
        return np.fromiter(
            (self.encode(v) for v in values), dtype=np.int64, count=-1
        )

    def lookup(self, value: str) -> int:
        """Return the code for ``value`` or :data:`MISSING_CODE`."""
        return self._codes.get(value, MISSING_CODE)

    def decode(self, code: int) -> str:
        if 0 <= code < len(self._values):
            return self._values[code]
        raise StorageError(f"code {code} not in dictionary of size {len(self)}")

    def decode_many(self, codes: np.ndarray) -> List[str]:
        values = self._values
        # tolist() converts the whole array to Python ints in C, avoiding
        # a numpy-scalar __index__ round-trip per element.
        return [values[c] for c in np.asarray(codes, dtype=np.int64).tolist()]

    def values(self) -> List[str]:
        """All values, ordered by code."""
        return list(self._values)

    def sort_permutation(self) -> np.ndarray:
        """``perm`` such that ``values[perm]`` is lexicographically sorted."""
        return np.array(
            sorted(range(len(self._values)), key=self._values.__getitem__),
            dtype=np.int64,
        )

    def rank_of(self, code: int) -> int:
        """Lexicographic rank of ``code`` among the dictionary values."""
        value = self.decode(code)
        return sum(1 for v in self._values if v < value)

    def copy(self) -> "StringDictionary":
        clone = StringDictionary()
        clone._values = list(self._values)
        clone._codes = dict(self._codes)
        return clone

    def find_code(self, value: str) -> Optional[int]:
        code = self._codes.get(value)
        return code

    def find_codes(self, values: Iterable[str]) -> np.ndarray:
        """Codes for a value list in one pass (:data:`MISSING_CODE` for
        absent values) — the batch form of :meth:`find_code`."""
        get = self._codes.get
        values = list(values)
        return np.fromiter(
            (get(v, MISSING_CODE) for v in values),
            dtype=np.int64,
            count=len(values),
        )
