"""Cooperative statement cancellation.

A :class:`CancelToken` is a thread-safe flag owned by whoever can cancel
a statement (the network server, an interactive shell's Ctrl-C handler).
The executing side never receives the token explicitly below the session
layer: :func:`cancel_scope` parks it in a module-level thread-local for
the duration of one statement, and every morsel-grained loop in the
engine — plan-operator boundaries, parallel shard dispatches, nested-loop
chunks — polls :func:`check_cancelled`, which raises
:class:`~repro.errors.StatementCancelledError` once the flag is set.

Worker *processes* never see the token (the thread-local is empty there,
so :func:`check_cancelled` is a no-op): cancellation interrupts the
parent at the next shard/fragment boundary, which bounds the reaction
time to one morsel interval without cross-process signalling.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Optional

from .errors import StatementCancelledError

_current = threading.local()


class CancelToken:
    """One statement's cancellation flag (set-once, thread-safe)."""

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation; the statement stops at its next poll."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        if self._event.is_set():
            raise StatementCancelledError("statement cancelled")


@contextlib.contextmanager
def cancel_scope(token: Optional[CancelToken]) -> Iterator[None]:
    """Install ``token`` as the current thread's statement token."""
    previous = getattr(_current, "token", None)
    _current.token = token
    try:
        yield
    finally:
        _current.token = previous


def check_cancelled() -> None:
    """Raise :class:`StatementCancelledError` if the current statement's
    token is set. Cheap (one thread-local load) when no token is active."""
    token = getattr(_current, "token", None)
    if token is not None and token._event.is_set():
        raise StatementCancelledError("statement cancelled")

