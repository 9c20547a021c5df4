"""Handler registry.

A handler is a function ``fn(ctx, *args, **kwargs)`` registered under a
name. Retroactive programming (§3.6) works by re-executing past requests
against a *patched* registry — :meth:`HandlerRegistry.patched` builds one
without mutating the production registry.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.errors import UnknownHandlerError

HandlerFn = Callable[..., Any]


class HandlerRegistry:
    """Named request handlers (case-sensitive, like route names)."""

    def __init__(self):
        self._handlers: dict[str, HandlerFn] = {}

    def register(self, name: str, fn: HandlerFn) -> HandlerFn:
        if not name:
            raise UnknownHandlerError("handler name must be non-empty")
        self._handlers[name] = fn
        return fn

    def handler(self, name: str) -> Callable[[HandlerFn], HandlerFn]:
        """Decorator form of :meth:`register`."""

        def decorate(fn: HandlerFn) -> HandlerFn:
            return self.register(name, fn)

        return decorate

    def get(self, name: str) -> HandlerFn:
        try:
            return self._handlers[name]
        except KeyError:
            raise UnknownHandlerError(
                f"no handler registered under {name!r} "
                f"(known: {sorted(self._handlers)})"
            ) from None

    def has(self, name: str) -> bool:
        return name in self._handlers

    def names(self) -> list[str]:
        return sorted(self._handlers)

    def patched(self, **overrides: HandlerFn) -> "HandlerRegistry":
        """A copy of this registry with some handlers replaced.

        This is the "modified code" a developer hands to retroactive
        programming; the original registry is untouched.
        """
        copy = HandlerRegistry()
        copy._handlers = dict(self._handlers)
        for name, fn in overrides.items():
            copy._handlers[name] = fn
        return copy

    def __iter__(self) -> Iterator[tuple[str, HandlerFn]]:
        return iter(self._handlers.items())

    def __len__(self) -> int:
        return len(self._handlers)
