"""The observer event vocabulary, and the one registry that dispatches it
for a ``Database`` and a ``Runtime``. An observer declares the events it
takes as an ``events`` tuple, with a method of that name for each; both
are checked when it is added, so a misspelled subscription fails there.
"""

from __future__ import annotations

from typing import Any, Iterator

#: Every event, with the arguments its subscribers are called with.
EVENTS: dict[str, str] = {
    "txn_began": "(txn)",
    "statement_executed": "(txn, trace)",
    "txn_committed": "(txn, csn, changes)",
    "txn_aborted": "(txn)",
    "table_created": "(schema)",
    "table_dropped": "(table)",
    "alias_added": "(alias, table)",
    "index_created": "(name, table, columns, unique, sorted_index)",
    "index_dropped": "(name, table)",
    "request_started": "(ctx, request)",
    "request_finished": "(ctx, result)",
    "handler_called": "(parent, child)",
    "handler_failed": "(child, exc)",
    "handler_returned": "(child, output)",
    "side_effect": "(ctx, effect)",
}


class Observers:
    """Observers by the events they declared, called in the order added.
    A hook is looked up at each call, not bound at subscription."""

    def __init__(self) -> None:
        self._observers: list[Any] = []
        self._by_event: dict[str, tuple[Any, ...]] = {}

    def add(self, observer: Any) -> None:
        name = type(observer).__name__
        if not hasattr(observer, "events"):
            raise TypeError(f"observer {name} declares no events")
        for event in observer.events:
            if event not in EVENTS:
                raise ValueError(f"observer {name} declares unknown event {event!r}")
            if not callable(getattr(type(observer), event, None)):
                raise TypeError(f"observer {name} has no method for {event!r}")
        self._observers.append(observer)
        self._index()

    def remove(self, observer: Any) -> None:
        """Unsubscribe ``observer`` itself: equal observers (two empty
        list-based taps, say) stay."""
        self._observers = [o for o in self._observers if o is not observer]
        self._index()

    def _index(self) -> None:
        self._by_event = {}
        for event in EVENTS:
            subscribers = tuple(o for o in self._observers if event in o.events)
            if subscribers:
                self._by_event[event] = subscribers

    def wants(self, event: str) -> bool:
        """Whether ``event`` has a subscriber."""
        return event in self._by_event

    def notify(self, event: str, *args: Any) -> None:
        for observer in self._by_event.get(event, ()):
            getattr(observer, event)(*args)

    def __iter__(self) -> Iterator[Any]:
        return iter(tuple(self._observers))

    def __len__(self) -> int:
        return len(self._observers)
