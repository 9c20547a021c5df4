"""Shared benchmark environment builders.

Every benchmark prints its paper-shaped output through ``emit`` (which
bypasses pytest's capture so the tables land in the terminal and in the
``tee``'d bench_output.txt) and also asserts the qualitative shape the
paper reports, so regressions fail loudly rather than silently drifting.
"""

from __future__ import annotations

import pytest

from repro.apps import (
    build_ecommerce_app,
    build_mediawiki_app,
    build_moodle_app,
    build_profiles_app,
)
from repro.core import Trod
from repro.db import Database
from repro.runtime import Runtime
from repro.workload.generators import ForumWorkload


@pytest.fixture
def emit(capsys):
    """Print unconditionally (outside pytest capture)."""

    def _emit(*lines: object) -> None:
        with capsys.disabled():
            for line in lines:
                print(line)

    return _emit


def fresh_moodle(attach_trod: bool = True):
    db = Database()
    runtime = Runtime(db)
    names = build_moodle_app(db, runtime)
    trod = None
    if attach_trod:
        trod = Trod(db, event_names=names).attach(runtime)
    return db, runtime, trod


def fresh_mediawiki():
    db = Database()
    runtime = Runtime(db)
    names = build_mediawiki_app(db, runtime)
    trod = Trod(db, event_names=names).attach(runtime)
    return db, runtime, trod


def fresh_ecommerce(attach_trod: bool = True):
    db = Database()
    runtime = Runtime(db)
    names = build_ecommerce_app(db, runtime)
    trod = None
    if attach_trod:
        trod = Trod(db, event_names=names).attach(runtime)
    return db, runtime, trod


def fresh_profiles():
    db = Database()
    runtime = Runtime(db)
    names = build_profiles_app(db, runtime)
    trod = Trod(db, event_names=names).attach(runtime)
    return db, runtime, trod


def racy_scenario(trod_runtime):
    """Run the paper's §2 scenario on an already-built moodle env."""
    db, runtime, trod = trod_runtime
    runtime.run_concurrent(
        ForumWorkload.racy_pair(), schedule=ForumWorkload.RACY_SCHEDULE
    )
    runtime.submit("fetchSubscribers", "F2")
    return db, runtime, trod
