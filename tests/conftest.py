"""Shared fixtures: pre-built app environments with TROD attached."""

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
from repro.db.sql import executor
from repro.runtime import Request, Runtime
from repro.workload.generators import ForumWorkload


@pytest.fixture(autouse=True)
def cold_plan_memo():
    """Every test starts with an empty process-wide plan memo, so the
    ``plan_cache_stats`` of the databases it builds count its own plans."""
    executor._plan_memo.clear()


@pytest.fixture
def db() -> Database:
    return Database()


@pytest.fixture
def moodle_env():
    """(db, runtime, trod) with the Moodle app built and TROD attached."""
    database = Database()
    runtime = Runtime(database)
    event_names = build_moodle_app(database, runtime)
    trod = Trod(database, event_names=event_names).attach(runtime)
    return database, runtime, trod


@pytest.fixture
def racy_moodle(moodle_env):
    """Moodle env after the MDL-59854 race: R1/R2 duplicates, R3 error."""
    database, runtime, trod = moodle_env
    runtime.run_concurrent(
        ForumWorkload.racy_pair(), schedule=ForumWorkload.RACY_SCHEDULE
    )
    runtime.submit("fetchSubscribers", "F2")
    return database, runtime, trod


@pytest.fixture
def mediawiki_env():
    database = Database()
    runtime = Runtime(database)
    event_names = build_mediawiki_app(database, runtime)
    trod = Trod(database, event_names=event_names).attach(runtime)
    return database, runtime, trod


@pytest.fixture
def ecommerce_env():
    database = Database()
    runtime = Runtime(database)
    event_names = build_ecommerce_app(database, runtime)
    trod = Trod(database, event_names=event_names).attach(runtime)
    return database, runtime, trod


@pytest.fixture
def profiles_env():
    database = Database()
    runtime = Runtime(database)
    event_names = build_profiles_app(database, runtime)
    trod = Trod(database, event_names=event_names).attach(runtime)
    return database, runtime, trod


def make_request(handler: str, *args, **kwargs) -> Request:
    return Request(handler, args, kwargs)
