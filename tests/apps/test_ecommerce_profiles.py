"""E-commerce workflow and profile app behaviour tests."""

import pytest

from repro.runtime import Request


@pytest.fixture
def stocked_shop(ecommerce_env):
    _db, runtime, _trod = ecommerce_env
    runtime.submit("registerUser", "U1", "u1@x.com", "4111")
    runtime.submit("restock", "SKU1", 10)
    runtime.submit("addToCart", "C1", "U1", "SKU1", 2, 5.0)
    return ecommerce_env


class TestCheckout:
    def test_happy_path(self, stocked_shop):
        db, runtime, _trod = stocked_shop
        result = runtime.submit("checkout", "C1", "U1")
        assert result.ok
        assert result.output["total"] == 10.0
        assert db.table_rows("orders")[0]["status"] == "placed"
        assert db.table_rows("payments")[0]["amount"] == 10.0
        assert db.table_rows("inventory")[0]["stock"] == 8

    def test_checkout_emits_receipt_email(self, stocked_shop, side_effect_tap):
        _db, runtime, _trod = stocked_shop
        tap = side_effect_tap(runtime)
        runtime.submit("checkout", "C1", "U1")
        emails = [e for e in tap if e.channel == "email"]
        assert len(emails) == 1

    def test_wrong_user_rejected(self, stocked_shop):
        _db, runtime, _trod = stocked_shop
        result = runtime.submit("checkout", "C1", "U2")
        assert not result.ok
        assert "does not belong" in result.error

    def test_missing_cart_rejected(self, stocked_shop):
        _db, runtime, _trod = stocked_shop
        assert not runtime.submit("checkout", "ghost", "U1").ok

    def test_insufficient_stock_aborts_everything(self, ecommerce_env):
        db, runtime, _trod = ecommerce_env
        runtime.submit("registerUser", "U1", "u@x", "4111")
        runtime.submit("restock", "SKU1", 1)
        runtime.submit("addToCart", "C1", "U1", "SKU1", 5, 2.0)
        result = runtime.submit("checkout", "C1", "U1")
        assert not result.ok
        assert "insufficient stock" in result.error
        # The failed reservation aborted; no partial effects anywhere.
        assert db.table_rows("orders") == []
        assert db.table_rows("inventory")[0]["stock"] == 1

    def test_multiple_items_total(self, ecommerce_env):
        _db, runtime, _trod = ecommerce_env
        runtime.submit("registerUser", "U1", "u@x", "4111")
        runtime.submit("restock", "A", 10)
        runtime.submit("restock", "B", 10)
        runtime.submit("addToCart", "C1", "U1", "A", 2, 3.0)
        runtime.submit("addToCart", "C1", "U1", "B", 1, 4.0)
        result = runtime.submit("checkout", "C1", "U1")
        assert result.output["total"] == 10.0

    def test_order_status(self, stocked_shop):
        _db, runtime, _trod = stocked_shop
        runtime.submit("checkout", "C1", "U1")
        assert runtime.submit("orderStatus", "order-C1").output == "placed"
        assert runtime.submit("orderStatus", "ghost").output is None

    def test_restock_accumulates(self, ecommerce_env):
        _db, runtime, _trod = ecommerce_env
        assert runtime.submit("restock", "S", 5).output == 5
        assert runtime.submit("restock", "S", 3).output == 8

    def test_concurrent_checkouts_on_disjoint_carts(self, ecommerce_env):
        db, runtime, _trod = ecommerce_env
        runtime.submit("registerUser", "U1", "u@x", "4111")
        runtime.submit("restock", "SKU1", 100)
        runtime.submit("addToCart", "C1", "U1", "SKU1", 1, 1.0)
        runtime.submit("addToCart", "C2", "U1", "SKU1", 1, 1.0)
        results = runtime.run_concurrent(
            [Request("checkout", ("C1", "U1")), Request("checkout", ("C2", "U1"))],
            seed=5,
        )
        assert all(r.ok for r in results)
        assert db.table_rows("inventory")[0]["stock"] == 98
        assert len(db.table_rows("orders")) == 2


class TestProfilesApp:
    def test_create_and_view(self, profiles_env):
        _db, runtime, _trod = profiles_env
        runtime.submit("createProfile", "alice", "a@x.com", auth_user="alice")
        profile = runtime.submit("viewProfile", "alice").output
        assert profile == {"UserName": "alice", "Email": "a@x.com", "Bio": ""}

    def test_view_missing_profile(self, profiles_env):
        _db, runtime, _trod = profiles_env
        assert runtime.submit("viewProfile", "nobody").output is None

    def test_secure_update_by_owner(self, profiles_env):
        _db, runtime, _trod = profiles_env
        runtime.submit("createProfile", "alice", "a@x.com", auth_user="alice")
        assert runtime.submit(
            "updateProfile", "alice", "new bio", auth_user="alice"
        ).ok
        assert runtime.submit("viewProfile", "alice").output["Bio"] == "new bio"

    def test_secure_update_by_other_rejected(self, profiles_env):
        _db, runtime, _trod = profiles_env
        runtime.submit("createProfile", "alice", "a@x.com", auth_user="alice")
        result = runtime.submit(
            "updateProfile", "alice", "pwn", auth_user="mallory"
        )
        assert not result.ok
        assert runtime.submit("viewProfile", "alice").output["Bio"] == ""

    def test_insecure_update_succeeds_and_records_updater(self, profiles_env):
        db, runtime, _trod = profiles_env
        runtime.submit("createProfile", "alice", "a@x.com", auth_user="alice")
        runtime.submit(
            "updateProfileInsecure", "alice", "pwn", auth_user="mallory"
        )
        row = db.table_rows("profiles")[0]
        assert row["Bio"] == "pwn"
        assert row["UpdatedBy"] == "mallory"  # the forensic breadcrumb

    def test_message_read_paths(self, profiles_env):
        _db, runtime, _trod = profiles_env
        runtime.submit("sendMessage", "M1", "alice", "hi", auth_user="bob")
        assert runtime.submit("readMessages", "alice").output == ["hi"]
        secure = runtime.submit("readMessagesSecure", "alice")
        assert not secure.ok  # unauthenticated
        owner = runtime.submit("readMessagesSecure", "alice", auth_user="alice")
        assert owner.output == ["hi"]
        other = runtime.submit("readMessagesSecure", "alice", auth_user="eve")
        assert not other.ok
