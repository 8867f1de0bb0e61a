"""Unit tests for the TTL robots.txt cache."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robots.cache import DEFAULT_TTL_SECONDS, RobotsCache
from repro.robots.policy import RobotsPolicy


def make_policy() -> RobotsPolicy:
    return RobotsPolicy.from_text("User-agent: *\nDisallow: /x\n")


class TestRobotsCache:
    def test_put_then_get(self):
        cache = RobotsCache()
        cache.put("site.example", make_policy(), now=1000.0)
        assert cache.get("site.example", now=1000.0) is not None

    def test_miss_on_unknown_origin(self):
        assert RobotsCache().get("nope.example", now=0.0) is None

    def test_expiry_after_ttl(self):
        cache = RobotsCache(ttl_seconds=100.0)
        cache.put("s", make_policy(), now=0.0)
        assert cache.get("s", now=99.9) is not None
        assert cache.get("s", now=100.0) is None

    def test_default_ttl_is_24_hours(self):
        assert DEFAULT_TTL_SECONDS == 86_400.0

    def test_needs_refresh(self):
        cache = RobotsCache(ttl_seconds=10.0)
        assert cache.needs_refresh("s", now=0.0)
        cache.put("s", make_policy(), now=0.0)
        assert not cache.needs_refresh("s", now=5.0)
        assert cache.needs_refresh("s", now=11.0)

    def test_age(self):
        cache = RobotsCache()
        cache.put("s", make_policy(), now=50.0)
        assert cache.age("s", now=80.0) == 30.0
        assert cache.age("missing", now=0.0) is None

    def test_refresh_resets_clock(self):
        cache = RobotsCache(ttl_seconds=10.0)
        cache.put("s", make_policy(), now=0.0)
        cache.put("s", make_policy(), now=8.0)
        assert cache.get("s", now=15.0) is not None

    def test_invalidate(self):
        cache = RobotsCache()
        cache.put("s", make_policy(), now=0.0)
        cache.invalidate("s")
        assert "s" not in cache

    def test_eviction_at_capacity(self):
        cache = RobotsCache(max_entries=2)
        cache.put("a", make_policy(), now=0.0)
        cache.put("b", make_policy(), now=1.0)
        cache.put("c", make_policy(), now=2.0)
        assert len(cache) == 2
        assert "a" not in cache  # oldest evicted
        assert "c" in cache

    def test_clear(self):
        cache = RobotsCache()
        cache.put("a", make_policy(), now=0.0)
        cache.clear()
        assert len(cache) == 0

    def test_stale_entry_evicted_on_access(self):
        cache = RobotsCache(ttl_seconds=1.0)
        cache.put("s", make_policy(), now=0.0)
        cache.get("s", now=5.0)
        assert "s" not in cache


ROBOTS_TEXT = "User-agent: *\nDisallow: /x\n"


class TestCompiledPolicyReuse:
    def test_identical_refresh_reuses_policy_object(self):
        cache = RobotsCache(ttl_seconds=10.0)
        first = cache.refresh("s", ROBOTS_TEXT, now=0.0)
        compiled = first.compiled()
        first.can_fetch("GPTBot", "/x/1")  # warm the per-agent memo
        assert cache.get("s", now=20.0) is None  # TTL expired
        second = cache.refresh("s", ROBOTS_TEXT, now=20.0)
        assert second is first
        assert second.compiled() is compiled
        assert cache.recompilations_avoided == 1
        assert cache.get("s", now=25.0) is first  # fresh again

    def test_changed_text_recompiles(self):
        cache = RobotsCache(ttl_seconds=10.0)
        first = cache.refresh("s", ROBOTS_TEXT, now=0.0)
        second = cache.refresh(
            "s", ROBOTS_TEXT + "Disallow: /y\n", now=20.0
        )
        assert second is not first
        assert cache.recompilations_avoided == 0
        assert not second.can_fetch("GPTBot", "/y/1")

    def test_refresh_while_fresh_also_reuses(self):
        cache = RobotsCache(ttl_seconds=100.0)
        first = cache.refresh("s", ROBOTS_TEXT, now=0.0)
        second = cache.refresh("s", ROBOTS_TEXT, now=5.0)
        assert second is first
        assert cache.age("s", now=6.0) == 1.0  # clock advanced

    def test_put_with_text_enables_reuse(self):
        cache = RobotsCache(ttl_seconds=1.0)
        policy = make_policy()
        cache.put("s", policy, now=0.0, text=ROBOTS_TEXT)
        assert cache.get("s", now=5.0) is None
        assert cache.refresh("s", ROBOTS_TEXT, now=5.0) is policy

    def test_invalidate_clears_retired_entry(self):
        cache = RobotsCache(ttl_seconds=1.0)
        first = cache.refresh("s", ROBOTS_TEXT, now=0.0)
        cache.get("s", now=5.0)  # retire
        cache.invalidate("s")
        second = cache.refresh("s", ROBOTS_TEXT, now=6.0)
        assert second is not first


class TestRetiredSideTableBounds:
    """The retired side table is an optimization, not a second cache:
    under origin churn it must stay capped and report its evictions."""

    def retire(self, cache: RobotsCache, origin: str, now: float) -> None:
        cache.refresh(origin, ROBOTS_TEXT, now=now)
        cache.get(origin, now=now + cache.ttl_seconds + 1.0)

    def test_retired_table_capped_under_churn(self):
        cache = RobotsCache(ttl_seconds=1.0, max_retired=3)
        for index in range(10):
            self.retire(cache, f"site-{index}.example", now=float(index * 10))
        stats = cache.stats()
        assert stats["retired"] == 3
        assert stats["retired_evictions"] == 7
        assert len(cache) == 0

    def test_retired_eviction_drops_oldest(self):
        cache = RobotsCache(ttl_seconds=1.0, max_retired=2)
        for index, origin in enumerate(["a", "b", "c"]):
            self.retire(cache, origin, now=float(index * 10))
        # "a" was evicted from the side table; its refresh recompiles.
        first = cache.refresh("a", ROBOTS_TEXT, now=100.0)
        assert cache.recompilations_avoided == 0
        # "c" survived; its refresh reuses the retired compilation.
        cache.get("c", now=200.0)
        cache.refresh("c", ROBOTS_TEXT, now=200.0)
        assert cache.recompilations_avoided >= 1
        assert first is not None

    def test_zero_max_retired_disables_retention(self):
        cache = RobotsCache(ttl_seconds=1.0, max_retired=0)
        first = cache.refresh("s", ROBOTS_TEXT, now=0.0)
        cache.get("s", now=5.0)  # would retire; retention disabled
        second = cache.refresh("s", ROBOTS_TEXT, now=6.0)
        assert second is not first
        assert cache.stats()["retired"] == 0
        assert cache.stats()["retired_evictions"] == 1

    def test_live_eviction_counter(self):
        cache = RobotsCache(max_entries=2)
        for index, origin in enumerate(["a", "b", "c", "d"]):
            cache.put(origin, make_policy(), now=float(index))
        assert cache.stats()["evictions"] == 2
        assert cache.stats()["entries"] == 2

    def test_stats_snapshot_keys(self):
        stats = RobotsCache().stats()
        assert stats == {
            "entries": 0,
            "retired": 0,
            "max_entries": 10_000,
            "max_retired": 1_000,
            "recompilations_avoided": 0,
            "evictions": 0,
            "retired_evictions": 0,
        }


class TestStoreOrderEviction:
    """Retirement order, not fetch order, decides which retired entry
    the full side table drops."""

    def test_retired_table_drops_longest_retired_not_oldest_fetch(self):
        cache = RobotsCache(ttl_seconds=10.0, max_retired=2)
        policy_a = cache.refresh("a", ROBOTS_TEXT, now=0.0)
        policy_b = cache.refresh("b", ROBOTS_TEXT, now=1.0)
        assert cache.get("b", now=20.0) is None  # retire b first
        assert cache.get("a", now=21.0) is None  # then a
        cache.refresh("c", ROBOTS_TEXT, now=22.0)
        assert cache.get("c", now=40.0) is None  # overflow: drops b
        assert cache.stats()["retired_evictions"] == 1
        assert cache.refresh("a", ROBOTS_TEXT, now=41.0) is policy_a
        assert cache.refresh("b", ROBOTS_TEXT, now=42.0) is not policy_b


MODEL_TTL = 10.0
MODEL_TEXTS = (ROBOTS_TEXT, ROBOTS_TEXT + "Disallow: /y\n")

#: Stores and lookups are weighted up and sequences kept long: the
#: eviction rules only part ways once a table is full and retirement
#: order differs from fetch order.  Clock steps include ties (0).
model_ops = st.lists(
    st.tuples(
        st.sampled_from(
            (
                *("put", "refresh") * 2,
                *("get",) * 3,
                "invalidate",
                "needs_refresh",
            )
        ),
        st.sampled_from("abcdef"),
        st.sampled_from((0, 1, 2, 4)),
        st.sampled_from(MODEL_TEXTS),
    ),
    min_size=20,
    max_size=60,
)


class CacheModel:
    """Reference semantics written as the rule, not the mechanism:
    the live table evicts the smallest ``(fetched_at, store sequence)``,
    the side table the entry retired longest ago."""

    def __init__(self, max_entries: int, max_retired: int) -> None:
        self.max_entries = max_entries
        self.max_retired = max_retired
        self.live: dict[str, tuple[float, int, str]] = {}
        self.retired: dict[str, tuple[int, str]] = {}
        self.evictions = 0
        self.retired_evictions = 0
        self.sequence = 0

    def _tick(self) -> int:
        self.sequence += 1
        return self.sequence

    def store_live(self, key: str, now: float, text: str) -> None:
        if key not in self.live and len(self.live) >= self.max_entries:
            victim = min(self.live, key=lambda k: self.live[k][:2])
            del self.live[victim]
            self.evictions += 1
        self.live[key] = (now, self._tick(), text)

    def put(self, key: str, now: float, text: str) -> None:
        self.retired.pop(key, None)
        self.store_live(key, now, text)

    def get(self, key: str, now: float) -> bool:
        """True when a fresh entry answers."""
        if key not in self.live:
            return False
        fetched_at, _, text = self.live[key]
        if now - fetched_at < MODEL_TTL:
            return True
        del self.live[key]
        if self.max_retired <= 0:
            self.retired_evictions += 1
        else:
            if len(self.retired) >= self.max_retired:
                victim = min(self.retired, key=lambda k: self.retired[k][0])
                del self.retired[victim]
                self.retired_evictions += 1
            self.retired[key] = (self._tick(), text)
        return False

    def refresh(self, key: str, now: float, text: str) -> None:
        if key in self.live:
            seen = self.live[key][2]
        elif key in self.retired:
            seen = self.retired[key][1]
        else:
            seen = None
        if seen == text:
            self.retired.pop(key, None)
            self.store_live(key, now, text)
        else:
            self.put(key, now, text)

    def invalidate(self, key: str) -> None:
        self.live.pop(key, None)
        self.retired.pop(key, None)


@settings(max_examples=300, deadline=None)
@given(
    max_entries=st.integers(min_value=1, max_value=4),
    max_retired=st.integers(min_value=0, max_value=3),
    ops=model_ops,
)
def test_cache_matches_reference_model(max_entries, max_retired, ops):
    cache = RobotsCache(
        ttl_seconds=MODEL_TTL, max_entries=max_entries, max_retired=max_retired
    )
    model = CacheModel(max_entries, max_retired)
    now = 0.0
    for op, key, step, text in ops:
        now += step
        if op == "put":
            cache.put(key, make_policy(), now, text=text)
            model.put(key, now, text)
        elif op == "refresh":
            cache.refresh(key, text, now)
            model.refresh(key, now, text)
        elif op == "get":
            answered = cache.get(key, now) is not None
            assert answered == model.get(key, now)
        elif op == "needs_refresh":
            assert cache.needs_refresh(key, now) == (not model.get(key, now))
        else:
            cache.invalidate(key)
            model.invalidate(key)
        assert set(cache._entries) == set(model.live)
        assert set(cache._retired) == set(model.retired)
        assert cache.evictions == model.evictions
        assert cache.retired_evictions == model.retired_evictions
