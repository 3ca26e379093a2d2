"""Model test of the one bounded LRU behind the service's warm state.

Random ``get``/``put``/``peek``/``clear``/``set_budget`` sequences drive a
:class:`~repro.lru.BoundedLRU`, with and without a tier that serves some
keys and raises on others, and sizes up to past the budget.  After every
step the LRU must agree with a plain list model: counters, surviving keys
in recency order, per-group occupancy (also against a walk over the
entries) and one ``RuntimeWarning`` per raising tier call.
"""

from __future__ import annotations

import warnings

from hypothesis import given, settings, strategies as st

from repro.lru import BoundedLRU

BUDGET = 10
KEYS = st.integers(0, 7)
SIZES = st.integers(1, BUDGET + 3)  # past the budget: oversized


def _group(key: int) -> int:
    return key % 3


def _size(value: tuple) -> int:
    return value[1]


class FakeTier:
    """Serves what it holds; raises on every call for the ``raising`` keys."""

    def __init__(self, stored: dict, raising: set) -> None:
        self.stored, self.raising = stored, raising

    def load(self, key):
        if key in self.raising:
            raise OSError("disk gone")
        return self.stored.get(key)

    def save(self, key, value):
        if key in self.raising:
            raise OSError("disk gone")
        self.stored[key] = value


class Model:
    """The LRU rule written as plainly as possible: a list, oldest first."""

    def __init__(self, budget: int, stored: dict | None, raising: set) -> None:
        self.budget, self.entries = budget, []
        self.stored, self.raising = stored, raising
        self.counts = dict.fromkeys(
            ("hits", "misses", "evictions", "oversized", "tier_hits", "tier_misses", "tier_errors"),
            0,
        )

    def _find(self, key):
        return next((i for i, (k, _) in enumerate(self.entries) if k == key), None)

    def _evict(self) -> None:
        while sum(_size(v) for _, v in self.entries) > self.budget and self.entries:
            self.entries.pop(0)
            self.counts["evictions"] += 1

    def admit(self, key, value) -> None:
        if _size(value) > self.budget:
            self.counts["oversized"] += 1
            return
        i = self._find(key)
        if i is not None:
            self.entries.pop(i)
        self.entries.append((key, value))
        self._evict()

    def get(self, key):
        """``(answer, expected warnings)``."""
        i = self._find(key)
        if i is not None:
            self.entries.append(self.entries.pop(i))
            self.counts["hits"] += 1
            return self.entries[-1][1], 0
        value, errors = None, 0
        if self.stored is not None:
            if key in self.raising:
                errors = 1
                self.counts["tier_errors"] += 1
            else:
                value = self.stored.get(key)
            self.counts["tier_misses" if value is None else "tier_hits"] += 1
            if value is not None:
                self.admit(key, value)
        self.counts["misses" if value is None else "hits"] += 1
        return value, errors

    def put(self, key, value) -> int:
        self.admit(key, value)
        if self.stored is None:
            return 0
        if key in self.raising:
            self.counts["tier_errors"] += 1
            return 1
        self.stored[key] = value
        return 0

    def clear(self, group) -> None:
        kept = [(k, v) for k, v in self.entries if group is not None and _group(k) != group]
        self.counts["evictions"] += len(self.entries) - len(kept)
        self.entries = kept

    def groups(self) -> dict:
        out: dict = {}
        for key, value in self.entries:
            slot = out.setdefault(_group(key), {"entries": 0, "size": 0})
            slot["entries"] += 1
            slot["size"] += _size(value)
        return out


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("put"), KEYS, SIZES),
        st.tuples(st.just("peek"), KEYS),
        st.tuples(st.just("clear"), st.sampled_from([None, 0, 1, 2])),
        st.tuples(st.just("set_budget"), st.integers(0, 2 * BUDGET)),
    ),
    max_size=40,
)


def _walk(lru: BoundedLRU) -> dict:
    out: dict = {}
    for key, (_, size) in lru._entries.items():
        slot = out.setdefault(_group(key), {"entries": 0, "size": 0})
        slot["entries"] += 1
        slot["size"] += size
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    ops=OPS,
    with_tier=st.booleans(),
    stored=st.dictionaries(KEYS, SIZES),
    raising=st.sets(KEYS, max_size=3),
)
def test_bounded_lru_matches_reference_model(ops, with_tier, stored, raising):
    tier_stored = {key: (key, size, -1) for key, size in stored.items()}
    tier = FakeTier(dict(tier_stored), raising) if with_tier else None
    model = Model(BUDGET, dict(tier_stored) if with_tier else None, raising)
    lru = BoundedLRU(BUDGET, size_of=_size, group_of=_group, tier=tier)
    for serial, op in enumerate(ops):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if op[0] == "get":
                want, errors = model.get(op[1])
                assert lru.get(op[1]) == want
            elif op[0] == "put":
                value = (op[1], op[2], serial)
                errors = model.put(op[1], value)
                assert lru.put(op[1], value) is value  # served even when the tier raised
            elif op[0] == "peek":
                i, errors = model._find(op[1]), 0
                assert lru.peek(op[1]) == (None if i is None else model.entries[i][1])
            elif op[0] == "clear":
                before, errors = len(model.entries), 0
                model.clear(op[1])
                assert lru.clear(op[1]) == before - len(model.entries)
            else:
                model.budget, errors = op[1], 0
                model._evict()
                lru.set_budget(op[1])
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == errors, op
        info = lru.info()
        assert {name: info[name] for name in model.counts} == model.counts, op
        assert list(lru._entries.items()) == [(k, (v, _size(v))) for k, v in model.entries]
        assert info["groups"] == _walk(lru) == model.groups()
        assert info["size"] == sum(g["size"] for g in info["groups"].values()) <= info["budget"]
        if with_tier:
            assert tier.stored == model.stored
