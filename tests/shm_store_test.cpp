// Unit tests for the shared-memory object store and object keys (§4.1).

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "src/ml/tensor.hpp"
#include "src/shm/object_key.hpp"
#include "src/shm/object_store.hpp"

namespace lifl::shm {
namespace {

ObjectStore make_store() { return ObjectStore(sim::Rng(42)); }

TEST(ObjectKey, DefaultIsNull) {
  ObjectKey k;
  EXPECT_TRUE(k.is_null());
}

TEST(ObjectKey, GeneratedIsNotNull) {
  sim::Rng rng(1);
  EXPECT_FALSE(ObjectKey::generate(rng).is_null());
}

TEST(ObjectKey, HexIs32Chars) {
  sim::Rng rng(1);
  EXPECT_EQ(ObjectKey::generate(rng).to_hex().size(), 32u);
}

TEST(ObjectKey, EqualityAndHashConsistent) {
  sim::Rng rng(1);
  const ObjectKey a = ObjectKey::generate(rng);
  const ObjectKey b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(ObjectKey, TenThousandKeysAreDistinct) {
  sim::Rng rng(7);
  std::unordered_set<std::string> seen;
  for (int i = 0; i < 10000; ++i) {
    seen.insert(ObjectKey::generate(rng).to_hex());
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(ObjectStore, PutThenGetReturnsSameObject) {
  auto store = make_store();
  auto t = std::make_shared<const ml::Tensor>(16, 1.5f);
  const ObjectKey key = store.put<ml::Tensor>(t, 64);
  const auto got = store.get<ml::Tensor>(key);
  EXPECT_EQ(got.get(), t.get());  // zero copy: same underlying object
}

TEST(ObjectStore, ContainsAndSize) {
  auto store = make_store();
  const ObjectKey key = store.put_logical(100);
  EXPECT_TRUE(store.contains(key));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.size_of(key), 100u);
}

TEST(ObjectStore, GetUnknownKeyThrows) {
  auto store = make_store();
  ObjectKey bogus;
  EXPECT_THROW(store.get<ml::Tensor>(bogus), std::out_of_range);
  EXPECT_THROW(store.size_of(bogus), std::out_of_range);
}

TEST(ObjectStore, ReleaseToZeroRemovesObject) {
  auto store = make_store();
  const ObjectKey key = store.put_logical(100);
  store.release(key);
  EXPECT_FALSE(store.contains(key));
  EXPECT_THROW(store.release(key), std::out_of_range);
}

TEST(ObjectStore, MultipleRefsSurviveRelease) {
  auto store = make_store();
  const ObjectKey key = store.put_logical(100, /*refs=*/3);
  store.release(key);
  store.release(key);
  EXPECT_TRUE(store.contains(key));
  store.release(key);
  EXPECT_FALSE(store.contains(key));
}

TEST(ObjectStore, AddRefsExtendsLifetime) {
  auto store = make_store();
  const ObjectKey key = store.put_logical(100, 1);
  store.add_refs(key, 1);
  store.release(key);
  EXPECT_TRUE(store.contains(key));
  store.release(key);
  EXPECT_FALSE(store.contains(key));
}

TEST(ObjectStore, ZeroRefsPutThrows) {
  auto store = make_store();
  EXPECT_THROW(store.put_logical(10, 0), std::invalid_argument);
}

TEST(ObjectStore, BytesInUseTracksLiveObjects) {
  auto store = make_store();
  const ObjectKey a = store.put_logical(100);
  const ObjectKey b = store.put_logical(50);
  EXPECT_EQ(store.stats().bytes_in_use, 150u);
  store.release(a);
  EXPECT_EQ(store.stats().bytes_in_use, 50u);
  store.release(b);
  EXPECT_EQ(store.stats().bytes_in_use, 0u);
}

TEST(ObjectStore, PeakBytesIsHighWaterMark) {
  auto store = make_store();
  const ObjectKey a = store.put_logical(100);
  store.release(a);
  const ObjectKey b = store.put_logical(30);
  EXPECT_EQ(store.stats().peak_bytes, 100u);
  store.release(b);
}

TEST(ObjectStore, ReleasedBuffersAreRecycled) {
  auto store = make_store();
  const ObjectKey a = store.put_logical(100);
  store.release(a);  // 100 bytes go to the pool
  EXPECT_EQ(store.stats().pool_bytes, 100u);
  store.put_logical(80);  // served from the pool
  EXPECT_EQ(store.stats().recycled_buffers, 1u);
  EXPECT_EQ(store.stats().pool_bytes, 20u);
}

TEST(ObjectStore, PoolIsBounded) {
  ObjectStore store{sim::Rng(42), /*pool_capacity_bytes=*/100};
  const ObjectKey a = store.put_logical(500);
  store.release(a);
  EXPECT_EQ(store.stats().pool_bytes, 100u);
}

TEST(ObjectStore, StatsCountOperations) {
  auto store = make_store();
  const ObjectKey a = store.put_logical(10);
  (void)store.get<int>(a);
  (void)store.get<int>(a);
  store.release(a);
  EXPECT_EQ(store.stats().puts, 1u);
  EXPECT_EQ(store.stats().gets, 2u);
  EXPECT_EQ(store.stats().releases, 1u);
}

TEST(ObjectStore, ImmutableObjectsAreConst) {
  // The store only hands out shared_ptr<const T>: sharing without locks.
  auto store = make_store();
  auto t = std::make_shared<const ml::Tensor>(4, 2.0f);
  const ObjectKey key = store.put<ml::Tensor>(t, 16);
  auto got = store.get<ml::Tensor>(key);
  static_assert(
      std::is_const_v<std::remove_reference_t<decltype(*got)>>,
      "object store must only expose immutable views");
  store.release(key);
}

TEST(ObjectStore, ManyObjectsIndependentLifetimes) {
  auto store = make_store();
  std::vector<ObjectKey> keys;
  for (int i = 0; i < 100; ++i) keys.push_back(store.put_logical(10 + i));
  EXPECT_EQ(store.size(), 100u);
  for (int i = 0; i < 100; i += 2) store.release(keys[i]);
  EXPECT_EQ(store.size(), 50u);
  for (int i = 1; i < 100; i += 2) EXPECT_TRUE(store.contains(keys[i]));
}


// ---- slot references -----------------------------------------------------

TEST(ObjectRef, LastReferenceReleasesTheObject) {
  auto store = make_store();
  auto t = std::make_shared<const ml::Tensor>(4, 1.0f);
  const ObjectRef a = store.put_ref<ml::Tensor>(t, 64);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(t.use_count(), 2);  // the store holds the payload
  EXPECT_EQ(store.data<ml::Tensor>(a), t);
  EXPECT_EQ(store.stats().gets, 0u);  // a reference read is not a key read
  store.retain(a);
  store.release(a);
  EXPECT_EQ(store.size(), 1u);
  store.release(a);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(t.use_count(), 1);
  EXPECT_EQ(store.stats().releases, 1u);  // holders share one reference
  EXPECT_EQ(store.stats().bytes_in_use, 0u);
  EXPECT_THROW(store.release(a), std::logic_error);
}

TEST(ObjectRef, KeysAndReferencesDrawTheSameKeyStream) {
  // A referenced put consumes the generator exactly like a keyed put, so
  // the checkpointed rng_state() cannot tell them apart.
  auto keyed = make_store();
  auto by_ref = make_store();
  for (int i = 0; i < 50; ++i) {
    keyed.release(keyed.put_logical(10));
    by_ref.release(by_ref.put_ref<int>(nullptr, 10));
  }
  const sim::Rng::State a = keyed.rng_state();
  const sim::Rng::State b = by_ref.rng_state();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]);
  EXPECT_EQ(keyed.stats().recycled_buffers, by_ref.stats().recycled_buffers);
  EXPECT_EQ(keyed.stats().pool_bytes, by_ref.stats().pool_bytes);
}

TEST(ObjectRef, RecycledSlotsRejectOldReferences) {
  auto store = make_store();
  std::vector<ObjectRef> old;
  for (int round = 0; round < 4; ++round) {
    std::vector<ObjectRef> live;
    for (int i = 0; i < 64; ++i) {
      live.push_back(store.put_ref<int>(nullptr, 1));
    }
    EXPECT_EQ(store.size(), 64u);
    for (const ObjectRef& r : old) {
      EXPECT_THROW(store.retain(r), std::logic_error);
    }
    for (const ObjectRef& r : live) store.release(r);
    EXPECT_EQ(store.size(), 0u);
    old = live;
  }
  EXPECT_EQ(store.stats().puts, 256u);
  EXPECT_EQ(store.stats().releases, 256u);
}

TEST(ObjectRef, StoreDestroyedWithReferencesOutFreesItsPayloads) {
  // References still out at teardown are plain data: the dying store frees
  // the payloads, and nothing releases into it afterwards.
  auto t = std::make_shared<const ml::Tensor>(4, 1.0f);
  {
    ObjectStore store{sim::Rng(3)};
    const ObjectRef a = store.put_ref<ml::Tensor>(t, 64);
    store.retain(a);
    (void)store.put_ref<int>(nullptr, 8);
    EXPECT_EQ(t.use_count(), 2);
  }
  EXPECT_EQ(t.use_count(), 1);
}

}  // namespace
}  // namespace lifl::shm
