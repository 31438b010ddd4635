#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/shm/object_key.hpp"
#include "src/sim/random.hpp"

namespace lifl::shm {

/// Usage statistics of a node's shared-memory object store.
struct ObjectStoreStats {
  std::uint64_t puts = 0;            ///< objects created
  std::uint64_t gets = 0;            ///< reads by key
  std::uint64_t releases = 0;        ///< reference drops
  std::uint64_t recycled_buffers = 0;///< allocations served from the pool
  std::size_t bytes_in_use = 0;      ///< live object bytes
  std::size_t peak_bytes = 0;        ///< high-water mark of live bytes
  std::size_t pool_bytes = 0;        ///< recycled-buffer pool size
};

/// One reference on a stored object, by slot: what the data plane's update
/// descriptors carry instead of a key. `gen` is the slot's generation when
/// the reference was taken (16 bits, the width a descriptor has room for);
/// a reference whose object died since reads as stale.
///
/// Slot references taken on one object share its single store reference:
/// `retain` adds a holder, and the last holder's `release` drops the
/// reference — one release in `stats()`, however many holders there were.
struct ObjectRef {
  std::uint32_t slot = 0;
  std::uint16_t gen = 0;
};

/// Per-node shared-memory object store (§4.1).
///
/// Objects are immutable once written — the invariant LIFL relies on to share
/// model updates between aggregators without locks — and reference counted:
/// the producer `put`s an object with an initial reference count equal to the
/// number of expected consumers, each consumer `get`s it by key (zero copy)
/// and `release`s it when done. Fully released buffers are recycled into a
/// bounded pool, matching the agent's allocate/recycle/destroy role.
///
/// Objects live in a slab with a free list, indexed by key through an
/// open-addressing table, so a put/release cycle allocates nothing once the
/// slab has grown to the live-object high-water mark. Values are held as
/// `shared_ptr<const T>`: handing out a key copies nothing, which is exactly
/// the zero-copy discipline of the paper. The `logical_bytes` of an object
/// may exceed the bytes actually held in this process (e.g. a ResNet-152
/// update is 240 MB logically but carries no real tensor in pure
/// system-level simulations).
///
/// The store's recycle pool accounts *logical* bytes; its physical
/// counterpart for real tensor payloads is `ml::TensorPool` — a pooled
/// tensor `put` here recycles into that pool automatically when its last
/// reference drops (the tensor's shared_ptr deleter is the recycler), so
/// the two pools describe the same allocate/recycle/destroy lifecycle at
/// the two levels the platform models.
class ObjectStore {
 public:
  explicit ObjectStore(sim::Rng rng,
                       std::size_t pool_capacity_bytes = 2ull << 30)
      : rng_(rng), pool_capacity_(pool_capacity_bytes) {}

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Store an immutable object; returns its freshly generated key.
  /// `refs` is the number of consumers expected to release it.
  template <typename T>
  ObjectKey put(std::shared_ptr<const T> value, std::size_t logical_bytes,
                std::uint32_t refs = 1) {
    return entries_[insert(std::static_pointer_cast<const void>(
                               std::move(value)),
                           logical_bytes, refs)]
        .key;
  }

  /// Store a size-only object (no real payload behind it).
  ObjectKey put_logical(std::size_t logical_bytes, std::uint32_t refs = 1) {
    return put<int>(nullptr, logical_bytes, refs);
  }

  /// Store an object with one reference, held by the returned slot
  /// reference (no key lookup to retain, read or release it). Draws its key
  /// exactly like `put`, so the key stream cannot tell the two apart.
  template <typename T>
  ObjectRef put_ref(std::shared_ptr<const T> value,
                    std::size_t logical_bytes) {
    const std::uint32_t slot = insert(
        std::static_pointer_cast<const void>(std::move(value)), logical_bytes,
        1);
    entries_[slot].holders = 1;
    return ObjectRef{slot, entries_[slot].gen};
  }

  /// Add a holder of the object's slot reference. Throws if it is stale.
  void retain(ObjectRef ref) { ++held_entry(ref).holders; }

  /// Drop a holder; the last one releases the object's reference, like
  /// `release(key)`. Throws if `ref` is stale.
  void release(ObjectRef ref) {
    if (--held_entry(ref).holders == 0) release_slot(ref.slot);
  }

  /// Read an object through a slot reference (zero copy). Throws if stale.
  /// The holder of a reference needs no key lookup, so unlike `get` this
  /// is not counted in `stats().gets` (reads by key).
  template <typename T>
  std::shared_ptr<const T> data(ObjectRef ref) {
    return std::static_pointer_cast<const T>(held_entry(ref).data);
  }

  /// True if the key addresses a live object.
  bool contains(const ObjectKey& key) const noexcept {
    return find(key) != kNone;
  }

  /// Read an object (zero copy). Throws if the key is unknown.
  template <typename T>
  std::shared_ptr<const T> get(const ObjectKey& key) {
    const std::uint32_t slot = find(key);
    if (slot == kNone) {
      throw std::out_of_range("ObjectStore::get: unknown key " + key.to_hex());
    }
    ++stats_.gets;
    return std::static_pointer_cast<const T>(entries_[slot].data);
  }

  /// Logical size of an object in bytes. Throws if the key is unknown.
  std::size_t size_of(const ObjectKey& key) const {
    const std::uint32_t slot = find(key);
    if (slot == kNone) {
      throw std::out_of_range("ObjectStore::size_of: unknown key");
    }
    return entries_[slot].bytes;
  }

  /// Add consumers to an existing object (e.g. fan-out routing).
  void add_refs(const ObjectKey& key, std::uint32_t extra) {
    const std::uint32_t slot = find(key);
    if (slot == kNone) {
      throw std::out_of_range("ObjectStore::add_refs: unknown key");
    }
    entries_[slot].refs += extra;
  }

  /// Drop one reference; when the count reaches zero the buffer is recycled
  /// into the pool (up to the pool capacity). Throws on unknown key.
  void release(const ObjectKey& key) {
    const std::uint32_t slot = find(key);
    if (slot == kNone) {
      throw std::out_of_range("ObjectStore::release: unknown key");
    }
    release_slot(slot);
  }

  /// Number of live objects.
  std::size_t size() const noexcept { return live_; }

  const ObjectStoreStats& stats() const noexcept { return stats_; }

  /// Key-generator state, for checkpointing.
  sim::Rng::State rng_state() const noexcept { return rng_.state(); }

  /// Restore a checkpointed generator + statistics onto a *quiescent* store
  /// (no live objects — every reference released); throws std::logic_error
  /// otherwise. Live entries hold process-local shared_ptrs and cannot
  /// survive a process boundary, which is exactly why snapshots are taken
  /// at quiescent points.
  void restore(const sim::Rng::State& rng, const ObjectStoreStats& stats) {
    if (live_ != 0) {
      throw std::logic_error(
          "ObjectStore::restore: store holds live objects");
    }
    rng_.restore(rng);
    stats_ = stats;
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Entry {
    ObjectKey key;
    std::shared_ptr<const void> data;
    std::size_t bytes = 0;
    std::uint32_t refs = 0;     ///< 0 = dead (slot free)
    std::uint32_t holders = 0;  ///< slot-reference holders (`put_ref`)
    std::uint16_t gen = 0;      ///< bumped whenever the slot's object dies
  };

  /// The entry `ref` names; throws unless its object is still live and
  /// held through slot references.
  Entry& held_entry(ObjectRef ref) {
    if (ref.slot >= entries_.size() || entries_[ref.slot].holders == 0 ||
        entries_[ref.slot].gen != ref.gen) {
      throw std::logic_error("ObjectStore: stale object reference");
    }
    return entries_[ref.slot];
  }

  /// Create an object in a free slot and index it; returns the slot. Keys
  /// are drawn exactly as before the slab existed (re-drawn on collision),
  /// so the generator stream — and every checkpointed `rng_state()` — is
  /// unchanged.
  std::uint32_t insert(std::shared_ptr<const void> data,
                       std::size_t logical_bytes, std::uint32_t refs) {
    if (refs == 0) throw std::invalid_argument("ObjectStore::put: refs == 0");
    ObjectKey key = ObjectKey::generate(rng_);
    while (find(key) != kNone) key = ObjectKey::generate(rng_);
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    Entry& e = entries_[slot];
    e.key = key;
    e.data = std::move(data);
    e.bytes = logical_bytes;
    e.refs = refs;
    index_insert(slot);
    ++live_;
    ++stats_.puts;
    if (stats_.pool_bytes >= logical_bytes) {
      stats_.pool_bytes -= logical_bytes;
      ++stats_.recycled_buffers;
    }
    stats_.bytes_in_use += logical_bytes;
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_in_use);
    return slot;
  }

  void release_slot(std::uint32_t slot) {
    Entry& e = entries_[slot];
    ++stats_.releases;
    if (--e.refs != 0) return;
    stats_.bytes_in_use -= e.bytes;
    stats_.pool_bytes = std::min(pool_capacity_, stats_.pool_bytes + e.bytes);
    index_erase(slot);
    e.data.reset();
    e.holders = 0;
    --live_;
    // The generation bump tells any reference still naming the slot that
    // its object is gone.
    ++e.gen;
    free_.push_back(slot);
  }

  // ---- key index: open addressing, linear probing, backward-shift erase.
  // Cells hold slot + 1 (0 = empty); the table stays at most half full.

  std::size_t home(const ObjectKey& key) const noexcept {
    return key.hash() & (index_.size() - 1);
  }

  std::uint32_t find(const ObjectKey& key) const noexcept {
    if (index_.empty()) return kNone;
    for (std::size_t i = home(key);; i = (i + 1) & (index_.size() - 1)) {
      const std::uint32_t c = index_[i];
      if (c == 0) return kNone;
      if (entries_[c - 1].key == key) return c - 1;
    }
  }

  void index_insert(std::uint32_t slot) {
    if (2 * (live_ + 1) > index_.size()) {
      std::vector<std::uint32_t> old(
          std::max<std::size_t>(16, 2 * index_.size()), 0);
      old.swap(index_);
      for (const std::uint32_t c : old) {
        if (c != 0) place(c);
      }
    }
    place(slot + 1);
  }

  void place(std::uint32_t cell) noexcept {
    std::size_t i = home(entries_[cell - 1].key);
    while (index_[i] != 0) i = (i + 1) & (index_.size() - 1);
    index_[i] = cell;
  }

  void index_erase(std::uint32_t slot) noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(entries_[slot].key);
    while (index_[i] != slot + 1) i = (i + 1) & mask;
    // Shift later members of the probe run back over the hole.
    for (std::size_t j = (i + 1) & mask; index_[j] != 0; j = (j + 1) & mask) {
      const std::size_t h = home(entries_[index_[j] - 1].key);
      if (((j - h) & mask) >= ((j - i) & mask)) {
        index_[i] = index_[j];
        i = j;
      }
    }
    index_[i] = 0;
  }

  sim::Rng rng_;
  std::size_t pool_capacity_;
  std::vector<Entry> entries_;        ///< object slab
  std::vector<std::uint32_t> free_;   ///< reusable slots
  std::vector<std::uint32_t> index_;  ///< key -> slot + 1
  std::size_t live_ = 0;
  ObjectStoreStats stats_;
};

}  // namespace lifl::shm
