// Steady-state heap allocations of the upload path. This binary replaces
// the global operator new with a counting one; each test warms a world up,
// then counts the allocations of further identical operations. Sanitizer
// runtimes interpose the allocator themselves, so the counts are skipped
// there.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/dataplane/dataplane.hpp"
#include "src/dataplane/resumable_upload.hpp"
#include "src/systems/sharded_campaign.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LIFL_ALLOC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LIFL_ALLOC_SANITIZED 1
#endif
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};

#ifdef LIFL_ALLOC_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;

void* counted(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n == 0 ? 1 : n) == 0) {
    return p;
  }
  throw std::bad_alloc();
}
#endif

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

#ifndef LIFL_ALLOC_SANITIZED
void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace lifl {
namespace {

constexpr const char* kSkipWhy = "the sanitizer runtime owns operator new";

constexpr int kBatch = 256;

fl::ModelUpdate client_update(std::uint64_t producer, std::size_t bytes) {
  fl::ModelUpdate u;
  u.producer = producer;
  u.sample_count = 10;
  u.logical_bytes = bytes;
  return u;
}

struct World {
  sim::Simulator sim;
  sim::Cluster cluster;
  dp::DataPlane plane;
  explicit World(std::size_t nodes = 1,
                 dp::DataPlaneConfig cfg = dp::lifl_plane())
      : cluster(sim, nodes), plane(cluster, cfg, sim::Rng(5)) {}
};

/// Allocations made by `op()` after one identical warm-up call.
template <typename F>
std::uint64_t steady_allocs(F&& op) {
  op();
  const std::uint64_t before = allocs();
  op();
  return allocs() - before;
}

TEST(UploadAlloc, LiflClientUploadAllocatesNothing) {
  if (kSanitized) GTEST_SKIP() << kSkipWhy;
  World w;
  std::uint64_t landed = 0;
  const auto batch = [&] {
    for (int i = 0; i < kBatch; ++i) {
      w.plane.client_upload(0, client_update(1000 + i, 100'000), 1e6);
    }
    w.sim.run();
    fl::UpdateDesc u;
    while (w.plane.env(0).pool.try_pop(u)) {
      w.plane.release(0, u);
      ++landed;
    }
  };
  EXPECT_EQ(steady_allocs(batch), 0u);
  EXPECT_EQ(landed, 2u * kBatch);
  EXPECT_EQ(w.plane.env(0).store.size(), 0u);
}

TEST(UploadAlloc, IntraAndInterNodeSendsAllocateNothing) {
  if (kSanitized) GTEST_SKIP() << kSkipWhy;
  World w(2);
  std::uint64_t delivered = 0;
  w.plane.register_consumer(10, 0, [&w, &delivered](fl::UpdateDesc u) {
    w.plane.release(0, u);
    ++delivered;
  });
  w.plane.register_consumer(11, 1, [&w, &delivered](fl::UpdateDesc u) {
    w.plane.release(1, u);
    ++delivered;
  });
  const auto batch = [&] {
    for (int i = 0; i < kBatch; ++i) {
      w.plane.send(1, 0, i % 2 == 0 ? 10 : 11, client_update(1, 100'000));
    }
    w.sim.run();
  };
  EXPECT_EQ(steady_allocs(batch), 0u);
  EXPECT_EQ(delivered, 2u * kBatch);
  EXPECT_EQ(w.plane.env(0).store.size(), 0u);
  EXPECT_EQ(w.plane.env(1).store.size(), 0u);
}

TEST(UploadAlloc, ResumableUploadWithADisconnectAllocatesAtMostOnce) {
  if (kSanitized) GTEST_SKIP() << kSkipWhy;
  World w;
  wl::LifecyclePlan::Config pcfg;
  pcfg.seed = 3;
  pcfg.disconnect_rate = 0.5;
  pcfg.chunk_bytes = 25'000;
  const wl::LifecyclePlan plan(pcfg);
  // Sessions of 4 chunks that drop exactly once, then resume and finish.
  std::vector<std::uint64_t> seqs;
  for (std::uint64_t seq = 0; seqs.size() < 2 * kBatch; ++seq) {
    const std::uint32_t die = plan.disconnect_chunk(0, seq, 0, 4, 1.0);
    if (die != 0 && plan.disconnect_chunk(0, seq, 1, 5 - die, 1.0) == 0) {
      seqs.push_back(seq);
    }
  }
  dp::ResumableUpload::Counters counters;
  std::uint64_t completed = 0;
  std::size_t next = 0;
  const auto batch = [&] {
    for (int i = 0; i < kBatch; ++i) {
      dp::ResumableUpload::Config rc;
      rc.plan = &plan;
      rc.seq = seqs[next++];
      rc.uplink_bytes_per_sec = 1e6;
      rc.counters = &counters;
      rc.on_complete = [&completed](double, std::uint32_t) { ++completed; };
      dp::ResumableUpload::launch(w.plane, client_update(2000 + i, 100'000),
                                  std::move(rc));
    }
    w.sim.run();
    fl::UpdateDesc u;
    while (w.plane.env(0).pool.try_pop(u)) w.plane.release(0, u);
  };
  EXPECT_LE(steady_allocs(batch), static_cast<std::uint64_t>(kBatch));
  EXPECT_EQ(completed, 2u * kBatch);
  EXPECT_EQ(counters.disconnects, 2u * kBatch);
  EXPECT_EQ(counters.chunks_sent, 2u * 4u * kBatch);
}

TEST(UploadAlloc, RealPayloadLiflClientUploadAllocatesNothing) {
  if (kSanitized) GTEST_SKIP() << kSkipWhy;
  // Real tensors wait in the payload slab during the ingest flight and move
  // into the shm store at the gateway; once both have grown, a batch of
  // uploads allocates nothing.
  World w(1, dp::lifl_plane());
  std::vector<std::shared_ptr<const ml::Tensor>> tensors;
  for (int i = 0; i < 4; ++i) {
    tensors.push_back(std::make_shared<const ml::Tensor>(64, 1.0f));
  }
  std::uint64_t landed = 0;
  const auto batch = [&] {
    for (int i = 0; i < kBatch; ++i) {
      fl::ModelUpdate u = client_update(1000 + i, 100'000);
      u.tensor = tensors[i % tensors.size()];
      w.plane.client_upload(0, std::move(u), 1e6);
    }
    w.sim.run();
    fl::UpdateDesc d;
    while (w.plane.env(0).pool.try_pop(d)) {
      landed += w.plane.tensor(0, d) != nullptr;
      w.plane.release(0, d);
    }
  };
  EXPECT_EQ(steady_allocs(batch), 0u);
  EXPECT_EQ(landed, 2u * kBatch);
  EXPECT_EQ(w.plane.env(0).store.size(), 0u);
  EXPECT_EQ(w.plane.slab_payloads(), 0u);
  for (const auto& t : tensors) EXPECT_EQ(t.use_count(), 1);
}

TEST(UploadAlloc, RealPayloadResumableUploadAllocatesNothing) {
  if (kSanitized) GTEST_SKIP() << kSkipWhy;
  // A session holds its update's tensor in the payload slab until the
  // last chunk is acked; its chunk flights carry no cargo.
  World w(1, dp::lifl_plane());
  wl::LifecyclePlan::Config pcfg;
  pcfg.disconnect_rate = 0.0;
  pcfg.chunk_bytes = 25'000;
  const wl::LifecyclePlan plan(pcfg);
  auto tensor = std::make_shared<const ml::Tensor>(64, 1.0f);
  dp::ResumableUpload::Counters counters;
  std::uint64_t next = 0;
  std::uint64_t landed = 0;
  const auto batch = [&] {
    for (int i = 0; i < kBatch; ++i) {
      dp::ResumableUpload::Config rc;
      rc.plan = &plan;
      rc.seq = next++;
      rc.uplink_bytes_per_sec = 1e6;
      rc.counters = &counters;
      fl::ModelUpdate u = client_update(3000 + i, 100'000);
      u.tensor = tensor;
      dp::ResumableUpload::launch(w.plane, std::move(u), std::move(rc));
    }
    w.sim.run();
    fl::UpdateDesc d;
    while (w.plane.env(0).pool.try_pop(d)) {
      landed += w.plane.tensor(0, d) == tensor;
      w.plane.release(0, d);
    }
  };
  EXPECT_EQ(steady_allocs(batch), 0u);
  EXPECT_EQ(landed, 2u * kBatch);
  EXPECT_EQ(counters.chunks_sent, 2u * 4u * kBatch);
  EXPECT_EQ(w.plane.env(0).store.size(), 0u);
  EXPECT_EQ(w.plane.slab_payloads(), 0u);
  EXPECT_EQ(tensor.use_count(), 1);
}

TEST(UploadAlloc, FlakyAsyncCampaignStaysUnderFourPerUpload) {
  if (kSanitized) GTEST_SKIP() << kSkipWhy;
  // A small async stream over tiered flaky clients with scored selection
  // and stragglers: every allocation of the whole run, set-up included,
  // counts against the uploads it launched.
  sys::ShardedCampaignConfig cfg;
  cfg.shards = 2;
  cfg.groups = 4;
  cfg.rounds = 3;
  cfg.leaves_per_group = 8;
  cfg.updates_per_leaf = 50;
  cfg.model_bytes = 100'000;
  cfg.population = 40'000;
  cfg.peak_per_sec = 400.0;
  cfg.ramp_secs = 1.0;
  cfg.seed = 11;
  cfg.hierarchy = sys::HierarchyMode::kAsync;
  cfg.replan_interval_secs = 0.5;
  cfg.device_tiers = wl::TierMix{0.4, 0.3, 0.3};
  cfg.lifecycle.disconnect_rate = 0.2;
  cfg.lifecycle.offline_base_secs = 0.05;
  cfg.lifecycle.offline_cap_secs = 1.0;
  cfg.selector = ctrl::SelectorPolicy::kScored;
  cfg.straggler_fraction = 0.1;
  (void)sys::run_sharded_campaign(cfg);  // warm-up: lazy statics, caches
  const std::uint64_t before = allocs();
  const sys::ShardedCampaignResult r = sys::run_sharded_campaign(cfg);
  const std::uint64_t made = allocs() - before;
  std::uint64_t uploads = 0;
  for (const auto& g : r.groups) uploads += g.uploads;
  ASSERT_GT(uploads, 0u);
  ASSERT_GT(r.disconnects, 0u);
  EXPECT_LE(made, 4 * uploads) << static_cast<double>(made) / uploads
                               << " allocations per upload";
}

}  // namespace
}  // namespace lifl
