// Tests for the chunked sweep splitter (ml::parallel_sweep): a split fold
// kernel must be bitwise equal to one direct kernel call at every dispatch
// level, size and alignment; concurrent callers must each get serial
// results; runs that fold no large tensor must start no worker thread; the
// workers run on CPUs of their own, park once a bounded poll after a sweep
// ends, and a one-CPU process sweeps inline.

#include <gtest/gtest.h>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/fl/fedavg.hpp"
#include "src/ml/kernels.hpp"
#include "src/ml/sweep_pool.hpp"
#include "src/ml/tensor.hpp"
#include "src/sim/random.hpp"
#include "src/sim/thread_placement.hpp"
#include "src/systems/sharded_campaign.hpp"

namespace lifl::ml {
namespace {

namespace k = kernels;

std::vector<float> random_vec(sim::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

std::vector<k::Level> available_levels() {
  std::vector<k::Level> out;
  for (int l = 0; l <= static_cast<int>(k::max_supported()); ++l) {
    out.push_back(static_cast<k::Level>(l));
  }
  return out;
}

bool bitwise_equal(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// `fold` (axpyn or axpyn_into) over [0, n), split the way FedAvg splits it.
void split_fold(decltype(k::Ops::axpyn) fold, float* acc, const float* w,
                const float* const* xs, std::size_t fan, std::size_t n) {
  parallel_sweep(n, [&](std::size_t lo, std::size_t hi) {
    std::array<const float*, k::kMaxFan> at;
    for (std::size_t j = 0; j < fan; ++j) at[j] = xs[j] + lo;
    fold(acc + lo, w, at.data(), fan, hi - lo);
  });
}

/// Workers the pool starts in this process.
std::size_t pool_workers() {
  return std::min(sim::allowed_cpu_count() - 1, kSweepMaxWorkers);
}

/// Threshold edges and a long odd tail.
const std::size_t kSplitSizes[] = {kSweepMinSplit - 1, kSweepMinSplit,
                                   kSweepMinSplit + 1, (1u << 20) + 13};

TEST(SweepPool, SplitKernelsAreBitwiseEqualToOneCallAtEveryLevel) {
  sim::Rng rng(41);
  const std::size_t max_n = kSplitSizes[3];
  // One float of offset: every pointer is misaligned for every lane width.
  std::vector<std::vector<float>> rows;
  for (std::size_t j = 0; j < k::kMaxFan; ++j) {
    rows.push_back(random_vec(rng, max_n + 1));
  }
  std::array<const float*, k::kMaxFan> xs;
  for (std::size_t j = 0; j < k::kMaxFan; ++j) xs[j] = rows[j].data() + 1;
  const float w[] = {0.5f, -1.25f, 3.0f, 0.1f, -0.7f, 2.5f, 0.33f, -4.0f};
  const auto base = random_vec(rng, max_n + 1);
  std::vector<float> direct(max_n + 1), split(max_n + 1);

  for (const k::Level level : available_levels()) {
    const k::Ops& ops = k::ops_for(level);
    for (const std::size_t n : kSplitSizes) {
      for (std::size_t fan = 1; fan <= k::kMaxFan; ++fan) {
        direct = base;
        split = base;
        ops.axpyn(direct.data() + 1, w, xs.data(), fan, n);
        split_fold(ops.axpyn, split.data() + 1, w, xs.data(), fan, n);
        EXPECT_TRUE(bitwise_equal(direct.data(), split.data(), max_n + 1))
            << "axpyn level=" << k::level_name(level) << " n=" << n
            << " k=" << fan;

        direct = base;
        split = base;
        ops.axpyn_into(direct.data() + 1, w, xs.data(), fan, n);
        split_fold(ops.axpyn_into, split.data() + 1, w, xs.data(), fan, n);
        EXPECT_TRUE(bitwise_equal(direct.data(), split.data(), max_n + 1))
            << "axpyn_into level=" << k::level_name(level) << " n=" << n
            << " k=" << fan;
      }
      direct = base;
      split = base;
      ops.scale_into(direct.data() + 1, 0.37f, xs[0], n);
      parallel_sweep(n, [&](std::size_t lo, std::size_t hi) {
        ops.scale_into(split.data() + 1 + lo, 0.37f, xs[0] + lo, hi - lo);
      });
      EXPECT_TRUE(bitwise_equal(direct.data(), split.data(), max_n + 1))
          << "scale_into level=" << k::level_name(level) << " n=" << n;
    }
  }
}

TEST(SweepPool, ChunksTileTheRangeOnceAtFixedBoundaries) {
  for (const std::size_t n : kSplitSizes) {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    parallel_sweep(n, [&](std::size_t lo, std::size_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      calls.emplace_back(lo, hi);
    });
    std::sort(calls.begin(), calls.end());
    // A process allowed one CPU has no pool: every sweep is one call.
    if (n < kSweepMinSplit || pool_workers() == 0) {
      ASSERT_EQ(calls.size(), 1u) << n;
      EXPECT_EQ(calls[0], std::make_pair(std::size_t{0}, n));
      continue;
    }
    ASSERT_EQ(calls.size(), (n + kSweepChunk - 1) / kSweepChunk) << n;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].first, i * kSweepChunk) << n;
      EXPECT_EQ(calls[i].second, std::min(n, (i + 1) * kSweepChunk)) << n;
    }
  }
  // The first split sweep started the pool: allowed CPUs minus the
  // caller's, capped.
  EXPECT_EQ(sweep_workers_started(), pool_workers());
}

TEST(SweepPool, ConcurrentCallersEachGetSerialResults) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kN = (std::size_t{1} << 18) + 5;
  constexpr int kSweeps = 6;
  sim::Rng rng(43);
  std::vector<std::vector<float>> rows;
  for (std::size_t j = 0; j < k::kMaxFan; ++j) {
    rows.push_back(random_vec(rng, kN));
  }
  std::array<const float*, k::kMaxFan> xs;
  for (std::size_t j = 0; j < k::kMaxFan; ++j) xs[j] = rows[j].data();
  const k::Ops& ops = k::ops();

  // Serial oracle per thread: each thread folds with its own weights.
  std::vector<std::array<float, k::kMaxFan>> weights(kThreads);
  std::vector<std::vector<float>> want(kThreads, std::vector<float>(kN));
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t j = 0; j < k::kMaxFan; ++j) {
      weights[t][j] = static_cast<float>(1 + t + j) * 0.125f;
    }
    ops.axpyn_into(want[t].data(), weights[t].data(), xs.data(), k::kMaxFan,
                   kN);
    for (int s = 1; s < kSweeps; ++s) {
      ops.axpyn(want[t].data(), weights[t].data(), xs.data(), k::kMaxFan, kN);
    }
  }

  std::vector<std::vector<float>> got(kThreads, std::vector<float>(kN));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      split_fold(ops.axpyn_into, got[t].data(), weights[t].data(), xs.data(),
                 k::kMaxFan, kN);
      for (int s = 1; s < kSweeps; ++s) {
        split_fold(ops.axpyn, got[t].data(), weights[t].data(), xs.data(),
                   k::kMaxFan, kN);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(bitwise_equal(got[t].data(), want[t].data(), kN)) << t;
  }
}

// Worker counts are process-wide, so these checks run in a fresh process
// each ("threadsafe" death tests re-execute the binary for one test). The
// child's exit status is 0 when the check holds.

int small_sweeps_child() {
  std::vector<float> acc(kSweepMinSplit - 1, 1.0f);
  parallel_sweep(acc.size(), [&](std::size_t lo, std::size_t hi) {
    k::ops().scale(acc.data() + lo, 2.0f, hi - lo);
  });
  // A production fold of tensors just under the threshold.
  fl::FedAvgAccumulator fold;
  const auto t = std::make_shared<const Tensor>(kSweepMinSplit - 1, 0.5f);
  for (int i = 0; i < 11; ++i) fold.add(t, 3);
  const bool folded = fold.result() && (*fold.result())[0] == 0.5f;
  return folded && sweep_workers_started() == 0 ? 0 : 1;
}

int logical_campaign_child() {
  sys::ShardedCampaignConfig cfg;
  cfg.shards = 2;
  cfg.groups = 4;
  cfg.rounds = 2;
  cfg.leaves_per_group = 4;
  cfg.updates_per_leaf = 10;
  cfg.population = 10'000;
  cfg.peak_per_sec = 200.0;
  cfg.ramp_secs = 1.0;
  cfg.hierarchy = sys::HierarchyMode::kPlanned;
  const auto r = sys::run_sharded_campaign(cfg);
  return r.events > 0 && sweep_workers_started() == 0 ? 0 : 1;
}

/// CPUs the calling thread may run on.
int thread_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
}

struct Seen {
  std::thread::id id;
  int cpu;
  int allowed;  ///< CPUs in the thread's mask: 1 once pinned
};

// Each chunk records its thread's CPU and mask, then holds the thread until
// every pool thread has taken a chunk (or 5 s pass), so every worker shows
// up. The workers must be pinned, and all threads on distinct CPUs.
int distinct_cpus_child() {
  const std::size_t threads = pool_workers() + 1;
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::vector<Seen> seen;
  std::atomic<std::size_t> arrived{0};
  parallel_sweep(2 * threads * kSweepChunk, [&](std::size_t, std::size_t) {
    const Seen me{std::this_thread::get_id(), sched_getcpu(), thread_cpus()};
    {
      std::lock_guard<std::mutex> lock(mu);
      if (std::none_of(seen.begin(), seen.end(),
                       [&](const Seen& e) { return e.id == me.id; })) {
        seen.push_back(me);
        arrived.fetch_add(1);
      }
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (arrived.load() < threads &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  if (seen.size() != threads) return 2;
  std::vector<int> cpus;
  for (const Seen& e : seen) {
    if (e.id != caller && e.allowed != 1) return 3;
    cpus.push_back(e.cpu);
  }
  std::sort(cpus.begin(), cpus.end());
  return std::unique(cpus.begin(), cpus.end()) == cpus.end() ? 0 : 1;
}

/// Limit this process (a death-test child: one thread) to the CPU it is on.
bool limit_to_one_cpu() {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(sched_getcpu(), &one);
  return sched_setaffinity(getpid(), sizeof one, &one) == 0 &&
         sim::allowed_cpu_count() == 1;
}

// With one allowed CPU the pool starts no worker, and a split fold and a
// chained Gaussian fill run inline, bitwise as the serial loops.
int one_cpu_child() {
  if (!limit_to_one_cpu()) return 2;
  constexpr std::size_t kN = (std::size_t{1} << 18) + 3;
  sim::Rng rng(47);
  const std::vector<float> x = random_vec(rng, kN);
  std::vector<float> direct(kN), split(kN);
  k::ops().scale_into(direct.data(), 0.37f, x.data(), kN);
  parallel_sweep(kN, [&](std::size_t lo, std::size_t hi) {
    k::ops().scale_into(split.data() + lo, 0.37f, x.data() + lo, hi - lo);
  });
  sim::Rng fill_rng(48);
  sim::Rng loop_rng = fill_rng;
  std::vector<float> got(kN);
  fill_normal(fill_rng, got.data(), kN, 1.0);
  const std::vector<float> want = random_vec(loop_rng, kN);
  const sim::Rng::State a = fill_rng.state();
  const sim::Rng::State b = loop_rng.state();
  const bool same = bitwise_equal(direct.data(), split.data(), kN) &&
                    bitwise_equal(got.data(), want.data(), kN) &&
                    std::memcmp(a.s, b.s, sizeof a.s) == 0 &&
                    a.has_spare == b.has_spare;
  return same && sweep_workers_started() == 0 ? 0 : 1;
}

/// User + system CPU seconds this process has used, over all its threads.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// After a sweep the workers poll for the next one for a bounded window,
// then park: over a later idle stretch the process burns next to no CPU.
// An unbounded poll would burn one CPU per worker here.
int idle_workers_park_child() {
  std::vector<float> acc(4 * kSweepMinSplit, 1.0f);
  parallel_sweep(acc.size(), [&](std::size_t lo, std::size_t hi) {
    k::ops().scale(acc.data() + lo, 2.0f, hi - lo);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double before = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double burnt = process_cpu_s() - before;
  return acc[0] == 2.0f && burnt < 0.010 ? 0 : 1;
}

TEST(SweepPoolDeathTest, WorkersRunOnPairwiseDistinctCpus) {
  if (sim::allowed_cpu_count() < 4) {
    GTEST_SKIP() << "needs at least 4 allowed CPUs";
  }
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(std::exit(distinct_cpus_child()), ::testing::ExitedWithCode(0),
              "");
}

TEST(SweepPoolDeathTest, OneAllowedCpuSweepsInlineBitwise) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(std::exit(one_cpu_child()), ::testing::ExitedWithCode(0), "");
}

TEST(SweepPoolDeathTest, SubThresholdSweepsStartNoWorker) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(std::exit(small_sweeps_child()), ::testing::ExitedWithCode(0),
              "");
}

TEST(SweepPoolDeathTest, IdleWorkersStopPollingAndPark) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(std::exit(idle_workers_park_child()),
              ::testing::ExitedWithCode(0), "");
}

TEST(SweepPoolDeathTest, LogicalPayloadShardedCampaignStartsNoWorker) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(std::exit(logical_campaign_child()),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace lifl::ml
