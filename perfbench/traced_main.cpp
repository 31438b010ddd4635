// perfbench_traced: the traced run of one workload, for per-layer numbers.
//
//   perfbench_traced --workload W --seed N --seconds S
//                    --untraced-wall-s X --untraced-digest D [--spans PATH]
//
// Repeats the workload's timed call with spans and the heap counter on
// until S seconds have passed (at least once, at most 5 times), then runs
// the per-layer probes on the workload's own inputs. X and D come from an
// untraced run of the same workload and seed: the traced digest must equal
// D (tracing does not perturb the simulation), and X is the base of the
// overhead and attribution fractions. The sharded workload is also run on one shard,
// whose digest must match too. Spans are written to PATH at exit. The last
// line of stdout is one JSON object; the exit code is 1 when a check failed.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/common.hpp"
#include "perfbench/heap_counter.hpp"
#include "perfbench/probes.hpp"
#include "perfbench/workloads.hpp"
#include "src/ml/tensor_pool.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5.0;
  double untraced_wall_s = 0.0;
  std::string untraced_digest;
  std::string spans_path;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--untraced-wall-s") {
      a.untraced_wall_s = std::strtod(v, nullptr);
    } else if (k == "--untraced-digest") {
      a.untraced_digest = v;
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.untraced_wall_s > 0.0 &&
         !a.untraced_digest.empty();
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Traced repetitions are capped so the span file stays small for the
/// short workloads.
constexpr std::size_t kMaxReps = 5;

/// What one traced repetition measured besides its Outcome.
struct Rep {
  double wall_s = 0.0;
  double sys_s = 0.0;
  heap::Totals heap;
  lifl::ml::TensorPoolStats pool_before;
  lifl::ml::TensorPoolStats pool_after;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S "
                 "--untraced-wall-s X --untraced-digest D [--spans PATH]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Spans spans;
  std::vector<Rep> reps;
  std::vector<double> walls, sys;
  Outcome last;
  std::size_t last_rep_spans = 0;
  std::string error;
  const std::int64_t start = now_ns();
  while (reps.empty() || (reps.size() < kMaxReps &&
                          secs_between(start, now_ns()) < args.seconds)) {
    spans.set_run(static_cast<std::uint32_t>(reps.size()));
    spans.reserve(std::max<std::size_t>(2 * last_rep_spans, 1u << 16));
    const std::size_t spans_before = spans.size();
    Rep rep;
    lifl::ml::TensorPool& pool = lifl::ml::TensorPool::global();
    rep.pool_before = pool.stats();
    const heap::Totals h0 = heap::totals();
    const CpuTimes c0 = cpu_times();
    const std::int64_t w0 = now_ns();
    heap::set_counting(true);
    w->run(&spans);
    heap::set_counting(false);
    const std::int64_t w1 = now_ns();
    const CpuTimes c1 = cpu_times();
    const heap::Totals h1 = heap::totals();
    rep.pool_after = pool.stats();
    last_rep_spans = spans.size() - spans_before;
    rep.wall_s = secs_between(w0, w1);
    rep.sys_s = c1.sys - c0.sys;
    rep.heap = {h1.allocs - h0.allocs, h1.bytes - h0.bytes};
    walls.push_back(rep.wall_s);
    sys.push_back(rep.sys_s);
    reps.push_back(rep);

    last = w->outcome();
    if (!last.error.empty() && error.empty()) error = last.error;
    if (hex(last.digest) != args.untraced_digest && error.empty()) {
      error = "traced results differ from the untraced run";
    }
  }

  std::string single_shard_digest;
  if (args.workload == "async-edge-4shard") {
    std::unique_ptr<Workload> one = make_workload(args.workload, args.seed, 1);
    one->run(nullptr);
    single_shard_digest = hex(one->outcome().digest);
    if (single_shard_digest != args.untraced_digest && error.empty()) {
      error = "1-shard results differ from the 4-shard run";
    }
  }

  // ---- per-layer probes on the workload's own inputs.
  const ProbeInputs in = w->probe_inputs();
  const double core_ns = probes::sim_core_ns_per_event();
  const double replan_ns = probes::replan_ns(in);
  const double select_ns = probes::select_ns(in);
  const double arrival_ns = probes::arrival_ns(in);
  const probes::UploadCost up = probes::upload(in);
  const double shm_ns = probes::shm_put_get_release_ns(in);
  const double fold_gbps = probes::fold_gbps(in);

  const Counts& c = last.counts;
  const Rep& rep = reps.back();
  const double uploads = static_cast<double>(c.uploads);
  const double events = static_cast<double>(c.events);
  const double wall = args.untraced_wall_s;

  // Wall seconds the probes account for, each count priced at its layer's
  // unit cost. The upload probe already includes its own simulator events
  // and shm put, so only the events it does not cover are priced at the
  // core's cost, and shm is not priced again.
  double attributed_ns = uploads * up.ns;
  attributed_ns += std::max(0.0, events - uploads * up.events_per_upload) *
                   core_ns;
  attributed_ns += uploads * arrival_ns;
  attributed_ns += static_cast<double>(c.replans) * replan_ns;
  if (in.selection) attributed_ns += uploads * select_ns;
  if (fold_gbps > 0.0) {
    attributed_ns += static_cast<double>(c.tensor_folds) *
                     static_cast<double>(in.tensors[0]->bytes()) / fold_gbps;
  }

  JsonObject m;
  m.num("sim.events", events)
      .num("sim.ns_per_event", events > 0 ? wall * 1e9 / events : 0.0)
      .num("sim.core_ns_per_event", core_ns)
      .num("sim.windows", static_cast<double>(c.windows))
      .num("sim.windows_skipped", static_cast<double>(c.windows_skipped))
      .num("sim.cross_posts", static_cast<double>(c.cross_posts))
      .num("sim.barrier_idle_s", c.barrier_idle_s)
      .num("sim.sys_cpu_s", median(sys))
      .num("systems.spawned", static_cast<double>(c.spawned))
      .num("systems.reused", static_cast<double>(c.reused))
      .num("systems.replans", static_cast<double>(c.replans))
      .num("systems.leaf_drains", static_cast<double>(c.leaf_drains))
      .num("control.replan_ns", replan_ns)
      .num("control.select_ns", select_ns)
      .num("workload.arrival_ns", arrival_ns)
      .num("dataplane.upload_ns", up.ns)
      .num("dataplane.chunks_sent", static_cast<double>(c.chunks_sent))
      .num("dataplane.chunks_resent", static_cast<double>(c.chunks_resent))
      .num("dataplane.disconnects", static_cast<double>(c.disconnects))
      .num("dataplane.resumed", static_cast<double>(c.resumed))
      .num("heap.allocs_per_upload",
           static_cast<double>(rep.heap.allocs) / uploads)
      .num("heap.bytes_per_upload",
           static_cast<double>(rep.heap.bytes) / uploads)
      .num("shm.put_get_release_ns", shm_ns)
      .num("shm.puts", static_cast<double>(c.shm_puts))
      .num("shm.recycled", static_cast<double>(c.shm_recycled))
      .num("shm.peak_mb", c.shm_peak_mb)
      .num("fl.fold_gbps", fold_gbps)
      .num("ml.tensor_allocs",
           static_cast<double>(rep.pool_after.misses - rep.pool_before.misses))
      .num("ml.tensor_pool_hits",
           static_cast<double>(rep.pool_after.pool_hits -
                               rep.pool_before.pool_hits))
      .num("bench.unattributed_frac", 1.0 - attributed_ns * 1e-9 / wall)
      .num("bench.trace_overhead_frac", median(walls) / wall - 1.0);

  if (!args.spans_path.empty() && !spans.write_jsonl(args.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 args.spans_path.c_str());
  }
  for (const SpanTotals& t : spans.totals()) {
    std::fprintf(stderr, "span %-32s n=%-8llu total %9.4f s  self %9.4f s\n",
                 t.name.c_str(), static_cast<unsigned long long>(t.count),
                 t.total_s, t.self_s);
  }

  const bool correct = error.empty() && c.uploads > 0;
  const std::uint64_t attempted = c.uploads;
  const std::uint64_t failed =
      correct ? attempted - std::min(attempted, c.folded) : attempted;
  JsonObject out;
  out.boolean("correct", correct)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .integer("reps", reps.size())
      .str("digest", hex(last.digest))
      .str("single_shard_digest", single_shard_digest)
      .raw("metrics", m.dump())
      .str("error", error);
  std::printf("%s\n", out.dump().c_str());
  return correct ? 0 : 1;
}
