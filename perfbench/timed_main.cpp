// perfbench: the timed (untraced) runs of the benchmark's workloads.
//
//   perfbench setup --workload W --seed N [--t0-ns T]
//       Set the workload up and report setup_s only.
//   perfbench timed --workload W --seed N --seconds S [--t0-ns T]
//       Set up once, then repeat the timed call until S seconds have passed
//       (at least --min-reps times). Reports median wall and CPU seconds per
//       call, peak RSS, set-up time and simulated seconds per round, and
//       checks every repetition: the workload's own check passes and the
//       digest of the per-round results is identical across repetitions.
//
// `--t0-ns` is the caller's CLOCK_MONOTONIC reading taken just before it
// started this process; set-up time is measured from it, so process start-up
// counts. Without it, set-up time starts at main(). The last line of stdout
// is one JSON object; the exit code is 1 when a check failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/common.hpp"
#include "perfbench/workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::uint32_t min_reps = 3;
  std::int64_t t0_ns = 0;
};

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--min-reps") {
      a.min_reps = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (k == "--t0-ns") {
      a.t0_ns = std::strtoll(v, nullptr, 10);
    } else {
      return false;
    }
  }
  return (a.mode == "setup" || a.mode == "timed") && !a.workload.empty() &&
         a.min_reps >= 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = now_ns();
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s setup|timed --workload W --seed N "
                 "[--seconds S] [--min-reps R] [--t0-ns T]\n",
                 argv[0]);
    return 2;
  }
  const std::int64_t t0 = args.t0_ns > 0 ? args.t0_ns : main_ns;

  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::int64_t ready_ns = now_ns();
  const double setup_s = secs_between(t0, ready_ns);
  if (args.mode == "setup") {
    std::printf("%s\n", JsonObject().num("setup_s", setup_s).dump().c_str());
    return 0;
  }

  std::vector<double> wall, cpu;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  double sim_round_s = 0.0;
  std::string error;
  while (wall.size() < args.min_reps ||
         secs_between(ready_ns, now_ns()) < args.seconds) {
    const CpuTimes c0 = cpu_times();
    const std::int64_t w0 = now_ns();
    w->run(nullptr);
    const std::int64_t w1 = now_ns();
    const CpuTimes c1 = cpu_times();
    wall.push_back(secs_between(w0, w1));
    cpu.push_back(c1.total() - c0.total());
    std::fprintf(stderr, "rep %zu: wall %.4f s, cpu %.4f s\n", wall.size(),
                 wall.back(), cpu.back());

    const Outcome o = w->outcome();
    attempted += o.counts.uploads;
    failed += o.counts.uploads - std::min(o.counts.uploads, o.counts.folded);
    if (wall.size() == 1) {
      digest = o.digest;
      sim_round_s = o.counts.sim_secs / static_cast<double>(o.counts.rounds);
    } else if (o.digest != digest && error.empty()) {
      error = "results differ between repetitions of one seed";
    }
    if (!o.error.empty() && error.empty()) error = o.error;
  }
  const bool correct = error.empty() && attempted > 0;
  if (!correct) failed = attempted;

  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  JsonObject out;
  out.boolean("correct", correct)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .integer("reps", wall.size())
      .str("digest", hex)
      .num("wall_s", median(wall))
      .num("cpu_s", median(cpu))
      .num("peak_rss_mb", peak_rss_mb())
      .num("setup_s", setup_s)
      .num("sim_round_s", sim_round_s)
      .str("error", error);
  std::printf("%s\n", out.dump().c_str());
  return correct ? 0 : 1;
}
