#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/fifo.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/task.hpp"
#include "src/sim/time.hpp"

namespace lifl::sim {

/// A FIFO multi-server resource: up to `capacity` jobs in service, the rest
/// queued in arrival order.
///
/// Used to model every point of contention in the platform: a node's core
/// pool, the kernel network-processing budget (the contention behind Fig. 4),
/// the NIC wire, and the gateway's assigned cores (vertically scaled, §4.2).
/// Utilization and waiting statistics are tracked exactly (piecewise-constant
/// integrals), which the benches use for CPU-utilization figures.
///
/// A job that starts at once with a small trivially copyable completion
/// (the 16-byte handles of the upload path) carries it in its finish event,
/// a {resource, completion} pair inside `Task`'s inline bytes, so nothing
/// is parked or moved out again. Any other completion is a `sim::Task`
/// built in place — in the slab of in-service callbacks, or in the queued
/// job — behind a 12-byte {resource, slot} finish event. Either way,
/// submitting a job performs no per-job heap allocation however large the
/// caller's capture is (beyond the Task's own inline/heap policy).
class Resource {
 public:
  using Callback = Task;

  Resource(Simulator& sim, std::string name, std::uint32_t capacity);
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Submit a job needing `service_time` seconds of a server; `on_complete`
  /// fires when the job finishes service. Zero-duration jobs still respect
  /// FIFO order. Like `Simulator::schedule_*`, takes any callable by
  /// forwarding reference (an lvalue `Task` does not compile).
  template <typename F, Simulator::IfCallback<F> = 0>
  void acquire(SimTime service_time, F&& on_complete) {
    const SimTime service = service_time < 0 ? 0 : service_time;
    if (busy_ < capacity_) {
      using Fn = std::decay_t<F>;
      if constexpr (is_hot_callable_v<CarriedFinish<Fn>>) {
        begin(sim_.now());
        sim_.schedule_after(
            service, CarriedFinish<Fn>{this, Fn(std::forward<F>(on_complete))});
      } else {
        start(service, sim_.now(), park(std::forward<F>(on_complete)));
      }
    } else {
      queue_.emplace_back(service, sim_.now(), std::forward<F>(on_complete));
    }
  }

  /// Change the number of servers (vertical scaling). Growing starts queued
  /// jobs immediately; shrinking lets in-service jobs finish (no preemption).
  void set_capacity(std::uint32_t capacity);

  const std::string& name() const noexcept { return name_; }
  std::uint32_t capacity() const noexcept { return capacity_; }
  std::uint32_t busy() const noexcept { return busy_; }
  std::size_t queue_length() const noexcept { return queue_.size(); }

  /// Completed job count.
  std::uint64_t completed() const noexcept { return completed_; }

  /// Integral of (number of busy servers) dt — i.e. total server-seconds of
  /// service delivered up to now.
  SimTime busy_time() const noexcept;

  /// Total time jobs spent waiting in queue (sum over jobs).
  SimTime total_wait_time() const noexcept { return total_wait_; }

  /// Mean utilization in [0, 1] over the window since construction/reset.
  double utilization() const noexcept;

  /// Reset statistics (not the queue/in-service jobs).
  void reset_stats() noexcept;

  /// Checkpoint image of the cumulative statistics. The accumulators are
  /// floating-point running sums, so restoring them bit-exactly (rather
  /// than replaying per-job additions in a different order) is what keeps
  /// `busy_time()` et al. bitwise identical after a resume.
  struct StatsImage {
    double busy_integral = 0.0;
    double total_wait = 0.0;
    double last_change = 0.0;
    double stats_epoch = 0.0;
    std::uint64_t completed = 0;
  };
  StatsImage stats_image() const noexcept {
    return StatsImage{busy_integral_, total_wait_, last_change_,
                      stats_epoch_, completed_};
  }
  /// Restore a checkpointed image onto an *idle* resource (no job in
  /// service, empty queue); throws std::logic_error otherwise.
  void restore_stats_image(const StatsImage& img);

 private:
  struct Job {
    template <typename F>
    Job(SimTime s, SimTime at, F&& f)
        : service(s), enqueued_at(at), done(std::forward<F>(f)) {}

    SimTime service;
    SimTime enqueued_at;
    Callback done;
  };

  /// Completion trampoline of a parked job: 12 bytes — always inline in a
  /// `sim::Task`.
  struct FinishFn {
    Resource* r;
    std::uint32_t slot;
    void operator()() const { r->on_finish(slot); }
  };
  static_assert(is_hot_callable_v<FinishFn>);

  /// Finish event that carries its completion (`acquire`'s fast path,
  /// taken whenever this event is itself a hot callable).
  template <typename Fn>
  struct CarriedFinish {
    Resource* r;
    Fn done;
    void operator()() {
      r->release();
      done();
    }
  };

  /// Take a server for a job that queued since `enqueued_at`.
  void begin(SimTime enqueued_at);
  /// Put a parked job (`slot`) in service.
  void start(SimTime service, SimTime enqueued_at, std::uint32_t slot);
  /// Start queued jobs while servers are free.
  void start_queued();
  /// Free the server of a finished job and start queued ones.
  void release();
  void on_finish(std::uint32_t slot);
  void account() noexcept;
  /// Build `done` in a free slot of the in-service slab; returns the slot.
  template <typename F>
  std::uint32_t park(F&& done) {
    if (free_slots_.empty()) {
      free_slots_.push_back(static_cast<std::uint32_t>(in_service_.size()));
      in_service_.emplace_back();
    }
    const std::uint32_t slot = free_slots_.back();
    in_service_[slot].emplace(std::forward<F>(done));
    free_slots_.pop_back();
    return slot;
  }

  Simulator& sim_;
  std::string name_;
  std::uint32_t capacity_;
  std::uint32_t busy_ = 0;
  Fifo<Job> queue_;
  std::uint64_t completed_ = 0;

  // Slab of in-service completion callbacks, indexed by FinishFn::slot.
  std::vector<Callback> in_service_;
  std::vector<std::uint32_t> free_slots_;

  // Piecewise-constant busy integral.
  mutable SimTime busy_integral_ = 0.0;
  mutable SimTime last_change_ = 0.0;
  SimTime stats_epoch_ = 0.0;
  SimTime total_wait_ = 0.0;
};

/// An RSS-style N-queue resource: flows are hash-steered to one of N FIFO
/// queues, each served by its own share of the core budget.
///
/// Models the LIFL gateway's parallel ingest path (§4.2 + ROADMAP
/// "gateway-parallel ingest"): instead of one queue feeding `cores`
/// interchangeable servers, the NIC's receive-side-scaling hash pins each
/// client (flow) to a queue, queues are drained independently — so a hot
/// node's ingest scales with its configured core count while each client's
/// uploads stay in order — and one elephant flow can only ever occupy its
/// own queue. `queues == 1` degenerates to a plain `Resource` with
/// `cores` servers (the pre-RSS single-queue gateway), which keeps default
/// configurations bit-identical to the unsharded model.
///
/// Vertical scaling (`set_capacity`) re-derives the per-queue service rate
/// from the new core count: cores are dealt round-robin across the *live*
/// queue prefix (`min(queues, cores)` — fewer cores than queues narrows
/// the steering domain, exactly like reprogramming the RSS indirection
/// table). A queue dropped from the live set stops receiving new flows but
/// keeps one server until it has drained (its steered jobs must not
/// stall), so total capacity can transiently exceed the configured cores
/// during a scale-down; the surplus is reclaimed on the next
/// `set_capacity` once the queue is empty. Per-flow FIFO ordering is
/// guaranteed while the core count is stable; a rescale re-steers flows —
/// exactly as a real indirection-table rewrite does — and may transiently
/// reorder a flow whose earlier jobs still sit on a since-dropped queue.
class MultiQueueResource {
 public:
  /// `queues == 0` allocates one queue per core (full RSS fan-out); the
  /// effective queue count is clamped to [1, cores].
  MultiQueueResource(Simulator& sim, std::string name, std::uint32_t cores,
                     std::uint32_t queues = 1);
  MultiQueueResource(const MultiQueueResource&) = delete;
  MultiQueueResource& operator=(const MultiQueueResource&) = delete;

  /// Submit a job on behalf of `flow` (client / participant id): steered to
  /// queue hash(flow) % queues, FIFO within the queue.
  template <typename F, Simulator::IfCallback<F> = 0>
  void acquire(std::uint64_t flow, SimTime service_time, F&& on_complete) {
    queue_for(flow).acquire(service_time, std::forward<F>(on_complete));
  }

  /// The queue a flow steers to.
  Resource& queue_for(std::uint64_t flow) { return *queues_[steer(flow)]; }
  Resource& queue(std::size_t i) { return *queues_[i]; }
  std::size_t queue_count() const noexcept { return queues_.size(); }

  /// Vertical scaling (§4.2): redistribute `cores` across the live queue
  /// prefix and re-steer new flows to it (see class comment for the
  /// scale-down drain rule). `cores` is floored at 1.
  void set_capacity(std::uint32_t cores);

  const std::string& name() const noexcept { return name_; }
  /// Total cores across all queues.
  std::uint32_t capacity() const noexcept { return cores_; }

  // Aggregate statistics over all queues (same meaning as on `Resource`).
  std::uint32_t busy() const noexcept;
  std::size_t queue_length() const noexcept;
  std::uint64_t completed() const noexcept;
  SimTime busy_time() const noexcept;
  SimTime total_wait_time() const noexcept;
  double utilization() const noexcept;
  void reset_stats() noexcept;

  /// The steering hash (splitmix64 finalizer): exposed so tests and benches
  /// can predict queue assignment.
  static std::uint64_t mix(std::uint64_t flow) noexcept {
    flow += 0x9e3779b97f4a7c15ull;
    flow = (flow ^ (flow >> 30)) * 0xbf58476d1ce4e5b9ull;
    flow = (flow ^ (flow >> 27)) * 0x94d049bb133111ebull;
    return flow ^ (flow >> 31);
  }

 private:
  std::size_t steer(std::uint64_t flow) const noexcept {
    return static_cast<std::size_t>(mix(flow) % live_);
  }
  void distribute();

  Simulator& sim_;
  std::string name_;
  std::uint32_t cores_;
  std::size_t live_ = 1;  ///< steering domain: queues [0, live_)
  std::vector<std::unique_ptr<Resource>> queues_;
  SimTime stats_epoch_ = 0.0;
};

}  // namespace lifl::sim
