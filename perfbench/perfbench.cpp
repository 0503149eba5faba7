// perfbench: the repository benchmark.
//
// One invocation measures one workload for a fixed wall-clock budget:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// and prints, as the last line of stdout, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set with --trace 0 and the per-layer set
// with --trace 1 (names, units and meaning: perfbench/README.md).
//
// A workload is a failure sweep over a pool of topologies generated from
// --seed during set-up; the simulator only ever sees the generated graphs.
// Serial-engine workloads run the sweep the way run_sweep_warm does
// (harness/warmstart.hpp): per topology, converge cold once, snapshot the
// quiescent state, then restore a fresh network from the snapshot for every
// failure size. The partitioned engine cannot checkpoint, so its workload
// runs every failure cold, the way run_experiment does with par_threads set.
// Either way a run fails a contiguous region at the grid centre,
// re-converges and is audited. The pool is cycled until --seconds have
// passed, so a long run revisits topologies, and every revisit must
// reproduce the first visit's result exactly.
//
// Every run's output is checked outside the timed spans: the simulator's
// own route audit, an independent equilibrium oracle (BFS over the
// surviving graph), a checkpoint round trip, and run-to-run determinism.
//
// Timings are 10%-trimmed means over many short operations rather than
// totals, so a burst of load from elsewhere on the host moves them little.
// The host's speed also drifts by tens of percent over minutes on shared
// machines, so end-to-end timings are scaled by a fixed probe workload timed
// next to each topology group (see HostProbe); per-layer timings stay raw.
#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bgp/checkpoint.hpp"
#include "bgp/network.hpp"
#include "bgp/trace.hpp"
#include "failure/failure.hpp"
#include "harness/audit.hpp"
#include "schemes/dynamic_mrai.hpp"
#include "topo/degree_sequence.hpp"

namespace {

using namespace bgpsim;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads. Each stresses a different part of the simulator; the "why" of
// each is also recorded in BENCHMARK.json.

struct Workload {
  const char* name;
  std::size_t n;                  ///< routers (one AS and prefix each)
  double mrai_s;                  ///< constant MRAI (ignored with the schemes)
  bool schemes;                   ///< the paper's dynamic MRAI + batched queue
  bool par;                       ///< partitioned engine, every run cold
  std::vector<double> failures;   ///< failure fractions run per topology
  std::size_t pool;               ///< distinct topologies generated per seed
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // The paper's schemes at its scale: 120 ASes, dynamic MRAI (0.5 s
      // base) and per-destination batched input queues, 5-20% failures.
      // Exercises the batched queue's stale-update deletion and the MRAI
      // level controller on top of the decision process and export.
      {"schemes", 120, 0.5, true, false, {0.05, 0.10, 0.20}, 48},
      // Network size: 240 ASes (the size BENCH_scale.json and the parallel
      // golden tests use) at a constant MRAI of 2.25 s with FIFO queues and
      // 1- and 2-router failures. Cold-start convergence dominates, and
      // per-event cost grows with n; batching and the controller are
      // bypassed.
      {"scale", 240, 2.25, false, false, {0.005, 0.01}, 48},
      // The same topologies and configuration on the partitioned engine at
      // min(4, host CPUs) threads: window barriers, cross-partition
      // mailboxes and per-partition path tables. Its events/s over scale's
      // is the intra-run speedup on this host.
      {"par", 240, 2.25, false, true, {0.01}, 64},
  };
  return all;
}

/// Partition threads for the parallel workload.
std::size_t par_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

// ---------------------------------------------------------------------------
// Spans: name, start, end and the enclosing span, kept in memory and written
// out at the end of a traced run (Chrome/Perfetto "X" events).

struct Span {
  const char* name;
  std::uint32_t group;  ///< topology-group iteration the span belongs to
  std::int32_t parent;  ///< index of the enclosing span, -1 for roots
  std::int64_t start_ns;
  std::int64_t end_ns;
  double dur_ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class SpanLog {
 public:
  SpanLog() : origin_{Clock::now()} {}

  std::size_t begin(const char* name, std::uint32_t group) {
    const auto parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
    spans_.push_back(Span{name, group, parent, now_ns(), 0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  /// Spans close in LIFO order (Scope guarantees it, on unwinding too).
  void end(std::size_t idx) {
    spans_[idx].end_ns = now_ns();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of each span minus the part covered by its direct children.
  std::vector<double> self_ms() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_ms();
    for (const auto& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_ms();
    }
    return self;
  }

  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"group\":%" PRIu32 ",\"parent\":%" PRId32 "}}%s\n",
                   s.name, static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.group, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span guard.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint32_t group)
      : log_{log}, idx_{log.begin(name, group)} {}
  ~Scope() { log_.end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::size_t index() const { return idx_; }

 private:
  SpanLog& log_;
  std::size_t idx_;
};

// ---------------------------------------------------------------------------
// Inputs.

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Input {
  topo::Graph graph;
  std::uint64_t net_seed;
  std::uint64_t digest;  ///< identity stamped into this topology's snapshots
};

constexpr double kGrid = 1000.0;

Input make_input(const Workload& w, std::uint64_t seed, std::size_t index) {
  const std::uint64_t base = splitmix64(seed * 0x100000001B3ull + index);
  sim::Rng rng{base};
  auto degrees = topo::skewed_sequence(w.n, topo::SkewSpec::s70_30(), rng);
  auto g = topo::realize_degree_sequence(std::move(degrees), rng);
  g.place_randomly(kGrid, kGrid, rng);
  return Input{std::move(g), splitmix64(base ^ 0x5eedull), splitmix64(base ^ 0xd16e57ull)};
}

bool same_input(const Input& a, const Input& b) {
  if (a.net_seed != b.net_seed || a.digest != b.digest || a.graph.edges() != b.graph.edges()) {
    return false;
  }
  for (topo::NodeId v = 0; v < a.graph.size(); ++v) {
    const auto pa = a.graph.position(v);
    const auto pb = b.graph.position(v);
    if (pa.x != pb.x || pa.y != pb.y) return false;
  }
  return true;
}

struct Net {
  std::unique_ptr<bgp::Network> net;
  std::shared_ptr<schemes::DynamicMrai> dynamic;  ///< set for the dynamic scheme
};

Net build_network(const Workload& w, const Input& in) {
  bgp::BgpConfig cfg;  // the paper's defaults: 25 ms links, U(1,30) ms CPU
  if (w.schemes) cfg.queue = bgp::QueueDiscipline::kBatched;
  Net out;
  std::shared_ptr<bgp::MraiController> mrai;
  if (w.schemes) {
    out.dynamic = std::make_shared<schemes::DynamicMrai>(schemes::DynamicMraiParams{});
    mrai = out.dynamic;
  } else {
    mrai = std::make_shared<bgp::FixedMrai>(sim::SimTime::seconds(w.mrai_s));
  }
  out.net = std::make_unique<bgp::Network>(in.graph, cfg, std::move(mrai), in.net_seed);
  return out;
}

// ---------------------------------------------------------------------------
// Checks.

/// Independent equilibrium oracle for policy-free flat networks with
/// shortest-AS-path selection: at quiescence every surviving router's route
/// to a prefix whose origin it can still reach is exactly as long as the BFS
/// distance over surviving routers, arrives from a surviving neighbour one
/// hop closer, and ends at the origin; unreachable prefixes have no route.
/// Folds every selected route into `digest`.
std::optional<std::string> check_equilibrium(const bgp::Network& net, const topo::Graph& g,
                                             std::uint64_t& digest) {
  const std::size_t n = g.size();
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(n);
  std::vector<topo::NodeId> frontier;
  std::vector<topo::NodeId> next;
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (topo::NodeId origin = 0; origin < n; ++origin) {
    std::fill(dist.begin(), dist.end(), kInf);
    if (net.router(origin).alive()) {
      dist[origin] = 0;
      frontier.assign(1, origin);
      for (std::uint32_t d = 1; !frontier.empty(); ++d) {
        next.clear();
        for (const topo::NodeId u : frontier) {
          for (const topo::NodeId v : g.neighbors(u)) {
            if (dist[v] == kInf && net.router(v).alive()) {
              dist[v] = d;
              next.push_back(v);
            }
          }
        }
        frontier.swap(next);
      }
    }
    const bgp::Prefix p = origin;  // one prefix per AS, numbered by its origin
    for (topo::NodeId v = 0; v < n; ++v) {
      const auto& r = net.router(v);
      if (!r.alive()) continue;
      const auto best = r.best(p);
      auto where = [&](const char* what) {
        return "router " + std::to_string(v) + " prefix " + std::to_string(p) + ": " + what;
      };
      if (dist[v] == kInf) {
        if (best) return where("route to an unreachable origin");
        continue;
      }
      if (!best) return where("no route to a reachable origin");
      if (v == origin) {
        if (!best->local) return where("origin lost its local route");
        continue;
      }
      const auto& hops = best->path.hops();
      if (hops.size() != dist[v]) return where("route longer than the shortest path");
      if (hops.front() != best->learned_from || hops.back() != origin) {
        return where("path does not run from the next hop to the origin");
      }
      if (!g.has_edge(v, best->learned_from) || dist[best->learned_from] != dist[v] - 1) {
        return where("next hop is not a neighbour one hop closer");
      }
      fold((std::uint64_t{v} << 32) | p);
      for (const auto as : hops) fold(as);
    }
  }
  digest = h;
  return std::nullopt;
}

/// What a run must reproduce exactly when its topology is revisited.
struct Signature {
  std::uint64_t events = 0;
  std::uint64_t updates = 0;
  std::int64_t last_change_ns = 0;
  std::uint64_t rib_digest = 0;
  bool operator==(const Signature&) const = default;
};

// ---------------------------------------------------------------------------
// Measurement.

struct GroupStats {  // one cold convergence
  std::uint32_t iter = 0;
  double converge_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t distinct_paths = 0;    ///< serial engine only
  std::uint64_t path_table_bytes = 0;  ///< serial engine only
  std::uint64_t rib_bytes = 0;
  std::uint64_t routes = 0;
  std::uint64_t checkpoint_bytes = 0;  ///< serial engine only
};

struct RunStats {  // one failure scenario, counters from the program
  std::uint32_t iter = 0;
  double loop_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t messages_processed = 0;
  std::uint64_t batch_dropped = 0;
  std::uint64_t rib_changes = 0;
  std::uint64_t level_ups = 0;
  std::uint64_t pool_slots = 0;
  std::array<std::uint64_t, bgp::TraceEvent::kNumKinds> trace{};
  std::uint64_t batch_items = 0;  ///< sum of traced batch sizes
  // Partitioned engine, whole run (cold start and failure), traced runs only.
  std::uint64_t windows = 0;
  double imbalance = 0.0;
  double barrier_overhead = 0.0;
  std::uint64_t mailbox_msgs = 0;
  std::uint64_t mailbox_bytes = 0;
  std::uint64_t reinterned = 0;
};

/// Trace sink that counts per kind and sums batch sizes (the input queue's
/// work per processing step). Serves both engines: the serial one calls the
/// plain interface, the partitioned one each partition's own shard, so no
/// two threads touch the same cache line.
class LayerSink final : public bgp::TraceSink, public bgp::ShardedTraceSink {
 public:
  explicit LayerSink(std::size_t partitions) : shards_(std::max<std::size_t>(1, partitions)) {}

  void on_event(const bgp::TraceEvent& e) override { add(shards_[0], e); }
  void on_event(std::size_t partition, const bgp::TraceEvent& e,
                const bgp::TraceOrder& /*order*/) override {
    add(shards_[partition], e);
  }

  void attach(bgp::Network& net) {
    if (net.parallel()) {
      net.set_sharded_trace_sink(this);
    } else {
      net.set_trace_sink(this);
    }
  }
  static void detach(bgp::Network& net) {
    net.set_trace_sink(nullptr);
    net.set_sharded_trace_sink(nullptr);
  }

  void add_to(RunStats& rs) const {
    for (const auto& s : shards_) {
      for (std::size_t k = 0; k < s.counts.size(); ++k) rs.trace[k] += s.counts[k];
      rs.batch_items += s.batch_items;
    }
  }

 private:
  struct alignas(64) Shard {
    std::array<std::uint64_t, bgp::TraceEvent::kNumKinds> counts{};
    std::uint64_t batch_items = 0;
  };
  static void add(Shard& s, const bgp::TraceEvent& e) {
    ++s.counts[static_cast<std::size_t>(e.kind)];
    if (e.kind == bgp::TraceEvent::Kind::kBatchProcessed) s.batch_items += e.batch_size;
  }
  std::vector<Shard> shards_;
};

class Bench {
 public:
  Bench(const Workload& workload, std::uint64_t seed, bool traced)
      : w{workload}, seed_{seed}, trace_{traced} {}

  const Workload& w;
  SpanLog log;
  std::vector<GroupStats> groups;  ///< measured groups
  std::vector<RunStats> runs;      ///< measured runs that passed every check
  std::uint64_t attempted = 0;     ///< failure runs, warm-up included
  std::uint64_t failed = 0;
  std::string first_error;

  /// Generates the topology pool from the seed (one set-up repetition). The
  /// first call keeps the pool; later calls must reproduce it exactly.
  void set_up(std::uint32_t iter) {
    std::vector<Input> fresh;
    fresh.reserve(w.pool);
    {
      Scope s{log, "setup", iter};
      for (std::size_t i = 0; i < w.pool; ++i) {
        Scope t{log, "topo_gen", iter};
        fresh.push_back(make_input(w, seed_, i));
      }
    }
    if (pool_.empty()) {
      pool_ = std::move(fresh);
      return;
    }
    for (std::size_t i = 0; i < w.pool; ++i) {
      if (!same_input(pool_[i], fresh[i])) {
        ++failed;
        note("set-up generated a different topology " + std::to_string(i));
        return;
      }
    }
  }

  std::size_t pool_size() const { return pool_.size(); }

  /// One topology group: every failure size on one topology. `threads` 0
  /// runs the serial engine warm from one snapshot, otherwise each failure
  /// runs cold on the partitioned engine. `measured` false = warm-up (its
  /// results are checked but not reported).
  void run_group(std::size_t index, std::uint32_t iter, bool measured, std::size_t threads) {
    Scope group{log, "group", iter};
    if (threads != 0) {
      for (std::size_t fi = 0; fi < w.failures.size(); ++fi) {
        guarded([&] { cold_run(index, fi, iter, measured, threads); });
      }
      return;
    }
    bgp::Checkpoint ck;
    std::string snapshot;
    try {
      converge_and_snapshot(index, iter, measured, ck, snapshot);
    } catch (const std::exception& e) {
      attempted += w.failures.size();
      failed += w.failures.size();
      note(std::string{"cold start: "} + e.what());
      return;
    }
    for (std::size_t fi = 0; fi < w.failures.size(); ++fi) {
      guarded([&] { warm_run(index, fi, iter, ck, snapshot, measured); });
    }
  }

 private:
  void note(const std::string& why) {
    if (first_error.empty()) first_error = why;
  }

  /// Counts one attempted failure run and turns an exception into a failure.
  template <typename F>
  void guarded(F run) {
    ++attempted;
    try {
      run();
    } catch (const std::exception& e) {
      ++failed;
      note(std::string{"exception: "} + e.what());
    }
  }

  /// Cold-start convergence of a freshly built network; records the group's
  /// stats when measured and returns the initial convergence time.
  double converge(Net& net, std::uint32_t iter, bool measured) {
    LayerSink sink{net.net->par_threads()};
    if (trace_) sink.attach(*net.net);
    GroupStats gs;
    gs.iter = iter;
    double init_conv = 0.0;
    std::size_t span = 0;
    {
      Scope s{log, "converge", iter};
      span = s.index();
      net.net->start();
      init_conv = net.net->run_to_quiescence().to_seconds();
    }
    gs.converge_ms = log.spans()[span].dur_ms();
    LayerSink::detach(*net.net);
    // The paper's dynamic scheme starts the failure at the lowest level.
    if (net.dynamic) net.dynamic->reset();
    if (!measured) return init_conv;
    const bgp::Network& n = *net.net;
    gs.events = n.executed_events();
    if (!n.parallel()) {  // partition path tables are internal to the engine
      gs.distinct_paths = n.paths().size();
      gs.path_table_bytes = n.paths().memory_bytes();
    }
    for (bgp::NodeId v = 0; v < n.size(); ++v) {
      const auto st = n.router(v).storage_stats();
      gs.rib_bytes += st.rib_bytes;
      gs.routes += st.loc_rib_routes + st.adj_in_routes + st.adj_out_routes;
    }
    groups.push_back(gs);
    return init_conv;
  }

  /// Serial engine: cold convergence, then the snapshot every failure run of
  /// the group restores from -- captured, encoded (the bytes a checkpoint
  /// file holds and the round-trip check compares) and decoded once.
  void converge_and_snapshot(std::size_t index, std::uint32_t iter, bool measured,
                             bgp::Checkpoint& ck, std::string& snapshot) {
    const Input& in = pool_[index];
    Net cold;
    {
      Scope s{log, "net_build", iter};
      cold = build_network(w, in);
    }
    const double init_conv = converge(cold, iter, measured);
    Scope snap{log, "snapshot", iter};
    {
      Scope s{log, "ckpt_capture", iter};
      ck = bgp::capture_checkpoint(*cold.net, in.digest, init_conv);
    }
    {
      Scope s{log, "ckpt_encode", iter};
      snapshot = bgp::encode_checkpoint(ck);
    }
    {
      Scope s{log, "ckpt_decode", iter};
      ck = bgp::decode_checkpoint(snapshot);
    }
    if (measured) groups.back().checkpoint_bytes = snapshot.size();
  }

  /// Serial engine: a failure run warm-started from the group's snapshot,
  /// as run_experiment_from does.
  void warm_run(std::size_t index, std::size_t fi, std::uint32_t iter, const bgp::Checkpoint& ck,
                const std::string& snapshot, bool measured) {
    const Input& in = pool_[index];
    Scope run{log, "run", iter};
    Net warm;
    {
      Scope p{log, "prepare", iter};
      {
        Scope s{log, "net_build", iter};
        warm = build_network(w, in);
      }
      Scope s{log, "ckpt_restore", iter};
      bgp::restore_checkpoint(*warm.net, ck, in.digest);
    }
    {
      // Restoring and re-capturing must reproduce the snapshot byte for byte.
      Scope s{log, "check", iter};
      const auto again = bgp::capture_checkpoint(*warm.net, in.digest, ck.initial_convergence_s);
      if (bgp::encode_checkpoint(again) != snapshot) {
        ++failed;
        note("checkpoint round trip changed the state");
        return;
      }
    }
    fail_and_check(warm, index, fi, iter, measured);
  }

  /// Partitioned engine: a failure run from a cold start, as run_experiment
  /// does with par_threads set.
  void cold_run(std::size_t index, std::size_t fi, std::uint32_t iter, bool measured,
                std::size_t threads) {
    const Input& in = pool_[index];
    Scope run{log, "run", iter};
    Net net;
    {
      Scope p{log, "prepare", iter};
      {
        Scope s{log, "net_build", iter};
        net = build_network(w, in);
      }
      Scope s{log, "partition", iter};
      net.net->enable_parallel(threads);
    }
    if (trace_) net.net->enable_par_profile();
    converge(net, iter, measured);
    fail_and_check(net, index, fi, iter, measured);
  }

  /// Fails the region, re-converges, audits and checks a converged network.
  void fail_and_check(Net& ready, std::size_t index, std::size_t fi, std::uint32_t iter,
                      bool measured) {
    const Input& in = pool_[index];
    auto& net = *ready.net;
    LayerSink sink{net.par_threads()};
    if (trace_) sink.attach(net);
    const bgp::NetMetrics before = net.metrics();
    const std::uint64_t events_before = net.executed_events();
    const std::uint64_t ups_before = ready.dynamic ? ready.dynamic->ups() : 0;

    std::vector<bgp::NodeId> victims;
    {
      Scope s{log, "failure_select", iter};
      victims = failure::geographic_fraction(net.positions(), w.failures[fi],
                                             topo::Point{kGrid / 2.0, kGrid / 2.0});
    }
    // Injected the way the harness does (experiment.cpp finish_run): as a
    // scheduled event on the serial engine; directly after aligning every
    // partition clock on the partitioned one.
    const sim::SimTime t_fail = net.now() + sim::SimTime::seconds(1.0);
    std::size_t loop_span = 0;
    {
      Scope f{log, "failure", iter};
      {
        Scope s{log, "fail_inject", iter};
        if (net.parallel()) {
          net.advance_all(t_fail);
          net.fail_nodes(victims);
        } else {
          net.scheduler().schedule_at(t_fail, [&net, &victims] { net.fail_nodes(victims); });
        }
      }
      Scope s{log, "failure_loop", iter};
      loop_span = s.index();
      net.run_to_quiescence();
    }
    std::optional<std::string> audit;
    {
      Scope s{log, "audit", iter};
      audit = harness::audit_routes(net);
    }
    LayerSink::detach(net);

    Scope check{log, "check", iter};
    const std::string where = "topology " + std::to_string(index) + " failure " +
                              std::to_string(w.failures[fi]) + ": ";
    if (audit) {
      ++failed;
      note(where + "route audit: " + *audit);
      return;
    }
    Signature sig;
    if (auto err = check_equilibrium(net, in.graph, sig.rib_digest)) {
      ++failed;
      note(where + "equilibrium oracle: " + *err);
      return;
    }
    const auto& m = net.metrics();
    sig.events = net.executed_events();
    sig.updates = m.updates_sent;
    sig.last_change_ns = m.last_rib_change.ns();
    if (m.last_rib_change <= t_fail) {
      ++failed;
      note(where + "the failure changed no route");
      return;
    }
    const auto [it, first_visit] = seen_.emplace(std::make_pair(index, fi), sig);
    if (!first_visit && !(it->second == sig)) {
      ++failed;
      note(where + "a revisit gave a different result");
      return;
    }
    if (!measured) return;

    RunStats rs;
    rs.iter = iter;
    rs.loop_ms = log.spans()[loop_span].dur_ms();
    rs.events = net.executed_events() - events_before;
    rs.updates_sent = m.updates_sent - before.updates_sent;
    rs.messages_processed = m.messages_processed - before.messages_processed;
    rs.batch_dropped = m.batch_dropped - before.batch_dropped;
    rs.rib_changes = m.rib_changes - before.rib_changes;
    rs.level_ups = ready.dynamic ? ready.dynamic->ups() - ups_before : 0;
    rs.pool_slots = net.parallel() ? 0 : net.scheduler().pool_slots();
    sink.add_to(rs);
    if (net.parallel() && net.par_profile_enabled()) {
      const bgp::ParProfile& prof = net.par_profile();
      rs.windows = prof.windows();
      rs.imbalance = prof.imbalance_factor();
      rs.barrier_overhead = prof.barrier_overhead_fraction();
      for (const auto v : prof.mailbox_msgs) rs.mailbox_msgs += v;
      for (const auto v : prof.mailbox_bytes) rs.mailbox_bytes += v;
      for (const auto v : prof.reinterned) rs.reinterned += v;
    }
    runs.push_back(rs);
  }

  std::uint64_t seed_;
  bool trace_;
  std::vector<Input> pool_;
  std::map<std::pair<std::size_t, std::size_t>, Signature> seen_;
};

// ---------------------------------------------------------------------------
// Reporting.

/// The q-quantile (0 <= q <= 1) by nearest rank; 0 for no samples.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[rank];
}

/// Mean of the samples between the 10th and 90th percentiles. Drops the few
/// runs a load burst hit, like a median, but moves smoothly where per-run
/// cost is bimodal across topologies -- the route audit at 240 routers takes
/// either about 10 ms or 15-19 ms, repeatably per network -- where a median
/// jumps between the modes from seed to seed.
double trimmed_mean(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t cut = xs.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < xs.size() - cut; ++i) sum += xs[i];
  return sum / static_cast<double>(xs.size() - 2 * cut);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

template <typename T, typename F>
double mean_of(const std::vector<T>& xs, F field) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const auto& x : xs) s += static_cast<double>(field(x));
  return s / static_cast<double>(xs.size());
}

template <typename T, typename F>
double median_of(const std::vector<T>& xs, F field) {
  std::vector<double> v;
  v.reserve(xs.size());
  for (const auto& x : xs) v.push_back(static_cast<double>(field(x)));
  return median(std::move(v));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Host-speed probe: a fixed synthetic event loop shaped like the simulator
/// but sharing no code with it. Events pop from a binary heap; each lowers
/// one destination's distance at its node's neighbours in a fixed random
/// graph and schedules the neighbours it improved. Its tables, about 6 MiB,
/// outgrow a core's private cache as the simulator's do. Probes doing
/// random read-modify-writes over one table tracked the host's swings worse
/// (perfbench/README.md).
class HostProbe {
 public:
  /// Probe time on the reference host (4-vCPU Xeon VM, 2 MiB L2 per core);
  /// scaled end-to-end timings read as if measured there.
  static constexpr double kNominalMs = 12.0;

  HostProbe() : adj_(std::size_t{kNodes} * kDegree), dist_(std::size_t{kNodes} * kDests) {
    std::uint64_t x = 42;
    for (auto& a : adj_) a = static_cast<std::uint32_t>((x = splitmix64(x)) % kNodes);
    // Room for every push a sample can make, written now so that all of the
    // probe's memory is resident from the start (see footprint_bytes).
    heap_.resize(kDests + std::size_t{kEvents} * kDegree);
  }

  double sample_ms() {
    std::fill(dist_.begin(), dist_.end(), kUnreached);  // untimed reset
    heap_.clear();
    const auto t0 = Clock::now();
    for (std::uint32_t d = 0; d < kDests; ++d) {
      const std::uint32_t origin = (d * 2654435761u) % kNodes;
      dist_[std::size_t{origin} * kDests + d] = 0;
      push({d, origin * kDests + d});
    }
    for (std::uint32_t e = 0; e < kEvents && !heap_.empty(); ++e) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const auto [t, slot] = heap_.back();
      heap_.pop_back();
      const std::uint32_t v = slot / kDests;
      const std::uint32_t d = slot % kDests;
      const auto next = static_cast<std::uint16_t>(dist_[slot] + 1);
      for (std::uint32_t k = 0; k < kDegree; ++k) {
        const std::uint32_t u = adj_[std::size_t{v} * kDegree + k];
        auto& du = dist_[std::size_t{u} * kDests + d];
        if (du > next) {
          du = next;
          push({t + 1 + (splitmix64(t ^ u) & 1023), u * kDests + d});
        }
      }
    }
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  }

  /// Resident bytes the probe adds to the process.
  std::size_t footprint_bytes() const {
    return adj_.size() * sizeof(adj_[0]) + dist_.size() * sizeof(dist_[0]) +
           heap_.capacity() * sizeof(Event);
  }

 private:
  using Event = std::pair<std::uint64_t, std::uint32_t>;  ///< (time, node * kDests + dest)
  static constexpr std::uint32_t kNodes = 16384;
  static constexpr std::uint32_t kDegree = 8;
  static constexpr std::uint32_t kDests = 64;
  static constexpr std::uint32_t kEvents = 30000;
  static constexpr std::uint16_t kUnreached = 0xFFFF;

  void push(Event e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  std::vector<std::uint32_t> adj_;
  std::vector<std::uint16_t> dist_;
  std::vector<Event> heap_;
};

/// Peak resident set of the process (VmHWM), in bytes.
double peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib * 1024.0;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

/// `speed[iter]` is HostProbe::kNominalMs over the probe time around group
/// `iter`; `dur` holds span durations already multiplied by it.
std::vector<Metric> end_to_end(const Bench& b, const std::vector<double>& speed,
                               std::map<std::string, std::vector<double>>& dur) {
  std::vector<double> cold_rate;
  double routes = 0.0;
  double route_bytes = 0.0;
  for (const auto& g : b.groups) {
    cold_rate.push_back(ratio(static_cast<double>(g.events), g.converge_ms * 1e-3 * speed[g.iter]));
    routes += static_cast<double>(g.routes);
    route_bytes += static_cast<double>(g.rib_bytes + g.path_table_bytes);
  }
  std::vector<double> fail_rate;
  for (const auto& r : b.runs) {
    fail_rate.push_back(ratio(static_cast<double>(r.events), r.loop_ms * 1e-3 * speed[r.iter]));
  }
  return {
      {"converge_events_per_s", trimmed_mean(cold_rate), "1/s"},
      {"failure_events_per_s", trimmed_mean(fail_rate), "1/s"},
      {"prepare_ms", trimmed_mean(dur["prepare"]), "ms"},
      {"bytes_per_route", ratio(route_bytes, routes), "B"},
      {"setup_s", median(dur["setup"]) * 1e-3, "s"},
  };
}

/// `self` holds span self times, `dur` whole span durations, both raw;
/// `rss_mib` is the process's peak resident set without the host probe.
std::vector<Metric> per_layer(const Bench& b, std::map<std::string, std::vector<double>>& self,
                              std::map<std::string, std::vector<double>>& dur, double rss_mib) {
  using K = bgp::TraceEvent::Kind;
  auto traced = [](K k) {
    return [k](const RunStats& r) { return r.trace[static_cast<std::size_t>(k)]; };
  };
  const auto& runs = b.runs;
  const auto& groups = b.groups;
  const double received = mean_of(runs, traced(K::kUpdateReceived));
  const double processed = mean_of(runs, [](const RunStats& r) { return r.messages_processed; });
  const double batches = mean_of(runs, traced(K::kBatchProcessed));
  const double dropped = mean_of(runs, [](const RunStats& r) { return r.batch_dropped; });
  const double changes = mean_of(runs, [](const RunStats& r) { return r.rib_changes; });
  double cold_ms = 0.0;
  double cold_events = 0.0;
  for (const auto& g : groups) {
    cold_ms += g.converge_ms;
    cold_events += static_cast<double>(g.events);
  }
  double fail_ms = 0.0;
  double fail_events = 0.0;
  double trace_events = 0.0;
  for (const auto& r : runs) {
    fail_ms += r.loop_ms;
    fail_events += static_cast<double>(r.events);
    for (const auto c : r.trace) trace_events += static_cast<double>(c);
  }
  return {
      // Wall-clock self time per call into each layer (median, ms).
      {"topo_gen_ms", median(self["topo_gen"]), "ms"},
      {"net_build_ms", median(self["net_build"]), "ms"},
      {"partition_ms", median(self["partition"]), "ms"},
      {"cold_loop_ms", median(self["converge"]), "ms"},
      {"ckpt_capture_ms", median(self["ckpt_capture"]), "ms"},
      {"ckpt_encode_ms", median(self["ckpt_encode"]), "ms"},
      {"ckpt_decode_ms", median(self["ckpt_decode"]), "ms"},
      {"ckpt_restore_ms", median(self["ckpt_restore"]), "ms"},
      {"failure_select_ms", median(self["failure_select"]), "ms"},
      {"fail_inject_ms", median(self["fail_inject"]), "ms"},
      {"failure_loop_ms", median(self["failure_loop"]), "ms"},
      {"audit_self_ms", median(self["audit"]), "ms"},
      // Tails of the per-run timings, with the sample counts behind them.
      {"failure_loop_p90_ms", quantile(dur["failure_loop"], 0.9), "ms"},
      {"prepare_p90_ms", quantile(dur["prepare"], 0.9), "ms"},
      {"audit_p90_ms", quantile(dur["audit"], 0.9), "ms"},
      {"runs_measured", static_cast<double>(runs.size()), "count"},
      {"groups_measured", static_cast<double>(groups.size()), "count"},
      // Event loop (sim scheduler driving the bgp routers).
      {"cold_ns_per_event", ratio(cold_ms * 1e6, cold_events), "ns"},
      {"failure_ns_per_event", ratio(fail_ms * 1e6, fail_events), "ns"},
      {"cold_events", cold_events / static_cast<double>(std::max<std::size_t>(1, groups.size())),
       "count"},
      {"failure_events", mean_of(runs, [](const RunStats& r) { return r.events; }), "count"},
      {"sched_pool_slots", mean_of(runs, [](const RunStats& r) { return r.pool_slots; }), "count"},
      // Router input queue and decision process, per failure run.
      {"updates_sent", mean_of(runs, [](const RunStats& r) { return r.updates_sent; }), "count"},
      {"updates_received", received, "count"},
      {"messages_processed", processed, "count"},
      {"batch_dropped", dropped, "count"},
      {"stale_drop_ratio", ratio(dropped, received), "ratio"},
      {"batches", batches, "count"},
      {"mean_batch_size", ratio(mean_of(runs, [](const RunStats& r) { return r.batch_items; }),
                                batches),
       "count"},
      {"rib_changes", changes, "count"},
      {"decision_yield", ratio(changes, processed), "ratio"},
      // MRAI timers and the dynamic-MRAI controller.
      {"mrai_starts", mean_of(runs, traced(K::kMraiStarted)), "count"},
      {"mrai_level_ups", mean_of(runs, [](const RunStats& r) { return r.level_ups; }), "count"},
      // Partitioned engine, per run (cold start plus failure): window
      // barriers and the cross-partition mailbox drain.
      {"par_windows", median_of(runs, [](const RunStats& r) { return r.windows; }), "count"},
      {"par_imbalance", median_of(runs, [](const RunStats& r) { return r.imbalance; }), "ratio"},
      {"par_barrier_overhead",
       median_of(runs, [](const RunStats& r) { return r.barrier_overhead; }), "ratio"},
      {"mailbox_msgs", mean_of(runs, [](const RunStats& r) { return r.mailbox_msgs; }), "count"},
      {"mailbox_kib",
       mean_of(runs, [](const RunStats& r) { return r.mailbox_bytes; }) / 1024.0, "KiB"},
      {"reinterned_paths", mean_of(runs, [](const RunStats& r) { return r.reinterned; }),
       "count"},
      // Path table, RIB storage and checkpoint size after cold convergence.
      {"distinct_paths", mean_of(groups, [](const GroupStats& g) { return g.distinct_paths; }),
       "count"},
      {"path_table_kib",
       mean_of(groups, [](const GroupStats& g) { return g.path_table_bytes; }) / 1024.0, "KiB"},
      {"rib_kib", mean_of(groups, [](const GroupStats& g) { return g.rib_bytes; }) / 1024.0,
       "KiB"},
      {"checkpoint_kib",
       mean_of(groups, [](const GroupStats& g) { return g.checkpoint_bytes; }) / 1024.0, "KiB"},
      {"peak_rss_mib", rss_mib, "MiB"},
      // Trace sink (obs).
      {"trace_events", ratio(trace_events, static_cast<double>(runs.size())), "count"},
  };
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name, metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\nworkloads:",
               msg.c_str());
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || s[0] == '-') {
    usage(std::string{"bad "} + what + " value '" + s + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload = nullptr;
  std::optional<std::uint64_t> seed;
  std::uint64_t seconds = 0;
  bool trace = false;
  std::string spans_path;
  if (argc % 2 == 0) usage("arguments come in --flag value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = parse_u64(val, "--seed");
    } else if (flag == "--seconds") {
      seconds = parse_u64(val, "--seconds");
    } else if (flag == "--trace") {
      const auto t = parse_u64(val, "--trace");
      if (t > 1) usage("--trace must be 0 or 1");
      trace = t == 1;
    } else if (flag == "--spans") {
      spans_path = val;
    } else {
      usage("unknown argument " + flag);
    }
  }
  if (workload == nullptr || !seed || seconds == 0) {
    usage("--workload, --seed and a positive --seconds are required");
  }
  const Workload* wp = nullptr;
  for (const auto& w : workloads()) {
    if (std::strcmp(w.name, workload) == 0) wp = &w;
  }
  if (wp == nullptr) usage(std::string{"unknown workload "} + workload);
  const std::size_t threads = wp->par ? par_threads() : 0;

  Bench b{*wp, *seed, trace};
  // The probe's tables are resident from here on, so they are part of every
  // peak the process reaches and are subtracted from peak_rss_mib exactly.
  HostProbe probe;
  b.set_up(0);

  // Warm-up: one untimed group fills allocator pools and caches; its
  // results become the reference for the measured revisit of topology 0.
  // The partitioned engine warms up at one thread, so that revisit also
  // checks that results do not depend on the thread count.
  b.run_group(0, 0, /*measured=*/false, std::min<std::size_t>(threads, 1));
  const std::size_t first_measured = b.log.spans().size();

  // Measured loop. Set-up is repeated once per group, interleaved with the
  // groups, so its typical time is as robust to load bursts as the others.
  // The host probe runs between groups, outside every span: probes[k] and
  // probes[k + 1] bracket group iteration k + 1 and the set-up after it.
  std::vector<double> probes{probe.sample_ms()};
  const auto t_loop = Clock::now();
  std::uint32_t iter = 1;
  for (std::size_t g = 0;; ++g, ++iter) {
    b.run_group(g % b.pool_size(), iter, /*measured=*/true, threads);
    b.set_up(iter);
    probes.push_back(probe.sample_ms());
    if (std::chrono::duration<double>(Clock::now() - t_loop).count() >=
        static_cast<double>(seconds)) {
      break;
    }
  }
  std::vector<double> speed(probes.size());
  for (std::size_t k = 1; k < probes.size(); ++k) {
    speed[k] = HostProbe::kNominalMs / (0.5 * (probes[k - 1] + probes[k]));
  }

  const auto& spans = b.log.spans();
  const auto self = b.log.self_ms();
  std::map<std::string, std::vector<double>> scaled;
  std::map<std::string, std::vector<double>> raw;
  std::map<std::string, std::vector<double>> self_by;
  for (std::size_t i = first_measured; i < spans.size(); ++i) {
    scaled[spans[i].name].push_back(spans[i].dur_ms() * speed[spans[i].group]);
    raw[spans[i].name].push_back(spans[i].dur_ms());
    self_by[spans[i].name].push_back(self[i]);
  }

  const double rss_mib =
      (peak_rss_bytes() - static_cast<double>(probe.footprint_bytes())) / (1024.0 * 1024.0);
  auto metrics = trace ? per_layer(b, self_by, raw, rss_mib) : end_to_end(b, speed, scaled);
  if (trace) metrics.push_back({"host_probe_ms", median(probes), "ms"});
  if (!spans_path.empty() && !b.log.write_chrome_trace(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
  }

  std::printf("perfbench %s seed=%" PRIu64 " trace=%d threads=%zu: %zu topologies, %zu groups, "
              "%zu runs measured, %" PRIu64 " attempted, %" PRIu64 " failed\n",
              b.w.name, *seed, trace ? 1 : 0, threads, b.pool_size(), b.groups.size(),
              b.runs.size(), b.attempted, b.failed);
  if (!b.first_error.empty()) std::printf("first failure: %s\n", b.first_error.c_str());
  const bool correct = b.failed == 0 && !b.runs.empty();
  print_result(correct, b.attempted, b.failed, metrics);
  return 0;
}
