// End-to-end benchmark harness for ANACIN campaigns.
//
// One process drives one workload through the layers' public functions on
// a fixed ThreadPool. A run is a sequence of whole rounds; each round sets
// the workload up from scratch (timed as setup_s) and then performs a fixed
// number of user-level operations ("ops"), each timed and then checked by
// code in this file, not by the program under test.
//
// With --trace 1 every op is performed twice: once untraced through
// core::run_campaign, and once decomposed into the calls run_campaign makes
// into each layer, with spans recorded here around every call. The spans
// live on a tracer of the harness's own; the program's internal spans stay
// off, so the layer figures are taken from outside the program.
//
// Usage (see README.md; perfbench/run.py builds and runs this):
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --work-dir DIR [--out-dir DIR]
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "graph/event_graph.hpp"
#include "kernels/batch_engine.hpp"
#include "kernels/distance_matrix.hpp"
#include "kernels/kernel.hpp"
#include "kernels/labeled_graph.hpp"
#include "obs/span.hpp"
#include "patterns/pattern.hpp"
#include "proc/executor.hpp"
#include "proc/worker_main.hpp"
#include "proc/worker_pool.hpp"
#include "sim/simulator.hpp"
#include "store/codec.hpp"
#include "store/store.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

using namespace anacin;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// The pool size the benchmark is defined for: half of the 4 CPUs it was
/// tuned on. Each pooled simulation adds its own ranks+1 engine threads.
constexpr std::size_t kPoolSize = 2;
/// Children of the isolated workload's WorkerPool: one per pool worker,
/// since each concurrent execute() caller gets its own child.
constexpr int kWorkerChildren = 2;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User+system CPU seconds of this process plus its reaped children.
double process_cpu_s() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(self.ru_utime) + secs(self.ru_stime) +
         secs(children.ru_utime) + secs(children.ru_stime);
}

/// Peak resident set of this process image. getrusage's ru_maxrss is not
/// used: Linux carries it across execve, so it would report the launcher's
/// peak whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // KiB -> MiB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// The CPUs this process may run on, in order (their count is `nproc`).
std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Confines the calling thread to `cpu`. Threads and processes inherit the
/// mask of the thread that starts them.
void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

/// Pins each pool worker to its own entry of `cpus`. Every worker takes one
/// task and waits until all have one, so no worker takes two.
void pin_pool_workers(ThreadPool& pool, const std::vector<int>& cpus) {
  std::atomic<std::size_t> arrived{0};
  std::atomic<std::size_t> next{0};
  std::vector<std::future<void>> pinned;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pinned.push_back(pool.submit([&] {
      arrived.fetch_add(1);
      while (arrived.load() < pool.size()) std::this_thread::yield();
      pin_to_cpu(cpus[next.fetch_add(1)]);
    }));
  }
  for (std::future<void>& done : pinned) done.get();
}

// ---------------------------------------------------------------------------
// Independent output checks.
// ---------------------------------------------------------------------------

/// Sparse dot product over two id-sorted histograms, written here so the
/// check does not reuse kernels::dot.
double harness_dot(const kernels::SparseHistogram& a,
                   const kernels::SparseHistogram& b) {
  double sum = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.ids.size() && j < b.ids.size()) {
    if (a.ids[i] < b.ids[j]) {
      ++i;
    } else if (b.ids[j] < a.ids[i]) {
      ++j;
    } else {
      sum += a.counts[i++] * b.counts[j++];
    }
  }
  return sum;
}

double harness_distance(const kernels::SparseHistogram& a,
                        const kernels::SparseHistogram& b) {
  const double squared =
      harness_dot(a, a) + harness_dot(b, b) - 2.0 * harness_dot(a, b);
  return std::sqrt(std::max(0.0, squared));
}

bool bit_equal(const std::vector<std::vector<double>>& a,
               const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

bool close_enough(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::max(std::fabs(a),
                                                           std::fabs(b)));
}

/// Collects the first few check failures of one op.
class Checker {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok && errors_.size() < 4) errors_.push_back(what);
    failed_ = failed_ || !ok;
  }
  bool failed() const { return failed_; }
  std::string summary() const {
    std::string text;
    for (const std::string& error : errors_) text += error + "; ";
    return text;
  }

 private:
  bool failed_ = false;
  std::vector<std::string> errors_;
};

kernels::SparseHistogram features_of(const graph::EventGraph& graph,
                                     const std::string& kernel_spec,
                                     kernels::LabelPolicy policy) {
  return kernels::make_kernel(kernel_spec)
      ->features(kernels::build_labeled_graph(graph, policy));
}

// ---------------------------------------------------------------------------
// Layer tracing, recorded by the harness around its own calls.
// ---------------------------------------------------------------------------

/// Work counts of one traced op, kept by the harness at the call sites.
struct OpCounts {
  std::atomic<std::uint64_t> sim_runs{0};
  std::atomic<std::uint64_t> sim_events{0};
  double sim_cpu_s = 0.0;  // process CPU across the simulation stages
  std::atomic<std::uint64_t> graph_nodes{0};
  std::atomic<std::uint64_t> feature_extractions{0};
  std::atomic<std::uint64_t> distances{0};
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> bytes_written{0};
  std::atomic<std::uint64_t> index_bytes_written{0};
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> units{0};
};

/// Spans on a tracer owned by the harness. Span names:
///   "op"           the whole decomposed op (calling thread)
///   "layer.<L>"    one stage of the op that calls only into layer L
///                  (calling thread); their walls plus the op's self time
///                  add up to the op wall
///   "<L>.<call>"   one call into layer L, on whichever thread made it
class LayerTrace {
 public:
  LayerTrace() { tracer_.set_enabled(true); }

  obs::Tracer& tracer() { return tracer_; }
  OpCounts& counts() { return *counts_; }

  template <typename F>
  auto span(const char* name, F&& body) {
    const obs::ScopedSpan scoped(name, tracer_);
    return body();
  }

  void begin_op() { begin_unit(); }
  /// Fold the op just finished into the per-op series.
  void end_op() { end_unit(true); }
  /// A traced set-up holds only store.put spans (the publishes that seed
  /// the round's store); its figures go to the per-set-up series.
  void begin_setup() { begin_unit(); }
  void end_setup() { end_unit(false); }

  std::size_t ops() const { return op_wall_.size(); }
  const std::vector<double>& op_walls() const { return op_wall_; }
  const std::vector<double>& unattributed() const { return unattributed_; }
  /// Median over ops of a per-op total (busy seconds or a count).
  double per_op(const std::string& key) const;
  /// The same over traced set-ups.
  double per_setup(const std::string& key) const;
  /// Median of one call's latency over every span of that name.
  double latency_p50(const std::string& name) const;
  double total(const std::string& key) const;

  /// Per-span-name table: calls, busy and self seconds per op, and for
  /// stages their share of the op wall. Set-up spans are listed per set-up
  /// under "setup:<name>".
  std::string table() const;

 private:
  void begin_unit() {
    counts_ = std::make_unique<OpCounts>();
    first_record_ = tracer_.size();
  }
  void end_unit(bool op);

  obs::Tracer tracer_;
  std::unique_ptr<OpCounts> counts_ = std::make_unique<OpCounts>();
  std::size_t first_record_ = 0;
  std::vector<double> op_wall_;
  std::vector<double> unattributed_;
  std::map<std::string, std::vector<double>> per_op_;
  std::map<std::string, std::vector<double>> per_setup_;
  std::size_t setups_ = 0;
  std::map<std::string, std::vector<double>> latencies_;
  struct Row {
    std::uint64_t calls = 0;
    double busy_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows_;
};

void LayerTrace::end_unit(bool op) {
  const std::vector<obs::SpanRecord> all = tracer_.records();
  std::vector<obs::SpanRecord> records(
      all.begin() + static_cast<std::ptrdiff_t>(first_record_), all.end());

  // Self time: a span's duration minus its direct children on its thread.
  std::vector<double> child_us(records.size(), 0.0);
  std::map<std::uint32_t, std::vector<std::size_t>> by_thread;
  for (std::size_t i = 0; i < records.size(); ++i) {
    by_thread[records[i].tid].push_back(i);
  }
  for (auto& [tid, indexes] : by_thread) {
    std::sort(indexes.begin(), indexes.end(), [&](std::size_t a,
                                                  std::size_t b) {
      if (records[a].start_us != records[b].start_us) {
        return records[a].start_us < records[b].start_us;
      }
      return records[a].depth < records[b].depth;
    });
    std::vector<std::size_t> open;
    for (const std::size_t i : indexes) {
      while (!open.empty() && records[open.back()].depth >= records[i].depth) {
        open.pop_back();
      }
      if (!open.empty()) child_us[open.back()] += records[i].dur_us;
      open.push_back(i);
    }
  }

  std::map<std::string, double> busy;
  double op_wall = 0.0;
  double stage_wall = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const obs::SpanRecord& record = records[i];
    const double dur_s = record.dur_us * 1e-6;
    Row& row = rows_[(op ? "" : "setup:") + record.name];
    row.calls += 1;
    row.busy_s += dur_s;
    row.self_s += (record.dur_us - child_us[i]) * 1e-6;
    busy[record.name] += dur_s;
    latencies_[record.name].push_back(dur_s);
    if (record.name == "op") op_wall = dur_s;
    if (record.name.rfind("layer.", 0) == 0) stage_wall += dur_s;
  }
  if (op) {
    op_wall_.push_back(op_wall);
    unattributed_.push_back(op_wall - stage_wall);
  } else {
    setups_ += 1;
  }

  // Every series gets a value for every unit, so medians are per op (or
  // per set-up).
  auto& series = op ? per_op_ : per_setup_;
  const auto push = [&](const std::string& key, double value) {
    series[key].push_back(value);
  };
  for (const char* name :
       {"sim.run_simulation", "graph.from_trace", "kernels.features",
        "kernels.distance", "store.open", "store.get", "store.decode",
        "store.put", "proc.spawn", "proc.execute"}) {
    push(name, busy[name]);
  }
  const OpCounts& c = *counts_;
  push("sim.runs", static_cast<double>(c.sim_runs.load()));
  push("sim.events", static_cast<double>(c.sim_events.load()));
  push("sim.cpu_s", c.sim_cpu_s);
  push("graph.nodes", static_cast<double>(c.graph_nodes.load()));
  push("kernels.feature_extractions",
       static_cast<double>(c.feature_extractions.load()));
  push("kernels.distances", static_cast<double>(c.distances.load()));
  push("store.puts", static_cast<double>(c.puts.load()));
  push("store.bytes_written", static_cast<double>(c.bytes_written.load()));
  push("store.index_bytes_written",
       static_cast<double>(c.index_bytes_written.load()));
  push("store.gets", static_cast<double>(c.gets.load()));
  push("store.hits", static_cast<double>(c.hits.load()));
  push("proc.units", static_cast<double>(c.units.load()));
}

double LayerTrace::per_op(const std::string& key) const {
  const auto it = per_op_.find(key);
  return it == per_op_.end() ? 0.0 : median(it->second);
}

double LayerTrace::per_setup(const std::string& key) const {
  const auto it = per_setup_.find(key);
  return it == per_setup_.end() ? 0.0 : median(it->second);
}

double LayerTrace::total(const std::string& key) const {
  const auto it = per_op_.find(key);
  if (it == per_op_.end()) return 0.0;
  double sum = 0.0;
  for (const double value : it->second) sum += value;
  return sum;
}

double LayerTrace::latency_p50(const std::string& name) const {
  const auto it = latencies_.find(name);
  return it == latencies_.end() ? 0.0 : median(it->second);
}

std::string LayerTrace::table() const {
  const double per = std::max<double>(1.0, static_cast<double>(ops()));
  double op_total = 0.0;
  for (const double wall : op_wall_) op_total += wall;
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %10s %12s %12s %8s\n", "span",
                "calls/op", "busy_s/op", "self_s/op", "share");
  out << line;
  const double setups = std::max<double>(1.0, static_cast<double>(setups_));
  for (const auto& [name, row] : rows_) {
    const double units = name.rfind("setup:", 0) == 0 ? setups : per;
    std::string share = "";
    if (name.rfind("layer.", 0) == 0 && op_total > 0.0) {
      char text[32];
      std::snprintf(text, sizeof(text), "%.1f%%",
                    100.0 * row.busy_s / op_total);
      share = text;
    } else if (name == "op" && op_total > 0.0) {
      // The op's self time is the part no layer stage covers.
      char text[32];
      std::snprintf(text, sizeof(text), "%.1f%%",
                    100.0 * row.self_s / op_total);
      share = text;
    }
    std::snprintf(line, sizeof(line), "%-28s %10.1f %12.6f %12.6f %8s\n",
                  name.c_str(), static_cast<double>(row.calls) / units,
                  row.busy_s / units, row.self_s / units, share.c_str());
    out << line;
  }
  return out.str();
}

/// Published objects under a store root, and how many of them are runs.
struct ObjectCensus {
  std::uint64_t objects = 0;
  std::uint64_t runs = 0;
};

ObjectCensus census(const fs::path& root) {
  ObjectCensus result;
  for (const auto& entry : fs::recursive_directory_iterator(root / "objects")) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) {
      continue;
    }
    result.objects += 1;
    std::ifstream in(entry.path(), std::ios::binary);
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    try {
      if (store::validate_envelope(bytes).kind == store::Kind::kRun) {
        result.runs += 1;
      }
    } catch (const std::exception&) {
      // Not a valid object: neither a run nor anything the check relies on.
    }
  }
  return result;
}

std::uint64_t file_size_or_zero(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

fs::path object_path(const fs::path& root, const store::Digest& key) {
  const std::string hex = key.to_hex();
  return root / "objects" / hex.substr(0, 2) / hex.substr(2);
}

/// Forwards work units to a real executor and counts and times them from
/// outside: the parent's own metrics registry sees none of the work its
/// worker children do.
class CountingExecutor final : public proc::UnitExecutor {
 public:
  CountingExecutor(proc::UnitExecutor& inner, LayerTrace* trace)
      : inner_(inner), trace_(trace) {}

  json::Value execute(const std::string& unit_id,
                      const json::Value& request) override {
    units_.fetch_add(1, std::memory_order_relaxed);
    if (trace_ == nullptr) return inner_.execute(unit_id, request);
    trace_->counts().units.fetch_add(1, std::memory_order_relaxed);
    return trace_->span("proc.execute",
                        [&] { return inner_.execute(unit_id, request); });
  }

  std::uint64_t units() const { return units_.load(); }

 private:
  proc::UnitExecutor& inner_;
  LayerTrace* trace_;
  std::atomic<std::uint64_t> units_{0};
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Context {
  ThreadPool* pool = nullptr;
  fs::path work_dir;
  std::string worker_exe;
};

/// A workload: `setup` prepares a round (`trace` is set in a traced run),
/// `op` is the timed user-level operation, `traced_op` performs the same
/// work layer by layer under spans, and `check` verifies the output of
/// whichever ran last.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int ops_per_round() const = 0;
  virtual int worker_children() const { return 0; }
  virtual int ranks() const = 0;
  /// Where the threads run. By default each pool worker has a CPU of its
  /// own, which the engine threads of the simulation it runs share, and
  /// the calling thread has a third. A workload whose threads hand off to
  /// each other across the pool runs wholly on one CPU instead.
  virtual bool one_cpu() const { return false; }
  virtual void setup(std::uint64_t round_seed, LayerTrace* trace) = 0;
  /// Untimed, after setup: compute what the checks compare against.
  virtual void prepare_checks() {}
  /// Untimed per-op preparation and cleanup.
  virtual void before_op() {}
  virtual void after_op() {}
  virtual void op() = 0;
  virtual void traced_op(LayerTrace& trace) = 0;
  /// Empty when the output passed every check.
  virtual std::string check() = 0;
};

/// Simulates `configs` on the pool under spans, then builds their graphs in
/// a second stage, mirroring run_campaign's per-run unit. Returns each
/// run's graph and message count.
std::vector<store::EncodedRun> traced_simulate(
    LayerTrace& trace, ThreadPool& pool, const sim::RankProgram& program,
    const std::vector<sim::SimConfig>& configs) {
  std::vector<sim::RunResult> runs(configs.size());
  trace.span("layer.sim", [&] {
    const double cpu_before = process_cpu_s();
    pool.parallel_for(0, configs.size(), [&](std::size_t i) {
      runs[i] = trace.span("sim.run_simulation", [&] {
        return sim::run_simulation(configs[i], program);
      });
      trace.counts().sim_runs.fetch_add(1);
      trace.counts().sim_events.fetch_add(runs[i].trace.total_events());
    });
    trace.counts().sim_cpu_s += process_cpu_s() - cpu_before;
  });
  std::vector<store::EncodedRun> encoded(configs.size());
  trace.span("layer.graph", [&] {
    pool.parallel_for(0, configs.size(), [&](std::size_t i) {
      encoded[i].graph = trace.span("graph.from_trace", [&] {
        return graph::EventGraph::from_trace(runs[i].trace);
      });
      encoded[i].messages = runs[i].stats.messages;
      encoded[i].wildcard_recvs = runs[i].stats.wildcard_recvs;
      trace.counts().graph_nodes.fetch_add(encoded[i].graph.num_nodes());
    });
  });
  return encoded;
}

/// Feature extraction under spans: one kernels.features span per graph.
std::vector<kernels::SparseHistogram> traced_features(
    LayerTrace& trace, ThreadPool& pool, const kernels::GraphKernel& kernel,
    kernels::LabelPolicy policy,
    const std::vector<const graph::EventGraph*>& graphs) {
  std::vector<kernels::SparseHistogram> features(graphs.size());
  trace.span("layer.kernels.features", [&] {
    pool.parallel_for(0, graphs.size(), [&](std::size_t i) {
      features[i] = trace.span("kernels.features", [&] {
        return kernel.features(kernels::build_labeled_graph(*graphs[i], policy));
      });
      trace.counts().feature_extractions.fetch_add(1);
    });
  });
  return features;
}

/// Opens an artifact store under a span.
std::unique_ptr<store::ArtifactStore> traced_open(LayerTrace& trace,
                                                  const fs::path& root) {
  return trace.span("layer.store", [&] {
    return trace.span("store.open", [&] {
      return std::make_unique<store::ArtifactStore>(
          store::ObjectStore::Config{root});
    });
  });
}

/// Loads runs from a store under spans: the object read and the decode are
/// timed apart.
std::vector<store::EncodedRun> traced_load_runs(
    LayerTrace& trace, ThreadPool& pool, store::ArtifactStore& artifacts,
    const std::vector<store::Digest>& keys) {
  std::vector<store::EncodedRun> runs(keys.size());
  trace.span("layer.store", [&] {
    pool.parallel_for(0, keys.size(), [&](std::size_t i) {
      const store::ObjectBytes bytes = trace.span(
          "store.get", [&] { return artifacts.objects().get(keys[i]); });
      trace.counts().gets.fetch_add(1);
      ANACIN_CHECK(bytes != nullptr, "run " << keys[i].to_hex()
                                            << " missing from the store");
      trace.counts().hits.fetch_add(1);
      runs[i] = trace.span("store.decode",
                           [&] { return store::decode_run(*bytes); });
    });
  });
  return runs;
}

/// Publishes through `save` under a store.put span and accounts the object
/// and the index.json rewrite it causes.
template <typename Save>
void traced_put(LayerTrace& trace, store::ArtifactStore& artifacts,
                const store::Digest& key, Save&& save) {
  trace.span("store.put", save);
  const fs::path& root = artifacts.objects().root();
  OpCounts& counts = trace.counts();
  counts.puts.fetch_add(1);
  counts.bytes_written.fetch_add(file_size_or_zero(object_path(root, key)));
  counts.index_bytes_written.fetch_add(file_size_or_zero(root / "index.json"));
}

// --- amg_measure_cold -------------------------------------------------------

/// The course's basic "measure ND%" action without a store: AMG2013,
/// 8 ranks, 10 runs, wl:2 distances to the jitter-free reference. The
/// reference memo is warmed in setup, so an op is 10 simulations plus the
/// kernel measurement. 8 rather than 16 ranks: with 17 engine threads per
/// simulation, and before the pool was pinned, the op's median moved by up
/// to 3x with the host's load.
class AmgMeasureCold final : public Workload {
 public:
  explicit AmgMeasureCold(Context context) : ctx_(std::move(context)) {
    config_.pattern = "amg2013";
    config_.shape.num_ranks = 8;
    config_.num_runs = 10;
    config_.kernel = "wl:2";
    config_.reduction = analysis::DistanceReduction::kToReference;
  }

  int ops_per_round() const override { return 20; }
  int ranks() const override { return config_.shape.num_ranks; }

  void setup(std::uint64_t round_seed, LayerTrace*) override {
    config_.base_seed = round_seed;
    core::CampaignConfig warm = config_;
    warm.num_runs = 1;
    reference_ = core::run_campaign(warm, *ctx_.pool, nullptr).reference;
  }

  void op() override {
    core::CampaignResult result =
        core::run_campaign(config_, *ctx_.pool, nullptr);
    graphs_ = std::move(result.graphs);
    distances_ = std::move(result.measurement.distances);
    total_messages_ = result.total_messages;
  }

  void traced_op(LayerTrace& trace) override {
    trace.begin_op();
    trace.span("op", [&] {
      const auto pattern = patterns::make_pattern(config_.pattern);
      const sim::RankProgram program = pattern->program(config_.shape);
      std::vector<sim::SimConfig> configs;
      for (int i = 0; i < config_.num_runs; ++i) {
        configs.push_back(config_.sim_config_for_run(i));
      }
      std::vector<store::EncodedRun> runs =
          traced_simulate(trace, *ctx_.pool, program, configs);
      graphs_.clear();
      total_messages_ = 0;
      for (store::EncodedRun& run : runs) {
        total_messages_ += run.messages;
        graphs_.push_back(std::move(run.graph));
      }
      const auto kernel = kernels::make_kernel(config_.kernel);
      std::vector<const graph::EventGraph*> inputs;
      for (const graph::EventGraph& graph : graphs_) inputs.push_back(&graph);
      inputs.push_back(&reference_);
      std::vector<kernels::SparseHistogram> features = traced_features(
          trace, *ctx_.pool, *kernel, config_.label_policy, inputs);
      const kernels::SparseHistogram reference = std::move(features.back());
      features.pop_back();
      trace.span("layer.kernels.distance", [&] {
        distances_ = trace.span("kernels.distance", [&] {
          return kernels::batch_distances_to_reference(reference, features,
                                                       *ctx_.pool);
        });
      });
      trace.counts().distances.fetch_add(distances_.size());
    });
    trace.end_op();
  }

  std::string check() override {
    Checker check;
    const auto ranks = static_cast<std::uint64_t>(config_.shape.num_ranks);
    const std::uint64_t per_run = 2 * ranks * (ranks - 1) *
                                  static_cast<std::uint64_t>(
                                      config_.shape.iterations);
    check.expect(graphs_.size() == static_cast<std::size_t>(config_.num_runs),
                 "run count");
    for (const graph::EventGraph& graph : graphs_) {
      check.expect(graph.message_edges().size() == per_run,
                   "AMG messages per run != 2*ranks*(ranks-1)*iterations");
    }
    check.expect(total_messages_ == per_run * graphs_.size(),
                 "campaign message total");
    check.expect(distances_.size() == graphs_.size(), "distance count");
    if (check.failed()) return check.summary();
    const kernels::SparseHistogram reference =
        features_of(reference_, config_.kernel, config_.label_policy);
    for (std::size_t i = 0; i < graphs_.size(); ++i) {
      const double expected = harness_distance(
          reference, features_of(graphs_[i], config_.kernel,
                                 config_.label_policy));
      check.expect(close_enough(distances_[i], expected),
                   "distance " + std::to_string(i) + " differs from the "
                   "harness's recomputation");
    }
    return check.summary();
  }

 private:
  Context ctx_;
  core::CampaignConfig config_;
  graph::EventGraph reference_;
  std::vector<graph::EventGraph> graphs_;
  std::vector<double> distances_;
  std::uint64_t total_messages_ = 0;
};

// --- mesh_rekernel_store ----------------------------------------------------

/// "Re-analyse saved runs with another kernel": a pairwise wl:2 campaign
/// over 16 stored unstructured-mesh runs (16 ranks each). Setup publishes
/// the runs with a vertex_histogram campaign into a template store; every
/// op works on a fresh copy of it, so no wl:2 feature or distance is ever
/// cached.
class MeshRekernelStore final : public Workload {
 public:
  explicit MeshRekernelStore(Context context) : ctx_(std::move(context)) {
    config_.pattern = "unstructured_mesh";
    config_.shape.num_ranks = 16;
    config_.num_runs = 16;
    config_.kernel = "wl:2";
    config_.reduction = analysis::DistanceReduction::kPairwise;
  }

  int ops_per_round() const override { return 10; }
  int ranks() const override { return config_.shape.num_ranks; }

  void setup(std::uint64_t round_seed, LayerTrace*) override {
    config_.base_seed = round_seed;
    template_ = ctx_.work_dir / "mesh-template";
    fs::remove_all(template_);
    core::CampaignConfig seeding = config_;
    seeding.kernel = "vertex_histogram";
    store::ArtifactStore artifacts({template_});
    core::run_campaign(seeding, *ctx_.pool, &artifacts);
    run_keys_.clear();
    for (int i = 0; i < config_.num_runs; ++i) {
      run_keys_.push_back(store::ArtifactStore::run_key(
          config_.pattern, config_.shape, config_.sim_config_for_run(i)));
    }
  }

  void before_op() override {
    op_root_ = ctx_.work_dir / "mesh-op";
    fs::remove_all(op_root_);
    fs::copy(template_, op_root_, fs::copy_options::recursive);
  }

  void after_op() override { fs::remove_all(op_root_); }

  void op() override {
    store::ArtifactStore artifacts({op_root_});
    core::CampaignResult result =
        core::run_campaign(config_, *ctx_.pool, &artifacts);
    message_counts_.clear();
    for (const graph::EventGraph& graph : result.graphs) {
      message_counts_.push_back(graph.message_edges().size());
    }
    distances_ = std::move(result.measurement.distances);
  }

  void traced_op(LayerTrace& trace) override {
    trace.begin_op();
    trace.span("op", [&] {
      std::unique_ptr<store::ArtifactStore> artifacts =
          traced_open(trace, op_root_);
      const std::vector<store::EncodedRun> runs =
          traced_load_runs(trace, *ctx_.pool, *artifacts, run_keys_);
      const std::size_t n = runs.size();
      struct Pair {
        std::size_t a;
        std::size_t b;
        store::Digest key;
      };
      std::vector<Pair> pairs;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          pairs.push_back({i, j,
                           store::ArtifactStore::distance_key(
                               config_.kernel, config_.label_policy,
                               run_keys_[i], run_keys_[j])});
        }
      }
      std::vector<store::Digest> feature_keys;
      for (const store::Digest& run : run_keys_) {
        feature_keys.push_back(store::ArtifactStore::features_key(
            config_.kernel, config_.label_policy, run));
      }
      // The lookups run_campaign makes before computing: every distance
      // (on the calling thread), then every run's histogram.
      trace.span("layer.store", [&] {
        for (const Pair& pair : pairs) {
          const bool hit = trace.span("store.get", [&] {
            return artifacts->load_distance(pair.key).has_value();
          });
          trace.counts().gets.fetch_add(1);
          if (hit) trace.counts().hits.fetch_add(1);
        }
        ctx_.pool->parallel_for(0, n, [&](std::size_t i) {
          const bool hit = trace.span("store.get", [&] {
            return artifacts->load_features(feature_keys[i]).has_value();
          });
          trace.counts().gets.fetch_add(1);
          if (hit) trace.counts().hits.fetch_add(1);
        });
      });
      const auto kernel = kernels::make_kernel(config_.kernel);
      std::vector<const graph::EventGraph*> graphs;
      for (const store::EncodedRun& run : runs) graphs.push_back(&run.graph);
      const std::vector<kernels::SparseHistogram> features = traced_features(
          trace, *ctx_.pool, *kernel, config_.label_policy, graphs);
      trace.span("layer.store", [&] {
        ctx_.pool->parallel_for(0, n, [&](std::size_t i) {
          traced_put(trace, *artifacts, feature_keys[i], [&] {
            artifacts->save_features(feature_keys[i], features[i]);
          });
        });
      });
      distances_.assign(pairs.size(), 0.0);
      trace.span("layer.kernels.distance", [&] {
        ctx_.pool->parallel_for(0, pairs.size(), [&](std::size_t p) {
          distances_[p] = trace.span("kernels.distance", [&] {
            return kernels::counted_distance(features[pairs[p].a],
                                             features[pairs[p].b]);
          });
        });
      });
      trace.counts().distances.fetch_add(pairs.size());
      trace.span("layer.store", [&] {
        ctx_.pool->parallel_for(0, pairs.size(), [&](std::size_t p) {
          traced_put(trace, *artifacts, pairs[p].key, [&] {
            artifacts->save_distance(pairs[p].key, distances_[p]);
          });
        });
      });
      message_counts_.clear();
      for (const store::EncodedRun& run : runs) {
        message_counts_.push_back(run.graph.message_edges().size());
      }
      trace.span("layer.store", [&] {
        trace.span("store.close", [&] { artifacts.reset(); });
      });
    });
    trace.end_op();
  }

  std::string check() override {
    Checker check;
    const std::size_t n = run_keys_.size();
    check.expect(distances_.size() == n * (n - 1) / 2,
                 "pairwise sample size != n(n-1)/2");
    check.expect(message_counts_.size() == n, "run count");
    for (const std::size_t count : message_counts_) {
      check.expect(count == message_counts_.front() && count > 0,
                   "mesh runs differ in message count on a fixed topology");
    }
    if (check.failed()) return check.summary();

    // Recompute every distance from the wl:2 histograms the op stored.
    store::ArtifactStore artifacts({op_root_});
    std::vector<kernels::SparseHistogram> features;
    for (const store::Digest& run : run_keys_) {
      auto stored = artifacts.load_features(store::ArtifactStore::features_key(
          config_.kernel, config_.label_policy, run));
      check.expect(stored.has_value(), "wl:2 histogram missing from store");
      if (!stored) return check.summary();
      features.push_back(std::move(*stored));
    }
    std::vector<double> d(n * n, 0.0);
    std::size_t slot = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        d[i * n + j] = harness_distance(features[i], features[j]);
        d[j * n + i] = harness_distance(features[j], features[i]);
        check.expect(d[i * n + j] == d[j * n + i], "d(a,b) != d(b,a)");
        check.expect(close_enough(distances_[slot++], d[i * n + j]),
                     "distance differs from the harness's recomputation");
      }
    }
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t c = 0; c < n; ++c) {
          const double direct = d[a * n + c];
          const double detour = d[a * n + b] + d[b * n + c];
          check.expect(direct <= detour + 1e-9 * std::max(1.0, detour),
                       "triangle inequality violated");
        }
      }
    }
    return check.summary();
  }

 private:
  Context ctx_;
  core::CampaignConfig config_;
  fs::path template_;
  fs::path op_root_;
  std::vector<store::Digest> run_keys_;
  std::vector<std::size_t> message_counts_;
  std::vector<double> distances_;
};

// --- amg_sweep_warm_isolated ------------------------------------------------

/// A warm re-run of an 11-point ND sweep (0..100% step 10) of AMG2013 on
/// 8 ranks with 10 runs per point, under --isolate=process semantics:
/// every op opens a fresh store handle and a fresh 2-child WorkerPool, as a
/// new invocation would, and every run and reference unit is dispatched to
/// a child that answers from the warm store. The set-up publishes the
/// sweep into a cold store, so this workload also times the store's write
/// path: in setup_s, and as store.put spans in a traced run.
class AmgSweepWarmIsolated final : public Workload {
 public:
  static constexpr int kPoints = 11;

  explicit AmgSweepWarmIsolated(Context context) : ctx_(std::move(context)) {
    base_.pattern = "amg2013";
    base_.shape.num_ranks = 8;
    base_.num_runs = 10;
    base_.kernel = "wl:2";
    base_.reduction = analysis::DistanceReduction::kToReference;
  }

  int ops_per_round() const override { return 50; }
  int worker_children() const override { return kWorkerChildren; }
  int ranks() const override { return base_.shape.num_ranks; }
  /// Every unit is a pipe round trip between a pool worker and whichever
  /// child is idle, so no pairing of CPUs would keep them local.
  bool one_cpu() const override { return true; }

  void setup(std::uint64_t round_seed, LayerTrace* trace) override {
    base_.base_seed = round_seed;
    root_ = ctx_.work_dir / "sweep-store";
    fs::remove_all(root_);
    if (trace != nullptr) trace->begin_setup();
    store::ArtifactStore artifacts({root_});
    for (int p = 0; p < kPoints; ++p) seed_point(point(p), artifacts, trace);
    if (trace != nullptr) trace->end_setup();
  }

  void prepare_checks() override {
    // The in-process, no-store computation every op must reproduce.
    expected_.clear();
    for (int p = 0; p < kPoints; ++p) {
      expected_.push_back(
          core::run_campaign(point(p), *ctx_.pool, nullptr)
              .measurement.distances);
    }
    seeded_ = census(root_);
  }

  void op() override {
    store::ArtifactStore artifacts({root_});
    proc::WorkerPool workers(pool_config());
    CountingExecutor counting(workers, nullptr);
    core::ResilienceOptions options;
    options.executor = &counting;
    samples_.clear();
    for (int p = 0; p < kPoints; ++p) {
      samples_.push_back(
          core::run_campaign(point(p), *ctx_.pool, &artifacts, options)
              .measurement.distances);
    }
    units_ = counting.units();
  }

  void traced_op(LayerTrace& trace) override {
    trace.begin_op();
    trace.span("op", [&] {
      std::unique_ptr<store::ArtifactStore> artifacts =
          traced_open(trace, root_);
      std::unique_ptr<proc::WorkerPool> workers;
      std::unique_ptr<CountingExecutor> counting;
      const core::CampaignConfig first = point(0);
      const json::Value reference_request = proc::make_run_request(
          "reference", first.pattern, first.shape,
          first.reference_sim_config());
      // Start both children: each pool worker's first unit forks and execs
      // one. These are the first two points' reference units.
      trace.span("layer.proc", [&] {
        trace.span("proc.spawn", [&] {
          workers = std::make_unique<proc::WorkerPool>(pool_config());
          counting = std::make_unique<CountingExecutor>(*workers, &trace);
          ctx_.pool->parallel_for(0, kWorkerChildren, [&](std::size_t) {
            counting->execute("reference", reference_request);
          });
        });
      });
      samples_.clear();
      for (int p = 0; p < kPoints; ++p) {
        const core::CampaignConfig config = point(p);
        std::vector<store::Digest> keys;
        std::vector<json::Value> requests;
        for (int i = 0; i < config.num_runs; ++i) {
          const sim::SimConfig sim_config = config.sim_config_for_run(i);
          keys.push_back(store::ArtifactStore::run_key(
              config.pattern, config.shape, sim_config));
          requests.push_back(proc::make_run_request(
              "run:" + std::to_string(i), config.pattern, config.shape,
              sim_config));
        }
        if (p >= kWorkerChildren) requests.push_back(reference_request);
        trace.span("layer.proc", [&] {
          ctx_.pool->parallel_for(0, requests.size(), [&](std::size_t i) {
            counting->execute(requests[i].at("unit").as_string(),
                              requests[i]);
          });
        });
        traced_load_runs(trace, *ctx_.pool, *artifacts, keys);
        const store::Digest reference_key = store::ArtifactStore::run_key(
            config.pattern, config.shape, config.reference_sim_config());
        std::vector<double> distances;
        trace.span("layer.store", [&] {
          for (const store::Digest& key : keys) {
            const auto hit = trace.span("store.get", [&] {
              return artifacts->load_distance(
                  store::ArtifactStore::distance_key(config.kernel,
                                                     config.label_policy,
                                                     reference_key, key));
            });
            trace.counts().gets.fetch_add(1);
            ANACIN_CHECK(hit.has_value(), "warm sweep missed a distance");
            trace.counts().hits.fetch_add(1);
            distances.push_back(*hit);
          }
        });
        samples_.push_back(std::move(distances));
      }
      units_ = counting->units();
      trace.span("layer.proc", [&] {
        trace.span("proc.spawn", [&] {
          counting.reset();
          workers.reset();
        });
      });
      trace.span("layer.store", [&] {
        trace.span("store.close", [&] { artifacts.reset(); });
      });
    });
    // Simulations done anywhere during the op, counted from outside: the
    // children publish a run artifact for every simulation they make.
    trace.counts().sim_runs.fetch_add(census(root_).runs - seeded_.runs);
    trace.end_op();
  }

  std::string check() override {
    Checker check;
    check.expect(bit_equal(samples_, expected_),
                 "isolated warm samples differ bitwise from the in-process "
                 "no-store computation");
    check.expect(samples_.size() == kPoints, "sweep point count");
    if (samples_.size() == kPoints) {
      for (const double d : samples_.front()) {
        check.expect(d == 0.0, "distance at ND 0% is not 0.0");
      }
      check.expect(median(samples_.back()) > 0.0,
                   "median distance at ND 100% is not > 0");
    }
    const std::uint64_t units_expected =
        static_cast<std::uint64_t>(kPoints) *
        static_cast<std::uint64_t>(base_.num_runs + 1);
    check.expect(units_ == units_expected,
                 "dispatched units != points x (runs + reference)");
    check.expect(census(root_).objects == seeded_.objects,
                 "a warm op published new artifacts");
    return check.summary();
  }

 private:
  core::CampaignConfig point(int p) const {
    core::CampaignConfig config = base_;
    config.nd_fraction = p / 10.0;
    return config;
  }

  /// Publishes what run_campaign publishes for `config` into a cold store
  /// (every run, the reference run, their histograms and each run's
  /// distance to the reference), through the same layer calls, so that
  /// each publish can be timed. The reference is published too, so the
  /// children never simulate; the op's checks prove nothing was missed.
  void seed_point(const core::CampaignConfig& config,
                  store::ArtifactStore& artifacts, LayerTrace* trace) {
    const sim::RankProgram program =
        patterns::make_pattern(config.pattern)->program(config.shape);
    const auto n = static_cast<std::size_t>(config.num_runs);
    std::vector<sim::SimConfig> sims;  // index n is the reference
    for (std::size_t i = 0; i < n; ++i) {
      sims.push_back(config.sim_config_for_run(static_cast<int>(i)));
    }
    sims.push_back(config.reference_sim_config());
    std::vector<store::Digest> keys;
    for (const sim::SimConfig& sim_config : sims) {
      keys.push_back(store::ArtifactStore::run_key(config.pattern,
                                                   config.shape, sim_config));
    }
    const auto publish = [&](const store::Digest& key, const auto& save) {
      if (trace != nullptr) {
        traced_put(*trace, artifacts, key, save);
      } else {
        save();
      }
    };

    std::vector<store::EncodedRun> runs(n + 1);
    ctx_.pool->parallel_for(0, n + 1, [&](std::size_t i) {
      const sim::RunResult run = sim::run_simulation(sims[i], program);
      runs[i].graph = graph::EventGraph::from_trace(run.trace);
      runs[i].messages = run.stats.messages;
      runs[i].wildcard_recvs = run.stats.wildcard_recvs;
      if (i < n) {  // the reference's artifact records no fault counts
        runs[i].drops = run.stats.drops;
        runs[i].duplicates = run.stats.duplicates;
        runs[i].straggler_events = run.stats.straggler_events;
      }
      publish(keys[i], [&] { artifacts.save_run(keys[i], runs[i]); });
    });
    const auto kernel = kernels::make_kernel(config.kernel);
    std::vector<kernels::SparseHistogram> features(n + 1);
    ctx_.pool->parallel_for(0, n + 1, [&](std::size_t i) {
      features[i] = kernel->features(
          kernels::build_labeled_graph(runs[i].graph, config.label_policy));
      const store::Digest key = store::ArtifactStore::features_key(
          config.kernel, config.label_policy, keys[i]);
      publish(key, [&] { artifacts.save_features(key, features[i]); });
    });
    ctx_.pool->parallel_for(0, n, [&](std::size_t i) {
      const store::Digest key = store::ArtifactStore::distance_key(
          config.kernel, config.label_policy, keys[n], keys[i]);
      const double distance = kernels::counted_distance(features[n],
                                                        features[i]);
      publish(key, [&] { artifacts.save_distance(key, distance); });
    });
  }

  proc::WorkerPoolConfig pool_config() const {
    proc::WorkerPoolConfig config;
    config.worker_exe = ctx_.worker_exe;
    config.store_dir = root_.string();
    return config;
  }

  Context ctx_;
  core::CampaignConfig base_;
  fs::path root_;
  ObjectCensus seeded_;
  std::vector<std::vector<double>> expected_;
  std::vector<std::vector<double>> samples_;
  std::uint64_t units_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        Context context) {
  if (name == "amg_measure_cold") {
    return std::make_unique<AmgMeasureCold>(std::move(context));
  }
  if (name == "mesh_rekernel_store") {
    return std::make_unique<MeshRekernelStore>(std::move(context));
  }
  if (name == "amg_sweep_warm_isolated") {
    return std::make_unique<AmgSweepWarmIsolated>(std::move(context));
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir;
  fs::path out_dir;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (options.work_dir.empty()) throw std::runtime_error("--work-dir needed");
  if (options.seconds <= 0.0) throw std::runtime_error("--seconds must be > 0");
  return options;
}

std::string metric(const std::string& name, double value,
                   const std::string& unit) {
  char number[64];
  std::snprintf(number, sizeof(number), "%.17g",
                std::isfinite(value) ? value : 0.0);
  return "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" + unit +
         "\"}";
}

std::string layer_metrics(const LayerTrace& trace,
                          const std::vector<double>& untraced_op_s) {
  const double sim_busy = trace.total("sim.run_simulation");
  const double sim_events = trace.total("sim.events");
  const double gets = trace.total("store.gets");
  const double campaign_s = median(untraced_op_s);
  // Publish totals are per op, or per set-up on a workload whose ops
  // publish nothing (amg_sweep_warm_isolated seeds its store in set-up).
  const bool op_puts = trace.per_op("store.puts") > 0.0;
  const auto put = [&](const std::string& key) {
    return op_puts ? trace.per_op(key) : trace.per_setup(key);
  };
  const std::vector<std::string> parts = {
      metric("sim.run_s.p50", trace.latency_p50("sim.run_simulation"), "s"),
      metric("sim.events_per_s", sim_busy > 0.0 ? sim_events / sim_busy : 0.0,
             "1/s"),
      metric("sim.cpu_per_event_us",
             sim_events > 0.0 ? 1e6 * trace.total("sim.cpu_s") / sim_events
                              : 0.0,
             "us"),
      metric("sim.runs", trace.per_op("sim.runs"), "count"),
      metric("sim.events", trace.per_op("sim.events"), "count"),
      metric("graph.build_s", trace.per_op("graph.from_trace"), "s"),
      metric("graph.nodes", trace.per_op("graph.nodes"), "count"),
      metric("kernels.features_s", trace.per_op("kernels.features"), "s"),
      metric("kernels.feature_extractions",
             trace.per_op("kernels.feature_extractions"), "count"),
      metric("kernels.distance_s", trace.per_op("kernels.distance"), "s"),
      metric("kernels.distances", trace.per_op("kernels.distances"), "count"),
      metric("store.put_s.p50", trace.latency_p50("store.put"), "s"),
      metric("store.put_s", put("store.put"), "s"),
      metric("store.puts", put("store.puts"), "count"),
      metric("store.bytes_written", put("store.bytes_written"), "B"),
      metric("store.index_bytes_written", put("store.index_bytes_written"),
             "B"),
      metric("store.open_s", trace.per_op("store.open"), "s"),
      metric("store.get_s.p50", trace.latency_p50("store.get"), "s"),
      metric("store.gets", trace.per_op("store.gets"), "count"),
      metric("store.hit_ratio",
             gets > 0.0 ? trace.total("store.hits") / gets : 0.0, "ratio"),
      metric("store.decode_s", trace.per_op("store.decode"), "s"),
      metric("proc.spawn_s", trace.per_op("proc.spawn"), "s"),
      metric("proc.unit_s.p50", trace.latency_p50("proc.execute"), "s"),
      metric("proc.units", trace.per_op("proc.units"), "count"),
      metric("core.campaign_s", campaign_s, "s"),
      metric("core.unattributed_s", median(trace.unattributed()), "s"),
      metric("trace.overhead_s", median(trace.op_walls()) - campaign_s, "s"),
  };
  std::string joined;
  for (const std::string& part : parts) {
    joined += (joined.empty() ? "" : ", ") + part;
  }
  return joined;
}

int run_benchmark(const Options& options) {
  const std::vector<int> cpus = usable_cpus();
  if (kPoolSize > cpus.size() / 2) {
    std::cerr << "perfbench: refusing a pool of " << kPoolSize
              << " workers on " << cpus.size() << " CPUs (at most nproc/2 = "
              << cpus.size() / 2 << ")\n";
    return 2;
  }
  ThreadPool pool(kPoolSize);
  Context context;
  context.pool = &pool;
  context.work_dir = options.work_dir;
  context.worker_exe = fs::read_symlink("/proc/self/exe").string();
  std::unique_ptr<Workload> workload =
      make_workload(options.workload, context);
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }
  fs::remove_all(options.work_dir);
  fs::create_directories(options.work_dir);
  // Each simulation's engine threads hand the token to each other for
  // every call, and a worker child answers each unit over a pipe. Kept on
  // one CPU, such a hand-off is a local context switch; across CPUs it
  // wakes an idle one, which on a shared virtual machine waits for the
  // host, so the op's wall time followed the host's load.
  pin_to_cpu(cpus[0]);
  const std::vector<int> worker_cpus =
      workload->one_cpu() ? std::vector<int>(kPoolSize, cpus[0])
                          : std::vector<int>(cpus.begin() + 1,
                                             cpus.begin() + 1 + kPoolSize);
  pin_pool_workers(pool, worker_cpus);
  const std::size_t cpus_used = workload->one_cpu() ? 1 : kPoolSize + 1;
  std::cout << "# workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << '\n'
            << "# budget: nproc=" << cpus.size()
            << " cpus_used=" << cpus_used << " pool_workers=" << kPoolSize
            << " worker_children=" << workload->worker_children()
            << " engine_threads_per_sim=" << workload->ranks() + 1
            << " (ranks+1; at most " << kPoolSize
            << " simulations at once)\n";

  std::vector<double> setup_s;
  std::vector<double> op_s;
  std::vector<double> cpu_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  LayerTrace trace;
  LayerTrace* const setup_trace = options.trace ? &trace : nullptr;

  const Clock::time_point started = Clock::now();
  for (std::uint64_t round = 0;
       round == 0 || seconds_since(started) < options.seconds; ++round) {
    const Clock::time_point setup_start = Clock::now();
    workload->setup(hash_combine(mix64(options.seed), round), setup_trace);
    setup_s.push_back(seconds_since(setup_start));
    workload->prepare_checks();

    for (int i = 0; i < workload->ops_per_round(); ++i) {
      attempted += 1;
      std::string error;
      try {
        workload->before_op();
        const double cpu_before = process_cpu_s();
        const Clock::time_point op_start = Clock::now();
        workload->op();
        op_s.push_back(seconds_since(op_start));
        cpu_s.push_back(process_cpu_s() - cpu_before);
        error = workload->check();
        workload->after_op();
        if (error.empty() && options.trace) {
          workload->before_op();
          workload->traced_op(trace);
          error = workload->check();
          workload->after_op();
        }
        if (!error.empty()) correct = false;
      } catch (const std::exception& failure) {
        error = std::string("exception: ") + failure.what();
      }
      if (!error.empty()) {
        failed += 1;
        std::cout << "# op " << attempted << " failed: " << error << '\n';
      }
    }
  }
  fs::remove_all(options.work_dir);

  std::vector<double> sorted_op_s = op_s;
  std::sort(sorted_op_s.begin(), sorted_op_s.end());
  std::cout << "# rounds=" << setup_s.size() << " ops=" << attempted
            << " failed=" << failed << " op_s min/p50/max="
            << (sorted_op_s.empty() ? 0.0 : sorted_op_s.front()) << '/'
            << median(op_s) << '/'
            << (sorted_op_s.empty() ? 0.0 : sorted_op_s.back()) << '\n';
  std::string metrics;
  if (options.trace) {
    const std::string table = trace.table();
    std::cout << "# per-layer spans (" << trace.ops() << " traced ops)\n";
    std::istringstream lines(table);
    for (std::string line; std::getline(lines, line);) {
      std::cout << "# " << line << '\n';
    }
    if (!options.out_dir.empty()) {
      fs::create_directories(options.out_dir);
      std::ofstream(options.out_dir / (options.workload + ".trace.json"))
          << trace.tracer().chrome_trace_json().dump() << '\n';
      std::ofstream(options.out_dir / (options.workload + ".layers.txt"))
          << table;
    }
    metrics = layer_metrics(trace, op_s);
  } else {
    metrics = metric("setup_s", median(setup_s), "s") + ", " +
              metric("op_s.p50", median(op_s), "s") + ", " +
              metric("cpu_s.p50", median(cpu_s), "s") + ", " +
              metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return 0;
}

/// `<exe> --store DIR __worker --heartbeat-ms MS`: the command line
/// proc::WorkerPool gives the children it spawns from this executable.
int run_worker(int argc, char** argv) {
  std::string store_dir;
  double heartbeat_ms = 50.0;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--store") store_dir = argv[i + 1];
    if (flag == "--heartbeat-ms") heartbeat_ms = std::stod(argv[i + 1]);
  }
  if (store_dir.empty()) throw std::runtime_error("__worker needs --store");
  store::ObjectStore::Config config{store_dir};
  // Like the CLI's worker: children share the parent's store root, and the
  // index temp file is not safe to race on.
  config.persist_index = false;
  store::ArtifactStore artifacts(std::move(config));
  return proc::worker_main(artifacts, heartbeat_ms);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "__worker") == 0) return run_worker(argc, argv);
    }
    return run_benchmark(parse_options(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
}
