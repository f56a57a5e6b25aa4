// Microbenchmarks of the discrete-event MPI simulator substrate:
// end-to-end simulation throughput for each packaged mini-application.

#include <benchmark/benchmark.h>

#include "core/campaign.hpp"
#include "obs_cli.hpp"

using namespace anacin;

namespace {

void run_pattern_benchmark(benchmark::State& state,
                           const std::string& pattern) {
  const int ranks = static_cast<int>(state.range(0));
  patterns::PatternConfig shape;
  shape.num_ranks = ranks;
  const sim::RankProgram program =
      patterns::make_pattern(pattern)->program(shape);

  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    sim::SimConfig config;
    config.num_ranks = ranks;
    config.seed = seed++;
    config.network.nd_fraction = 1.0;
    const sim::RunResult result = sim::run_simulation(config, program);
    events += result.trace.total_events();
    messages += result.stats.messages;
    benchmark::DoNotOptimize(result.stats.makespan_us);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
}

void BM_SimMessageRace(benchmark::State& state) {
  run_pattern_benchmark(state, "message_race");
}
void BM_SimAmg2013(benchmark::State& state) {
  run_pattern_benchmark(state, "amg2013");
}
void BM_SimUnstructuredMesh(benchmark::State& state) {
  run_pattern_benchmark(state, "unstructured_mesh");
}

void BM_EventGraphBuild(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  patterns::PatternConfig shape;
  shape.num_ranks = ranks;
  sim::SimConfig config;
  config.num_ranks = ranks;
  const sim::RunResult run =
      core::run_pattern_once("amg2013", shape, config);
  for (auto _ : state) {
    const graph::EventGraph graph = graph::EventGraph::from_trace(run.trace);
    benchmark::DoNotOptimize(graph.max_lamport());
  }
  state.counters["nodes"] =
      static_cast<double>(run.trace.total_events());
}

}  // namespace

BENCHMARK(BM_SimMessageRace)->Arg(4)->Arg(16)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimAmg2013)->Arg(4)->Arg(16)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimUnstructuredMesh)->Arg(4)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EventGraphBuild)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return anacin::bench::run_benchmark_main(argc, argv);
}
