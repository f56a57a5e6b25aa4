// Microbenchmarks of the content-addressed artifact store: cold campaign
// execution (every artifact computed and written) versus warm re-execution
// (every simulation and kernel distance served from the store), plus the
// raw object put/get path and a publish burst into an empty store.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "obs_cli.hpp"
#include "store/codec.hpp"
#include "store/hash.hpp"
#include "store/object_store.hpp"
#include "store/store.hpp"

using namespace anacin;
namespace fs = std::filesystem;

namespace {

core::CampaignConfig bench_campaign(std::uint64_t base_seed) {
  core::CampaignConfig config;
  config.pattern = "message_race";
  config.shape.num_ranks = 8;
  config.nd_fraction = 1.0;
  config.num_runs = 8;
  config.base_seed = base_seed;
  return config;
}

fs::path bench_store_root(const std::string& name) {
  return fs::temp_directory_path() / ("anacin-perf-store-" + name);
}

// Cold: a fresh store and a fresh base_seed per iteration, so nothing —
// not even the process-global reference memo — can serve a cached result.
void BM_CampaignCold(benchmark::State& state) {
  const fs::path root = bench_store_root("cold");
  ThreadPool pool;
  std::uint64_t base_seed = 1000000;
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(root);
    store::ArtifactStore artifacts({root.string()});
    state.ResumeTiming();
    const core::CampaignResult result =
        core::run_campaign(bench_campaign(base_seed++), pool, &artifacts);
    benchmark::DoNotOptimize(result.distance_summary.mean);
  }
  fs::remove_all(root);
}

// Warm: the store is filled once, then every iteration replays the same
// campaign purely from cached artifacts.
void BM_CampaignWarm(benchmark::State& state) {
  const fs::path root = bench_store_root("warm");
  fs::remove_all(root);
  ThreadPool pool;
  store::ArtifactStore artifacts({root.string()});
  run_campaign(bench_campaign(42), pool, &artifacts);
  for (auto _ : state) {
    const core::CampaignResult result =
        core::run_campaign(bench_campaign(42), pool, &artifacts);
    benchmark::DoNotOptimize(result.distance_summary.mean);
  }
  fs::remove_all(root);
}

// Baseline without any store, for the cold-overhead comparison.
void BM_CampaignNoStore(benchmark::State& state) {
  ThreadPool pool;
  std::uint64_t base_seed = 2000000;
  for (auto _ : state) {
    const core::CampaignResult result =
        core::run_campaign(bench_campaign(base_seed++), pool, nullptr);
    benchmark::DoNotOptimize(result.distance_summary.mean);
  }
}

void BM_ObjectPutGet(benchmark::State& state) {
  const fs::path root = bench_store_root("putget");
  fs::remove_all(root);
  store::ObjectStore objects({root.string()});
  const std::vector<double> payload(static_cast<std::size_t>(state.range(0)),
                                    0.5);
  const std::vector<std::uint8_t> blob = store::encode_distances(payload);
  std::uint64_t next = 0;
  for (auto _ : state) {
    const store::Digest key = store::digest_string(std::to_string(next++));
    objects.put(key, store::Kind::kDistances, blob);
    benchmark::DoNotOptimize(objects.get(key));
  }
  state.counters["bytes"] = static_cast<double>(blob.size());
  fs::remove_all(root);
}

// A campaign's publish burst: Arg fresh 7.5 KB objects (352 is the object
// count of a warm 11-point AMG2013/8 sweep's set-up, 7.5 KB their mean
// size) into an empty store, which is then closed. The close writes
// index.json once, so items_per_second stays flat as Arg grows; an index
// rewrite per publish would make the burst O(n^2).
void BM_ObjectPublishBurst(benchmark::State& state) {
  const fs::path root = bench_store_root("burst");
  const std::vector<std::uint8_t> blob =
      store::encode_distances(std::vector<double>(940, 0.5));
  std::vector<store::Digest> keys;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    keys.push_back(store::digest_string(std::to_string(i)));
  }
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(root);
    state.ResumeTiming();
    store::ObjectStore objects({root.string()});
    for (const store::Digest& key : keys) {
      objects.put(key, store::Kind::kDistances, blob);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["bytes"] = static_cast<double>(blob.size());
  fs::remove_all(root);
}

}  // namespace

BENCHMARK(BM_CampaignCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CampaignWarm)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CampaignNoStore)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ObjectPutGet)->Arg(1 << 10)->Arg(1 << 16);
BENCHMARK(BM_ObjectPublishBurst)
    ->Arg(88)
    ->Arg(352)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return anacin::bench::run_benchmark_main(argc, argv);
}
