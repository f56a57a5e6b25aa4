// Golden corpus: pins the bytes the simulator produces across versions.
//
// Every case simulates a fixed (pattern, ranks, nd, faults, replay) shape
// over a few seeds and reduces the runs to 128-bit store digests of the
// encoded traces, the encoded event graphs, the encoded `wl:2` feature
// histograms, and the bit patterns of the pairwise kernel distances. The
// committed file `tests/data/golden_sim.json` holds those digests, so a
// rewrite of the engine (or of any layer under the distances) must
// reproduce them exactly. On a mismatch the test prints the actual
// corpus; replace the file with it only when a behaviour change is
// intended and explained.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/event_graph.hpp"
#include "kernels/kernel.hpp"
#include "kernels/labeled_graph.hpp"
#include "patterns/pattern.hpp"
#include "replay/replay.hpp"
#include "sim/simulator.hpp"
#include "store/codec.hpp"
#include "store/hash.hpp"
#include "support/json.hpp"

namespace anacin::sim {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

struct Digests {
  store::Digest trace;
  store::Digest graph;
  store::Digest features;
  store::Digest distances;
};

/// Reduce a set of runs to the four corpus digests. Byte streams are
/// concatenated in run order before hashing.
Digests digest_runs(const std::vector<RunResult>& runs) {
  const auto kernel = kernels::make_kernel("wl:2");
  std::vector<std::uint8_t> trace_bytes;
  std::vector<std::uint8_t> graph_bytes;
  std::vector<std::uint8_t> feature_bytes;
  std::vector<kernels::FeatureVector> features;
  const auto append = [](std::vector<std::uint8_t>& out,
                         const std::vector<std::uint8_t>& bytes) {
    out.insert(out.end(), bytes.begin(), bytes.end());
  };
  for (const RunResult& run : runs) {
    append(trace_bytes, store::encode_trace(run.trace));
    const graph::EventGraph graph = graph::EventGraph::from_trace(run.trace);
    append(graph_bytes, store::encode_event_graph(graph));
    features.push_back(kernel->features(
        kernels::build_labeled_graph(graph, kernels::LabelPolicy::kTypePeer)));
    append(feature_bytes, store::encode_features(features.back()));
  }
  std::vector<std::uint64_t> distance_bits;
  for (std::size_t i = 0; i < features.size(); ++i) {
    for (std::size_t j = i + 1; j < features.size(); ++j) {
      const double distance = kernels::kernel_distance(features[i], features[j]);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &distance, sizeof bits);
      distance_bits.push_back(bits);
    }
  }
  return Digests{
      store::digest_bytes(trace_bytes.data(), trace_bytes.size()),
      store::digest_bytes(graph_bytes.data(), graph_bytes.size()),
      store::digest_bytes(feature_bytes.data(), feature_bytes.size()),
      store::digest_bytes(distance_bits.data(),
                          distance_bits.size() * sizeof(std::uint64_t))};
}

json::Value case_entry(const std::string& name, const Digests& digests) {
  json::Value entry = json::Value::object();
  entry.set("case", name);
  entry.set("trace", digests.trace.to_hex());
  entry.set("graph", digests.graph.to_hex());
  entry.set("features", digests.features.to_hex());
  entry.set("distances", digests.distances.to_hex());
  return entry;
}

SimConfig base_config(int ranks, double nd, bool faults) {
  SimConfig config;
  config.num_ranks = ranks;
  config.network.nd_fraction = nd;
  if (faults) {
    config.faults.drop_probability = 0.1;
    config.faults.duplicate_probability = 0.1;
    config.faults.straggler_ranks = {1};
  }
  return config;
}

RankProgram pattern_program(const std::string& pattern, int ranks) {
  patterns::PatternConfig shape;
  shape.num_ranks = ranks;
  return patterns::make_pattern(pattern)->program(shape);
}

/// The full corpus, computed by the engine under test.
json::Value compute_corpus() {
  json::Value cases = json::Value::array();
  for (const std::string pattern :
       {"message_race", "amg2013", "unstructured_mesh"}) {
    for (const int ranks : {4, 32}) {
      const RankProgram program = pattern_program(pattern, ranks);
      for (const int nd : {0, 100}) {
        for (const bool faults : {false, true}) {
          std::vector<RunResult> runs;
          for (const std::uint64_t seed : kSeeds) {
            SimConfig config = base_config(ranks, nd / 100.0, faults);
            config.seed = seed;
            runs.push_back(run_simulation(config, program));
          }
          std::ostringstream name;
          name << pattern << "/r" << ranks << "/nd" << nd
               << (faults ? "/faults" : "/clean");
          cases.push_back(case_entry(name.str(), digest_runs(runs)));
        }
      }
    }
  }

  // Replay of one racy config: the schedule recorded under seed 1 is
  // replayed under the other seeds with every entry pinned, then with
  // every entry freed.
  const RankProgram race = pattern_program("message_race", 8);
  SimConfig record = base_config(8, 1.0, false);
  record.seed = 1;
  const ReplaySchedule pinned =
      replay::record_schedule(run_simulation(record, race).trace);
  ReplaySchedule freed = pinned;
  for (std::size_t i = 0; i < freed.total_matches(); ++i) freed.free_entry(i);
  for (const auto& [name, schedule] :
       {std::pair<std::string, const ReplaySchedule*>{
            "message_race/r8/nd100/replay_pinned", &pinned},
        {"message_race/r8/nd100/replay_freed", &freed}}) {
    std::vector<RunResult> runs;
    for (const std::uint64_t seed : kSeeds) {
      SimConfig config = base_config(8, 1.0, false);
      config.seed = seed + 1;
      config.replay = schedule;
      runs.push_back(run_simulation(config, race));
    }
    cases.push_back(case_entry(name, digest_runs(runs)));
  }

  json::Value corpus = json::Value::object();
  corpus.set("schema", "anacin-golden-sim-1");
  corpus.set("cases", std::move(cases));
  return corpus;
}

TEST(GoldenSim, CorpusMatchesCommittedDigests) {
  std::ifstream in(ANACIN_GOLDEN_SIM_PATH);
  ASSERT_TRUE(in.good()) << "cannot open " << ANACIN_GOLDEN_SIM_PATH;
  std::stringstream text;
  text << in.rdbuf();
  const json::Value expected = json::parse(text.str());
  const json::Value actual = compute_corpus();

  if (expected == actual) return;
  ADD_FAILURE() << "actual corpus:\n" << actual.dump(2);
  const json::Value& expected_cases = expected.at("cases");
  const json::Value& actual_cases = actual.at("cases");
  ASSERT_EQ(expected_cases.size(), actual_cases.size());
  for (std::size_t i = 0; i < actual_cases.size(); ++i) {
    EXPECT_EQ(expected_cases.at(i).dump_canonical(),
              actual_cases.at(i).dump_canonical());
  }
}

}  // namespace
}  // namespace anacin::sim
