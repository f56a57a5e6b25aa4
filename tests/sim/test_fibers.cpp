// Regression tests for running ranks as fibers on one OS thread: each
// rank's C++ exception state, stack unwinding at teardown, and the depth
// of the rank stacks.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace anacin::sim {
namespace {

SimConfig quiet(int ranks) {
  SimConfig config;
  config.num_ranks = ranks;
  config.network.nd_fraction = 0.0;
  return config;
}

TEST(Fibers, RethrowInsideInterleavedHandlersRethrowsTheRanksOwnException) {
  // Rank 0 enters its handler, switches out; rank 1 enters its own handler
  // and switches out; rank 0 then rethrows and leaves its handler while
  // rank 1's (entered later) is still open — a non-LIFO order that a
  // single shared caught-exception chain gets wrong.
  std::vector<std::string> rethrown(2);
  std::vector<int> uncaught_in_handler(2, -1);
  run_simulation(quiet(2), [&](Comm& comm) {
    const int rank = comm.rank();
    try {
      throw std::runtime_error("rank " + std::to_string(rank));
    } catch (const std::runtime_error&) {
      // Rank 0 resumes first (clock 1 < 10), rank 1 after it.
      comm.compute(rank == 0 ? 1.0 : 10.0);
      uncaught_in_handler[static_cast<std::size_t>(rank)] =
          std::uncaught_exceptions();
      try {
        throw;
      } catch (const std::runtime_error& again) {
        rethrown[static_cast<std::size_t>(rank)] = again.what();
      }
    }
    comm.compute(1.0);
  });
  EXPECT_EQ(rethrown[0], "rank 0");
  EXPECT_EQ(rethrown[1], "rank 1");
  EXPECT_EQ(uncaught_in_handler[0], 0);
  EXPECT_EQ(uncaught_in_handler[1], 0);
}

/// Counts constructions and destructions of an object living on a rank
/// stack.
struct Lifetimes {
  int constructed = 0;
  int destroyed = 0;
};

struct StackGuard {
  explicit StackGuard(Lifetimes& lifetimes) : lifetimes_(lifetimes) {
    ++lifetimes_.constructed;
  }
  ~StackGuard() { ++lifetimes_.destroyed; }
  StackGuard(const StackGuard&) = delete;
  StackGuard& operator=(const StackGuard&) = delete;

 private:
  Lifetimes& lifetimes_;
};

TEST(Fibers, DeadlockUnwindsEveryStartedRank) {
  Lifetimes lifetimes;
  EXPECT_THROW(run_simulation(quiet(4),
                              [&](Comm& comm) {
                                const StackGuard guard(lifetimes);
                                (void)comm.recv();
                              }),
               DeadlockError);
  EXPECT_EQ(lifetimes.constructed, 4);
  EXPECT_EQ(lifetimes.destroyed, 4);
}

TEST(Fibers, RankExceptionUnwindsEveryStartedRank) {
  // Ranks 0 and 1 block in recv, rank 2 throws, rank 3 never starts.
  Lifetimes lifetimes;
  EXPECT_THROW(run_simulation(quiet(4),
                              [&](Comm& comm) {
                                const StackGuard guard(lifetimes);
                                if (comm.rank() == 2) {
                                  throw std::logic_error("rank 2 failed");
                                }
                                (void)comm.recv();
                              }),
               std::logic_error);
  EXPECT_EQ(lifetimes.constructed, 3);
  EXPECT_EQ(lifetimes.destroyed, 3);
}

TEST(Fibers, MaxCallsUnwindsEveryStartedRank) {
  Lifetimes lifetimes;
  SimConfig config = quiet(4);
  config.max_calls = 40;
  try {
    run_simulation(config, [&](Comm& comm) {
      const StackGuard guard(lifetimes);
      for (;;) comm.compute(1.0);
    });
    FAIL() << "expected the max_calls limit to stop the run";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("max_calls"), std::string::npos);
  }
  EXPECT_EQ(lifetimes.constructed, 4);
  EXPECT_EQ(lifetimes.destroyed, 4);
}

constexpr std::size_t kFrameBytes = 1024;

/// Recurse `depth` frames of at least kFrameBytes each, then exchange one
/// message at the bottom, so the rank switches out while its stack is
/// deep. Records the address of the outermost and innermost frames.
std::uint64_t recurse(Comm& comm, int depth, std::uintptr_t& top,
                      std::uintptr_t& bottom) {
  volatile char frame[kFrameBytes];
  frame[0] = static_cast<char>(depth);
  frame[kFrameBytes - 1] = static_cast<char>(depth >> 8);
  const auto here = reinterpret_cast<std::uintptr_t>(&frame[0]);
  if (top == 0) top = here;
  std::uint64_t below = 0;
  if (depth == 0) {
    bottom = here;
    if (comm.rank() == 0) {
      comm.send(1, 0, payload_from_u64(42));
    } else {
      below = u64_from_payload(comm.recv(0, 0).payload);
    }
  } else {
    below = recurse(comm, depth - 1, top, bottom);
  }
  return below + static_cast<unsigned char>(frame[0]) +
         static_cast<unsigned char>(frame[kFrameBytes - 1]);
}

TEST(Fibers, RankProgramCanUseHalfTheRankStack) {
  constexpr int kDepth =
      static_cast<int>(Engine::kRankStackBytes / 2 / kFrameBytes);
  std::vector<std::uintptr_t> span(2, 0);
  std::vector<std::uint64_t> result(2, 0);
  run_simulation(quiet(2), [&](Comm& comm) {
    std::uintptr_t top = 0;
    std::uintptr_t bottom = 0;
    const auto rank = static_cast<std::size_t>(comm.rank());
    result[rank] = recurse(comm, kDepth, top, bottom);
    span[rank] = top - bottom;
  });
  for (std::size_t rank = 0; rank < 2; ++rank) {
    EXPECT_GE(span[rank], Engine::kRankStackBytes / 2) << "rank " << rank;
  }
  // Each frame adds (depth & 0xff) + (depth >> 8); rank 1 also adds 42.
  std::uint64_t frames = 0;
  for (int depth = 0; depth <= kDepth; ++depth) {
    frames += static_cast<std::uint64_t>(depth & 0xff) +
              static_cast<std::uint64_t>(depth >> 8);
  }
  EXPECT_EQ(result[0], frames);
  EXPECT_EQ(result[1], frames + 42);
}

}  // namespace
}  // namespace anacin::sim
