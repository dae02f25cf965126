/// ReplicaGroup behind Server: bit-exactness across replicas,
/// power-of-two-choices balance, spill-on-overflow, atomic hot-swap
/// propagation, worker merge-failure containment, and server-level SLO
/// shedding.

#include "dcnas/serve/replica.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "dcnas/serve/server.hpp"
#include "serve_test_util.hpp"

namespace dcnas::serve {
namespace {

using ms = std::chrono::milliseconds;

std::shared_ptr<ModelRegistry> make_registry(const std::string& name = "m") {
  auto registry = std::make_shared<ModelRegistry>();
  registry->register_model(name, testing::make_executor());
  return registry;
}

ServerOptions options(std::size_t replicas, std::size_t workers,
                      std::int64_t max_batch, ms delay,
                      std::size_t capacity = 1024) {
  ServerOptions o;
  o.num_replicas = replicas;
  o.num_workers = workers;
  o.batch.max_batch = max_batch;
  o.batch.max_delay = delay;
  o.batch.queue_capacity = capacity;
  return o;
}

// Replication must be invisible to correctness: concurrent requests through
// a 3-replica server match direct plan execution bit-exactly regardless of
// which replica served them.
TEST(ReplicaGroupTest, MultiReplicaOutputsMatchDirectExecutionBitExactly) {
  auto registry = make_registry();
  const ModelSnapshot snap = registry->snapshot("m");

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  constexpr int kTotal = kThreads * kPerThread;
  Rng rng(2024);
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  for (int i = 0; i < kTotal; ++i) {
    inputs.push_back(testing::make_image(rng));
    expected.push_back(snap.plan->run(inputs.back()));
  }

  Server server(registry, options(3, 2, 4, ms(2)));
  ASSERT_EQ(server.replicas().size(), 3u);
  std::vector<std::future<Tensor>> futures(kTotal);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int idx = t * kPerThread + i;
        futures[static_cast<std::size_t>(idx)] =
            server.submit("m", inputs[static_cast<std::size_t>(idx)]);
      }
    });
  }
  for (auto& th : submitters) th.join();

  for (int i = 0; i < kTotal; ++i) {
    const Tensor got = futures[static_cast<std::size_t>(i)].get();
    const Tensor& want = expected[static_cast<std::size_t>(i)];
    ASSERT_TRUE(got.same_shape(want)) << "request " << i;
    for (std::int64_t j = 0; j < want.numel(); ++j) {
      ASSERT_EQ(got[j], want[j]) << "request " << i << " element " << j;
    }
  }
  EXPECT_EQ(testing::request_count(server.metrics(), "m"), kTotal);
}

// Power-of-two-choices keeps load spread: with execution pinned (huge
// max_batch + max_delay hold requests in the queues), routed requests must
// not pile onto one replica. Bounds are loose — p2c is randomized — but a
// broken router that always picks replica 0 fails them decisively.
TEST(ReplicaGroupTest, PowerOfTwoChoicesSpreadsPendingLoad) {
  auto registry = make_registry();
  Server server(registry, options(4, 1, 1024, ms(60000)));
  Rng rng(7);
  constexpr std::size_t kTotal = 32;
  std::vector<std::future<Tensor>> futures;
  for (std::size_t i = 0; i < kTotal; ++i) {
    futures.push_back(server.submit("m", testing::make_image(rng)));
  }

  const auto depths = server.replicas().pending_per_replica();
  ASSERT_EQ(depths.size(), 4u);
  std::size_t total = 0, nonzero = 0, deepest = 0;
  for (const auto d : depths) {
    total += d;
    if (d > 0) ++nonzero;
    deepest = std::max(deepest, d);
  }
  EXPECT_EQ(total, kTotal);
  EXPECT_GE(nonzero, 2u) << "all requests landed on one replica";
  EXPECT_LE(deepest, kTotal - 8) << "routing is grossly imbalanced";

  server.shutdown();  // drain answers every pinned request
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

// Overflow spills: when the p2c pick is full, the other choice admits the
// request, so capacity is the *group's* capacity, not one replica's. Only
// when every choice is full does kQueueFull reach the caller.
TEST(ReplicaGroupTest, FullReplicaSpillsToSecondChoiceBeforeRejecting) {
  auto registry = make_registry();
  constexpr std::size_t kPerReplica = 2;
  Server server(registry, options(2, 1, 1024, ms(60000), kPerReplica));
  Rng rng(13);
  std::vector<std::future<Tensor>> futures;
  for (std::size_t i = 0; i < 2 * kPerReplica; ++i) {
    futures.push_back(server.submit("m", testing::make_image(rng)));
  }
  const auto depths = server.replicas().pending_per_replica();
  EXPECT_EQ(depths[0], kPerReplica);
  EXPECT_EQ(depths[1], kPerReplica);
  try {
    server.submit("m", testing::make_image(rng));
    FAIL() << "expected rejection once every replica is full";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kQueueFull);
  }
  server.shutdown();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

// Hot-swap propagates to *every* replica atomically: replicas hold no model
// state, so each post-swap request — whichever replica serves it — runs the
// new weights.
TEST(ReplicaGroupTest, HotSwapReachesAllReplicas) {
  auto registry = make_registry();
  Server server(registry, options(3, 1, 1, ms(0)));
  Rng rng(55);
  const Tensor probe = testing::make_image(rng);
  const Tensor before = server.submit("m", probe).get();

  registry->register_model("m", testing::make_executor(99));
  // Enough probes that all three replicas are overwhelmingly likely to have
  // served at least one; every single answer must use the new weights.
  for (int i = 0; i < 12; ++i) {
    const Tensor after = server.submit("m", probe).get();
    bool identical = true;
    for (std::int64_t j = 0; j < before.numel(); ++j) {
      if (before[j] != after[j]) identical = false;
    }
    EXPECT_FALSE(identical) << "request " << i << " served stale weights";
  }
}

// Satellite 3 regression: a merge failure (bad_alloc building the batch
// tensor) used to escape the worker into ThreadPool::wait_idle(), which
// Server::~Server calls — rethrowing during unwind and terminating the
// process. Now the failure is answered through the affected futures, the
// worker keeps serving, and destruction stays clean.
TEST(ReplicaGroupTest, MergeFailureAnswersFutureAndServerSurvives) {
  auto registry = make_registry();
  Server server(registry, options(1, 1, 1, ms(0)));
  int calls = 0;
  server.replicas().replica_for_testing(0).batcher_for_testing()
      .set_merge_hook_for_testing([&calls](const Batch&) {
        if (++calls == 1) throw std::bad_alloc();
      });
  Rng rng(17);
  auto doomed = server.submit("m", testing::make_image(rng));
  EXPECT_THROW(doomed.get(), std::bad_alloc);
  // The worker survived: the next request is served normally.
  const Tensor input = testing::make_image(rng);
  const Tensor got = server.submit("m", input).get();
  const Tensor want = registry->snapshot("m").plan->run(input);
  for (std::int64_t j = 0; j < want.numel(); ++j) ASSERT_EQ(got[j], want[j]);
  // ~Server at scope exit is the real assertion: pre-fix it terminates.
}

// Server-level SLO: a deadline-tagged request that cannot be served in time
// is shed with kDeadlineExpired instead of being executed late.
TEST(ReplicaGroupTest, DeadlineTaggedRequestShedsWhenItExpiresQueued) {
  auto registry = make_registry();
  // Huge max_batch + max_delay: the request would sit queued for 60s, so
  // the only way its future resolves quickly is the deadline shed.
  Server server(registry, options(1, 1, 1024, ms(60000)));
  Rng rng(23);
  auto future = server.submit("m", testing::make_image(rng), ms(20));
  ASSERT_EQ(future.wait_for(ms(10000)), std::future_status::ready);
  try {
    future.get();
    FAIL() << "expected the deadline shed to fail the future";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kDeadlineExpired);
  }
  server.shutdown();
}

// Shutdown is idempotent and leaves later submissions rejected with the
// typed shutdown reason.
TEST(ReplicaGroupTest, ShutdownIsIdempotentAndTyped) {
  Server server(make_registry(), options(2, 1, 1, ms(0)));
  server.shutdown();
  server.shutdown();
  Rng rng(3);
  try {
    server.submit("m", testing::make_image(rng));
    FAIL() << "expected shutdown rejection";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kShutdown);
    EXPECT_FALSE(e.retryable());
  }
}

}  // namespace
}  // namespace dcnas::serve
