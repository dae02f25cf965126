#include "dcnas/serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "serve_test_util.hpp"

namespace dcnas::serve {
namespace {

using ms = std::chrono::milliseconds;

std::shared_ptr<ModelRegistry> make_registry(const std::string& name = "m") {
  auto registry = std::make_shared<ModelRegistry>();
  registry->register_model(name, testing::make_executor());
  return registry;
}

ServerOptions options(std::size_t workers, std::int64_t max_batch, ms delay,
                      std::size_t capacity = 1024) {
  ServerOptions o;
  o.num_workers = workers;
  o.batch.max_batch = max_batch;
  o.batch.max_delay = delay;
  o.batch.queue_capacity = capacity;
  return o;
}

// Acceptance (a): N threads x M requests through the server produce
// bit-identical outputs to a direct run of the compiled plan the server
// serves from.
TEST(ServerTest, ConcurrentRequestsMatchDirectExecutionBitExactly) {
  auto registry = make_registry();
  const ModelSnapshot snap = registry->snapshot("m");

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  constexpr int kTotal = kThreads * kPerThread;
  Rng rng(123);
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  for (int i = 0; i < kTotal; ++i) {
    inputs.push_back(testing::make_image(rng));
    expected.push_back(snap.plan->run(inputs.back()));
  }

  Server server(registry, options(4, 8, ms(2)));
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
  EXPECT_EQ(testing::error_count(server.metrics(), "m"), 0);
}

// Serving runs only the compiled plan; the GraphExecutor stays as its
// oracle. Merged batches must still agree with the graph run image by image.
TEST(ServerTest, ServedOutputsAgreeWithGraphOracle) {
  auto registry = make_registry();
  const ModelSnapshot snap = registry->snapshot("m");

  constexpr int kTotal = 16;
  Rng rng(321);
  std::vector<Tensor> inputs;
  for (int i = 0; i < kTotal; ++i) inputs.push_back(testing::make_image(rng));

  Server server(registry, options(2, 8, ms(5)));
  std::vector<std::future<Tensor>> futures;
  for (const Tensor& x : inputs) futures.push_back(server.submit("m", x));
  for (int i = 0; i < kTotal; ++i) {
    const Tensor got = futures[static_cast<std::size_t>(i)].get();
    const Tensor want = snap.exec->run(inputs[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(got.same_shape(want)) << "request " << i;
    for (std::int64_t j = 0; j < want.numel(); ++j) {
      ASSERT_NEAR(got[j], want[j], 1e-5) << "request " << i << " element " << j;
    }
  }
  EXPECT_EQ(testing::error_count(server.metrics(), "m"), 0);
}

// A zero worker or replica count serves as one: the group still has a
// replica to route to and a worker to drain it.
TEST(ServerTest, ZeroWorkersAndReplicasServeAsOne) {
  auto registry = make_registry();
  const ModelSnapshot snap = registry->snapshot("m");
  ServerOptions o = options(0, 1, ms(0));
  o.num_replicas = 0;
  Server server(registry, o);
  EXPECT_EQ(server.replicas().size(), 1u);

  Rng rng(9);
  const Tensor input = testing::make_image(rng);
  const Tensor want = snap.plan->run(input);
  const Tensor got = server.submit("m", input).get();
  ASSERT_TRUE(got.same_shape(want));
  for (std::int64_t j = 0; j < want.numel(); ++j) {
    ASSERT_EQ(got[j], want[j]) << "element " << j;
  }
  EXPECT_EQ(testing::request_count(server.metrics(), "m"), 1);
}

TEST(ServerTest, UnknownModelThrowsFromSubmit) {
  Server server(make_registry(), options(1, 1, ms(0)));
  Rng rng(5);
  EXPECT_THROW(server.submit("ghost", testing::make_image(rng)),
               InvalidArgument);
  EXPECT_EQ(testing::error_count(server.metrics(), "ghost"), 1);
  EXPECT_EQ(testing::request_count(server.metrics(), "ghost"), 0);
  EXPECT_EQ(server.pending(), 0u);
}

// A model evicted while its request waits in the queue is still answered,
// with the failure on the request's future.
TEST(ServerTest, ModelEvictedWhileQueuedFailsOnFuture) {
  auto registry = make_registry();
  // The long delay holds the request in the queue until shutdown drains it.
  Server server(registry, options(1, 1024, ms(60000)));
  Rng rng(6);
  auto future = server.submit("m", testing::make_image(rng));
  ASSERT_TRUE(registry->evict("m"));
  server.shutdown();
  EXPECT_THROW(future.get(), InvalidArgument);
  EXPECT_EQ(testing::error_count(server.metrics(), "m"), 1);
  EXPECT_EQ(testing::request_count(server.metrics(), "m"), 0);
}

// Acceptance (c) + (d): a full queue rejects instead of growing, and
// shutdown drains every accepted request without loss. The huge max_batch /
// max_delay pin all accepted requests in the queue until shutdown's drain,
// which ignores the delay — so completing well before the 60s deadline
// proves the drain path, not the timer, answered them.
TEST(ServerTest, BackpressureThenGracefulDrainOnShutdown) {
  auto registry = make_registry();
  const auto plan = registry->snapshot("m").plan;
  constexpr std::size_t kCapacity = 6;
  Server server(registry, options(2, 1024, ms(60000), kCapacity));

  Rng rng(77);
  std::vector<Tensor> inputs;
  std::vector<std::future<Tensor>> futures;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    inputs.push_back(testing::make_image(rng));
    futures.push_back(server.submit("m", inputs.back()));
  }
  EXPECT_THROW(server.submit("m", testing::make_image(rng)), RejectedError);
  EXPECT_EQ(testing::error_count(server.metrics(), "m"), 1);

  const auto t0 = std::chrono::steady_clock::now();
  server.shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, ms(30000));
  EXPECT_EQ(server.pending(), 0u);

  for (std::size_t i = 0; i < kCapacity; ++i) {
    const Tensor got = futures[i].get();
    const Tensor want = plan->run(inputs[i]);
    for (std::int64_t j = 0; j < want.numel(); ++j) ASSERT_EQ(got[j], want[j]);
  }
  EXPECT_EQ(testing::request_count(server.metrics(), "m"),
            static_cast<std::int64_t>(kCapacity));
}

TEST(ServerTest, SubmitAfterShutdownRejects) {
  Server server(make_registry(), options(1, 1, ms(0)));
  server.shutdown();
  server.shutdown();  // idempotent
  Rng rng(3);
  EXPECT_THROW(server.submit("m", testing::make_image(rng)), RejectedError);
}

TEST(ServerTest, MetricsTrackBatchesAndLatencies) {
  auto registry = make_registry();
  // One worker + a small aging window so several requests coalesce.
  Server server(registry, options(1, 8, ms(20)));
  Rng rng(31);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(server.submit("m", testing::make_image(rng)));
  }
  for (auto& f : futures) f.get();
  server.shutdown();

  const obs::MetricsRegistry& metrics = server.metrics();
  EXPECT_EQ(testing::request_count(metrics, "m"), 24);
  const obs::Summary* sizes =
      metrics.find_summary(model_metric("serve.batch.size", "m"));
  ASSERT_NE(sizes, nullptr);
  double rows_total = 0.0;
  for (const double size : sizes->samples()) {
    EXPECT_GE(size, 1.0);
    EXPECT_LE(size, 8.0);
    rows_total += size;
  }
  EXPECT_DOUBLE_EQ(rows_total, 24.0);

  const obs::Summary* lat =
      metrics.find_summary(model_metric("serve.request.latency_ms", "m"));
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 24);
  EXPECT_GT(lat->quantile(0.50), 0.0);
  EXPECT_LE(lat->quantile(0.50), lat->quantile(0.95));
  EXPECT_LE(lat->quantile(0.95), lat->quantile(0.99));

  const std::string report = metrics.to_text();
  EXPECT_NE(report.find("serve.request.latency_ms{model=m}"),
            std::string::npos);
}

// Each Server owns its metrics: two servers over one ModelRegistry count
// only the requests and errors they answered themselves.
TEST(ServerTest, MetricsArePerServer) {
  auto registry = make_registry();
  Server a(registry, options(1, 4, ms(0)));
  Server b(registry, options(1, 4, ms(0)));
  Rng rng(17);
  for (int i = 0; i < 3; ++i) a.submit("m", testing::make_image(rng)).get();
  for (int i = 0; i < 5; ++i) b.submit("m", testing::make_image(rng)).get();
  EXPECT_THROW(b.submit("ghost", testing::make_image(rng)).get(),
               InvalidArgument);

  EXPECT_EQ(testing::request_count(a.metrics(), "m"), 3);
  EXPECT_EQ(testing::request_count(b.metrics(), "m"), 5);
  EXPECT_EQ(testing::error_count(a.metrics(), "ghost"), 0);
  EXPECT_EQ(testing::error_count(b.metrics(), "ghost"), 1);
  EXPECT_EQ(a.metrics().find_counter(model_metric("serve.error.count", "ghost")),
            nullptr);
}

// The four per-model families agree with one another: one latency sample
// per served request, one batch-size sample per batch, batch sizes summing
// to the request count and each within the policy's max_batch.
TEST(ServerTest, PerModelFamiliesAccountForEveryServedRequest) {
  constexpr int kRequests = 10;
  constexpr std::int64_t kMaxBatch = 4;
  auto registry = make_registry();
  Server server(registry, options(1, kMaxBatch, ms(2)));
  Rng rng(23);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.submit("m", testing::make_image(rng)));
  }
  for (auto& f : futures) f.get();

  const obs::MetricsRegistry& metrics = server.metrics();
  EXPECT_EQ(metrics.names_with_prefix("serve."),
            (std::vector<std::string>{
                "serve.batch.size{model=m}", "serve.error.count{model=m}",
                "serve.request.count{model=m}",
                "serve.request.latency_ms{model=m}"}));
  EXPECT_EQ(testing::request_count(metrics, "m"), kRequests);
  EXPECT_EQ(testing::error_count(metrics, "m"), 0);

  const obs::Summary* latency =
      metrics.find_summary(model_metric("serve.request.latency_ms", "m"));
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), kRequests);
  for (double v : latency->samples()) EXPECT_GE(v, 0.0);

  const obs::Summary* batch =
      metrics.find_summary(model_metric("serve.batch.size", "m"));
  ASSERT_NE(batch, nullptr);
  EXPECT_GE(batch->count(), (kRequests + kMaxBatch - 1) / kMaxBatch);
  EXPECT_DOUBLE_EQ(batch->sum(), static_cast<double>(kRequests));
  for (double v : batch->samples()) {
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, static_cast<double>(kMaxBatch));
  }
}

TEST(ServerTest, HotSwapWhileServingUsesNewModelForLaterRequests) {
  auto registry = make_registry();
  Server server(registry, options(2, 4, ms(1)));
  Rng rng(41);
  const Tensor probe = testing::make_image(rng);
  const Tensor before = server.submit("m", probe).get();

  registry->register_model("m", testing::make_executor(99));
  const Tensor after = server.submit("m", probe).get();
  bool identical = true;
  for (std::int64_t j = 0; j < before.numel(); ++j) {
    if (before[j] != after[j]) identical = false;
  }
  EXPECT_FALSE(identical) << "post-swap requests must hit the new weights";
}

}  // namespace
}  // namespace dcnas::serve
