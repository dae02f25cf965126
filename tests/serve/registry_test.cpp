#include "dcnas/serve/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "dcnas/analysis/diagnostic.hpp"
#include "dcnas/graph/model_file.hpp"
#include "dcnas/plan/compiler.hpp"
#include "dcnas/serve/server.hpp"
#include "serve_test_util.hpp"

namespace dcnas::serve {
namespace {

TEST(ModelRegistryTest, RegisterThenGetRunsInference) {
  ModelRegistry registry;
  EXPECT_EQ(registry.register_model("dcnx", testing::make_executor()), 1);
  ASSERT_TRUE(registry.contains("dcnx"));
  const auto exec = registry.get("dcnx");
  Rng rng(7);
  const Tensor out = exec->run(testing::make_image(rng));
  EXPECT_EQ(out.dim(0), 1);
  EXPECT_EQ(out.dim(1), 2);  // binary classifier logits
}

TEST(ModelRegistryTest, GetUnknownThrows) {
  ModelRegistry registry;
  EXPECT_THROW(registry.get("missing"), InvalidArgument);
}

TEST(ModelRegistryTest, EmptyNameRejected) {
  ModelRegistry registry;
  EXPECT_THROW(registry.register_model("", testing::make_executor()),
               InvalidArgument);
}

TEST(ModelRegistryTest, HotSwapBumpsVersionAndKeepsOldInstanceAlive) {
  ModelRegistry registry;
  registry.register_model("m", testing::make_executor(1));
  const auto old_exec = registry.get("m");
  EXPECT_EQ(registry.register_model("m", testing::make_executor(2)), 2);
  EXPECT_EQ(registry.version("m"), 2);

  // The pre-swap handle still runs (workers mid-inference are unaffected),
  // and the registry now hands out the new weights.
  Rng rng(9);
  const Tensor x = testing::make_image(rng);
  const Tensor old_out = old_exec->run(x);
  const Tensor new_out = registry.get("m")->run(x);
  bool identical = true;
  for (std::int64_t i = 0; i < old_out.numel(); ++i) {
    if (old_out[i] != new_out[i]) identical = false;
  }
  EXPECT_FALSE(identical) << "swap should install different weights";
}

TEST(ModelRegistryTest, EvictRemovesAndVersionSurvives) {
  ModelRegistry registry;
  registry.register_model("m", testing::make_executor());
  EXPECT_TRUE(registry.evict("m"));
  EXPECT_FALSE(registry.evict("m"));
  EXPECT_FALSE(registry.contains("m"));
  EXPECT_EQ(registry.version("m"), 1);
  EXPECT_EQ(registry.register_model("m", testing::make_executor()), 2);
}

TEST(ModelRegistryTest, CapacityEvictsLeastRecentlyUsed) {
  ModelRegistry registry(2);
  registry.register_model("a", testing::make_executor(1));
  registry.register_model("b", testing::make_executor(2));
  registry.get("a");  // b is now LRU
  registry.register_model("c", testing::make_executor(3));
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.contains("a"));
  EXPECT_FALSE(registry.contains("b"));
  EXPECT_TRUE(registry.contains("c"));
}

TEST(ModelRegistryTest, LoadsModelFileFromDisk) {
  graph::GraphExecutor exec = testing::make_executor();
  const std::string path =
      (std::filesystem::temp_directory_path() / "dcnas_registry_test.dcnx")
          .string();
  graph::save_model(exec, path);

  ModelRegistry registry;
  registry.load("disk", path);
  Rng rng(4);
  const Tensor x = testing::make_image(rng);
  const Tensor a = exec.run(x);
  const Tensor b = registry.get("disk")->run(x);
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, SnapshotCarriesPlanMatchingExecutor) {
  ModelRegistry registry;
  registry.register_model("m", testing::make_executor());
  const ModelSnapshot snap = registry.snapshot("m");
  ASSERT_NE(snap.exec, nullptr);
  ASSERT_NE(snap.plan, nullptr);
  EXPECT_EQ(snap.version, 1);
  Rng rng(11);
  const Tensor x = testing::make_image(rng);
  const Tensor via_graph = snap.exec->run(x);
  const Tensor via_plan = snap.plan->run(x);
  ASSERT_TRUE(via_graph.same_shape(via_plan));
  for (std::int64_t i = 0; i < via_graph.numel(); ++i) {
    EXPECT_NEAR(via_graph[i], via_plan[i], 1e-5);
  }
}

TEST(ModelRegistryTest, LoadedModelFileServesFromAVerifiedPlan) {
  graph::GraphExecutor exec = testing::make_executor(7);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dcnas_registry_plan_test.dcnx")
          .string();
  graph::save_model(exec, path);

  // Every registration compiles a plan, whichever way the model arrived.
  ModelRegistry registry;
  registry.load("disk", path);
  std::remove(path.c_str());
  const ModelSnapshot snap = registry.snapshot("disk");
  ASSERT_NE(snap.exec, nullptr);
  ASSERT_NE(snap.plan, nullptr);
  Rng rng(17);
  const Tensor x = testing::make_image(rng);
  const Tensor want = exec.run(x);
  const Tensor got = snap.plan->run(x);
  ASSERT_TRUE(want.same_shape(got));
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_NEAR(want[i], got[i], 1e-5);
  }
}

TEST(ModelRegistryTest, HotSwapReplacesPlanAtomically) {
  ModelRegistry registry;
  registry.register_model("m", testing::make_executor(1));
  const ModelSnapshot before = registry.snapshot("m");
  registry.register_model("m", testing::make_executor(2));
  const ModelSnapshot after = registry.snapshot("m");

  // The swap installs a new plan alongside the new executor; the old pair
  // stays alive for in-flight holders but is no longer handed out.
  EXPECT_NE(before.plan, after.plan);
  EXPECT_NE(before.exec, after.exec);
  EXPECT_EQ(before.version, 1);
  EXPECT_EQ(after.version, 2);

  // The new plan serves the new weights, not the old ones.
  Rng rng(13);
  const Tensor x = testing::make_image(rng);
  const Tensor want = after.exec->run(x);
  const Tensor got = after.plan->run(x);
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_NEAR(want[i], got[i], 1e-5);
  }
}

TEST(ModelRegistryTest, EvictionDropsPlanWithExecutor) {
  ModelRegistry registry(2);
  registry.register_model("a", testing::make_executor(1));
  const ModelSnapshot held = registry.snapshot("a");  // keep v1 alive
  registry.register_model("b", testing::make_executor(2));
  registry.snapshot("b");  // a is now LRU
  registry.register_model("c", testing::make_executor(3));

  EXPECT_FALSE(registry.contains("a"));
  EXPECT_THROW(registry.snapshot("a"), InvalidArgument);
  // The held snapshot still works — eviction only drops the cache entry.
  Rng rng(15);
  const Tensor x = testing::make_image(rng);
  EXPECT_NO_THROW(held.plan->run(x));

  // Explicit eviction drops the derived plan too.
  ASSERT_TRUE(registry.evict("b"));
  EXPECT_THROW(registry.snapshot("b"), InvalidArgument);
}

/// The regression test from the issue: hot-swap weights while requests are
/// in flight and assert no request is ever answered by a stale plan — every
/// response must bitwise-match the output of one registered version, with
/// version-2 responses appearing once (and only once) the swap completes.
TEST(ModelRegistryTest, ConcurrentHotSwapNeverServesStalePlan) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->register_model("m", testing::make_executor(1));

  // Reference outputs per version, computed through the same plan path the
  // server uses. Plan execution is deterministic, and max_batch = 1 below
  // keeps every request's row layout identical to these references, so the
  // comparison can be exact.
  Rng rng(17);
  const Tensor x = testing::make_image(rng);
  const Tensor ref_v1 = registry->snapshot("m").plan->run(x);
  ModelRegistry staging;
  staging.register_model("m", testing::make_executor(2));
  const Tensor ref_v2 = staging.snapshot("m").plan->run(x);

  auto matches = [](const Tensor& got, const Tensor& ref) {
    if (!got.same_shape(ref)) return false;
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      if (got[i] != ref[i]) return false;
    }
    return true;
  };
  ASSERT_FALSE(matches(ref_v1, ref_v2)) << "versions must be distinguishable";

  ServerOptions options;
  options.num_workers = 2;
  options.batch.max_batch = 1;
  Server server(registry, options);

  std::atomic<bool> stop{false};
  std::atomic<int> v1_seen{0};
  std::atomic<int> v2_seen{0};
  std::atomic<int> stale_or_torn{0};

  // Background load racing with the swap. A request admitted before the
  // swap may legitimately be answered by version 1 even after it, so these
  // clients only check coherence: every response must exactly match one
  // registered version — never a torn executor/plan pairing.
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        Tensor out;
        try {
          out = server.submit("m", x).get();
        } catch (const RejectedError&) {
          continue;  // transient overload — not what this test is about
        }
        if (matches(out, ref_v1)) {
          ++v1_seen;
        } else if (matches(out, ref_v2)) {
          ++v2_seen;
        } else {
          ++stale_or_torn;
        }
      }
    });
  }

  // Let version 1 serve for a moment, then hot-swap under load.
  while (v1_seen.load() < 20) std::this_thread::yield();
  registry->register_model("m", testing::make_executor(2));

  // Every request submitted strictly after register_model returned must be
  // served by the new plan: its batch is dequeued after admission, and the
  // snapshot taken then can only observe version 2.
  for (int i = 0; i < 20; ++i) {
    Tensor out;
    try {
      out = server.submit("m", x).get();
    } catch (const RejectedError&) {
      --i;
      continue;
    }
    EXPECT_TRUE(matches(out, ref_v2))
        << "request admitted after the swap was served by the stale plan";
  }

  stop.store(true);
  for (auto& c : clients) c.join();
  server.shutdown();

  EXPECT_EQ(stale_or_torn.load(), 0)
      << "some response matched neither registered version";
  EXPECT_GT(v1_seen.load() + v2_seen.load(), 0);
}

// --- plan trust boundary: the registry must refuse byte-patched plans ------

/// Asserts that registering \p plan under a fresh name throws
/// InvalidArgument whose message names \p rule, and that nothing was
/// installed.
void expect_plan_refused(plan::CompiledPlan plan, const char* rule) {
  ModelRegistry registry;
  try {
    registry.register_model("patched", testing::make_executor(),
                            std::move(plan));
    FAIL() << "registry accepted a corrupted plan (" << rule << ")";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(rule), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(registry.contains("patched"));
  EXPECT_EQ(registry.version("patched"), 0);
}

TEST(ModelRegistryTest, AcceptsCallerSuppliedVerifiedPlan) {
  const graph::GraphExecutor exec = testing::make_executor();
  plan::CompiledPlan plan = plan::compile_plan(exec);
  ModelRegistry registry;
  EXPECT_EQ(registry.register_model("m", exec, std::move(plan)), 1);
  const ModelSnapshot snap = registry.snapshot("m");
  ASSERT_NE(snap.plan, nullptr);
  Rng rng(11);
  const Tensor x = testing::make_image(rng);
  const Tensor want = snap.exec->run(x);
  const Tensor got = snap.plan->run(x);
  ASSERT_TRUE(want.same_shape(got));
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    EXPECT_NEAR(want[i], got[i], 1e-4) << i;
  }
}

TEST(ModelRegistryTest, RefusesPlanWithShiftedArenaOffsets) {
  plan::CompiledPlan plan = plan::compile_plan(testing::make_executor());
  // Shift a live slot onto its operand's offset: aliased at every batch.
  plan.slots[static_cast<std::size_t>(plan.steps[1].out)].offset =
      plan.slots[static_cast<std::size_t>(plan.steps[0].out)].offset;
  expect_plan_refused(std::move(plan), analysis::rules::kPlanAlias);
}

TEST(ModelRegistryTest, RefusesPlanWithForgedFusionProvenance) {
  plan::CompiledPlan plan = plan::compile_plan(testing::make_executor());
  auto it = std::find_if(
      plan.steps.begin(), plan.steps.end(),
      [](const plan::PlanStep& s) { return s.nodes.size() > 1; });
  ASSERT_NE(it, plan.steps.end());
  it->nodes.pop_back();  // claim the fused chain is shorter than it is
  expect_plan_refused(std::move(plan), analysis::rules::kPlanProvenance);
}

TEST(ModelRegistryTest, RefusesPlanWithReorderedSteps) {
  plan::CompiledPlan plan = plan::compile_plan(testing::make_executor());
  std::swap(plan.steps[0], plan.steps[1]);
  expect_plan_refused(std::move(plan), analysis::rules::kPlanStepOrder);
}

TEST(ModelRegistryTest, RefusedHotSwapLeavesResidentVersionServing) {
  const graph::GraphExecutor exec = testing::make_executor();
  ModelRegistry registry;
  registry.register_model("m", exec);
  const ModelSnapshot before = registry.snapshot("m");

  plan::CompiledPlan patched = plan::compile_plan(exec);
  patched.slots[0].offset = patched.arena_size;  // slot beyond the arena
  EXPECT_THROW(registry.register_model("m", exec, std::move(patched)),
               InvalidArgument);

  // The refused swap must not have bumped, evicted, or replaced anything.
  EXPECT_EQ(registry.version("m"), 1);
  const ModelSnapshot after = registry.snapshot("m");
  EXPECT_EQ(after.version, before.version);
  EXPECT_EQ(after.exec.get(), before.exec.get());
  EXPECT_EQ(after.plan.get(), before.plan.get());
}

TEST(ModelRegistryTest, NamesAreSorted) {
  ModelRegistry registry;
  registry.register_model("zeta", testing::make_executor(1));
  registry.register_model("alpha", testing::make_executor(2));
  const auto names = registry.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

}  // namespace
}  // namespace dcnas::serve
