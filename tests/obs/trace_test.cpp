#include "dcnas/obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

// Operator-new calls so far in this binary (alloc_counter.cpp), so
// DisabledSpansDoNotAllocate can assert the disabled record path is
// allocation-free (constraint #1 in trace.hpp).
std::int64_t test_allocation_count();

namespace dcnas::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    TraceRecorder::global().disable();
    TraceRecorder::global().clear();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(TraceRecorder::enabled());
  {
    Span s("test", "ignored");
    s.arg("key", "value");
    EXPECT_FALSE(s.armed());
  }
  EXPECT_TRUE(TraceRecorder::global().snapshot().empty());
}

TEST_F(TraceTest, DisabledSpansDoNotAllocate) {
  ASSERT_FALSE(TraceRecorder::enabled());
  const std::int64_t before = test_allocation_count();
  for (int i = 0; i < 1000; ++i) {
    Span s("test", "hot.path.span");
    s.arg("iteration", static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(test_allocation_count(), before);
}

TEST_F(TraceTest, RecordsNestedSpansWithDepth) {
  TraceRecorder::global().enable();
  {
    Span outer("test", "outer");
    {
      Span inner("test", "inner");
      { DCNAS_TRACE_SPAN("test", "leaf"); }
    }
  }
  const auto events = TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 3u);
  // snapshot() sorts parents before children.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[2].name, "leaf");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 2u);
  // Each parent interval encloses its child.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].start_ns, events[i].start_ns);
    EXPECT_GE(events[i - 1].start_ns + events[i - 1].duration_ns,
              events[i].start_ns + events[i].duration_ns);
  }
}

TEST_F(TraceTest, SpanArgsAreRecorded) {
  TraceRecorder::global().enable();
  {
    Span s("test", "with.args");
    EXPECT_TRUE(s.armed());
    s.arg("model", "drainage");
    s.arg("rows", std::int64_t{8});
  }
  const auto events = TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].args, "model=drainage,rows=8");
}

TEST_F(TraceTest, OversizedArgPairIsDroppedWhole) {
  TraceRecorder::global().enable();
  {
    Span s("test", "truncating");
    s.arg("fits", "yes");
    s.arg("huge", std::string(2 * SpanEvent::kArgsCapacity, 'x'));
    s.arg("after", "kept");
  }
  const auto events = TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  // The pair that cannot fit is dropped entirely — no half-written "huge=xx".
  EXPECT_STREQ(events[0].args, "fits=yes,after=kept");
}

TEST_F(TraceTest, LongNamesAreTruncatedNotCorrupted) {
  TraceRecorder::global().enable();
  const std::string long_name(3 * SpanEvent::kNameCapacity, 'n');
  { Span s("test", long_name); }
  const auto events = TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name),
            long_name.substr(0, SpanEvent::kNameCapacity - 1));
}

TEST_F(TraceTest, ConcurrentSpansStayWellNestedPerThread) {
  TraceRecorder::global().enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread / 2; ++i) {
        Span outer("test", "outer." + std::to_string(t));
        Span inner("test", "inner." + std::to_string(i));
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto events = TraceRecorder::global().snapshot();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(TraceRecorder::global().thread_count(),
            static_cast<std::size_t>(kThreads));
  EXPECT_EQ(TraceRecorder::global().dropped_count(), 0u);

  // Within each thread, spans must form a proper interval nesting: replay
  // the (sorted) events against a stack of open intervals.
  std::map<std::uint32_t, std::vector<const SpanEvent*>> by_thread;
  for (const auto& e : events) by_thread[e.thread_id].push_back(&e);
  for (auto& [tid, spans] : by_thread) {
    // Clock granularity can give a parent and child identical start ticks;
    // depth breaks the tie so the replay below sees parents first.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const SpanEvent* a, const SpanEvent* b) {
                       if (a->start_ns != b->start_ns)
                         return a->start_ns < b->start_ns;
                       if (a->duration_ns != b->duration_ns)
                         return a->duration_ns > b->duration_ns;
                       return a->depth < b->depth;
                     });
    std::vector<std::uint64_t> open_ends;
    for (const SpanEvent* e : spans) {
      const std::uint64_t end = e->start_ns + e->duration_ns;
      while (!open_ends.empty() && open_ends.back() <= e->start_ns) {
        open_ends.pop_back();
      }
      if (!open_ends.empty()) {
        EXPECT_LE(end, open_ends.back())
            << "span overlaps its parent in thread " << tid;
      }
      EXPECT_EQ(e->depth, open_ends.size());
      open_ends.push_back(end);
    }
  }
}

TEST_F(TraceTest, FullRingKeepsLatestAndCountsDrops) {
  TraceOptions opt;
  opt.ring_capacity = 64;
  TraceRecorder::global().enable(opt);
  constexpr int kTotal = 200;
  for (int i = 0; i < kTotal; ++i) {
    Span s("test", "span." + std::to_string(i));
  }
  const auto events = TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), opt.ring_capacity);
  EXPECT_EQ(TraceRecorder::global().dropped_count(),
            static_cast<std::uint64_t>(kTotal) - opt.ring_capacity);
  // Keep-latest policy: the oldest surviving span is span.136.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(std::string(events[i].name),
              "span." + std::to_string(kTotal - static_cast<int>(
                                                    opt.ring_capacity) +
                                       static_cast<int>(i)));
  }
}

TEST_F(TraceTest, EnableDiscardsPreviousEventsDisableKeepsThem) {
  TraceRecorder::global().enable();
  { Span s("test", "first"); }
  TraceRecorder::global().disable();
  ASSERT_EQ(TraceRecorder::global().snapshot().size(), 1u);

  // Spans while disabled leave the kept events untouched.
  { Span s("test", "while.disabled"); }
  ASSERT_EQ(TraceRecorder::global().snapshot().size(), 1u);

  TraceRecorder::global().enable();
  EXPECT_TRUE(TraceRecorder::global().snapshot().empty());
  { Span s("test", "second"); }
  const auto events = TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "second");
}

}  // namespace
}  // namespace dcnas::obs
