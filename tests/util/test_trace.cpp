#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <string>
#include <thread>

#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace memstress::trace {
namespace {

class MetricsGuard {
 public:
  MetricsGuard() {
    metrics::set_enabled(true);
    metrics::reset();
  }
  ~MetricsGuard() {
    metrics::reset();
    metrics::set_enabled(false);
  }
};

const NodeSnapshot* find(const std::vector<NodeSnapshot>& nodes,
                         const std::string& name) {
  for (const auto& node : nodes)
    if (node.name == name) return &node;
  return nullptr;
}

TEST(TraceSpans, DisabledSpansRecordNothing) {
  MetricsGuard guard;
  metrics::set_enabled(false);
  { Span span("test.disabled"); }
  EXPECT_TRUE(snapshot().empty());
}

TEST(TraceSpans, NestingBuildsATree) {
  MetricsGuard guard;
  {
    Span outer("outer");
    { Span inner("inner"); }
    { Span inner("inner"); }
  }
  const auto roots = snapshot();
  const NodeSnapshot* outer = find(roots, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1);
  EXPECT_GE(outer->total_s, 0.0);
  const NodeSnapshot* inner = find(outer->children, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2);  // same path aggregates
  EXPECT_LE(inner->total_s, outer->total_s);
}

TEST(TraceSpans, SiblingsStaySeparate) {
  MetricsGuard guard;
  { Span a("sibling_a"); }
  { Span b("sibling_b"); }
  const auto roots = snapshot();
  EXPECT_NE(find(roots, "sibling_a"), nullptr);
  EXPECT_NE(find(roots, "sibling_b"), nullptr);
}

TEST(TraceSpans, ResetZeroesTheTree) {
  MetricsGuard guard;
  { Span span("reset_me"); }
  reset();
  EXPECT_TRUE(snapshot().empty());
  { Span span("reset_me"); }
  const auto roots = snapshot();
  const NodeSnapshot* node = find(roots, "reset_me");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, 1);
}

TEST(TraceParallel, WorkerSpansNestUnderTheLaunchingSpan) {
  MetricsGuard guard;
  {
    Span outer("parallel_outer");
    parallel_for(
        16,
        [](std::size_t) {
          Span task("task");
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        },
        4);
  }
  const auto roots = snapshot();
  const NodeSnapshot* outer = find(roots, "parallel_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_FALSE(outer->fanout);
  const NodeSnapshot* task = find(outer->children, "task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->count, 16);
  // Worker time is summed across threads: busy time, not a wall-time share.
  EXPECT_TRUE(task->fanout);
  // Nothing leaked to the top level.
  EXPECT_EQ(find(roots, "task"), nullptr);

  // The summed worker time outgrows its wall-time parent, yet no printed
  // share passes 100%.
  EXPECT_GT(task->total_s, outer->total_s);
  const std::string table = metrics::collect().to_table();
  for (std::size_t end = table.find('%'); end != std::string::npos;
       end = table.find('%', end + 1)) {
    std::size_t start = end;
    while (start > 0 && (std::isdigit(static_cast<unsigned char>(
                             table[start - 1])) ||
                         table[start - 1] == '.'))
      --start;
    EXPECT_LE(std::stod(table.substr(start, end - start)), 100.0) << table;
  }
}

TEST(TraceParallel, ContextGuardRestoresOnExit) {
  MetricsGuard guard;
  {
    Span outer("guard_outer");
    void* ctx = current_context();
    EXPECT_NE(ctx, nullptr);
    {
      ContextGuard inner(nullptr);
      EXPECT_EQ(current_context(), nullptr);
    }
    EXPECT_EQ(current_context(), ctx);
  }
  EXPECT_EQ(current_context(), nullptr);
}

TEST(TraceParallel, SerialFallbackKeepsNesting) {
  MetricsGuard guard;
  {
    Span outer("serial_outer");
    parallel_for(4, [](std::size_t) { Span task("task"); }, 1);
  }
  const auto roots = snapshot();
  const NodeSnapshot* outer = find(roots, "serial_outer");
  ASSERT_NE(outer, nullptr);
  const NodeSnapshot* task = find(outer->children, "task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->count, 4);
  EXPECT_FALSE(task->fanout);  // inline on the caller: wall time
}

}  // namespace
}  // namespace memstress::trace
