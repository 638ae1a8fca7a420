#include "util/trace.hpp"

#include <memory>
#include <mutex>

#include "util/metrics.hpp"

namespace memstress::trace {

namespace {

/// One aggregation node. Children are owned; addresses are stable for the
/// process lifetime (reset() zeroes, never deletes) so thread-local current
/// pointers and in-flight Spans can hold raw Node*.
struct Node {
  std::string name;
  Node* parent = nullptr;
  long long count = 0;
  double total_s = 0.0;
  bool fanout = false;
  std::vector<std::unique_ptr<Node>> children;
};

std::mutex& tree_mutex() {
  static std::mutex m;
  return m;
}

Node& root() {
  static Node r;
  return r;
}

thread_local Node* tls_current = nullptr;  // null = top level (root)
thread_local int tls_guards = 0;           // live ContextGuards

Node* find_or_add_child(Node& parent, const char* name) {
  for (const auto& child : parent.children)
    if (child->name == name) return child.get();
  parent.children.push_back(std::make_unique<Node>());
  Node* node = parent.children.back().get();
  node->name = name;
  node->parent = &parent;
  return node;
}

void snapshot_children(const Node& node, std::vector<NodeSnapshot>& out) {
  for (const auto& child : node.children) {
    if (child->count == 0) continue;  // reset or never entered
    NodeSnapshot snap;
    snap.name = child->name;
    snap.count = child->count;
    snap.total_s = child->total_s;
    snap.fanout = child->fanout;
    snapshot_children(*child, snap.children);
    out.push_back(std::move(snap));
  }
}

void zero(Node& node) {
  node.count = 0;
  node.total_s = 0.0;
  node.fanout = false;
  for (const auto& child : node.children) zero(*child);
}

}  // namespace

Span::Span(const char* name) {
  if (!metrics::enabled()) return;
  std::lock_guard<std::mutex> lock(tree_mutex());
  Node& parent = tls_current ? *tls_current : root();
  Node* node = find_or_add_child(parent, name);
  if (tls_guards > 0) node->fanout = true;
  node_ = node;
  parent_ = tls_current;
  tls_current = node;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!node_) return;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  std::lock_guard<std::mutex> lock(tree_mutex());
  Node* node = static_cast<Node*>(node_);
  ++node->count;
  node->total_s += elapsed;
  tls_current = static_cast<Node*>(parent_);
}

void* current_context() { return tls_current; }

ContextGuard::ContextGuard(void* context) : prev_(tls_current) {
  tls_current = static_cast<Node*>(context);
  ++tls_guards;
}

ContextGuard::~ContextGuard() {
  tls_current = static_cast<Node*>(prev_);
  --tls_guards;
}

std::vector<NodeSnapshot> snapshot() {
  std::lock_guard<std::mutex> lock(tree_mutex());
  std::vector<NodeSnapshot> out;
  snapshot_children(root(), out);
  return out;
}

void reset() {
  std::lock_guard<std::mutex> lock(tree_mutex());
  zero(root());
}

}  // namespace memstress::trace
