// Completion graph (paper Sec. 3.2.5 / 4.1.4): a set of operations with a
// partial execution order, similar in spirit to CUDA Graphs. Every node
// tracks its unfinished dependencies with an atomic counter; a node whose
// counter reaches zero is fired immediately, and a completed node signals all
// its descendants.
#include <atomic>
#include <cassert>
#include <deque>
#include <vector>

#include "core/comp_impl.hpp"
#include "core/runtime_impl.hpp"
#include "util/lcrq.hpp"

namespace lci::detail {

class graph_impl_t {
 public:
  uint32_t add_node(graph_fn_t fn) {
    assert(!started_ && "add_node after graph_start");
    const auto id = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();  // std::deque: existing node addresses are stable
    node_t& node = nodes_.back();
    node.fn = std::move(fn);
    node.comp.graph = this;
    node.comp.id = id;
    return id;
  }

  void add_edge(uint32_t from, uint32_t to) {
    assert(!started_ && "add_edge after graph_start");
    nodes_[from].children.push_back(to);
    ++nodes_[to].indegree_static;
  }

  comp_impl_t* node_comp(uint32_t id) { return &nodes_[id].comp; }

  void start() {
    completed_.store(0, std::memory_order_relaxed);
    while (retry_.try_pop()) {
    }
    for (auto& node : nodes_)
      node.pending_deps.store(node.indegree_static,
                              std::memory_order_relaxed);
    started_ = true;
    for (uint32_t id = 0; id < nodes_.size(); ++id) {
      if (nodes_[id].indegree_static == 0) run_node(id);
    }
  }

  bool test() {
    // Re-run nodes that previously hit a retry (bounded by the current
    // backlog so a persistently retrying node does not spin here).
    const std::size_t pending = retry_.size_approx();
    for (std::size_t i = 0; i < pending; ++i) {
      auto id = retry_.try_pop();
      if (!id) break;
      run_node(*id);
    }
    return completed_.load(std::memory_order_acquire) == nodes_.size();
  }

  // Called by a posted operation's completion (node_comp) — possibly from a
  // progress thread.
  void on_node_signal(uint32_t id) { complete_node(id); }

 private:
  struct node_comp_t final : public comp_impl_t {
    node_comp_t() : comp_impl_t(kind_t::other) {}
    graph_impl_t* graph = nullptr;
    uint32_t id = 0;
    void signal(const status_t&) override { graph->on_node_signal(id); }
  };

  struct node_t {
    graph_fn_t fn;
    std::vector<uint32_t> children;
    uint32_t indegree_static = 0;
    std::atomic<uint32_t> pending_deps{0};
    node_comp_t comp;
  };

  void run_node(uint32_t id) {
    const status_t status = nodes_[id].fn();
    if (status.error.is_done() || status.error.is_fatal()) {
      // Fatal counts as completion: the operation will never succeed, and a
      // stuck node would deadlock the whole graph.
      complete_node(id);
    } else if (status.error.is_retry()) {
      retry_.push(id);
    }
    // posted: completion arrives through node_comp.
  }

  void complete_node(uint32_t id) {
    completed_.fetch_add(1, std::memory_order_release);
    for (const uint32_t child : nodes_[id].children) {
      if (nodes_[child].pending_deps.fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        run_node(child);  // ready nodes fire immediately
      }
    }
  }

  std::deque<node_t> nodes_;
  std::atomic<std::size_t> completed_{0};
  util::lcrq_t<uint32_t> retry_{64};
  bool started_ = false;
};

}  // namespace lci::detail

namespace lci {

graph_t alloc_graph(runtime_t) {
  graph_t graph;
  graph.p = new detail::graph_impl_t;
  return graph;
}

void free_graph(graph_t* graph) {
  if (graph == nullptr || graph->p == nullptr) return;
  delete graph->p;
  graph->p = nullptr;
}

graph_node_t graph_add_node(graph_t graph, graph_fn_t fn) {
  return graph.p->add_node(std::move(fn));
}

void graph_add_edge(graph_t graph, graph_node_t from, graph_node_t to) {
  graph.p->add_edge(from, to);
}

comp_t graph_node_comp(graph_t graph, graph_node_t node) {
  comp_t comp;
  comp.p = graph.p->node_comp(node);
  return comp;
}

void graph_start(graph_t graph) { graph.p->start(); }

bool graph_test(graph_t graph) { return graph.p->test(); }

}  // namespace lci
