#include "api/graph_model.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "nn/elementwise.h"

namespace mpipu {
namespace {

std::string node_label(const GraphNode& n) {
  return std::string(graph_op_name(n.op)) + " node '" + n.name + "'";
}

/// Post-op geometry of apply_post_ops' pooling.
void apply_pool_dims(PoolOp pool, int& h, int& w) {
  switch (pool) {
    case PoolOp::kNone: break;
    case PoolOp::kMax2: h /= 2; w /= 2; break;
    case PoolOp::kGlobalAvg: h = 1; w = 1; break;
  }
}

Tensor global_avg_pool(const Tensor& t) {
  Tensor out(t.c, 1, 1);
  for (int c = 0; c < t.c; ++c) {
    double s = 0.0;
    for (int y = 0; y < t.h; ++y) {
      for (int x = 0; x < t.w; ++x) s += t.at(c, y, x);
    }
    out.at(c, 0, 0) = s / (static_cast<double>(t.h) * t.w);
  }
  return out;
}

}  // namespace

Tensor apply_post_ops(Tensor t, bool relu_first, PoolOp pool) {
  if (relu_first) t = relu(t);
  switch (pool) {
    case PoolOp::kNone: break;
    case PoolOp::kMax2: t = maxpool2(t); break;
    case PoolOp::kGlobalAvg: t = global_avg_pool(t); break;
  }
  return t;
}

const char* graph_op_name(GraphNode::Op op) {
  switch (op) {
    case GraphNode::Op::kInput: return "input";
    case GraphNode::Op::kConv: return "conv";
    case GraphNode::Op::kAdd: return "add";
    case GraphNode::Op::kConcat: return "concat";
  }
  return "?";
}

bool operator==(const GraphNode& a, const GraphNode& b) {
  return a.op == b.op && a.name == b.name && a.inputs == b.inputs &&
         a.spec.stride == b.spec.stride && a.spec.pad == b.spec.pad &&
         a.relu == b.relu && a.pool == b.pool &&
         a.filters.cout == b.filters.cout && a.filters.cin == b.filters.cin &&
         a.filters.kh == b.filters.kh && a.filters.kw == b.filters.kw &&
         a.filters.data == b.filters.data;
}

bool operator==(const GraphModel& a, const GraphModel& b) {
  return a.name_ == b.name_ && a.has_weights_ == b.has_weights_ &&
         a.tensor_stats_ == b.tensor_stats_ && a.nodes_ == b.nodes_;
}

GraphTopology analyze_graph(const std::vector<GraphNode>& nodes, int input_h,
                            int input_w) {
  if (nodes.empty()) {
    throw std::invalid_argument("analyze_graph: graph has no nodes");
  }
  if (input_h <= 0 || input_w <= 0) {
    throw std::invalid_argument(
        "analyze_graph: input spatial dims must be positive (got " +
        std::to_string(input_h) + "x" + std::to_string(input_w) + ")");
  }
  const int n = static_cast<int>(nodes.size());

  GraphTopology topo;
  topo.input_node = -1;

  // Structural checks: one input, per-op arity, predecessor ids in range.
  for (int i = 0; i < n; ++i) {
    const GraphNode& nd = nodes[static_cast<size_t>(i)];
    for (int p : nd.inputs) {
      if (p < 0 || p >= n || p == i) {
        throw std::invalid_argument("analyze_graph: " + node_label(nd) +
                                    " references invalid predecessor id " +
                                    std::to_string(p));
      }
    }
    switch (nd.op) {
      case GraphNode::Op::kInput:
        if (topo.input_node >= 0) {
          throw std::invalid_argument(
              "analyze_graph: graph has multiple input nodes ('" +
              nodes[static_cast<size_t>(topo.input_node)].name + "' and '" +
              nd.name + "'); exactly one is required");
        }
        if (!nd.inputs.empty() || nd.relu || nd.pool != PoolOp::kNone) {
          throw std::invalid_argument(
              "analyze_graph: input node '" + nd.name +
              "' must have no predecessors and no post-ops");
        }
        topo.input_node = i;
        break;
      case GraphNode::Op::kConv:
        if (nd.inputs.size() != 1) {
          throw std::invalid_argument("analyze_graph: " + node_label(nd) +
                                      " must have exactly one predecessor");
        }
        if (nd.spec.stride < 1) {
          throw std::invalid_argument("analyze_graph: " + node_label(nd) +
                                      " has stride " +
                                      std::to_string(nd.spec.stride) +
                                      "; the stride must be at least 1");
        }
        break;
      case GraphNode::Op::kAdd:
      case GraphNode::Op::kConcat:
        if (nd.inputs.size() < 2) {
          throw std::invalid_argument("analyze_graph: " + node_label(nd) +
                                      " needs at least two predecessors");
        }
        break;
    }
  }
  if (topo.input_node < 0) {
    throw std::invalid_argument("analyze_graph: graph has no input node");
  }

  // Infer input channels from the input node's direct conv consumers (a
  // join cannot pin channels on its own).
  topo.input_c = 0;
  for (const GraphNode& nd : nodes) {
    if (nd.op != GraphNode::Op::kConv || nd.inputs[0] != topo.input_node) {
      continue;
    }
    if (topo.input_c != 0 && topo.input_c != nd.filters.cin) {
      throw std::invalid_argument(
          "analyze_graph: conv consumers of the input disagree on its "
          "channel count (" + std::to_string(topo.input_c) + " vs " +
          std::to_string(nd.filters.cin) + " at '" + nd.name + "')");
    }
    topo.input_c = nd.filters.cin;
  }
  if (topo.input_c == 0) {
    throw std::invalid_argument(
        "analyze_graph: cannot infer the input channel count -- the input "
        "node has no direct conv consumer");
  }

  // Kahn's algorithm, taking ready nodes in ascending id order so the
  // execution order is a pure function of the graph.
  std::vector<int> indegree(static_cast<size_t>(n), 0);
  std::vector<int> outdegree(static_cast<size_t>(n), 0);
  for (const GraphNode& nd : nodes) {
    for (int p : nd.inputs) ++outdegree[static_cast<size_t>(p)];
  }
  for (int i = 0; i < n; ++i) {
    indegree[static_cast<size_t>(i)] =
        static_cast<int>(nodes[static_cast<size_t>(i)].inputs.size());
  }
  std::vector<int> level(static_cast<size_t>(n), 0);
  std::vector<char> done(static_cast<size_t>(n), 0);
  topo.order.reserve(static_cast<size_t>(n));
  for (;;) {
    int next = -1;
    for (int i = 0; i < n; ++i) {
      if (!done[static_cast<size_t>(i)] && indegree[static_cast<size_t>(i)] == 0) {
        next = i;
        break;
      }
    }
    if (next < 0) break;
    done[static_cast<size_t>(next)] = 1;
    topo.order.push_back(next);
    for (int i = 0; i < n; ++i) {
      const GraphNode& nd = nodes[static_cast<size_t>(i)];
      for (int p : nd.inputs) {
        if (p == next) {
          --indegree[static_cast<size_t>(i)];
          level[static_cast<size_t>(i)] =
              std::max(level[static_cast<size_t>(i)],
                       level[static_cast<size_t>(next)] + 1);
        }
      }
    }
  }
  if (static_cast<int>(topo.order.size()) != n) {
    throw std::invalid_argument(
        "analyze_graph: graph contains a cycle (" +
        std::to_string(n - static_cast<int>(topo.order.size())) +
        " nodes are unreachable from the input)");
  }

  // Exactly one output (sink).
  topo.output_node = -1;
  for (int i = 0; i < n; ++i) {
    if (outdegree[static_cast<size_t>(i)] != 0) continue;
    if (topo.output_node >= 0) {
      throw std::invalid_argument(
          "analyze_graph: graph has multiple outputs ('" +
          nodes[static_cast<size_t>(topo.output_node)].name + "' and '" +
          nodes[static_cast<size_t>(i)].name + "'); exactly one is required");
    }
    topo.output_node = i;
  }
  // order is nonempty and its last element has no unprocessed successors,
  // so a single sink always exists; keep the check for belt and braces.
  if (topo.output_node < 0) {
    throw std::invalid_argument("analyze_graph: graph has no output node");
  }

  // Shape propagation + join/conv agreement in execution order.
  topo.out_c.assign(static_cast<size_t>(n), 0);
  topo.out_h.assign(static_cast<size_t>(n), 0);
  topo.out_w.assign(static_cast<size_t>(n), 0);
  for (int id : topo.order) {
    const GraphNode& nd = nodes[static_cast<size_t>(id)];
    int c = 0, h = 0, w = 0;
    switch (nd.op) {
      case GraphNode::Op::kInput:
        c = topo.input_c;
        h = input_h;
        w = input_w;
        break;
      case GraphNode::Op::kConv: {
        const int p = nd.inputs[0];
        if (nodes[static_cast<size_t>(id)].filters.cin !=
            topo.out_c[static_cast<size_t>(p)]) {
          throw std::invalid_argument(
              "analyze_graph: " + node_label(nd) + " expects " +
              std::to_string(nd.filters.cin) + " input channels but '" +
              nodes[static_cast<size_t>(p)].name + "' produces " +
              std::to_string(topo.out_c[static_cast<size_t>(p)]));
        }
        c = nd.filters.cout;
        h = nd.spec.out_dim(topo.out_h[static_cast<size_t>(p)], nd.filters.kh);
        w = nd.spec.out_dim(topo.out_w[static_cast<size_t>(p)], nd.filters.kw);
        if (h <= 0 || w <= 0) {
          throw std::invalid_argument(
              "analyze_graph: " + node_label(nd) + " maps " +
              std::to_string(topo.out_h[static_cast<size_t>(p)]) + "x" +
              std::to_string(topo.out_w[static_cast<size_t>(p)]) +
              " activations to " + std::to_string(h) + "x" +
              std::to_string(w) + " -- the graph collapses at these input dims");
        }
        break;
      }
      case GraphNode::Op::kAdd: {
        const int p0 = nd.inputs[0];
        c = topo.out_c[static_cast<size_t>(p0)];
        h = topo.out_h[static_cast<size_t>(p0)];
        w = topo.out_w[static_cast<size_t>(p0)];
        for (int p : nd.inputs) {
          if (topo.out_c[static_cast<size_t>(p)] != c ||
              topo.out_h[static_cast<size_t>(p)] != h ||
              topo.out_w[static_cast<size_t>(p)] != w) {
            throw std::invalid_argument(
                "analyze_graph: " + node_label(nd) +
                " joins mismatched shapes ('" +
                nodes[static_cast<size_t>(p0)].name + "' is " +
                std::to_string(c) + "x" + std::to_string(h) + "x" +
                std::to_string(w) + ", '" +
                nodes[static_cast<size_t>(p)].name + "' is " +
                std::to_string(topo.out_c[static_cast<size_t>(p)]) + "x" +
                std::to_string(topo.out_h[static_cast<size_t>(p)]) + "x" +
                std::to_string(topo.out_w[static_cast<size_t>(p)]) + ")");
          }
        }
        break;
      }
      case GraphNode::Op::kConcat: {
        const int p0 = nd.inputs[0];
        h = topo.out_h[static_cast<size_t>(p0)];
        w = topo.out_w[static_cast<size_t>(p0)];
        for (int p : nd.inputs) {
          if (topo.out_h[static_cast<size_t>(p)] != h ||
              topo.out_w[static_cast<size_t>(p)] != w) {
            throw std::invalid_argument(
                "analyze_graph: " + node_label(nd) +
                " concatenates mismatched spatial dims ('" +
                nodes[static_cast<size_t>(p0)].name + "' is " +
                std::to_string(h) + "x" + std::to_string(w) + ", '" +
                nodes[static_cast<size_t>(p)].name + "' is " +
                std::to_string(topo.out_h[static_cast<size_t>(p)]) + "x" +
                std::to_string(topo.out_w[static_cast<size_t>(p)]) + ")");
          }
          c += topo.out_c[static_cast<size_t>(p)];
        }
        break;
      }
    }
    if (nd.op != GraphNode::Op::kInput) {
      apply_pool_dims(nd.pool, h, w);
      if (h <= 0 || w <= 0) {
        throw std::invalid_argument(
            "analyze_graph: pooling after " + node_label(nd) +
            " collapses the activation to " + std::to_string(h) + "x" +
            std::to_string(w));
      }
    }
    topo.out_c[static_cast<size_t>(id)] = c;
    topo.out_h[static_cast<size_t>(id)] = h;
    topo.out_w[static_cast<size_t>(id)] = w;
  }

  // Wave structure: topological levels.  Nodes of one wave have no edges
  // among themselves (an edge strictly increases the level), so a wave may
  // execute concurrently; waves run in ascending level order.
  int max_level = 0;
  for (int i = 0; i < n; ++i) max_level = std::max(max_level, level[static_cast<size_t>(i)]);
  topo.waves.assign(static_cast<size_t>(max_level), {});
  for (int id : topo.order) {
    if (id == topo.input_node) continue;
    topo.waves[static_cast<size_t>(level[static_cast<size_t>(id)] - 1)]
        .push_back(id);
  }
  return topo;
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

GraphModel::Builder::Builder(std::string model_name)
    : name_(std::move(model_name)), stats_(forward_stats()) {}

int GraphModel::Builder::push(GraphNode node) {
  for (int p : node.inputs) {
    if (p < 0 || p >= static_cast<int>(nodes_.size())) {
      throw std::invalid_argument(
          "GraphModel::Builder: node '" + node.name +
          "' references id " + std::to_string(p) +
          " which does not exist yet (predecessors must be built first)");
    }
  }
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int GraphModel::Builder::input(std::string name) {
  GraphNode n;
  n.op = GraphNode::Op::kInput;
  n.name = std::move(name);
  return push(std::move(n));
}

int GraphModel::Builder::conv(std::string name, FilterBank filters,
                              ConvSpec spec, int from, bool relu, PoolOp pool) {
  GraphNode n;
  n.op = GraphNode::Op::kConv;
  n.name = std::move(name);
  n.inputs = {from};
  n.filters = std::move(filters);
  n.spec = spec;
  n.relu = relu;
  n.pool = pool;
  return push(std::move(n));
}

int GraphModel::Builder::conv_shape(std::string name, int cout, int cin,
                                    int kh, int kw, ConvSpec spec, int from,
                                    bool relu, PoolOp pool) {
  const int id = conv(std::move(name), FilterBank(cout, cin, kh, kw), spec,
                      from, relu, pool);
  shape_only_ids_.push_back(id);
  return id;
}

int GraphModel::Builder::add(std::string name, int a, int b, bool relu,
                             PoolOp pool) {
  GraphNode n;
  n.op = GraphNode::Op::kAdd;
  n.name = std::move(name);
  n.inputs = {a, b};
  n.relu = relu;
  n.pool = pool;
  return push(std::move(n));
}

int GraphModel::Builder::concat(std::string name, std::vector<int> from,
                                bool relu, PoolOp pool) {
  GraphNode n;
  n.op = GraphNode::Op::kConcat;
  n.name = std::move(name);
  n.inputs = std::move(from);
  n.relu = relu;
  n.pool = pool;
  return push(std::move(n));
}

GraphModel::Builder& GraphModel::Builder::tensor_stats(LayerTensorStats stats) {
  stats_ = stats;
  return *this;
}

GraphModel GraphModel::Builder::build() {
  GraphModel m;
  m.name_ = std::move(name_);
  m.nodes_ = std::move(nodes_);
  m.tensor_stats_ = stats_;
  m.shape_only_ids_ = std::move(shape_only_ids_);
  m.has_weights_ = m.shape_only_ids_.empty();
  return m;
}

// ---------------------------------------------------------------------------
// GraphModel
// ---------------------------------------------------------------------------

GraphModel GraphModel::from_nodes(std::string name,
                                  std::vector<GraphNode> nodes) {
  GraphModel m;
  m.name_ = std::move(name);
  m.nodes_ = std::move(nodes);
  m.tensor_stats_ = forward_stats();
  return m;
}

GraphModel GraphModel::from_layers(std::string name,
                                   std::vector<ModelLayer> layers) {
  if (layers.empty()) {
    throw std::invalid_argument("GraphModel::from_layers: layer list is empty");
  }
  for (size_t i = 1; i < layers.size(); ++i) {
    if (layers[i].filters.cin != layers[i - 1].filters.cout) {
      throw std::invalid_argument(
          "GraphModel::from_layers: layer '" + layers[i].name + "' expects " +
          std::to_string(layers[i].filters.cin) + " input channels but '" +
          layers[i - 1].name + "' produces " +
          std::to_string(layers[i - 1].filters.cout));
    }
  }
  std::vector<GraphNode> nodes;
  nodes.reserve(layers.size() + 1);
  GraphNode in;
  in.op = GraphNode::Op::kInput;
  in.name = "input";
  nodes.push_back(std::move(in));
  for (size_t i = 0; i < layers.size(); ++i) {
    ModelLayer& l = layers[i];
    GraphNode nd;
    nd.op = GraphNode::Op::kConv;
    nd.name = std::move(l.name);
    nd.inputs = {static_cast<int>(i)};
    nd.filters = std::move(l.filters);
    nd.spec = l.spec;
    nd.relu = l.relu;
    nd.pool = l.pool;
    nodes.push_back(std::move(nd));
  }
  return from_nodes(std::move(name), std::move(nodes));
}

size_t GraphModel::conv_count() const {
  size_t n = 0;
  for (const GraphNode& nd : nodes_) {
    if (nd.op == GraphNode::Op::kConv) ++n;
  }
  return n;
}

void GraphModel::materialize_weights(uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    GraphNode& nd = nodes_[i];
    if (nd.op != GraphNode::Op::kConv) continue;
    // Real weights handed to Builder::conv() are never overwritten: only
    // conv_shape() nodes (or, on a from_nodes graph, every conv node) are
    // filled.  shape_only_ids_ is ascending, so the draw order equals the
    // node order and stays deterministic.
    if (!shape_only_ids_.empty() &&
        std::find(shape_only_ids_.begin(), shape_only_ids_.end(),
                  static_cast<int>(i)) == shape_only_ids_.end()) {
      continue;
    }
    nd.filters = random_filters(rng, nd.filters.cout, nd.filters.cin,
                                nd.filters.kh, nd.filters.kw,
                                tensor_stats_.weight_dist,
                                tensor_stats_.weight_scale)
                     .rounded_to_fp16();
  }
  has_weights_ = true;
}

Network GraphModel::shape_table(int input_h, int input_w) const {
  const GraphTopology topo = analyze_graph(nodes_, input_h, input_w);
  Network net;
  net.name = name_;
  net.tensor_stats = tensor_stats_;
  for (int id : topo.order) {
    const GraphNode& nd = nodes_[static_cast<size_t>(id)];
    if (nd.op != GraphNode::Op::kConv) continue;
    const int p = nd.inputs[0];
    ConvLayer l;
    l.name = nd.name;
    l.cin = nd.filters.cin;
    l.cout = nd.filters.cout;
    l.kh = nd.filters.kh;
    l.kw = nd.filters.kw;
    l.stride = nd.spec.stride;
    // Rows record the *conv* output (pre-pool), exactly like the
    // hand-built tables in workload/networks.h.
    l.hout = nd.spec.out_dim(topo.out_h[static_cast<size_t>(p)], nd.filters.kh);
    l.wout = nd.spec.out_dim(topo.out_w[static_cast<size_t>(p)], nd.filters.kw);
    net.layers.push_back(std::move(l));
  }
  return net;
}

std::vector<Tensor> graph_reference_outputs(const std::vector<GraphNode>& nodes,
                                            const GraphTopology& topo,
                                            const Tensor& input) {
  std::vector<Tensor> refs(nodes.size());
  const auto activation = [&](int id) -> const Tensor& {
    return id == topo.input_node ? input : refs[static_cast<size_t>(id)];
  };
  for (int id : topo.order) {
    const GraphNode& nd = nodes[static_cast<size_t>(id)];
    if (nd.op == GraphNode::Op::kInput) continue;
    Tensor y;
    switch (nd.op) {
      case GraphNode::Op::kInput: break;
      case GraphNode::Op::kConv:
        y = conv_reference(activation(nd.inputs[0]), nd.filters, nd.spec);
        break;
      case GraphNode::Op::kAdd:
      case GraphNode::Op::kConcat: {
        std::vector<const Tensor*> parts;
        parts.reserve(nd.inputs.size());
        for (int p : nd.inputs) parts.push_back(&activation(p));
        y = nd.op == GraphNode::Op::kAdd ? tensor_add(parts)
                                         : channel_concat(parts);
        break;
      }
    }
    refs[static_cast<size_t>(id)] = apply_post_ops(std::move(y), nd.relu, nd.pool);
  }
  return refs;
}

}  // namespace mpipu
