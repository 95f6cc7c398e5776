#include "autograd/variable.h"

#include <unordered_set>

#include "common/counters.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace stgnn::autograd {

using tensor::Shape;
using tensor::Tensor;

namespace {

thread_local bool tape_disabled = false;

}  // namespace

NoTapeScope::NoTapeScope(bool enabled) : previous_(tape_disabled) {
  if (enabled) tape_disabled = true;
}

NoTapeScope::~NoTapeScope() { tape_disabled = previous_; }

bool TapeEnabled() { return !tape_disabled; }

namespace {

// ReduceGradToShape for a [rows, cols] grad and an aligned [out_rows,
// out_cols] target, without the multi-index walk: each output element is
// the same chain of float adds from +0, in the same row-major order, as the
// generic loop below builds.
Tensor ReduceRank2(const Tensor& grad, int out_rows, int out_cols) {
  const int rows = grad.dim(0);
  const int cols = grad.dim(1);
  Tensor out({out_rows, out_cols});
  const float* g = grad.data().data();
  float* o = out.mutable_data().data();
  if (out_cols == 1 && out_rows == 1) {
    float sum = 0.0f;
    for (int64_t e = 0; e < grad.size(); ++e) sum += g[e];
    o[0] = sum;
  } else if (out_cols == 1) {
    // Row sums: one chain per row, ascending column.
    common::ParallelFor(
        0, rows, common::GrainFor(rows, cols), [&](int64_t ib, int64_t ie) {
          for (int64_t i = ib; i < ie; ++i) {
            const float* row = g + i * cols;
            float sum = 0.0f;
            for (int j = 0; j < cols; ++j) sum += row[j];
            o[i] = sum;
          }
        });
  } else {
    // Column sums (out_rows == 1: an aligned target equal to the grad's
    // shape would have returned early): rows added in ascending order,
    // each column its own chain.
    STGNN_CHECK_EQ(out_rows, 1);
    common::ParallelFor(
        0, cols, common::GrainFor(cols, rows), [&](int64_t jb, int64_t je) {
          for (int i = 0; i < rows; ++i) {
            const float* row = g + static_cast<int64_t>(i) * cols;
            for (int64_t j = jb; j < je; ++j) o[j] += row[j];
          }
        });
  }
  return out;
}

}  // namespace

Tensor ReduceGradToShape(const Tensor& grad, const Shape& target_shape) {
  if (grad.shape() == target_shape) return grad;
  // Align target to grad's rank with leading 1s, then sum the axes where the
  // target extent is 1 (or absent).
  const int rank = grad.ndim();
  const int target_rank = static_cast<int>(target_shape.size());
  STGNN_CHECK_LE(target_rank, rank);
  Shape aligned(rank, 1);
  std::copy(target_shape.begin(), target_shape.end(),
            aligned.begin() + (rank - target_rank));
  if (rank == 2) {
    return ReduceRank2(grad, aligned[0], aligned[1]).Reshape(target_shape);
  }

  Tensor out(aligned);
  // Iterate over all grad elements, folding into the reduced index.
  std::vector<int> index(rank, 0);
  const auto& gdata = grad.data();
  auto& odata = out.mutable_data();
  // Row-major strides of the aligned (output) shape.
  std::vector<int64_t> ostrides(rank, 1);
  for (int i = rank - 2; i >= 0; --i) {
    ostrides[i] = ostrides[i + 1] * aligned[i + 1];
  }
  for (int64_t flat = 0; flat < grad.size(); ++flat) {
    int64_t oflat = 0;
    for (int d = 0; d < rank; ++d) {
      oflat += (aligned[d] == 1 ? 0 : index[d]) * ostrides[d];
    }
    odata[static_cast<size_t>(oflat)] += gdata[static_cast<size_t>(flat)];
    for (int d = rank - 1; d >= 0; --d) {
      if (++index[d] < grad.dim(d)) break;
      index[d] = 0;
    }
  }
  return out.Reshape(target_shape);
}

void Node::AccumulateGrad(const Tensor& g) {
  if (g.shape() == value.shape()) {
    if (!grad_initialized) {
      grad = g;
      grad_initialized = true;
    } else {
      tensor::AddInPlace(&grad, g);
    }
    return;
  }
  Tensor reduced = ReduceGradToShape(g, value.shape());
  if (!grad_initialized) {
    grad = std::move(reduced);
    grad_initialized = true;
  } else {
    tensor::AddInPlace(&grad, reduced);
  }
}

void Node::AccumulateGrad(Tensor&& g) {
  if (g.shape() == value.shape() && !grad_initialized) {
    grad = std::move(g);
    grad_initialized = true;
    return;
  }
  AccumulateGrad(static_cast<const Tensor&>(g));
}

Variable::Variable(Tensor value, bool requires_grad) {
  node_ = std::make_shared<Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

Variable Variable::Constant(Tensor value) {
  return Variable(std::move(value), /*requires_grad=*/false);
}

Variable Variable::Parameter(Tensor value) {
  return Variable(std::move(value), /*requires_grad=*/true);
}

const Tensor& Variable::value() const {
  STGNN_CHECK(defined());
  return node_->value;
}

Tensor Variable::grad() const {
  STGNN_CHECK(defined());
  if (!node_->grad_initialized) return Tensor::Zeros(node_->value.shape());
  return node_->grad;
}

bool Variable::requires_grad() const {
  STGNN_CHECK(defined());
  return node_->requires_grad;
}

void Variable::SetValue(Tensor value) {
  STGNN_CHECK(defined());
  STGNN_CHECK(value.shape() == node_->value.shape())
      << "SetValue shape mismatch";
  node_->value = std::move(value);
}

void Variable::ZeroGrad() {
  STGNN_CHECK(defined());
  node_->grad_initialized = false;
  node_->grad = Tensor();
}

Variable Variable::FromNode(std::shared_ptr<Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

namespace {

// Builds a reverse topological order (outputs first) of the subgraph that
// requires gradients.
void TopoSort(const std::shared_ptr<Node>& root,
              std::vector<std::shared_ptr<Node>>* order) {
  std::unordered_set<Node*> visited;
  // Iterative post-order DFS to avoid recursion depth limits on long chains.
  struct Frame {
    std::shared_ptr<Node> node;
    size_t next_parent = 0;
  };
  std::vector<Frame> stack;
  if (root->requires_grad) stack.push_back({root});
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      const auto& parent = top.node->parents[top.next_parent++];
      if (parent->requires_grad && visited.insert(parent.get()).second) {
        stack.push_back({parent});
      }
    } else {
      order->push_back(top.node);
      stack.pop_back();
    }
  }
  // Post-order gives parents-before-children; reverse for children-first.
  std::reverse(order->begin(), order->end());
}

}  // namespace

void Variable::Backward(const BackwardOptions& options) const {
  STGNN_CHECK(defined());
  STGNN_CHECK(node_->requires_grad)
      << "Backward() on a variable that does not require grad";
  STGNN_TRACE_SCOPE("Backward");
  STGNN_COUNTER_INC("autograd.backwards");
  node_->AccumulateGrad(Tensor::Ones(node_->value.shape()));
  std::vector<std::shared_ptr<Node>> order;
  TopoSort(node_, &order);
  for (const auto& node : order) {
    if (node->backward_fn && node->grad_initialized) node->backward_fn();
    // After a node's own backward ran, nothing reads it again: all its
    // consumers ran earlier (children-first order) and every closure reads
    // only its parents' values, which sit later in the order. Recycle the
    // node's buffers now instead of at graph teardown so the next forward
    // pass can reuse them. Leaves have no backward_fn and the root keeps
    // its value/grad readable; both are skipped.
    if (options.release_graph && node->backward_fn && node != node_) {
      node->value.ReleaseStorage();
      if (node->grad_initialized) node->grad.ReleaseStorage();
      node->backward_fn = nullptr;  // frees captured closure state
      node->parents.clear();
      STGNN_COUNTER_INC("autograd.nodes_released");
    }
  }
}

}  // namespace stgnn::autograd
