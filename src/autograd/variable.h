#ifndef STGNN_AUTOGRAD_VARIABLE_H_
#define STGNN_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace stgnn::autograd {

// A node in the dynamically built computation graph. Holds the forward value,
// the accumulated gradient, parent edges, and a closure that pushes this
// node's gradient to its parents. Users interact with Variable, not Node.
struct Node {
  tensor::Tensor value;
  tensor::Tensor grad;  // valid iff grad_initialized
  bool grad_initialized = false;
  bool requires_grad = false;
  // True for an op's result, false for a leaf (parameter or constant). Only
  // op outputs may have their value stolen by the in-place ops.
  bool op_output = false;
  std::vector<std::shared_ptr<Node>> parents;
  // Reads this->grad and accumulates into each parent's grad.
  std::function<void()> backward_fn;

  // Adds `g` into the gradient buffer, summing over broadcast axes so the
  // stored gradient always matches value.shape().
  void AccumulateGrad(const tensor::Tensor& g);
  // Move-aware variant: when `g` already has value.shape() and this is the
  // first accumulation, the buffer is adopted instead of copied. Backward
  // closures pass their freshly computed gradients here.
  void AccumulateGrad(tensor::Tensor&& g);
};

// Options for Variable::Backward().
struct BackwardOptions {
  // When true, each interior op node's forward value and gradient buffers
  // are returned to the buffer pool as soon as the node's own backward
  // closure has run (its consumers all ran earlier — the traversal is
  // children-first — and closures only read their parents' values, which
  // are processed later). The root and leaf nodes are untouched, so loss
  // values and parameter gradients stay readable. Do not read value()/grad()
  // of intermediate variables after a release-graph backward.
  bool release_graph = false;
};

// Handle to a node in the computation graph. Cheap to copy (shared_ptr).
// A default-constructed Variable is "undefined" and must not be used in ops.
class Variable {
 public:
  Variable() = default;

  // Leaf variable wrapping a value. requires_grad marks trainable parameters.
  explicit Variable(tensor::Tensor value, bool requires_grad = false);

  // Leaf with requires_grad = false (inputs, masks, fixed graphs).
  static Variable Constant(tensor::Tensor value);
  // Leaf with requires_grad = true (model parameters).
  static Variable Parameter(tensor::Tensor value);

  bool defined() const { return node_ != nullptr; }
  const tensor::Tensor& value() const;
  // Gradient after Backward(); zeros if never touched by backprop.
  tensor::Tensor grad() const;
  bool requires_grad() const;

  // Replaces the stored value (used by optimizers for in-place updates).
  void SetValue(tensor::Tensor value);
  // Clears the accumulated gradient.
  void ZeroGrad();

  // Runs reverse-mode accumulation from this variable. If it is a scalar the
  // seed is 1; otherwise the seed is a tensor of ones (sum of outputs).
  void Backward() const { Backward(BackwardOptions{}); }
  void Backward(const BackwardOptions& options) const;

  const std::shared_ptr<Node>& node() const { return node_; }

  // Internal: wraps an existing node (used by op constructors).
  static Variable FromNode(std::shared_ptr<Node> node);

 private:
  std::shared_ptr<Node> node_;
};

// While a NoTapeScope is alive on a thread, ops run on that thread record
// no autograd tape: each result keeps only its value (no parent edges, no
// backward closure, requires_grad false), so an intermediate goes back to
// the buffer pool at its last use instead of when the forward's result
// dies. Values are bit-identical to a taped run; Backward() on a tapeless
// result CHECK-fails. Inference entry points open one; scopes nest, and
// `enabled = false` makes a scope a no-op.
class NoTapeScope {
 public:
  explicit NoTapeScope(bool enabled = true);
  ~NoTapeScope();

  NoTapeScope(const NoTapeScope&) = delete;
  NoTapeScope& operator=(const NoTapeScope&) = delete;

 private:
  bool previous_;
};

// False while a NoTapeScope is active on the calling thread.
bool TapeEnabled();

// Reduces a broadcast gradient back to `target_shape` by summing over the
// broadcast axes. Exposed for op implementations and tests.
tensor::Tensor ReduceGradToShape(const tensor::Tensor& grad,
                                 const tensor::Shape& target_shape);

}  // namespace stgnn::autograd

#endif  // STGNN_AUTOGRAD_VARIABLE_H_
