#ifndef STGNN_TENSOR_CSR_H_
#define STGNN_TENSOR_CSR_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace stgnn::tensor {

// Compressed-sparse-row view of an [rows, cols] matrix: row_ptr (rows + 1
// offsets), col_idx (column of each stored entry, ascending within a row),
// and values (one float per stored entry, row-major nnz order).
//
// The FCG only has an edge j->i where bikes actually moved (paper
// Definition 2), so at realistic densities most of an [n, n] aggregation
// operand is zeros; this type carries just the edge set and lets the sparse
// kernels below skip the rest. Column indices within a row are always
// ascending, which makes every sparse kernel's per-output accumulation
// order identical to the dense kernels' ascending-j order — the basis of
// the sparse-vs-dense bitwise parity contract (tests/sparse_test.cc).
class Csr {
 public:
  Csr() = default;

  // Adopts the three arrays of an [rows, cols] matrix. CHECKs the
  // invariants every kernel relies on: row_ptr holds rows + 1 non-decreasing
  // offsets from 0 to col_idx.size(), values is as long as col_idx, and
  // each row's columns are ascending within [0, cols).
  Csr(int rows, int cols, std::vector<int> row_ptr, std::vector<int> col_idx,
      std::vector<float> values);

  // Builds from a dense 2-D tensor, keeping entries with
  // std::fabs(value) > threshold. threshold = 0 keeps exact nonzeros, so a
  // 0/1 edge mask yields a pattern whose stored values are the mask's 1s.
  static Csr FromDense(const Tensor& dense, float threshold = 0.0f);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(col_idx_.size()); }
  // nnz / (rows * cols); 0 for an empty matrix.
  float density() const;

  const std::vector<int>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  // Dense [rows, cols] tensor: stored values at stored positions, zeros
  // elsewhere. Round-trips FromDense(t).ToDense() == t for any t whose
  // dropped entries were exact zeros.
  Tensor ToDense() const;

  // Writes the stored values at their positions of the row-major
  // [rows, cols] buffer `dense`, leaving every other element as it is.
  void ScatterTo(float* dense) const;

  // Same pattern, different values (must have nnz() entries, nnz order).
  Csr WithValues(std::vector<float> values) const;

  // CSR of the transpose. `values` supplies this matrix's entry values in
  // its nnz order (defaults to the stored ones); they are permuted to the
  // transposed layout. Column indices of the result are ascending, so
  // kernels over the transpose stay deterministic.
  Csr Transposed() const { return Transposed(values_); }
  Csr Transposed(const std::vector<float>& values) const;

  // Values of `dense` (shape [rows, cols]) at this pattern's stored
  // positions, in nnz order. Lets a differentiable dense operand (the FCG
  // weight matrix) be re-read through a fixed per-slot pattern each step.
  std::vector<float> GatherValues(const Tensor& dense) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> row_ptr_ = {0};
  std::vector<int> col_idx_;
  std::vector<float> values_;
};

// Y = A·X for A = pattern with `values` ([m, k] CSR, nnz order) and dense
// X [k, f] -> dense [m, f]. Rows of Y are independent and fan out across
// the thread pool; each output element accumulates its terms in ascending
// column order, so the result is bit-identical across thread counts and
// bit-identical to MatMul(A.ToDense(), X).
Tensor SpMM(const Csr& pattern, const std::vector<float>& values,
            const Tensor& x);

// Same, using the pattern's stored values.
inline Tensor SpMM(const Csr& a, const Tensor& x) {
  return SpMM(a, a.values(), x);
}

}  // namespace stgnn::tensor

#endif  // STGNN_TENSOR_CSR_H_
