#include "tensor/csr.h"

#include <cmath>
#include <utility>

#include "common/counters.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "tensor/kernels/kernels.h"

namespace stgnn::tensor {

Csr::Csr(int rows, int cols, std::vector<int> row_ptr,
         std::vector<int> col_idx, std::vector<float> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  STGNN_CHECK_GE(rows_, 0);
  STGNN_CHECK_GE(cols_, 0);
  STGNN_CHECK_EQ(row_ptr_.size(), static_cast<size_t>(rows_) + 1);
  STGNN_CHECK_EQ(row_ptr_.front(), 0);
  STGNN_CHECK_EQ(static_cast<size_t>(row_ptr_.back()), col_idx_.size());
  STGNN_CHECK_EQ(values_.size(), col_idx_.size());
  for (int i = 0; i < rows_; ++i) {
    STGNN_CHECK_LE(row_ptr_[i], row_ptr_[i + 1]) << "row " << i;
    int min_col = 0;
    for (int e = row_ptr_[i]; e < row_ptr_[i + 1]; ++e) {
      STGNN_CHECK(col_idx_[e] >= min_col && col_idx_[e] < cols_)
          << "row " << i << " entry " << e << ": column " << col_idx_[e];
      min_col = col_idx_[e] + 1;
    }
  }
}

Csr Csr::FromDense(const Tensor& dense, float threshold) {
  STGNN_CHECK_EQ(dense.ndim(), 2);
  STGNN_CHECK_GE(threshold, 0.0f);
  const int rows = dense.dim(0);
  const int cols = dense.dim(1);
  Csr out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_ptr_.assign(1, 0);
  out.row_ptr_.reserve(rows + 1);
  const float* d = dense.data().data();
  for (int i = 0; i < rows; ++i) {
    const float* row = d + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) {
      if (std::fabs(row[j]) > threshold) {
        out.col_idx_.push_back(j);
        out.values_.push_back(row[j]);
      }
    }
    out.row_ptr_.push_back(static_cast<int>(out.col_idx_.size()));
  }
  return out;
}

float Csr::density() const {
  const int64_t total = static_cast<int64_t>(rows_) * cols_;
  if (total == 0) return 0.0f;
  return static_cast<float>(nnz()) / static_cast<float>(total);
}

Tensor Csr::ToDense() const {
  Tensor out({rows_, cols_});
  ScatterTo(out.mutable_data().data());
  return out;
}

void Csr::ScatterTo(float* dense) const {
  for (int i = 0; i < rows_; ++i) {
    float* row = dense + static_cast<size_t>(i) * cols_;
    for (int e = row_ptr_[i]; e < row_ptr_[i + 1]; ++e) {
      row[col_idx_[e]] = values_[e];
    }
  }
}

Csr Csr::WithValues(std::vector<float> values) const {
  STGNN_CHECK_EQ(static_cast<int64_t>(values.size()), nnz());
  Csr out = *this;
  out.values_ = std::move(values);
  return out;
}

Csr Csr::Transposed(const std::vector<float>& values) const {
  STGNN_CHECK_EQ(static_cast<int64_t>(values.size()), nnz());
  Csr out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.row_ptr_.assign(cols_ + 1, 0);
  out.col_idx_.resize(col_idx_.size());
  out.values_.resize(values.size());
  // Counting sort by column: a row-major walk scatters each entry into its
  // column bucket, so within a transposed row the (new) column indices come
  // out in ascending original-row order.
  for (int j : col_idx_) ++out.row_ptr_[j + 1];
  for (int j = 0; j < cols_; ++j) out.row_ptr_[j + 1] += out.row_ptr_[j];
  std::vector<int> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (int i = 0; i < rows_; ++i) {
    for (int e = row_ptr_[i]; e < row_ptr_[i + 1]; ++e) {
      const int slot = cursor[col_idx_[e]]++;
      out.col_idx_[slot] = i;
      out.values_[slot] = values[e];
    }
  }
  return out;
}

std::vector<float> Csr::GatherValues(const Tensor& dense) const {
  STGNN_CHECK_EQ(dense.ndim(), 2);
  STGNN_CHECK_EQ(dense.dim(0), rows_);
  STGNN_CHECK_EQ(dense.dim(1), cols_);
  std::vector<float> out(col_idx_.size());
  const float* d = dense.data().data();
  for (int i = 0; i < rows_; ++i) {
    const float* row = d + static_cast<size_t>(i) * cols_;
    for (int e = row_ptr_[i]; e < row_ptr_[i + 1]; ++e) {
      out[e] = row[col_idx_[e]];
    }
  }
  return out;
}

Tensor SpMM(const Csr& pattern, const std::vector<float>& values,
            const Tensor& x) {
  STGNN_CHECK_EQ(x.ndim(), 2);
  STGNN_CHECK_EQ(x.dim(0), pattern.cols());
  STGNN_CHECK_EQ(static_cast<int64_t>(values.size()), pattern.nnz());
  const int m = pattern.rows();
  const int f = x.dim(1);
  STGNN_TRACE_SCOPE("SpMM");
  STGNN_COUNTER_INC("op.spmm");
  STGNN_COUNTER_ADD("op.spmm.nnz", pattern.nnz());
  Tensor out({m, f});
  if (m == 0 || f == 0) return out;
  const int* rp = pattern.row_ptr().data();
  const int* ci = pattern.col_idx().data();
  const float* vals = values.data();
  const float* px = x.data().data();
  float* po = out.mutable_data().data();
  // Row ranges go straight to the dispatched kernel variant; every variant
  // accumulates each output element in ascending stored-entry order with
  // single-rounding fmas, so the result is bit-identical across ISAs,
  // thread counts, and to dense MatMul on the materialised operand.
  const kernels::KernelTable& kt = kernels::Active();
  const int64_t cost_per_row =
      (pattern.nnz() / std::max(m, 1) + 1) * static_cast<int64_t>(f);
  common::ParallelFor(0, m,
                      common::GrainFor(m, cost_per_row, kt.row_grain_ops),
                      [&](int64_t ib, int64_t ie) {
                        kt.spmm_rows(rp, ci, vals, px, po, ib, ie, f);
                      });
  return out;
}

}  // namespace stgnn::tensor
