#include "core/graph_generator.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace stgnn::core {

using autograd::Variable;
namespace ag = stgnn::autograd;
using tensor::Tensor;

FcgPattern BuildFcgPattern(const Tensor& temporal_inflow,
                           const Tensor& temporal_outflow) {
  STGNN_CHECK_EQ(temporal_inflow.ndim(), 2);
  STGNN_CHECK(temporal_inflow.shape() == temporal_outflow.shape());
  const int n = temporal_inflow.dim(0);
  STGNN_CHECK_EQ(temporal_inflow.dim(1), n);

  FcgPattern pattern;
  // Edge j -> i iff Î(i, j) > 0 or Ô(j, i) > 0; self-loops always on. Ô is
  // read transposed, so the mask is filled in square tiles: each tile of Ô
  // is copied transposed into `block` (reading Ô along its rows), and the
  // mask rows then read Î, `block` and the diagonal test side by side.
  constexpr int kTile = 32;
  Tensor mask = Tensor::Uninitialized({n, n});
  const float* in = temporal_inflow.data().data();
  const float* out = temporal_outflow.data().data();
  float* m = mask.mutable_data().data();
  float block[kTile][kTile];  // block[a][b] = Ô(j0 + b, i0 + a)
  for (int i0 = 0; i0 < n; i0 += kTile) {
    const int rows = std::min(kTile, n - i0);
    for (int j0 = 0; j0 < n; j0 += kTile) {
      const int cols = std::min(kTile, n - j0);
      for (int b = 0; b < cols; ++b) {
        const float* out_row = out + static_cast<int64_t>(j0 + b) * n + i0;
        for (int a = 0; a < rows; ++a) block[a][b] = out_row[a];
      }
      for (int a = 0; a < rows; ++a) {
        const int i = i0 + a;
        const float* in_row = in + static_cast<int64_t>(i) * n + j0;
        float* m_row = m + static_cast<int64_t>(i) * n + j0;
        for (int b = 0; b < cols; ++b) {
          // Non-short-circuit ors: random signs would mispredict branches.
          const bool edge =
              (in_row[b] > 0.0f) | (block[a][b] > 0.0f) | (i == j0 + b);
          m_row[b] = edge ? 1.0f : 0.0f;
        }
      }
    }
  }
  pattern.edge_csr =
      std::make_shared<const tensor::Csr>(tensor::Csr::FromDense(mask));
  pattern.edge_mask = std::move(mask);
  return pattern;
}

FlowConvolutedGraph BuildFlowConvolutedGraphFromPattern(
    const Variable& node_features, FcgPattern pattern) {
  STGNN_CHECK(pattern.defined());
  STGNN_CHECK(node_features.value().shape() == pattern.edge_mask.shape());
  FlowConvolutedGraph graph;
  graph.edge_mask = pattern.edge_mask;
  graph.edge_csr = std::move(pattern.edge_csr);
  // Eq. (10): E_f(i, j) = T(i, j) / sum_k T(i, k) over the edge set. ReLU
  // keeps weights non-negative; epsilon guards empty rows.
  Variable masked =
      ag::Mul(ag::Relu(node_features),
              Variable::Constant(std::move(pattern.edge_mask)));
  Variable row_sum = ag::AddScalar(ag::SumAxisKeepdims(masked, /*axis=*/1),
                                   1e-6f);
  graph.weights = ag::Div(masked, row_sum);
  return graph;
}

FlowConvolutedGraph BuildFlowConvolutedGraph(
    const Variable& node_features, const Variable& temporal_inflow,
    const Variable& temporal_outflow) {
  return BuildFlowConvolutedGraphFromPattern(
      node_features,
      BuildFcgPattern(temporal_inflow.value(), temporal_outflow.value()));
}

int64_t CountHaloRows(const tensor::Csr& pattern,
                      const std::vector<int>& owner, int shard) {
  STGNN_CHECK_EQ(static_cast<int>(owner.size()), pattern.cols());
  const auto& row_ptr = pattern.row_ptr();
  const auto& col_idx = pattern.col_idx();
  std::vector<char> seen(owner.size(), 0);
  int64_t halo = 0;
  for (int i = 0; i < pattern.rows(); ++i) {
    if (i >= static_cast<int>(owner.size()) || owner[i] != shard) continue;
    for (int e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
      const int j = col_idx[e];
      if (owner[j] != shard && !seen[j]) {
        seen[j] = 1;
        ++halo;
      }
    }
  }
  return halo;
}

const Tensor& DensePatternMask(int num_stations) {
  STGNN_CHECK_GT(num_stations, 0);
  // Leaked cache (matches the trace/counter registries: pool workers may
  // still read during static destruction). std::map nodes are stable, so
  // handing out references under the lock is safe across later inserts.
  static std::mutex* mu = new std::mutex;
  static std::map<int, Tensor>* cache = new std::map<int, Tensor>;
  std::lock_guard<std::mutex> lock(*mu);
  auto it = cache->find(num_stations);
  if (it == cache->end()) {
    it = cache->emplace(num_stations,
                        Tensor::Ones({num_stations, num_stations})).first;
  }
  return it->second;
}

}  // namespace stgnn::core
