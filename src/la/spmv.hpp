// Sparse matrix--vector products with operation-profile instrumentation.
//
// SpMV is the dominant kernel of the Krylov solve phase; its profile (2*nnz
// flops, one streaming pass over the matrix, a single data-parallel launch of
// n_rows independent row-tasks) is what makes the solve phase GPU-friendly in
// the paper's measurements.  The row-task launch executes for real through
// exec::parallel_for: rows write disjoint outputs, so the result is bitwise
// identical at every thread count.
#pragma once

#include <algorithm>

#include "common/op_profile.hpp"
#include "device/arena.hpp"
#include "exec/exec.hpp"
#include "la/csr.hpp"

namespace frosch::la {

/// y = alpha * A * x + beta * y.
template <class Scalar>
void spmv(const CsrMatrix<Scalar>& A, const Scalar* x, Scalar* y,
          Scalar alpha = Scalar(1), Scalar beta = Scalar(0),
          OpProfile* prof = nullptr,
          const exec::ExecPolicy& policy = {}) {
  const index_t n = A.num_rows();
  exec::parallel_for(policy, n, [&](index_t i) {
    Scalar sum(0);
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k) {
      sum += A.val(k) * x[A.col(k)];
    }
    y[i] = alpha * sum + (beta == Scalar(0) ? Scalar(0) : Scalar(beta * y[i]));
  });
  if (A.num_entries() > 0)
    device::touch(policy, A.values().data(), A.storage_bytes(),
                  device::Xfer::Matrix);
  device::launches(policy, 1);
  if (prof) {
    prof->flops += 2.0 * static_cast<double>(A.num_entries());
    prof->bytes += A.storage_bytes() +
                   static_cast<double>(A.num_rows() + A.num_cols()) * sizeof(Scalar);
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(n);
  }
}

template <class Scalar>
void spmv(const CsrMatrix<Scalar>& A, const std::vector<Scalar>& x,
          std::vector<Scalar>& y, Scalar alpha = Scalar(1),
          Scalar beta = Scalar(0), OpProfile* prof = nullptr,
          const exec::ExecPolicy& policy = {}) {
  FROSCH_CHECK(static_cast<index_t>(x.size()) == A.num_cols(),
               "spmv: x size mismatch");
  if (beta == Scalar(0)) {
    y.resize(static_cast<size_t>(A.num_rows()));
  } else {
    // beta * y reads the incoming y: resizing here would blend freshly
    // default-initialized entries into the update.
    FROSCH_CHECK(static_cast<index_t>(y.size()) == A.num_rows(),
                 "spmv: beta != 0 requires y sized to num_rows");
  }
  spmv(A, x.data(), y.data(), alpha, beta, prof, policy);
}

/// y = alpha * A^T * x + beta * y (scatter form; one launch, rows as tasks).
///
/// Execution accumulates into per-chunk column buffers combined in fixed
/// chunk order.  The chunk decomposition depends only on the matrix shape
/// and the SERIAL path walks the same chunks in the same order, so the
/// result is bitwise identical at EVERY thread count -- required for
/// thread-count-independent Krylov iteration counts (the coarse restriction
/// Phi^T x runs through this kernel every Schwarz apply).  `scratch`
/// (optional) is a caller-owned, grow-only home for the chunk buffers, so
/// repeated calls allocate nothing.
template <class Scalar>
void spmv_transpose(const CsrMatrix<Scalar>& A, const std::vector<Scalar>& x,
                    std::vector<Scalar>& y, Scalar alpha = Scalar(1),
                    Scalar beta = Scalar(0), OpProfile* prof = nullptr,
                    const exec::ExecPolicy& policy = {},
                    std::vector<Scalar>* scratch = nullptr) {
  FROSCH_CHECK(static_cast<index_t>(x.size()) == A.num_rows(),
               "spmv_transpose: x size mismatch");
  const index_t nr = A.num_rows();
  const index_t ncols = A.num_cols();
  if (beta == Scalar(0)) {
    y.assign(static_cast<size_t>(ncols), Scalar(0));
  } else {
    FROSCH_CHECK(static_cast<index_t>(y.size()) == ncols,
                 "spmv_transpose: beta != 0 requires y sized to num_cols");
    for (auto& v : y) v *= beta;
  }
  // Per-chunk buffer memory is nchunks * ncols scalars; cap the chunk count
  // well below the generic kMaxChunks.
  constexpr index_t kScatterChunks = 16;
  const index_t nc =
      std::min<index_t>(exec::chunk_count(nr, /*grain=*/2048), kScatterChunks);
  if (nc <= 1) {
    for (index_t i = 0; i < nr; ++i) {
      const Scalar xi = alpha * x[static_cast<size_t>(i)];
      for (index_t k = A.row_begin(i); k < A.row_end(i); ++k) {
        y[static_cast<size_t>(A.col(k))] += A.val(k) * xi;
      }
    }
  } else {
    // Chunk c's column buffer is [c * ncols, (c + 1) * ncols) of one array.
    const size_t stride = static_cast<size_t>(ncols);
    std::vector<Scalar> local;
    std::vector<Scalar>& buf = scratch ? *scratch : local;
    if (buf.size() < static_cast<size_t>(nc) * stride)
      buf.resize(static_cast<size_t>(nc) * stride);
    exec::parallel_for(
        policy, nc,
        [&](index_t c) {
          Scalar* yc = buf.data() + static_cast<size_t>(c) * stride;
          std::fill_n(yc, stride, Scalar(0));
          const auto [b, e] = exec::chunk_range(nr, nc, c);
          for (index_t i = b; i < e; ++i) {
            const Scalar xi = alpha * x[static_cast<size_t>(i)];
            for (index_t k = A.row_begin(i); k < A.row_end(i); ++k) {
              yc[static_cast<size_t>(A.col(k))] += A.val(k) * xi;
            }
          }
        },
        /*grain=*/1);
    exec::parallel_for(policy, ncols, [&](index_t j) {
      Scalar s = y[static_cast<size_t>(j)];
      for (index_t c = 0; c < nc; ++c)
        s += buf[static_cast<size_t>(c) * stride + static_cast<size_t>(j)];
      y[static_cast<size_t>(j)] = s;
    });
  }
  if (A.num_entries() > 0)
    device::touch(policy, A.values().data(), A.storage_bytes(),
                  device::Xfer::Matrix);
  device::launches(policy, 1);
  if (prof) {
    prof->flops += 2.0 * static_cast<double>(A.num_entries());
    prof->bytes += A.storage_bytes() +
                   static_cast<double>(A.num_rows() + A.num_cols()) * sizeof(Scalar);
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(A.num_rows());
  }
}

}  // namespace frosch::la
