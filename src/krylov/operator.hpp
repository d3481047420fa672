// Abstract linear operator (the Belos/Tpetra Operator analogue): anything
// that can be applied to a vector -- a sparse matrix, a Schwarz
// preconditioner, or the HalfPrecisionOperator wrapper -- implements this.
#pragma once

#include <vector>

#include "common/op_profile.hpp"
#include "la/block.hpp"
#include "la/spmv.hpp"

namespace frosch::krylov {

template <class Scalar>
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;
  virtual index_t rows() const = 0;
  virtual index_t cols() const = 0;

  /// y = Op(x).  `prof` accumulates the operation profile of the
  /// application (may be nullptr).
  ///
  /// Output-sizing CONTRACT (enforced): the CALLER sizes `y` to rows()
  /// before the call; implementations overwrite its entries and never
  /// resize.  This keeps every application allocation-free on the Krylov
  /// hot path and is checked here, once, for all implementations.
  void apply(const std::vector<Scalar>& x, std::vector<Scalar>& y,
             OpProfile* prof) const {
    FROSCH_CHECK(static_cast<index_t>(x.size()) == cols(),
                 "LinearOperator::apply: input size " << x.size()
                     << " != cols() " << cols());
    FROSCH_CHECK(static_cast<index_t>(y.size()) == rows(),
                 "LinearOperator::apply: output must be pre-sized to rows() "
                     << rows() << " by the caller (got " << y.size() << ")");
    apply_impl(x, y, prof);
  }

  /// Multi-column application: *Y[c] = Op(*X[c]) for every column.  Same
  /// sizing contract per column (the caller sizes every output column).
  /// Pointer-based so block solvers can batch scattered columns without
  /// copying them into a contiguous block.  The default loops apply_impl;
  /// operators with a cheaper fused path (one ghost import serving the
  /// whole block) override apply_columns_impl.
  void apply_columns(const std::vector<const std::vector<Scalar>*>& X,
                     const std::vector<std::vector<Scalar>*>& Y,
                     OpProfile* prof) const {
    FROSCH_CHECK(X.size() == Y.size(),
                 "LinearOperator::apply_columns: block width mismatch");
    for (size_t c = 0; c < X.size(); ++c) {
      FROSCH_CHECK(static_cast<index_t>(X[c]->size()) == cols(),
                   "LinearOperator::apply_columns: input column size "
                       << X[c]->size() << " != cols() " << cols());
      FROSCH_CHECK(static_cast<index_t>(Y[c]->size()) == rows(),
                   "LinearOperator::apply_columns: output column must be "
                   "pre-sized to rows() by the caller");
    }
    if (!X.empty()) apply_columns_impl(X, Y, prof);
  }

  /// Value-based convenience overload over whole blocks.
  void apply_columns(const std::vector<std::vector<Scalar>>& X,
                     std::vector<std::vector<Scalar>>& Y,
                     OpProfile* prof) const {
    FROSCH_CHECK(X.size() == Y.size(),
                 "LinearOperator::apply_columns: block width mismatch");
    std::vector<const std::vector<Scalar>*> xs(X.size());
    std::vector<std::vector<Scalar>*> ys(Y.size());
    for (size_t c = 0; c < X.size(); ++c) {
      xs[c] = &X[c];
      ys[c] = &Y[c];
    }
    apply_columns(xs, ys, prof);
  }

 protected:
  virtual void apply_impl(const std::vector<Scalar>& x, std::vector<Scalar>& y,
                          OpProfile* prof) const = 0;

  virtual void apply_columns_impl(
      const std::vector<const std::vector<Scalar>*>& X,
      const std::vector<std::vector<Scalar>*>& Y, OpProfile* prof) const {
    for (size_t c = 0; c < X.size(); ++c) apply_impl(*X[c], *Y[c], prof);
  }
};

/// CSR matrix as an operator: the shared-memory SpMV.
template <class Scalar>
class CsrOperator final : public LinearOperator<Scalar> {
 public:
  explicit CsrOperator(const la::CsrMatrix<Scalar>& A) : A_(A) {}

  index_t rows() const override { return A_.num_rows(); }
  index_t cols() const override { return A_.num_cols(); }

 protected:
  void apply_impl(const std::vector<Scalar>& x, std::vector<Scalar>& y,
                  OpProfile* prof) const override {
    la::spmv(A_, x, y, Scalar(1), Scalar(0), prof);
  }

 private:
  const la::CsrMatrix<Scalar>& A_;
};

/// The rank-sharded operator of the virtual distributed runtime: every
/// application scatters the owned entries, performs the REAL ghost import
/// (measured messages + payload through the communicator), runs the
/// rank-local SpMVs, and gathers the owned results.  Bitwise identical to
/// CsrOperator at every rank count (see la/dist.hpp).  A single vector is
/// the width-1 case of the block path: one kernel, la::dist_spmv_multi,
/// serves apply() and apply_columns().
///
/// `overlap` (default on, the SolverConfig `overlap_comm` key) selects the
/// overlapped schedule: the ghost import is POSTED, interior rows compute
/// while it is in flight, and boundary rows follow the wait -- bitwise
/// identical to the blocking schedule by the whole-row split contract, with
/// the measured post->wait window recorded in the comm profiles.
template <class Scalar>
class DistCsrOperator final : public LinearOperator<Scalar> {
 public:
  DistCsrOperator(const la::DistCsrMatrix<Scalar>& A, comm::Communicator& comm,
                  const exec::ExecPolicy& policy = {}, bool overlap = true)
      : A_(A), comm_(comm), policy_(policy), overlap_(overlap) {
    staging(1);  // the single-vector path is ready before the first apply
  }

  index_t rows() const override { return A_.plan->n; }
  index_t cols() const override { return A_.plan->n; }

 protected:
  /// The width-1 block application.
  void apply_impl(const std::vector<Scalar>& x, std::vector<Scalar>& y,
                  OpProfile* prof) const override {
    x_col_[0] = &x;
    y_col_[0] = &y;
    apply_columns_impl(x_col_, y_col_, prof);
  }

  /// Fused block application: ONE ghost import (one message per transfer,
  /// width-scaled payload) serves every column, and the local matrices are
  /// streamed once for the whole block.  Column results are bitwise
  /// identical to apply() on each column separately.  The staging blocks
  /// and message list of each width are built on its first use and kept:
  /// a block solver that shrinks its width as columns converge, and grows
  /// it again for the next batch, re-stages nothing.
  void apply_columns_impl(const std::vector<const std::vector<Scalar>*>& X,
                          const std::vector<std::vector<Scalar>*>& Y,
                          OpProfile* prof) const override {
    Staging& st = staging(static_cast<index_t>(X.size()));
    st.x.scatter_owned(X, policy_);
    la::dist_spmv_multi(comm_, A_, st.msgs, st.x, st.y, overlap_, prof);
    st.y.gather_owned(Y, policy_);
  }

 private:
  /// Per-width staging: the scattered input and output blocks and the
  /// width-scaled ghost-import messages.
  struct Staging {
    la::DistMultiVector<Scalar> x, y;
    std::vector<comm::Message> msgs;
  };

  Staging& staging(index_t w) const {
    const size_t k = static_cast<size_t>(w);
    if (by_width_.size() <= k) by_width_.resize(k + 1);
    Staging& st = by_width_[k];
    if (st.x.plan == nullptr) {
      st.x.init(*A_.plan, w);
      st.y.init(*A_.plan, w);
      st.msgs = A_.plan->messages(sizeof(Scalar) * static_cast<double>(w));
    }
    return st;
  }

  const la::DistCsrMatrix<Scalar>& A_;
  comm::Communicator& comm_;
  exec::ExecPolicy policy_;
  bool overlap_;
  mutable std::vector<Staging> by_width_;  ///< index: width (0 unused)
  mutable std::vector<const std::vector<Scalar>*> x_col_{nullptr};
  mutable std::vector<std::vector<Scalar>*> y_col_{nullptr};
};

}  // namespace frosch::krylov
