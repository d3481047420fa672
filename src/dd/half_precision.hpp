// HalfPrecisionOperator (Section V-A2): wraps an operator built in half the
// working precision (float when the Krylov solver runs in double) behind the
// working-precision LinearOperator interface.  Applying it type-casts the
// input down, applies the low-precision operator, and casts the result back
// -- exactly the Trilinos utility the paper added for the single-precision
// FROSch study (Tables VI/VII).
#pragma once

#include "dd/schwarz.hpp"
#include "krylov/operator.hpp"

namespace frosch::dd {

/// Working precision `Scalar`, internal precision `Half`.
template <class Scalar, class Half>
class HalfPrecisionOperator final : public krylov::LinearOperator<Scalar> {
 public:
  explicit HalfPrecisionOperator(const krylov::LinearOperator<Half>& inner)
      : inner_(inner) {}

  index_t rows() const override { return inner_.rows(); }
  index_t cols() const override { return inner_.cols(); }

  void apply_impl(const std::vector<Scalar>& x, std::vector<Scalar>& y,
                  OpProfile* prof) const override {
    x_col_[0] = &x;
    y_col_[0] = &y;
    apply_columns_impl(x_col_, y_col_, prof);
  }

  /// Casts every column down into a cached buffer, applies the inner
  /// operator to the whole block in one apply_columns call (its fused path,
  /// when it has one), and casts the results back.  Each column's casts and
  /// inner arithmetic are those of its solo apply.
  void apply_columns_impl(const std::vector<const std::vector<Scalar>*>& X,
                          const std::vector<std::vector<Scalar>*>& Y,
                          OpProfile* prof) const override {
    const size_t w = X.size();
    const size_t rows = static_cast<size_t>(inner_.rows());
    if (xh_.size() < w) {
      xh_.resize(w);
      yh_.resize(w);
    }
    xh_ptr_.resize(w);
    yh_ptr_.resize(w);
    for (size_t c = 0; c < w; ++c) {
      const auto& x = *X[c];
      xh_[c].resize(x.size());
      for (size_t i = 0; i < x.size(); ++i) xh_[c][i] = static_cast<Half>(x[i]);
      yh_[c].resize(rows);
      xh_ptr_[c] = &xh_[c];
      yh_ptr_[c] = &yh_[c];
    }
    inner_.apply_columns(xh_ptr_, yh_ptr_, prof);
    for (size_t c = 0; c < w; ++c)
      for (size_t i = 0; i < rows; ++i)
        (*Y[c])[i] = static_cast<Scalar>(yh_[c][i]);
    if (prof) {
      // Type-casting overhead: the downcast streams the cols()-sized input,
      // the upcast streams the rows()-sized output (they differ for a
      // rectangular inner operator) of every column; each element is read
      // in one precision and written in the other.  One cast kernel each
      // way serves the whole block.
      const double elems =
          static_cast<double>(w) * (static_cast<double>(inner_.cols()) +
                                    static_cast<double>(rows));
      prof->bytes += elems * (sizeof(Scalar) + sizeof(Half));
      prof->launches += 2;
      prof->critical_path += 2;
      prof->work_items += elems;
    }
  }

 private:
  const krylov::LinearOperator<Half>& inner_;
  // Cached per-column casts, grow-only; the pointer lists are what
  // apply_columns takes.
  mutable std::vector<std::vector<Half>> xh_, yh_;
  mutable std::vector<const std::vector<Half>*> xh_ptr_;
  mutable std::vector<std::vector<Half>*> yh_ptr_;
  mutable std::vector<const std::vector<Scalar>*> x_col_{nullptr};
  mutable std::vector<std::vector<Scalar>*> y_col_{nullptr};
};

/// The full half-precision PRECONDITIONER (Tables VI/VII): a Schwarz
/// preconditioner built and applied entirely in `Half`, presented behind
/// the working-precision Preconditioner lifecycle.  Setup casts the matrix
/// down once per phase; apply casts the vectors through
/// HalfPrecisionOperator.  Created by the facade's registry under the name
/// "schwarz-float".
template <class Scalar, class Half>
class HalfPrecisionPreconditioner final : public Preconditioner<Scalar> {
 public:
  HalfPrecisionPreconditioner(const SchwarzConfig& cfg,
                              const Decomposition& decomp)
      : inner_(cfg, decomp), cast_(inner_) {}

  index_t rows() const override { return inner_.rows(); }
  index_t cols() const override { return inner_.cols(); }

  void symbolic_setup(const la::CsrMatrix<Scalar>& A) override {
    // Convert once; the numeric phase only refreshes the values (the
    // pattern is fixed after symbolic, exactly like the Tpetra transfer).
    Ah_ = A.template convert<Half>();
    inner_.symbolic_setup(Ah_);
  }

  void numeric_setup(const la::CsrMatrix<Scalar>& A,
                     const la::DenseMatrix<double>& Z) override {
    FROSCH_CHECK(A.num_entries() == Ah_.num_entries() &&
                     A.num_rows() == Ah_.num_rows(),
                 "HalfPrecisionPreconditioner: numeric pattern differs from "
                 "symbolic");
    const auto& v = A.values();
    auto& vh = Ah_.values();
    for (size_t i = 0; i < v.size(); ++i) vh[i] = static_cast<Half>(v[i]);
    inner_.numeric_setup(Ah_, Z);
  }

  bool numeric_refresh(const la::CsrMatrix<Scalar>& A,
                       const la::DenseMatrix<double>& Z) override {
    FROSCH_CHECK(A.num_entries() == Ah_.num_entries() &&
                     A.num_rows() == Ah_.num_rows(),
                 "HalfPrecisionPreconditioner: refresh pattern differs from "
                 "symbolic");
    const auto& v = A.values();
    auto& vh = Ah_.values();
    for (size_t i = 0; i < v.size(); ++i) vh[i] = static_cast<Half>(v[i]);
    return inner_.numeric_refresh(Ah_, Z);
  }

  void apply_impl(const std::vector<Scalar>& x, std::vector<Scalar>& y,
                  OpProfile* prof) const override {
    cast_.apply(x, y, prof);
  }

  void apply_columns_impl(const std::vector<const std::vector<Scalar>*>& X,
                          const std::vector<std::vector<Scalar>*>& Y,
                          OpProfile* prof) const override {
    cast_.apply_columns(X, Y, prof);
  }

  index_t coarse_dim() const override { return inner_.coarse_dim(); }
  const SchwarzProfiles* schwarz_profiles() const override {
    return inner_.schwarz_profiles();
  }
  const SchwarzPreconditioner<Half>& inner() const { return inner_; }

  /// Pass-through to the inner Half-precision Schwarz: the coarse
  /// hierarchy of a mixed-precision run is built and applied in `Half`,
  /// exactly like the rest of the preconditioner.
  void set_coarse_solver(std::unique_ptr<CoarseLevelSolver<Half>> s) {
    inner_.set_coarse_solver(std::move(s));
  }

 private:
  la::CsrMatrix<Half> Ah_;  ///< cached downcast; values refreshed per numeric
  SchwarzPreconditioner<Half> inner_;
  HalfPrecisionOperator<Scalar, Half> cast_;
};

}  // namespace frosch::dd
