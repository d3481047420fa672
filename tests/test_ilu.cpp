// Tests for incomplete factorizations (src/ilu): ILU(k) pattern/numeric,
// FastILU convergence to the ILU(k) fixed point, FastSpTRSV aliasing.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "ilu/fast_sptrsv.hpp"
#include "ilu/fastilu.hpp"
#include "ilu/iluk.hpp"
#include "la/spmv.hpp"
#include "support/matrices.hpp"
#include "trisolve/engines.hpp"

namespace frosch::ilu {
namespace {

using test::convection_diffusion2d;
using test::laplace2d;
using test::tridiag;

double factor_error(const direct::Factorization<double>& f,
                    const la::CsrMatrix<double>& A) {
  // || (L*U - A) restricted to the pattern of L*U ||_max ... for ILU(0) on a
  // pattern-closed product we compare on A's pattern.
  auto LU = la::spgemm(f.L, f.U);
  double err = 0.0;
  for (index_t i = 0; i < A.num_rows(); ++i)
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      err = std::max(err,
                     std::abs(LU.at(i, A.col(k)) - A.val(k)));
  return err;
}

TEST(Iluk, Ilu0PatternEqualsMatrixPattern) {
  auto A = laplace2d(6, 6);
  auto pat = iluk_symbolic(A, 0);
  EXPECT_EQ(pat.nnz(), A.num_entries());
}

TEST(Iluk, PatternGrowsWithLevel) {
  auto A = laplace2d(8, 8);
  count_t prev = 0;
  for (int lev = 0; lev <= 3; ++lev) {
    auto pat = iluk_symbolic(A, lev);
    EXPECT_GT(pat.nnz(), prev) << "level " << lev;
    prev = pat.nnz();
  }
}

TEST(Iluk, ExactOnTridiagonal) {
  // A tridiagonal matrix has no fill: ILU(0) == exact LU.
  auto A = tridiag(20);
  IlukFactorization<double> ilu;
  ilu.symbolic(A, 0);
  ilu.numeric(A);
  EXPECT_LT(factor_error(ilu.factorization(), A), 1e-12);
}

TEST(Iluk, HighLevelApproachesExactFactor) {
  auto A = laplace2d(6, 6);
  double prev = 1e30;
  for (int lev : {0, 1, 2, 5, 12}) {
    IlukFactorization<double> ilu;
    ilu.symbolic(A, lev);
    ilu.numeric(A);
    const double err = factor_error(ilu.factorization(), A);
    EXPECT_LE(err, prev * 1.01 + 1e-12) << "level " << lev;
    prev = err;
  }
  EXPECT_LT(prev, 1e-10);  // enough levels: exact factorization
}

TEST(Iluk, Ilu0ResidualMatchesOnPattern) {
  // Defining property of ILU(0): (LU)_ij == A_ij on the pattern of A.
  auto A = laplace2d(7, 5);
  IlukFactorization<double> ilu;
  ilu.symbolic(A, 0);
  ilu.numeric(A);
  EXPECT_LT(factor_error(ilu.factorization(), A), 1e-12);
}

TEST(Iluk, MissingStructuralDiagonalIsAdded) {
  la::TripletBuilder<double> b(3, 3);
  b.add(0, 0, 1.0);
  b.add(1, 0, 1.0);
  b.add(1, 2, 1.0);
  b.add(2, 1, 1.0);
  b.add(2, 2, 1.0);  // row 1 has no diagonal entry
  auto A = b.build();
  auto pat = iluk_symbolic(A, 0);
  bool found = false;
  for (index_t p = pat.rowptr[1]; p < pat.rowptr[2]; ++p)
    if (pat.colind[p] == 1) found = true;
  EXPECT_TRUE(found);
}

TEST(FastIlu, ConvergesToIlukWithSweeps) {
  auto A = laplace2d(6, 6);
  IlukFactorization<double> ref;
  ref.symbolic(A, 1);
  ref.numeric(A);

  double prev = 1e30;
  for (int sweeps : {1, 3, 10, 40}) {
    FastIlu<double> fast;
    fast.symbolic(A, 1);
    fast.numeric(A, sweeps);
    // Compare factors entrywise on the shared pattern.
    double err = 0.0;
    const auto& Lr = ref.factorization().L;
    const auto& Lf = fast.factorization().L;
    for (index_t i = 0; i < Lr.num_rows(); ++i)
      for (index_t k = Lr.row_begin(i); k < Lr.row_end(i); ++k)
        err = std::max(err, std::abs(Lr.val(k) - Lf.at(i, Lr.col(k))));
    const auto& Ur = ref.factorization().U;
    const auto& Uf = fast.factorization().U;
    for (index_t i = 0; i < Ur.num_rows(); ++i)
      for (index_t k = Ur.row_begin(i); k < Ur.row_end(i); ++k)
        err = std::max(err, std::abs(Ur.val(k) - Uf.at(i, Ur.col(k))));
    EXPECT_LE(err, prev + 1e-13) << "sweeps " << sweeps;
    prev = err;
  }
  EXPECT_LT(prev, 1e-8);  // 40 sweeps: fixed point reached
}

TEST(FastIlu, DefaultThreeSweepsIsUsableApproximation) {
  auto A = laplace2d(8, 8);
  FastIlu<double> fast;
  fast.symbolic(A, 0);
  fast.numeric(A);  // default 3 sweeps
  const double err = factor_error(fast.factorization(), A);
  EXPECT_GT(err, 1e-12);  // not exact...
  EXPECT_LT(err, 0.5);    // ...but close to the ILU(0) fixed point
}

TEST(FastIlu, ProfileShowsSweepParallelism) {
  auto A = laplace2d(10, 10);
  OpProfile pfast, pstd;
  FastIlu<double> fast;
  fast.symbolic(A, 1);
  fast.numeric(A, 3, &pfast);
  IlukFactorization<double> std_ilu;
  std_ilu.symbolic(A, 1);
  std_ilu.numeric(A, &pstd);
  EXPECT_EQ(pfast.launches, 3);            // one launch per sweep
  EXPECT_GT(pstd.launches, pfast.launches);  // level-scheduled SpILU
  EXPECT_GT(pfast.mean_width(), pstd.mean_width());
}

TEST(FastSpTrsv, ErrorShrinksWithSweepCount) {
  // A tridiagonal factor is a length-n dependency chain: m Jacobi sweeps can
  // only propagate information m cells, so few sweeps are inexact and ~n
  // sweeps are exact -- the fundamental trade of the iterative SpTRSV.
  auto A = tridiag(30);
  IlukFactorization<double> ilu;
  ilu.symbolic(A, 0);
  ilu.numeric(A);  // exact for tridiagonal
  std::vector<double> xref(30, 1.0), b;
  la::spmv(A, xref, b);

  double prev = 1e30;
  for (int sweeps : {5, 15, 40, 80}) {
    FastSpTRSV<double> fast(sweeps);
    fast.setup(ilu.factorization(), nullptr);
    std::vector<double> x;
    fast.solve(b, x, nullptr);
    double err = 0.0;
    for (index_t i = 0; i < 30; ++i) err = std::max(err, std::abs(x[i] - 1.0));
    EXPECT_LE(err, prev + 1e-12) << "sweeps " << sweeps;
    prev = err;
  }
  EXPECT_LT(prev, 1e-10);
}

// ---------------------------------------------------------------------------
// The factor layout is fixed at symbolic(): numeric passes write values into
// it.  The references below recompute the factor values per pattern entry
// with the textbook loops and pack them through TripletBuilder.

/// Position of (i, j) in the pattern, or -1.
index_t pattern_pos(const IlukPattern& pat, index_t i, index_t j) {
  for (index_t p = pat.rowptr[i]; p < pat.rowptr[i + 1]; ++p)
    if (pat.colind[p] == j) return p;
  return -1;
}

/// IKJ ILU(k) values per pattern entry.
std::vector<double> reference_iluk(const la::CsrMatrix<double>& A,
                                   const IlukPattern& pat) {
  std::vector<double> v(pat.colind.size(), 0.0), w(pat.n, 0.0);
  for (index_t i = 0; i < pat.n; ++i) {
    for (index_t p = A.row_begin(i); p < A.row_end(i); ++p)
      w[A.col(p)] = A.val(p);
    for (index_t p = pat.rowptr[i]; p < pat.diag_pos[i]; ++p) {
      const index_t k = pat.colind[p];
      const double lik = w[k] / v[pat.diag_pos[k]];
      w[k] = lik;
      for (index_t q = pat.diag_pos[k] + 1; q < pat.rowptr[k + 1]; ++q)
        if (pattern_pos(pat, i, pat.colind[q]) >= 0)
          w[pat.colind[q]] -= lik * v[q];
    }
    for (index_t p = pat.rowptr[i]; p < pat.rowptr[i + 1]; ++p) {
      v[p] = w[pat.colind[p]];
      w[pat.colind[p]] = 0.0;
    }
  }
  return v;
}

/// Chow-Patel Jacobi sweeps, values per pattern entry.
std::vector<double> reference_fastilu(const la::CsrMatrix<double>& A,
                                      const IlukPattern& pat, int sweeps) {
  std::vector<double> v(pat.colind.size(), 0.0);
  for (index_t i = 0; i < pat.n; ++i) {
    for (index_t q = A.row_begin(i); q < A.row_end(i); ++q) {
      const index_t j = A.col(q), p = pattern_pos(pat, i, j);
      if (p < 0) continue;
      const double d = A.at(j, j) != 0.0 ? A.at(j, j) : 1.0;
      v[p] = j < i ? A.val(q) / d : A.val(q);
    }
  }
  for (int s = 0; s < sweeps; ++s) {
    std::vector<double> next(v);
    for (index_t i = 0; i < pat.n; ++i) {
      for (index_t p = pat.rowptr[i]; p < pat.rowptr[i + 1]; ++p) {
        const index_t j = pat.colind[p];
        double sum = 0.0;
        for (index_t l = pat.rowptr[i];
             l < pat.rowptr[i + 1] && pat.colind[l] < std::min(i, j); ++l) {
          const index_t u = pattern_pos(pat, pat.colind[l], j);
          if (u >= 0) sum += v[l] * v[u];
        }
        if (j < i) {
          const double ujj = v[pat.diag_pos[j]];
          next[p] = ujj != 0.0 ? (A.at(i, j) - sum) / ujj : v[p];
        } else {
          next[p] = A.at(i, j) - sum;
        }
      }
    }
    v = next;
  }
  return v;
}

/// Unit-L / U factor of per-entry values, packed through TripletBuilder.
direct::Factorization<double> reference_pack(const IlukPattern& pat,
                                             const std::vector<double>& v) {
  la::TripletBuilder<double> lb(pat.n, pat.n), ub(pat.n, pat.n);
  for (index_t i = 0; i < pat.n; ++i) {
    lb.add(i, i, 1.0);
    for (index_t p = pat.rowptr[i]; p < pat.rowptr[i + 1]; ++p) {
      if (pat.colind[p] < i)
        lb.add(i, pat.colind[p], v[p]);
      else
        ub.add(i, pat.colind[p], v[p]);
    }
  }
  direct::Factorization<double> f;
  f.L = lb.build();
  f.U = ub.build();
  f.sn_ptr = direct::detect_supernodes(la::transpose(f.L));
  return f;
}

void expect_same_factor(const direct::Factorization<double>& f,
                        const direct::Factorization<double>& ref,
                        const std::string& what) {
  EXPECT_TRUE(f.unit_diag_L) << what;
  EXPECT_EQ(f.sn_ptr, ref.sn_ptr) << what;
  for (const auto& [M, R] : {std::pair{&f.L, &ref.L}, std::pair{&f.U, &ref.U}}) {
    ASSERT_EQ(M->rowptr(), R->rowptr()) << what;
    ASSERT_EQ(M->colind(), R->colind()) << what;
    EXPECT_EQ(std::memcmp(M->values().data(), R->values().data(),
                          M->values().size() * sizeof(double)),
              0)
        << what;
  }
}

/// 2 A with the diagonal bumped: the same pattern, other values.
la::CsrMatrix<double> rescaled(const la::CsrMatrix<double>& A) {
  la::CsrMatrix<double> B = A;
  for (index_t i = 0; i < A.num_rows(); ++i)
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      B.val(k) = 2.0 * A.val(k) + (A.col(k) == i ? 0.5 : 0.0);
  return B;
}

TEST(IluLayout, FactorsMatchTripletPackedReference) {
  const la::CsrMatrix<double> mats[] = {laplace2d(9, 9),
                                        convection_diffusion2d(8, 7, 3.0)};
  for (const auto& A : mats) {
    const auto A2 = rescaled(A);
    for (int lev = 0; lev <= 2; ++lev) {
      const std::string what = "level " + std::to_string(lev);
      IlukFactorization<double> ilu;
      ilu.symbolic(A, lev);
      ilu.numeric(A);
      const auto& pat = ilu.pattern();
      expect_same_factor(ilu.factorization(),
                         reference_pack(pat, reference_iluk(A, pat)),
                         "ILU " + what);
      FastIlu<double> fast;
      fast.symbolic(A, lev);
      fast.numeric(A, 3);
      expect_same_factor(fast.factorization(),
                         reference_pack(pat, reference_fastilu(A, pat, 3)),
                         "FastILU " + what);

      // A second pass on other values keeps the layout and its arrays.
      for (const direct::Factorization<double>* f :
           {&ilu.factorization(), &fast.factorization()}) {
        const IndexVector lrp = f->L.rowptr(), lci = f->L.colind();
        const IndexVector urp = f->U.rowptr(), uci = f->U.colind();
        const double* lx = f->L.values().data();
        const double* ux = f->U.values().data();
        if (f == &ilu.factorization())
          ilu.numeric(A2);
        else
          fast.numeric(A2, 3);
        EXPECT_EQ(f->L.rowptr(), lrp) << what;
        EXPECT_EQ(f->L.colind(), lci) << what;
        EXPECT_EQ(f->U.rowptr(), urp) << what;
        EXPECT_EQ(f->U.colind(), uci) << what;
        EXPECT_EQ(f->L.values().data(), lx) << what;
        EXPECT_EQ(f->U.values().data(), ux) << what;
      }
      expect_same_factor(ilu.factorization(),
                         reference_pack(pat, reference_iluk(A2, pat)),
                         "ILU rescaled " + what);
      expect_same_factor(fast.factorization(),
                         reference_pack(pat, reference_fastilu(A2, pat, 3)),
                         "FastILU rescaled " + what);
    }
  }
}

TEST(IluLayout, ThreadedFastIluSweepsMatchSerial) {
  // Several row chunks per sweep, so the threaded sweeps really run
  // concurrently (the TSan job runs this suite).
  const auto A = laplace2d(24, 24);
  FastIlu<double> serial, threaded;
  serial.symbolic(A, 1);
  threaded.symbolic(A, 1);
  serial.numeric(A, 3);
  threaded.numeric(A, 3, nullptr, exec::ExecPolicy::with_threads(2));
  expect_same_factor(threaded.factorization(), serial.factorization(),
                     "2 threads");
}

class IlukLevelSweep : public ::testing::TestWithParam<int> {};

TEST_P(IlukLevelSweep, FactorsStayFiniteAndDiagonalsPositive) {
  const int lev = GetParam();
  auto A = laplace2d(9, 9);
  IlukFactorization<double> ilu;
  ilu.symbolic(A, lev);
  ilu.numeric(A);
  const auto& U = ilu.factorization().U;
  for (index_t i = 0; i < U.num_rows(); ++i) {
    const double d = U.at(i, i);
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_GT(d, 0.0);  // M-matrix: ILU preserves positive pivots
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, IlukLevelSweep, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace frosch::ilu
