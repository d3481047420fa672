// Unit tests for the sparse/dense linear algebra substrate (src/la).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>

#include "comm/comm.hpp"
#include "krylov/operator.hpp"
#include "la/block.hpp"
#include "la/csr.hpp"
#include "la/dense.hpp"
#include "la/ops.hpp"
#include "la/spmv.hpp"
#include "la/vector_ops.hpp"
#include "support/compare.hpp"
#include "support/matrices.hpp"
#include "support/problems.hpp"

namespace frosch::la {
namespace {

using test::random_sparse;
using test::to_dense;
using test::tridiag;

TEST(Csr, TripletBuilderSumsDuplicatesAndSorts) {
  TripletBuilder<double> b(3, 3);
  b.add(0, 2, 1.0);
  b.add(0, 0, 2.0);
  b.add(0, 2, 3.0);  // duplicate, summed
  b.add(2, 1, 5.0);
  auto A = b.build();
  EXPECT_EQ(A.num_entries(), 3);
  EXPECT_DOUBLE_EQ(A.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(A.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(A.at(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(A.at(1, 1), 0.0);  // absent entry reads as zero
  // rows sorted
  EXPECT_LT(A.col(A.row_begin(0)), A.col(A.row_begin(0) + 1));
}

TEST(Csr, FindLocatesEntries) {
  auto A = tridiag(5);
  EXPECT_GE(A.find(2, 1), 0);
  EXPECT_GE(A.find(2, 2), 0);
  EXPECT_EQ(A.find(2, 4), -1);
}

TEST(Csr, ConvertRoundTripsPattern) {
  auto A = tridiag(10);
  auto Af = A.convert<float>();
  auto Ad = Af.convert<double>();
  EXPECT_EQ(Ad.num_entries(), A.num_entries());
  EXPECT_NEAR(Ad.at(3, 4), A.at(3, 4), 1e-7);
}

TEST(Spmv, MatchesDenseReference) {
  auto A = random_sparse(17, 13, 0.3, 42);
  auto D = to_dense(A);
  std::vector<double> x(13), y, yref(17, 0.0);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(-1, 1);
  for (auto& v : x) v = u(rng);
  spmv(A, x, y);
  for (index_t i = 0; i < 17; ++i)
    for (index_t j = 0; j < 13; ++j) yref[i] += D(i, j) * x[j];
  for (index_t i = 0; i < 17; ++i) EXPECT_NEAR(y[i], yref[i], 1e-12);
}

TEST(Spmv, AlphaBetaSemantics) {
  auto A = tridiag(4);
  std::vector<double> x{1, 2, 3, 4}, y{10, 10, 10, 10};
  spmv(A, x, y, 2.0, 1.0);  // y = 2*A*x + y
  EXPECT_DOUBLE_EQ(y[0], 2 * (2 * 1 - 2) + 10);
  EXPECT_DOUBLE_EQ(y[1], 2 * (-1 + 4 - 3) + 10);
}

TEST(Spmv, TransposeMatchesExplicitTranspose) {
  auto A = random_sparse(11, 9, 0.4, 3);
  auto At = transpose(A);
  std::vector<double> x(11), y1, y2;
  for (size_t i = 0; i < x.size(); ++i) x[i] = double(i) - 5.0;
  spmv_transpose(A, x, y1);
  spmv(At, x, y2);
  ASSERT_EQ(y1.size(), y2.size());
  for (size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(Spmv, ProfileCountsFlopsAndReductions) {
  auto A = tridiag(100);
  std::vector<double> x(100, 1.0), y;
  OpProfile prof;
  spmv(A, x, y, 1.0, 0.0, &prof);
  EXPECT_DOUBLE_EQ(prof.flops, 2.0 * A.num_entries());
  EXPECT_EQ(prof.launches, 1);
  const double d = dot(x, x, &prof);
  EXPECT_DOUBLE_EQ(d, 100.0);
  EXPECT_EQ(prof.reductions, 1);
}

TEST(Ops, TransposeTwiceIsIdentity) {
  auto A = random_sparse(8, 12, 0.35, 11);
  auto Att = transpose(transpose(A));
  ASSERT_EQ(Att.num_entries(), A.num_entries());
  for (index_t i = 0; i < A.num_rows(); ++i)
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      EXPECT_DOUBLE_EQ(Att.at(i, A.col(k)), A.val(k));
}

TEST(Ops, AddMatchesDense) {
  auto A = random_sparse(6, 6, 0.4, 1);
  auto B = random_sparse(6, 6, 0.4, 2);
  auto C = add(A, B, 2.0, -1.0);
  auto DA = to_dense(A);
  auto DB = to_dense(B);
  for (index_t i = 0; i < 6; ++i)
    for (index_t j = 0; j < 6; ++j)
      EXPECT_NEAR(C.at(i, j), 2.0 * DA(i, j) - DB(i, j), 1e-12);
}

TEST(Ops, SpgemmMatchesDense) {
  auto A = random_sparse(7, 9, 0.4, 5);
  auto B = random_sparse(9, 5, 0.4, 6);
  auto C = spgemm(A, B);
  auto DA = to_dense(A);
  auto DB = to_dense(B);
  for (index_t i = 0; i < 7; ++i) {
    for (index_t j = 0; j < 5; ++j) {
      double ref = 0;
      for (index_t k = 0; k < 9; ++k) ref += DA(i, k) * DB(k, j);
      EXPECT_NEAR(C.at(i, j), ref, 1e-12);
    }
  }
}

TEST(Ops, SpgemmGalerkinTripleProductSymmetry) {
  // A0 = P^T A P of an SPD matrix stays symmetric.
  auto A = tridiag(20);
  auto P = random_sparse(20, 4, 0.3, 9);
  auto A0 = spgemm(transpose(P), spgemm(A, P));
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 4; ++j)
      EXPECT_NEAR(A0.at(i, j), A0.at(j, i), 1e-12);
}

/// The one-pass Gustavson SpGEMM that the symbolic/numeric split replaced,
/// kept verbatim as the bitwise reference: the first product of each entry
/// is ASSIGNED, the rest are added in A's then B's entry order.
template <class Scalar>
CsrMatrix<Scalar> one_pass_spgemm(const CsrMatrix<Scalar>& A,
                                  const CsrMatrix<Scalar>& B) {
  const index_t m = A.num_rows(), n = B.num_cols();
  std::vector<index_t> rowptr(static_cast<size_t>(m) + 1, 0);
  std::vector<index_t> colind;
  std::vector<Scalar> values;
  std::vector<Scalar> accum(static_cast<size_t>(n), Scalar(0));
  std::vector<index_t> marker(static_cast<size_t>(n), -1);
  std::vector<index_t> row_cols;
  for (index_t i = 0; i < m; ++i) {
    row_cols.clear();
    for (index_t ka = A.row_begin(i); ka < A.row_end(i); ++ka) {
      const index_t j = A.col(ka);
      const Scalar aij = A.val(ka);
      for (index_t kb = B.row_begin(j); kb < B.row_end(j); ++kb) {
        const index_t c = B.col(kb);
        if (marker[c] != i) {
          marker[c] = i;
          accum[c] = aij * B.val(kb);
          row_cols.push_back(c);
        } else {
          accum[c] += aij * B.val(kb);
        }
      }
    }
    std::sort(row_cols.begin(), row_cols.end());
    for (index_t c : row_cols) {
      colind.push_back(c);
      values.push_back(accum[c]);
    }
    rowptr[i + 1] = static_cast<index_t>(colind.size());
  }
  return CsrMatrix<Scalar>(m, n, std::move(rowptr), std::move(colind),
                           std::move(values));
}

template <class Scalar>
void expect_bitwise_equal(const CsrMatrix<Scalar>& X,
                          const CsrMatrix<Scalar>& Y) {
  ASSERT_EQ(X.num_rows(), Y.num_rows());
  ASSERT_EQ(X.num_cols(), Y.num_cols());
  ASSERT_EQ(X.rowptr(), Y.rowptr());
  ASSERT_EQ(X.colind(), Y.colind());
  EXPECT_EQ(std::memcmp(X.values().data(), Y.values().data(),
                        X.values().size() * sizeof(Scalar)),
            0);
}

TEST(Ops, SplitSpgemmMatchesOnePassBitwiseOnSignedZeros) {
  // 4x3 * 3x5 with an empty row, products that are -0.0 (alone, or summed
  // with +0.0), and a sum that cancels to +0.0.
  const double nz = -0.0;
  const CsrMatrix<double> A(4, 3, {0, 2, 2, 4, 6}, {0, 2, 0, 1, 1, 2},
                            {nz, 1.0, 1.0, 1.0, 2.0, -1.0});
  const CsrMatrix<double> B(3, 5, {0, 2, 5, 7}, {0, 4, 0, 3, 4, 1, 4},
                            {3.0, 5.0, -3.0, 0.5, nz, 2.0, 0.0});
  const auto ref = one_pass_spgemm(A, B);
  const auto C = spgemm(A, B);
  expect_bitwise_equal(C, ref);
  // The fixture really exercises the signs: (0,0) is a lone -0.0 product,
  // (3,4) sums two -0.0 products, (0,4) is -0.0 + +0.0 = +0.0, and (2,0)
  // cancels to +0.0.
  EXPECT_TRUE(std::signbit(ref.at(0, 0)));
  EXPECT_TRUE(std::signbit(ref.at(3, 4)));
  EXPECT_FALSE(std::signbit(ref.at(0, 4)));
  EXPECT_GE(ref.find(2, 0), 0);
  EXPECT_FALSE(std::signbit(ref.at(2, 0)));
  EXPECT_EQ(ref.row_nnz(1), 0);
}

TEST(Ops, SplitSpgemmMatchesOnePassBitwiseOnRandomOperands) {
  for (unsigned seed = 1; seed <= 4; ++seed) {
    const auto A = random_sparse(40, 25, 0.15, seed);
    const auto B = random_sparse(25, 31, 0.2, seed + 10);
    expect_bitwise_equal(spgemm(A, B), one_pass_spgemm(A, B));
    const auto Af = A.convert<float>(), Bf = B.convert<float>();
    expect_bitwise_equal(spgemm(Af, Bf), one_pass_spgemm(Af, Bf));
  }
}

TEST(Ops, SpgemmRowSubsetMatchesProductOfExtractedRows) {
  // C = A(rows, :) * B, rows in any order, is the one-pass product of the
  // extracted rows; the numeric pass reruns on the cached structure for new
  // values of the same patterns.  E's subset includes two empty rows.
  const auto A = random_sparse(30, 20, 0.2, 7);
  auto B = random_sparse(20, 12, 0.25, 8);
  const IndexVector rows{17, 3, 29, 0, 11};
  IndexVector all_cols(20);
  for (index_t j = 0; j < 20; ++j) all_cols[j] = j;
  const auto A_rows = extract_submatrix(A, rows, all_cols);
  auto C = spgemm_symbolic(A, B, &rows);
  spgemm_numeric(A, B, C, &rows);
  expect_bitwise_equal(C, one_pass_spgemm(A_rows, B));
  for (auto& v : B.values()) v = -1.5 * v + 0.25;
  const index_t* cols = C.colind().data();
  spgemm_numeric(A, B, C, &rows);
  EXPECT_EQ(C.colind().data(), cols);
  expect_bitwise_equal(C, one_pass_spgemm(A_rows, B));

  const CsrMatrix<double> E(3, 20, {0, 0, 2, 2}, {4, 9}, {1.0, -2.0});
  const IndexVector empty_first{0, 1, 2};
  auto D = spgemm_symbolic(E, B, &empty_first);
  spgemm_numeric(E, B, D, &empty_first);
  expect_bitwise_equal(D, one_pass_spgemm(E, B));
}

TEST(Ops, SplitSpgemmChargesTheOnePassProfile) {
  // symbolic + numeric charge two launches and the one-pass flops/bytes; a
  // numeric rerun on the cached structure charges one launch.
  const auto A = random_sparse(30, 20, 0.2, 3);
  const auto B = random_sparse(20, 12, 0.25, 4);
  OpProfile both;
  const auto C = spgemm(A, B, &both);
  count_t mults = 0;
  for (count_t k = 0; k < A.num_entries(); ++k)
    mults += B.row_nnz(A.col(static_cast<index_t>(k)));
  EXPECT_EQ(both.flops, 2.0 * static_cast<double>(mults));
  EXPECT_EQ(both.bytes, A.storage_bytes() + B.storage_bytes() +
                            static_cast<double>(C.num_entries()) *
                                (sizeof(index_t) + sizeof(double)));
  EXPECT_EQ(both.launches, 2);
  OpProfile again;
  auto C2 = C;
  spgemm_numeric(A, B, C2, nullptr, &again);
  EXPECT_EQ(again.launches, 1);
  EXPECT_EQ(again.flops, both.flops);
}

TEST(Ops, TransposeEntryMapRefillsValues) {
  auto A = random_sparse(9, 6, 0.4, 12);
  IndexVector map;
  auto At = transpose(A, nullptr, &map);
  for (auto& v : A.values()) v *= -3.0;
  refresh_submatrix_values(A, map, At);
  expect_bitwise_equal(At, transpose(A));
}

TEST(Ops, PermuteSymmetricPreservesValues) {
  auto A = tridiag(6);
  IndexVector perm{5, 3, 1, 0, 2, 4};  // new -> old
  auto B = permute_symmetric(A, perm);
  for (index_t i = 0; i < 6; ++i)
    for (index_t j = 0; j < 6; ++j)
      EXPECT_DOUBLE_EQ(B.at(i, j), A.at(perm[i], perm[j]));
}

TEST(Ops, ExtractSubmatrixSelectsBlock) {
  auto A = tridiag(8);
  IndexVector rows{2, 3, 4}, cols{1, 2, 3, 4, 5};
  auto S = extract_submatrix(A, rows, cols);
  EXPECT_EQ(S.num_rows(), 3);
  EXPECT_EQ(S.num_cols(), 5);
  for (size_t i = 0; i < rows.size(); ++i)
    for (size_t j = 0; j < cols.size(); ++j)
      EXPECT_DOUBLE_EQ(S.at(index_t(i), index_t(j)), A.at(rows[i], cols[j]));
}

TEST(VectorOps, AxpyDotNorm) {
  std::vector<double> x{1, 2, 3}, y{4, 5, 6};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  EXPECT_DOUBLE_EQ(dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(norm2(x), std::sqrt(14.0));
}

TEST(VectorOps, MultiDotOneReduction) {
  std::vector<std::vector<double>> vs{{1, 0, 0}, {0, 1, 0}};
  std::vector<double> w{3, 4, 5}, out;
  OpProfile prof;
  dist_fused_dots<double>(DistContext{}, {{&vs[0], &w}, {&vs[1], &w}}, out,
                          &prof);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 4.0);
  EXPECT_EQ(prof.reductions, 1);
}

TEST(Dense, PartialCholeskyFormsSchurComplement) {
  // F = [A11 A21^T; A21 A22], SPD; after partial_cholesky(F, k) the trailing
  // block must equal A22 - A21 A11^{-1} A21^T.  The second size spans three
  // pivot panels and ends in ragged 4x4 tiles.
  for (const auto& [n, k] : {std::pair<index_t, index_t>{5, 3}, {101, 70}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
    DenseMatrix<double> M(n, n);
    std::mt19937 rng(13);
    std::uniform_real_distribution<double> u(-1, 1);
    DenseMatrix<double> B(n, n);
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j) B(i, j) = u(rng);
    // M = B*B^T + n*I  (SPD)
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        double s = (i == j) ? double(n) : 0.0;
        for (index_t c = 0; c < n; ++c) s += B(i, c) * B(j, c);
        M(i, j) = s;
      }
    }
    DenseMatrix<double> F = M;
    partial_cholesky(F, k);
    // Reference Schur complement via dense LU solve of A11.
    DenseMatrix<double> A11(k, k);
    for (index_t i = 0; i < k; ++i)
      for (index_t j = 0; j < k; ++j) A11(i, j) = M(i, j);
    IndexVector piv;
    lu_factor(A11, piv);
    for (index_t c = k; c < n; ++c) {
      std::vector<double> rhs(k);
      for (index_t i = 0; i < k; ++i) rhs[i] = M(i, c);
      lu_solve(A11, piv, rhs);
      for (index_t r = c; r < n; ++r) {  // lower triangle only (LAPACK 'L')
        double s = M(r, c);
        for (index_t i = 0; i < k; ++i) s -= M(r, i) * rhs[i];
        EXPECT_NEAR(F(r, c), s, 1e-10) << "Schur mismatch at " << r << "," << c;
      }
    }
  }
}

TEST(Dense, LuSolvesRandomSystem) {
  const index_t n = 20;
  DenseMatrix<double> A(n, n);
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> u(-1, 1);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) A(i, j) = u(rng);
    A(i, i) += 5.0;
  }
  std::vector<double> xref(n), b(n, 0.0);
  for (index_t i = 0; i < n; ++i) xref[i] = u(rng);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) b[i] += A(i, j) * xref[j];
  IndexVector piv;
  lu_factor(A, piv);
  lu_solve(A, piv, b);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], xref[i], 1e-9);
}

TEST(Dense, BlockedLuFactorsAcrossPanels) {
  // n = 101 with 32-wide panels: three trailing updates of 69, 37 and 5
  // rows plus a ragged last panel, so every tile edge of the update runs.
  const index_t n = 101, nb = kLuPanelWidth;
  DenseMatrix<double> A(n, n);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(-1, 1);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) A(i, j) = u(rng);
  DenseMatrix<double> F = A;
  IndexVector piv;
  OpProfile prof;
  EXPECT_EQ(lu_factor_blocked(F, piv, &prof), -1);
  // Rebuild P A from the swaps and compare with L U.
  DenseMatrix<double> PA = A;
  for (index_t k = 0; k < n; ++k)
    for (index_t c = 0; c < n; ++c) std::swap(PA(k, c), PA(piv[k], c));
  double err = 0.0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double s = (i <= j) ? F(i, j) : 0.0;  // unit L(i, i) times U(i, j)
      for (index_t k = 0; k < std::min(i, j + 1); ++k) s += F(i, k) * F(k, j);
      err = std::max(err, std::abs(s - PA(i, j)));
    }
  }
  EXPECT_LT(err, 1e-12);
  // Exactly the flops of unblocked LU: the blocking only reorders them.
  double flops = 0.0;
  for (index_t j = 0; j < n; ++j)
    flops += double(n - j - 1) * (1.0 + 2.0 * double(n - j - 1));
  EXPECT_DOUBLE_EQ(prof.flops, flops);
  EXPECT_EQ(prof.launches, 3 * ((n + nb - 1) / nb));

  // An all-zero column stops the factorization and is reported.
  DenseMatrix<double> Z = A;
  for (index_t i = 0; i < n; ++i) Z(i, 70) = 0.0;
  DenseMatrix<double> Zb = Z;
  EXPECT_EQ(lu_factor_blocked(Zb, piv), 70);
  EXPECT_THROW(lu_factor(Z, piv), Error);
}

/// FNV-1a digest of lu_factor_blocked's array and pivots on a uniform
/// [-1, 1] n x n matrix.
template <class Scalar>
std::uint64_t blocked_lu_digest(index_t n) {
  DenseMatrix<Scalar> A(n, n);
  std::mt19937 rng(static_cast<unsigned>(n));
  std::uniform_real_distribution<double> u(-1, 1);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) A(i, j) = Scalar(u(rng));
  IndexVector piv;
  EXPECT_EQ(lu_factor_blocked(A, piv), -1);
  return test::fnv1a(piv, test::fnv1a(A.data(), size_t(n) * size_t(n)));
}

// The panel width and the order of every trailing update's sums are part of
// the bitwise contract: these digests were recorded from the 4x4-tile
// kernel, and a faster update must reproduce every byte.  The sizes cover
// a lone panel, a ragged one, one full panel, panel + 1, and tails of 6
// and 1 columns beyond whole panels.
TEST(Dense, BlockedLuMatchesRecordedDigests) {
  const std::pair<index_t, std::uint64_t> dbl[] = {
      {1, 0x7f127736f79b9840ull},   {7, 0xa1eecd69945abf68ull},
      {31, 0xe772bbc01e06349dull},  {33, 0x388b0b77a4f416baull},
      {70, 0x5cab351a3493b1a2ull},  {129, 0x9b3c13d94da1fce1ull}};
  const std::pair<index_t, std::uint64_t> flt[] = {
      {1, 0x473afe3c020327a3ull},   {7, 0xd145488b65899550ull},
      {31, 0xd4bae6cf946e9c59ull},  {33, 0x2c8cccffc190a785ull},
      {70, 0x3b5594d4a9ebd1f3ull},  {129, 0xe65a4134c8dab831ull}};
  for (const auto& [n, digest] : dbl)
    EXPECT_EQ(blocked_lu_digest<double>(n), digest)
        << "double n = " << n << " digest 0x" << std::hex
        << blocked_lu_digest<double>(n);
  for (const auto& [n, digest] : flt)
    EXPECT_EQ(blocked_lu_digest<float>(n), digest)
        << "float n = " << n << " digest 0x" << std::hex
        << blocked_lu_digest<float>(n);
}

TEST(Dense, GemmAccumMatchesReference) {
  DenseMatrix<double> A(3, 4), B(4, 2), C(3, 2);
  int v = 1;
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 3; ++i) A(i, j) = v++;
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < 4; ++i) B(i, j) = v++;
  gemm_accum(A, B, C);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 2; ++j) {
      double ref = 0;
      for (index_t k = 0; k < 4; ++k) ref += A(i, k) * B(k, j);
      EXPECT_DOUBLE_EQ(C(i, j), ref);
    }
  }
}

TEST(Identity, IsIdentity) {
  auto I = identity<double>(4);
  std::vector<double> x{1, 2, 3, 4}, y;
  spmv(I, x, y);
  for (index_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Ops, SpgemmWithIdentityIsIdentity) {
  auto A = random_sparse(9, 9, 0.3, 17);
  auto I = identity<double>(9);
  auto L = spgemm(I, A);
  auto R = spgemm(A, I);
  for (index_t i = 0; i < 9; ++i)
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k) {
      EXPECT_DOUBLE_EQ(L.at(i, A.col(k)), A.val(k));
      EXPECT_DOUBLE_EQ(R.at(i, A.col(k)), A.val(k));
    }
}

TEST(Ops, ExtractEmptySubmatrix) {
  auto A = tridiag(5);
  auto S = extract_submatrix(A, {}, {});
  EXPECT_EQ(S.num_rows(), 0);
  EXPECT_EQ(S.num_entries(), 0);
}

TEST(Ops, PermuteIdentityIsNoop) {
  auto A = tridiag(7);
  IndexVector id{0, 1, 2, 3, 4, 5, 6};
  auto B = permute_symmetric(A, id);
  ASSERT_EQ(B.num_entries(), A.num_entries());
  for (count_t k = 0; k < A.num_entries(); ++k)
    EXPECT_DOUBLE_EQ(B.val(index_t(k)), A.val(index_t(k)));
}

TEST(Ops, ResidualNormOfExactSolutionIsZero) {
  auto A = tridiag(6);
  std::vector<double> x{1, 2, 3, 3, 2, 1}, b;
  spmv(A, x, b);
  EXPECT_NEAR(residual_norm(A, x, b), 0.0, 1e-14);
}

TEST(Csr, StorageBytesCountsAllArrays) {
  auto A = tridiag(10);
  const double expect = 11.0 * sizeof(index_t) +
                        double(A.num_entries()) * (sizeof(index_t) + 8);
  EXPECT_DOUBLE_EQ(A.storage_bytes(), expect);
  auto Af = A.convert<float>();
  EXPECT_LT(Af.storage_bytes(), A.storage_bytes());
}

class PermuteRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(PermuteRoundTrip, InversePermutationRestoresMatrix) {
  auto A = random_sparse(12, 12, 0.3, GetParam());
  // Make structurally symmetric for permute_symmetric.
  A = add(A, transpose(A));
  std::mt19937 rng(GetParam());
  IndexVector perm(12);
  for (index_t i = 0; i < 12; ++i) perm[i] = i;
  std::shuffle(perm.begin(), perm.end(), rng);
  IndexVector inv(12);
  for (index_t i = 0; i < 12; ++i) inv[perm[i]] = i;
  auto B = permute_symmetric(permute_symmetric(A, perm), inv);
  for (index_t i = 0; i < 12; ++i)
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      EXPECT_DOUBLE_EQ(B.at(i, A.col(k)), A.val(k));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PermuteRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 4u));

class SpgemmSweep : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(SpgemmSweep, AssociativityProperty) {
  // (A*B)*C == A*(B*C) on random sparse chains.
  const auto [m, seed, density] = GetParam();
  auto A = random_sparse(m, m + 2, density, unsigned(seed));
  auto B = random_sparse(m + 2, m - 1, density, unsigned(seed) + 100);
  auto C = random_sparse(m - 1, m, density, unsigned(seed) + 200);
  auto L = spgemm(spgemm(A, B), C);
  auto R = spgemm(A, spgemm(B, C));
  for (index_t i = 0; i < L.num_rows(); ++i)
    for (index_t j = 0; j < L.num_cols(); ++j)
      EXPECT_NEAR(L.at(i, j), R.at(i, j), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SpgemmSweep,
    ::testing::Combine(::testing::Values(5, 9, 16), ::testing::Values(1, 2, 3),
                       ::testing::Values(0.2, 0.5)));

// ---------------------------------------------------------------------------
// HaloPlan interior/boundary row split and the overlapped SpMV built on it:
// interior rows read no ghost column (computable while the import is in
// flight), boundary rows read at least one, and because the split is by
// WHOLE row the overlapped kernel is bitwise identical to the blocking one.

TEST(HaloSplit, InteriorBoundaryPartitionOnTridiagTwoRanks) {
  auto A = tridiag(6);
  const IndexVector rank_of = {0, 0, 0, 1, 1, 1};
  const auto plan = build_halo_plan(A, rank_of, 2);
  // Rank 0 owns rows 0..2; only row 2 reads column 3 across the cut.
  EXPECT_EQ(plan.interior[0], (IndexVector{0, 1}));
  EXPECT_EQ(plan.boundary[0], (IndexVector{2}));
  // Rank 1 owns rows 3..5 (local 0..2); only local row 0 reads column 2.
  EXPECT_EQ(plan.interior[1], (IndexVector{1, 2}));
  EXPECT_EQ(plan.boundary[1], (IndexVector{0}));
  EXPECT_EQ(plan.interior_count(0) + plan.boundary_count(0),
            plan.owned_count(0));
}

TEST(HaloSplit, PartitionIsExactOnBoxDecomposition) {
  // 2x2x1 box decomposition of the 4^3 Laplace problem, as the HaloPlan
  // construction test in test_comm uses.
  auto p = frosch::test::laplace_problem(4, 2, 2, 1);
  const auto plan = build_halo_plan(p.A, p.owner, 4);
  for (int r = 0; r < 4; ++r) {
    const auto& interior = plan.interior[static_cast<size_t>(r)];
    const auto& boundary = plan.boundary[static_cast<size_t>(r)];
    // The two lists partition the owned rows, each ascending.
    EXPECT_TRUE(std::is_sorted(interior.begin(), interior.end()));
    EXPECT_TRUE(std::is_sorted(boundary.begin(), boundary.end()));
    IndexVector merged(interior.size() + boundary.size());
    std::merge(interior.begin(), interior.end(), boundary.begin(),
               boundary.end(), merged.begin());
    ASSERT_EQ(static_cast<index_t>(merged.size()), plan.owned_count(r));
    for (size_t q = 0; q < merged.size(); ++q)
      EXPECT_EQ(merged[q], static_cast<index_t>(q));
    // The classification is exact: boundary rows reference a ghost column,
    // interior rows reference none.
    auto references_ghost = [&](index_t local_row) {
      const index_t i = plan.owned[static_cast<size_t>(r)][local_row];
      for (index_t k = p.A.row_begin(i); k < p.A.row_end(i); ++k)
        if (plan.rank_of[p.A.col(k)] != r) return true;
      return false;
    };
    for (index_t q : interior) EXPECT_FALSE(references_ghost(q)) << "rank " << r;
    for (index_t q : boundary) EXPECT_TRUE(references_ghost(q)) << "rank " << r;
  }
  // One rank: every row is interior -- there is nothing to import.
  const auto solo = build_halo_plan(p.A, IndexVector(p.A.num_rows(), 0), 1);
  EXPECT_EQ(solo.interior_count(0), p.A.num_rows());
  EXPECT_EQ(solo.boundary_count(0), 0);
}

TEST(DistSpmv, OverlappedBitwiseMatchesBlockingAcrossRanksAndThreads) {
  // The one SpMV kernel on the paper's two 16^3 problems: interior-rows-
  // while-importing then boundary rows gives the SAME bits as import-then-
  // rows, at every (ranks, threads), and the compute accounting of the two
  // schedules is identical -- only the comm-side ov_/window fields differ.
  // A width-3 block gives each column the bits of its width-1 run.
  auto lap = frosch::test::laplace_problem(16, 2, 2, 2);
  auto ela = frosch::test::elasticity_problem(16, 2, 2, 2);
  for (const auto* prob : {&lap, &ela}) {
    const auto& A = prob->A;
    const index_t n = A.num_rows();
    const std::vector<std::vector<double>> xg = {
        frosch::test::random_vector(n, 42), frosch::test::random_vector(n, 43),
        frosch::test::random_vector(n, 44)};
    std::vector<double> y_ref;
    spmv(A, xg[0], y_ref);
    for (int R : {1, 4, 8}) {
      for (int T : {1, 4}) {
        const auto policy = exec::ExecPolicy::with_threads(T);
        IndexVector rank_of(static_cast<size_t>(n));
        comm::SimComm owner_map(R);
        for (index_t i = 0; i < n; ++i)
          rank_of[i] = owner_map.block_owner(n, i);
        const auto plan = build_halo_plan(A, rank_of, R);
        DistCsrMatrix<double> Ad(A, plan);
        const auto msgs = plan.messages(sizeof(double));

        comm::SimComm cb(R, policy);
        DistMultiVector<double> xb(plan, 1), yb(plan, 1);
        xb.scatter_owned({xg[0]});
        OpProfile prof_b;
        dist_spmv_multi(cb, Ad, msgs, xb, yb, /*overlap=*/false, &prof_b);

        comm::SimComm co(R, policy);
        DistMultiVector<double> xo(plan, 1), yo(plan, 1);
        xo.scatter_owned({xg[0]});
        OpProfile prof_o;
        dist_spmv_multi(co, Ad, msgs, xo, yo, /*overlap=*/true, &prof_o);

        std::vector<std::vector<double>> y_b(1), y_o(1);
        yb.gather_owned(y_b);
        yo.gather_owned(y_o);
        const std::string what = "R=" + std::to_string(R) +
                                 " T=" + std::to_string(T) +
                                 " n=" + std::to_string(n);
        EXPECT_EQ(
            std::memcmp(y_o[0].data(), y_b[0].data(), n * sizeof(double)), 0)
            << what;
        EXPECT_EQ(
            std::memcmp(y_b[0].data(), y_ref.data(), n * sizeof(double)), 0)
            << what;
        // Identical aggregate compute accounting BY DESIGN.
        EXPECT_EQ(prof_o.flops, prof_b.flops) << what;
        EXPECT_EQ(prof_o.bytes, prof_b.bytes) << what;
        EXPECT_EQ(prof_o.launches, prof_b.launches) << what;
        for (int r = 0; r < R; ++r) {
          const auto& pb = cb.prof(r);
          const auto& po = co.prof(r);
          // Same wire traffic either way...
          EXPECT_EQ(po.neighbor_msgs, pb.neighbor_msgs) << what;
          EXPECT_EQ(po.msg_bytes, pb.msg_bytes) << what;
          // ... but the overlapped path posted ALL of it async, with a
          // measured window wherever remote traffic landed.
          EXPECT_EQ(po.ov_neighbor_msgs, po.neighbor_msgs) << what;
          EXPECT_EQ(po.ov_msg_bytes, po.msg_bytes) << what;
          EXPECT_EQ(po.overlap_windows, po.neighbor_msgs > 0 ? 1 : 0) << what;
          EXPECT_EQ(pb.ov_neighbor_msgs, 0) << what;
          EXPECT_EQ(pb.overlap_windows, 0) << what;
        }

        // Width 3, both schedules: every column is bitwise its width-1
        // result, and only the overlapped run records ov_ fields.
        const auto msgs3 = plan.messages(3.0 * sizeof(double));
        for (bool overlap : {false, true}) {
          comm::SimComm c3(R, policy);
          DistMultiVector<double> x3(plan, 3), y3(plan, 3);
          x3.scatter_owned(xg);
          dist_spmv_multi(c3, Ad, msgs3, x3, y3, overlap);
          std::vector<std::vector<double>> y3g(3);
          y3.gather_owned(y3g);
          for (size_t c = 0; c < xg.size(); ++c) {
            comm::SimComm c1(R, policy);
            DistMultiVector<double> x1(plan, 1), y1(plan, 1);
            x1.scatter_owned({xg[c]});
            dist_spmv_multi(c1, Ad, msgs, x1, y1, overlap);
            std::vector<std::vector<double>> y1g(1);
            y1.gather_owned(y1g);
            EXPECT_EQ(std::memcmp(y3g[c].data(), y1g[0].data(),
                                  n * sizeof(double)),
                      0)
                << what << " overlap=" << overlap << " column " << c;
          }
          for (int r = 0; r < R; ++r) {
            const auto& p3 = c3.prof(r);
            EXPECT_EQ(p3.neighbor_msgs, cb.prof(r).neighbor_msgs) << what;
            if (overlap) continue;
            EXPECT_EQ(p3.ov_reductions, 0) << what;
            EXPECT_EQ(p3.ov_neighbor_msgs, 0) << what;
            EXPECT_EQ(p3.ov_msg_bytes, 0.0) << what;
            EXPECT_EQ(p3.overlap_windows, 0) << what;
            EXPECT_EQ(p3.overlap_s, 0.0) << what;
          }
        }
      }
    }
  }
}

TEST(DistCsrOperator, ShrinkingAndRegrowingWidthsMatchWidth1Bitwise) {
  // Block GMRES drops each converged column from its block, and the next
  // batch widens it again: widths 4 -> 2 -> 4 -> 1 on ONE operator, whose
  // staging per width is built once and kept.  Every column is bitwise its
  // width-1 apply, and every width posts one message per transfer with the
  // payload scaled by the width.
  auto prob = frosch::test::laplace_problem(8, 2, 2, 1);
  const auto& A = prob.A;
  const index_t n = A.num_rows();
  std::vector<std::vector<double>> X;
  for (unsigned c = 0; c < 4; ++c)
    X.push_back(frosch::test::random_vector(n, 50 + c));
  for (int R : {1, 4}) {
    for (bool overlap : {false, true}) {
      IndexVector rank_of(static_cast<size_t>(n));
      comm::SimComm owner_map(R);
      for (index_t i = 0; i < n; ++i) rank_of[i] = owner_map.block_owner(n, i);
      const auto plan = build_halo_plan(A, rank_of, R);
      DistCsrMatrix<double> Ad(A, plan);
      comm::SimComm comm(R);
      krylov::DistCsrOperator<double> op(Ad, comm, {}, overlap);
      const std::string what =
          "R=" + std::to_string(R) + " overlap=" + std::to_string(overlap);

      std::vector<std::vector<double>> ref(4, std::vector<double>(n));
      op.apply(X[0], ref[0], nullptr);
      OpProfile one;
      for (int r = 0; r < R; ++r) one += comm.prof(r);
      for (size_t c = 1; c < 4; ++c) op.apply(X[c], ref[c], nullptr);

      for (size_t w : {size_t(4), size_t(2), size_t(4), size_t(1)}) {
        comm.reset_profiles();
        std::vector<std::vector<double>> Xw(X.begin(), X.begin() + w);
        std::vector<std::vector<double>> Y(w, std::vector<double>(n, -1.0));
        op.apply_columns(Xw, Y, nullptr);
        for (size_t c = 0; c < w; ++c)
          EXPECT_EQ(std::memcmp(Y[c].data(), ref[c].data(), n * sizeof(double)),
                    0)
              << what << " width " << w << " column " << c;
        OpProfile blk;
        for (int r = 0; r < R; ++r) blk += comm.prof(r);
        EXPECT_EQ(blk.neighbor_msgs, one.neighbor_msgs) << what << " width " << w;
        EXPECT_EQ(blk.msg_bytes, static_cast<double>(w) * one.msg_bytes)
            << what << " width " << w;
      }
    }
  }
}

}  // namespace
}  // namespace frosch::la
