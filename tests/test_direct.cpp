// Unit tests for the sparse direct solvers (src/direct): elimination tree,
// symbolic Cholesky, Gilbert-Peierls LU, multifrontal Cholesky, supernodes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>

#include "common/half.hpp"
#include "direct/elimination_tree.hpp"
#include "direct/gp_lu.hpp"
#include "direct/multifrontal.hpp"
#include "graph/nested_dissection.hpp"
#include "la/ops.hpp"
#include "la/spmv.hpp"
#include "support/compare.hpp"
#include "support/matrices.hpp"
#include "support/problems.hpp"
#include "trisolve/substitution.hpp"

namespace frosch::direct {
namespace {

using test::laplace2d;
using test::random_nonsym;
using test::random_vector;

template <class Scalar>
std::vector<Scalar> solve_with(const Factorization<Scalar>& f,
                               const std::vector<Scalar>& b) {
  std::vector<Scalar> x;
  f.apply_row_perm(b, x);
  trisolve::forward_solve(f.L, f.unit_diag_L, x);
  trisolve::backward_solve(f.U, x);
  return x;
}

TEST(EliminationTree, TridiagonalIsAPath) {
  la::TripletBuilder<double> b(5, 5);
  for (index_t i = 0; i < 5; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < 5) b.add(i, i + 1, -1.0);
  }
  auto parent = elimination_tree(b.build());
  for (index_t i = 0; i + 1 < 5; ++i) EXPECT_EQ(parent[i], i + 1);
  EXPECT_EQ(parent[4], -1);
}

TEST(EliminationTree, PostorderVisitsChildrenFirst) {
  auto A = laplace2d(6, 6);
  auto parent = elimination_tree(A);
  auto post = tree_postorder(parent);
  IndexVector seen(post.size(), 0);
  std::vector<char> done(post.size(), 0);
  for (index_t v : post) {
    if (parent[v] != -1) {
      EXPECT_FALSE(done[parent[v]]) << "parent before child";
    }
    done[v] = 1;
  }
}

TEST(EliminationTree, LevelsBoundedByHeight) {
  auto A = laplace2d(8, 8);
  auto parent = elimination_tree(A);
  index_t h = 0;
  auto level = tree_levels(parent, &h);
  for (index_t v = 0; v < 64; ++v) {
    EXPECT_GE(level[v], 1);
    EXPECT_LE(level[v], h);
    if (parent[v] != -1) {
      EXPECT_GT(level[parent[v]], level[v]);
    }
  }
}

TEST(EliminationTree, NdOrderingShrinksTreeHeight) {
  // The GPU-relevant property: nested dissection makes the etree shallower
  // than the natural (banded) ordering, exposing level parallelism.
  auto A = laplace2d(16, 16);
  auto parent_nat = elimination_tree(A);
  index_t h_nat = 0;
  tree_levels(parent_nat, &h_nat);

  auto g = graph::build_graph(A);
  auto perm = graph::nested_dissection(g);
  auto And = la::permute_symmetric(A, perm);
  auto parent_nd = elimination_tree(And);
  index_t h_nd = 0;
  tree_levels(parent_nd, &h_nd);
  EXPECT_LT(h_nd, h_nat);
}

/// Nested-dissection ordering of a node-blocked matrix (b dofs per node),
/// computed on the node quotient graph and expanded blockwise.
la::CsrMatrix<double> nd_ordered(const la::CsrMatrix<double>& A, index_t b) {
  const index_t n = A.num_rows(), nq = n / b;
  la::TripletBuilder<char> qb(nq, nq);
  for (index_t i = 0; i < n; ++i)
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      if (i / b != A.col(k) / b) qb.add(i / b, A.col(k) / b, 1);
  const IndexVector qperm =
      graph::nested_dissection(graph::build_graph(qb.build()));
  IndexVector perm(static_cast<size_t>(n));
  for (index_t q = 0; q < nq; ++q)
    for (index_t c = 0; c < b; ++c) perm[q * b + c] = qperm[q] * b + c;
  return la::permute_symmetric(A, perm);
}

TEST(SymbolicCholesky, PatternContainsMatrixLowerTriangle) {
  auto A = laplace2d(5, 5);
  auto parent = elimination_tree(A);
  auto Lpat = symbolic_cholesky(A, parent);
  // Every lower-triangle entry of A must appear in L's pattern:
  // column j of L (row j of Lpat) contains row index i for A(i,j)!=0, i>=j.
  for (index_t i = 0; i < A.num_rows(); ++i) {
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k) {
      const index_t j = A.col(k);
      if (j > i) continue;
      EXPECT_GE(Lpat.find(j, i), 0) << "missing L(" << i << "," << j << ")";
    }
  }
}

/// Symbolic Cholesky by brute force: dense boolean elimination of the
/// lower triangle, L(i, j) set when A(i, j) is or when L(i, k) and L(j, k)
/// are for some k < j.
std::vector<std::vector<char>> brute_force_pattern(
    const la::CsrMatrix<double>& A) {
  const index_t n = A.num_rows();
  std::vector<std::vector<char>> M(static_cast<size_t>(n),
                                   std::vector<char>(static_cast<size_t>(n)));
  for (index_t i = 0; i < n; ++i) {
    M[i][i] = 1;
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      if (A.col(k) < i) M[i][A.col(k)] = 1;
  }
  for (index_t k = 0; k < n; ++k)
    for (index_t i = k + 1; i < n; ++i)
      if (M[i][k])
        for (index_t j = k + 1; j <= i; ++j)
          if (M[j][k]) M[i][j] = 1;
  return M;
}

/// Checks symbolic_cholesky entry by entry against brute_force_pattern,
/// then factors A and checks L is U's transpose, value for value.
void check_symbolic_pattern(const la::CsrMatrix<double>& A) {
  const index_t n = A.num_rows();
  ASSERT_LE(n, 300);
  const auto M = brute_force_pattern(A);
  const auto U = symbolic_cholesky(A, elimination_tree(A));
  for (index_t j = 0; j < n; ++j) {
    IndexVector want;
    for (index_t i = j; i < n; ++i)
      if (M[i][j]) want.push_back(i);
    const IndexVector got(U.colind().begin() + U.row_begin(j),
                          U.colind().begin() + U.row_end(j));
    EXPECT_EQ(got, want) << "column " << j << " of L";
  }

  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();
  EXPECT_EQ(f.U.rowptr(), U.rowptr());
  EXPECT_EQ(f.U.colind(), U.colind());
  ASSERT_EQ(f.L.num_entries(), f.U.num_entries());
  for (index_t i = 0; i < n; ++i) {
    for (index_t r = f.L.row_begin(i); r < f.L.row_end(i); ++r) {
      const index_t q = f.U.find(f.L.col(r), i);
      ASSERT_GE(q, 0) << "L(" << i << "," << f.L.col(r) << ") not in U^T";
      EXPECT_EQ(std::memcmp(&f.L.values()[r], &f.U.values()[q],
                            sizeof(double)),
                0)
          << "L(" << i << "," << f.L.col(r) << ")";
    }
  }
}

/// A symmetric pattern with a dominant diagonal, so it factors.
la::CsrMatrix<double> symmetric_from(const la::CsrMatrix<double>& B) {
  const index_t n = B.num_rows();
  la::TripletBuilder<double> t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t.add(i, i, 2.0 * n);
    for (index_t k = B.row_begin(i); k < B.row_end(i); ++k) {
      if (B.col(k) == i) continue;
      t.add(i, B.col(k), -0.5);
      t.add(B.col(k), i, -0.5);
    }
  }
  return t.build();
}

TEST(SymbolicCholesky, PatternMatchesBruteForceElimination) {
  // ND Laplace 3D.
  check_symbolic_pattern(nd_ordered(test::laplace_problem(6, 1, 1, 1).A, 1));
  // Node-blocked elasticity, natural node order.
  check_symbolic_pattern(test::elasticity_problem(3, 1, 1, 1).A);
  // A natural-order band of half-width 4.
  la::TripletBuilder<double> band(120, 120);
  for (index_t i = 0; i < 120; ++i)
    for (index_t j = std::max<index_t>(0, i - 4);
         j <= std::min<index_t>(119, i + 4); ++j)
      band.add(i, j, i == j ? 20.0 : -1.0);
  check_symbolic_pattern(band.build());
  // A random symmetric pattern.
  check_symbolic_pattern(
      symmetric_from(test::random_sparse(200, 200, 0.02, 5)));
}

TEST(GpLu, SolvesRandomNonsymmetricSystem) {
  auto A = random_nonsym(60, 0.15, 7);
  auto xref = random_vector(60, 8);
  std::vector<double> b;
  la::spmv(A, xref, b);
  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  lu.numeric(A);
  auto x = solve_with(lu.factorization(), b);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], xref[i], 1e-8);
}

TEST(GpLu, PivotsOnIndefiniteMatrix) {
  // A matrix that breaks no-pivot LU: zero leading diagonal entry.
  la::TripletBuilder<double> b(3, 3);
  b.add(0, 0, 0.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 3.0);
  b.add(1, 2, 1.0);
  b.add(2, 1, 1.0);
  b.add(2, 2, 1.0);
  auto A = b.build();
  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  lu.numeric(A);
  std::vector<double> rhs{2, 4, 2};
  auto x = solve_with(lu.factorization(), rhs);
  std::vector<double> Ax;
  la::spmv(A, x, Ax);
  for (index_t i = 0; i < 3; ++i) EXPECT_NEAR(Ax[i], rhs[i], 1e-12);
}

TEST(GpLu, ThrowsOnSingularMatrix) {
  la::TripletBuilder<double> b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 0, 2.0);  // column 1 empty => structurally singular
  auto A = b.build();
  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  EXPECT_THROW(lu.numeric(A), Error);
}

TEST(GpLu, ProfileMarksSequentialCriticalPath) {
  auto A = random_nonsym(40, 0.2, 3);
  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  OpProfile prof;
  lu.numeric(A, &prof);
  EXPECT_EQ(prof.critical_path, 40);  // left-looking: one column at a time
  EXPECT_FALSE(lu.symbolic_reusable());
}

TEST(GpLu, RefactorRefillsValuesAndRejectsAMovedEntry) {
  // symbolic() fixes A's column access; a numeric pass on new values must
  // factor bitwise like a fresh symbolic + numeric on them.
  const auto A = random_nonsym(60, 0.15, 7);
  auto A2 = A;
  for (index_t k = 0; k < A2.num_entries(); ++k)
    A2.values()[static_cast<size_t>(k)] *=
        1.0 + 0.125 * static_cast<double>(k % 5);
  GilbertPeierlsLu<double> warm, fresh;
  warm.symbolic(A);
  warm.numeric(A);
  OpProfile pw, pf;
  warm.numeric(A2, &pw);
  fresh.symbolic(A2);
  fresh.numeric(A2, &pf);
  const auto& fw = warm.factorization();
  const auto& ff = fresh.factorization();
  EXPECT_EQ(fw.L.rowptr(), ff.L.rowptr());
  EXPECT_EQ(fw.L.colind(), ff.L.colind());
  EXPECT_EQ(fw.U.rowptr(), ff.U.rowptr());
  EXPECT_EQ(fw.U.colind(), ff.U.colind());
  EXPECT_EQ(fw.L.values(), ff.L.values());
  EXPECT_EQ(fw.U.values(), ff.U.values());
  EXPECT_EQ(fw.row_perm_old2new, ff.row_perm_old2new);
  EXPECT_EQ(pw.flops, pf.flops);
  EXPECT_EQ(pw.bytes, pf.bytes);

  // Same entry count, one entry moved to a column its row did not hold.
  std::vector<index_t> colind = A.colind();
  const index_t row = 0;
  index_t fresh_col = 0;
  while (A.find(row, fresh_col) >= 0) ++fresh_col;
  colind[static_cast<size_t>(A.row_begin(row))] = fresh_col;
  const la::CsrMatrix<double> B(A.num_rows(), A.num_cols(), A.rowptr(),
                                std::move(colind), A.values());
  try {
    warm.numeric(B);
    ADD_FAILURE() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "GP-LU: numeric pattern differs from symbolic()"),
              std::string::npos)
        << e.what();
  }
}

TEST(Multifrontal, SolvesLaplaceSystem) {
  auto A = laplace2d(9, 7);
  auto xref = random_vector(A.num_rows(), 21);
  std::vector<double> b;
  la::spmv(A, xref, b);
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  auto x = solve_with(chol.factorization(), b);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], xref[i], 1e-9);
}

TEST(Multifrontal, FactorIsCholesky) {
  // L * L^T must reproduce A.
  auto A = laplace2d(4, 4);
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();
  auto LLt = la::spgemm(f.L, f.U);
  for (index_t i = 0; i < A.num_rows(); ++i)
    for (index_t j = 0; j < A.num_cols(); ++j)
      EXPECT_NEAR(LLt.at(i, j), A.at(i, j), 1e-12);
}

TEST(Multifrontal, SymbolicReusedAcrossNumericCalls) {
  auto A = laplace2d(6, 6);
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  auto x1 = chol.factorization().L.values();
  // Scale the matrix values (same pattern), refactor without new symbolic.
  auto A2 = A;
  for (auto& v : A2.values()) v *= 4.0;
  chol.numeric(A2);
  auto x2 = chol.factorization().L.values();
  ASSERT_EQ(x1.size(), x2.size());
  for (size_t k = 0; k < x1.size(); ++k) EXPECT_NEAR(x2[k], 2.0 * x1[k], 1e-10);
  EXPECT_TRUE(chol.symbolic_reusable());
}

TEST(Multifrontal, ThrowsOnIndefiniteMatrix) {
  la::TripletBuilder<double> b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 3.0);
  b.add(1, 0, 3.0);
  b.add(1, 1, 1.0);  // eigenvalues 4, -2: not SPD
  auto A = b.build();
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  EXPECT_THROW(chol.numeric(A), Error);
}

TEST(Multifrontal, NumericProfileLaunchesEqualTreeHeight) {
  // ND ordering gives a shallow etree; the numeric profile must report one
  // batched launch per etree level (the Tacho-style level-set schedule).
  auto A = laplace2d(10, 10);
  auto perm = graph::nested_dissection(graph::build_graph(A));
  A = la::permute_symmetric(A, perm);
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  OpProfile prof;
  chol.numeric(A, &prof);
  EXPECT_EQ(prof.launches, chol.tree_height());
  EXPECT_LT(chol.tree_height(), A.num_rows());  // real level parallelism
}

TEST(Supernodes, DetectedOnDenseBlockFactor) {
  // A dense SPD matrix has one supernode spanning all columns.
  const index_t n = 6;
  la::TripletBuilder<double> b(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) b.add(i, j, (i == j) ? double(n) : 0.5);
  auto A = b.build();
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& sn = chol.factorization().sn_ptr;
  ASSERT_EQ(sn.size(), 2u);
  EXPECT_EQ(sn[0], 0);
  EXPECT_EQ(sn[1], n);
}

TEST(Supernodes, TrivialOnDiagonalMatrix) {
  auto A = la::identity<double>(5);
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  EXPECT_EQ(chol.factorization().sn_ptr.size(), 6u);  // every column alone
}

// ---------------------------------------------------------------------------
// Supernodal fronts of the multifrontal Cholesky.

index_t widest_supernode(const Factorization<double>& f) {
  index_t w = 0;
  for (size_t s = 0; s + 1 < f.sn_ptr.size(); ++s)
    w = std::max(w, f.sn_ptr[s + 1] - f.sn_ptr[s]);
  return w;
}

/// Factors A (whose widest supernode must span several dense panels) and
/// checks L L^T against A and the solution against the pivoting LU.
void check_supernodal_factor(const la::CsrMatrix<double>& A) {
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();
  EXPECT_GT(widest_supernode(f), la::kLuPanelWidth);

  const auto LLt = la::spgemm(f.L, f.U);
  double amax = 0.0, err = 0.0;
  for (index_t i = 0; i < A.num_rows(); ++i) {
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      amax = std::max(amax, std::abs(A.val(k)));
    for (index_t k = LLt.row_begin(i); k < LLt.row_end(i); ++k)
      err = std::max(err, std::abs(LLt.val(k) - A.at(i, LLt.col(k))));
  }
  EXPECT_LE(err, 1e-12 * amax);

  auto xref = random_vector(A.num_rows(), 61);
  std::vector<double> b;
  la::spmv(A, xref, b);
  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  lu.numeric(A);
  const auto xlu = solve_with(lu.factorization(), b);
  const auto xch = solve_with(f, b);
  for (index_t i = 0; i < A.num_rows(); ++i)
    EXPECT_NEAR(xch[i], xlu[i], 1e-10);
}

TEST(MultifrontalSupernodes, NdLaplace3dFactorsAcrossPanels) {
  check_supernodal_factor(nd_ordered(test::laplace_problem(10, 1, 1, 1).A, 1));
}

TEST(MultifrontalSupernodes, NodeBlockedElasticityFactorsAcrossPanels) {
  check_supernodal_factor(
      nd_ordered(test::elasticity_problem(6, 1, 1, 1).A, 3));
}

TEST(MultifrontalSupernodes, IndefiniteInsideWideSupernodeThrows) {
  // The last column belongs to the widest supernode (the top separator);
  // a negative diagonal there makes its pivot negative.
  auto A = nd_ordered(test::laplace_problem(8, 1, 1, 1).A, 1);
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& sn = chol.factorization().sn_ptr;
  ASSERT_GT(sn[sn.size() - 1] - sn[sn.size() - 2], la::kLuPanelWidth);
  const index_t last = A.num_rows() - 1;
  A.val(A.find(last, last)) = -1.0;
  try {
    chol.numeric(A);
    FAIL() << "indefinite matrix factored";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("non-positive pivot"),
              std::string::npos)
        << e.what();
  }
}

template <class Scalar>
double supernodal_solve_error() {
  const auto Ad = nd_ordered(test::laplace_problem(6, 1, 1, 1).A, 1);
  const index_t n = Ad.num_rows();
  const auto xd = random_vector(n, 71);
  std::vector<double> bd;
  la::spmv(Ad, xd, bd);
  std::vector<Scalar> b(bd.begin(), bd.end());
  const auto A = Ad.convert<Scalar>();
  MultifrontalCholesky<Scalar> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto x = solve_with(chol.factorization(), b);
  double err = 0.0;
  for (index_t i = 0; i < n; ++i)
    err = std::max(err, std::abs(double(x[i]) - xd[i]));
  return err;
}

TEST(MultifrontalSupernodes, FloatAndHalfSolveToTheirPrecision) {
  EXPECT_LT(supernodal_solve_error<float>(), 1e-5);
  EXPECT_LT(supernodal_solve_error<half>(), 1e-2);
}

TEST(MultifrontalSupernodes, RefactorReproducesTheFactorBitwise) {
  // numeric(A), numeric(4A), numeric(A): the per-call workspaces carry no
  // state, so the third factor is the first bit for bit.
  const auto A = nd_ordered(test::laplace_problem(8, 1, 1, 1).A, 1);
  auto A4 = A;
  for (auto& v : A4.values()) v *= 4.0;
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto L1 = chol.factorization().L.values();
  const auto U1 = chol.factorization().U.values();
  chol.numeric(A4);
  chol.numeric(A);
  const auto& f = chol.factorization();
  ASSERT_EQ(f.L.values().size(), L1.size());
  ASSERT_EQ(f.U.values().size(), U1.size());
  EXPECT_EQ(std::memcmp(f.L.values().data(), L1.data(),
                        L1.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(f.U.values().data(), U1.data(),
                        U1.size() * sizeof(double)),
            0);
}

TEST(MultifrontalSupernodes, EntryOutsideTheSymbolicPatternThrows) {
  // Same dimension and entry count, but the (1, 0) pair moved to (3, 0):
  // L(3, 0) is not in the tridiagonal factor's pattern.
  const auto A = test::tridiag(6);
  la::TripletBuilder<double> tb(6, 6);
  for (index_t i = 0; i < 6; ++i)
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k) {
      index_t r = i, c = A.col(k);
      if (r == 1 && c == 0) r = 3;
      if (r == 0 && c == 1) c = 3;
      tb.add(r, c, A.val(k));
    }
  const auto moved = tb.build();
  ASSERT_EQ(moved.num_entries(), A.num_entries());
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  try {
    chol.numeric(moved);
    FAIL() << "matrix outside the symbolic pattern factored";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("entry (3, 0) is outside"),
              std::string::npos)
        << e.what();
  }
}

class DirectSweep : public ::testing::TestWithParam<std::tuple<index_t, bool>> {};

TEST_P(DirectSweep, BothBackendsAgreeOnSpdSystems) {
  const auto [nx, use_nd] = GetParam();
  auto A = laplace2d(nx, nx);
  if (use_nd) {
    auto perm = graph::nested_dissection(graph::build_graph(A));
    A = la::permute_symmetric(A, perm);
  }
  auto xref = random_vector(A.num_rows(), unsigned(nx));
  std::vector<double> b;
  la::spmv(A, xref, b);

  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  lu.numeric(A);
  auto xlu = solve_with(lu.factorization(), b);

  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  auto xch = solve_with(chol.factorization(), b);

  for (size_t i = 0; i < xref.size(); ++i) {
    EXPECT_NEAR(xlu[i], xref[i], 1e-8);
    EXPECT_NEAR(xch[i], xref[i], 1e-8);
  }
}

// ---------------------------------------------------------------------------
// Dense tail of the Gilbert--Peierls LU.

/// Dense n x n matrix with uniform [-1, 1] entries plus `shift` on the
/// diagonal; `skip_col` (if >= 0) is left structurally empty, and columns
/// below `sparse_cols` hold only their unit diagonal.
template <class Scalar>
la::CsrMatrix<Scalar> dense_random(index_t n, unsigned seed, double shift = 0.0,
                                   index_t skip_col = -1,
                                   index_t sparse_cols = 0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  la::TripletBuilder<Scalar> b(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const double v = u(rng) + (i == j ? shift : 0.0);
      if (j == skip_col) continue;
      if (j < sparse_cols) {
        if (i == j) b.add(i, j, Scalar(1.0));
        continue;
      }
      b.add(i, j, Scalar(v));
    }
  }
  return b.build();
}

TEST(GpLuDenseTail, DenseRandomMatrixSwitchesAtOnce) {
  const index_t n = 200;
  auto A = dense_random<double>(n, 11);
  auto xref = random_vector(n, 12);
  std::vector<double> b;
  la::spmv(A, xref, b);
  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  lu.numeric(A);
  EXPECT_EQ(lu.dense_tail_start(), 0);  // column 0 is already full
  const auto& f = lu.factorization();
  auto x = solve_with(f, b);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-10);
  // P A == L U entrywise.
  auto LU = la::spgemm(f.L, f.U);
  double err = 0.0;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j)
      err = std::max(err,
                     std::abs(LU.at(f.row_perm_old2new[i], j) - A.at(i, j)));
  EXPECT_LT(err, 1e-12);
}

TEST(GpLuDenseTail, SmallMatrixStaysOnTheColumnPath) {
  const index_t n = GilbertPeierlsLu<double>::kDenseTailMin - 1;
  auto A = dense_random<double>(n, 5);
  auto xref = random_vector(n, 6);
  std::vector<double> b;
  la::spmv(A, xref, b);
  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  lu.numeric(A);
  EXPECT_EQ(lu.dense_tail_start(), n);
  auto x = solve_with(lu.factorization(), b);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-10);
}

TEST(GpLuDenseTail, NestedDissectionLaplace3dMatchesMultifrontal) {
  auto A = test::laplace_problem(10, 1, 1, 1).A;
  A = la::permute_symmetric(A, graph::nested_dissection(graph::build_graph(A)));
  const index_t n = A.num_rows();
  auto xref = random_vector(n, 31);
  std::vector<double> b;
  la::spmv(A, xref, b);

  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  lu.numeric(A);
  // The subdomain interiors and lower separators stay on the column path;
  // the tail takes over among the top separators, whose Schur complements
  // are dense (the last 260 of 1210 columns).
  const index_t tail = n - lu.dense_tail_start();
  EXPECT_GE(tail, GilbertPeierlsLu<double>::kDenseTailMin);
  EXPECT_LT(tail, n / 3);
  auto xlu = solve_with(lu.factorization(), b);

  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  auto xch = solve_with(chol.factorization(), b);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(xlu[i], xch[i], 1e-10);
}

TEST(GpLuDenseTail, ZeroColumnInTailNamesItsGlobalColumn) {
  // Twenty unit columns keep the column path busy; the first dense column
  // starts the tail at j0 = 20, and column 70 is empty.
  const index_t n = 100, j0 = 20, zero_col = 70;
  auto ok = dense_random<double>(n, 41, 0.0, -1, j0);
  GilbertPeierlsLu<double> lu;
  lu.symbolic(ok);
  lu.numeric(ok);
  EXPECT_EQ(lu.dense_tail_start(), j0);

  auto A = dense_random<double>(n, 41, 0.0, zero_col, j0);
  lu.symbolic(A);
  try {
    lu.numeric(A);
    FAIL() << "singular matrix factored";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("singular at column 70"),
              std::string::npos)
        << e.what();
  }
}

template <class Scalar>
double dense_tail_solve_error(index_t n) {
  // Diagonal shift n/4 keeps the condition number small, so the error
  // measures the working precision rather than the matrix.
  auto A = dense_random<Scalar>(n, 51, double(n) / 4);
  auto xd = random_vector(n, 52);
  std::vector<Scalar> xref(xd.begin(), xd.end()), b(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      s += double(A.val(k)) * double(xref[A.col(k)]);
    b[i] = Scalar(s);
  }
  GilbertPeierlsLu<Scalar> lu;
  lu.symbolic(A);
  lu.numeric(A);
  EXPECT_EQ(lu.dense_tail_start(), 0);
  auto x = solve_with(lu.factorization(), b);
  double err = 0.0;
  for (index_t i = 0; i < n; ++i)
    err = std::max(err, std::abs(double(x[i]) - double(xref[i])));
  return err;
}

TEST(GpLuDenseTail, FloatAndHalfSolveToTheirPrecision) {
  EXPECT_LT(dense_tail_solve_error<float>(48), 1e-5);
  EXPECT_LT(dense_tail_solve_error<half>(48), 1e-2);
}

/// The ND-ordered 3-D Laplace matrix whose tail starts among the top
/// separators (j0 = 950 of 1210).
la::CsrMatrix<double> nd_laplace3d() {
  auto A = test::laplace_problem(10, 1, 1, 1).A;
  return la::permute_symmetric(A,
                               graph::nested_dissection(graph::build_graph(A)));
}

/// A row-reversed diagonally dominant random matrix (500 rows, about 3.4
/// nonzeros per row): every row pivots away from its position, and the
/// sparse head is a deep, branching pivot DAG (j0 = 270).
la::CsrMatrix<double> reversed_random_nonsym() {
  const auto A = random_nonsym(500, 0.005, 1);
  const index_t n = A.num_rows();
  la::TripletBuilder<double> b(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t p = A.row_begin(i); p < A.row_end(i); ++p)
      b.add(n - 1 - i, A.col(p), A.val(p));
  return b.build();
}

/// FNV-1a digest of a GP-LU factorization: L and U patterns and values,
/// the row permutation and the supernode partition.
std::uint64_t factor_digest(const Factorization<double>& f) {
  std::uint64_t h = test::fnv1a(f.L.colind());
  h = test::fnv1a(f.L.values(), h);
  h = test::fnv1a(f.U.colind(), h);
  h = test::fnv1a(f.U.values(), h);
  h = test::fnv1a(f.row_perm_old2new, h);
  return test::fnv1a(f.sn_ptr, h);
}

// Every bit of the factors is pinned: these digests were recorded from the
// column-path reach (a DFS over L's full row graph) with the tail
// re-expanded into per-column lists.  The ND case runs 260 tail columns
// through the reach over the 950 sparse pivots, the dense case 80 over 20.
// In the reversed random case 230 tail columns reach over 270 pivots whose
// DAG branches, so another topological order of the same updates (e.g.
// each node's children visited in reverse) rounds differently.
TEST(GpLuDenseTail, FactorsMatchRecordedDigests) {
  GilbertPeierlsLu<double> lu;
  const auto nd = nd_laplace3d();
  lu.symbolic(nd);
  lu.numeric(nd);
  EXPECT_EQ(lu.dense_tail_start(), 950);
  EXPECT_EQ(factor_digest(lu.factorization()), 0x8100b7993a770478ull)
      << "ND Laplace digest 0x" << std::hex
      << factor_digest(lu.factorization());

  const auto dense = dense_random<double>(100, 41, 0.0, -1, 20);
  lu.symbolic(dense);
  lu.numeric(dense);
  EXPECT_EQ(lu.dense_tail_start(), 20);
  EXPECT_EQ(factor_digest(lu.factorization()), 0x6b003560fef2aec6ull)
      << "dense_random digest 0x" << std::hex
      << factor_digest(lu.factorization());

  const auto rev = reversed_random_nonsym();
  lu.symbolic(rev);
  lu.numeric(rev);
  EXPECT_EQ(lu.dense_tail_start(), 270);
  EXPECT_EQ(factor_digest(lu.factorization()), 0xaf26ee60b6541e1bull)
      << "reversed random digest 0x" << std::hex
      << factor_digest(lu.factorization());
}

TEST(GpLuDenseTail, SupernodesMatchTheTransposedFactor) {
  const la::CsrMatrix<double> cases[] = {
      nd_laplace3d(), dense_random<double>(100, 41, 0.0, -1, 20),
      dense_random<double>(GilbertPeierlsLu<double>::kDenseTailMin - 1, 5),
      reversed_random_nonsym()};
  const index_t tails[] = {950, 20,
                           GilbertPeierlsLu<double>::kDenseTailMin - 1, 270};
  for (size_t c = 0; c < 4; ++c) {
    GilbertPeierlsLu<double> lu;
    lu.symbolic(cases[c]);
    lu.numeric(cases[c]);
    EXPECT_EQ(lu.dense_tail_start(), tails[c]);
    const auto& f = lu.factorization();
    EXPECT_EQ(f.sn_ptr, detect_supernodes(la::transpose(f.L))) << "case " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, DirectSweep,
    ::testing::Combine(::testing::Values(4, 7, 12, 20),
                       ::testing::Values(false, true)));

}  // namespace
}  // namespace frosch::direct
