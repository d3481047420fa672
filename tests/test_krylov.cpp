// Tests for Krylov solvers (src/krylov): GMRES restart/convergence behaviour,
// equivalence of orthogonalization variants, reduction-count contracts, CG.
#include <gtest/gtest.h>

#include <cstring>

#include "direct/multifrontal.hpp"
#include "ilu/iluk.hpp"
#include "krylov/block.hpp"
#include "krylov/cg.hpp"
#include "krylov/gmres.hpp"
#include "krylov/solver.hpp"
#include "la/ops.hpp"
#include "solver/solver.hpp"
#include "support/matrices.hpp"
#include "support/problems.hpp"
#include "trisolve/engines.hpp"

namespace frosch::krylov {
namespace {

using test::convection_diffusion2d;
using test::laplace2d;
using test::random_vector;

/// Exact local solve as a preconditioner operator (direct factorization).
class DirectPrec final : public LinearOperator<double> {
 public:
  explicit DirectPrec(const la::CsrMatrix<double>& A) {
    chol_.symbolic(A);
    chol_.numeric(A);
    engine_.setup(chol_.factorization(), nullptr);
    n_ = A.num_rows();
  }
  index_t rows() const override { return n_; }
  index_t cols() const override { return n_; }

 protected:
  void apply_impl(const std::vector<double>& x, std::vector<double>& y,
                  OpProfile* prof) const override {
    engine_.solve(x, y, prof);
  }

 private:
  direct::MultifrontalCholesky<double> chol_;
  trisolve::SubstitutionEngine<double> engine_;
  index_t n_ = 0;
};

TEST(Gmres, SolvesUnpreconditionedLaplace) {
  auto A = laplace2d(10, 10);
  CsrOperator<double> op(A);
  auto xref = random_vector(A.num_rows(), 1);
  std::vector<double> b;
  la::spmv(A, xref, b);
  std::vector<double> x;
  auto res = gmres<double>(op, nullptr, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(la::residual_norm(A, x, b), 1e-6 * res.initial_residual);
}

TEST(Gmres, SolvesNonsymmetricSystem) {
  auto A = convection_diffusion2d(12, 12, 3.0);
  CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 2);
  std::vector<double> x;
  auto res = gmres<double>(op, nullptr, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(la::residual_norm(A, x, b), 1e-6 * res.initial_residual);
}

TEST(Gmres, ExactPreconditionerConvergesInOneIteration) {
  auto A = laplace2d(8, 8);
  CsrOperator<double> op(A);
  DirectPrec prec(A);
  auto b = random_vector(A.num_rows(), 3);
  std::vector<double> x;
  auto res = gmres<double>(op, &prec, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 2);
}

TEST(Gmres, RespectsZeroInitialResidual) {
  auto A = laplace2d(4, 4);
  CsrOperator<double> op(A);
  std::vector<double> b(16, 0.0), x;
  auto res = gmres<double>(op, nullptr, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
  for (double v : x) EXPECT_EQ(v, 0.0);
}

/// A matrix whose leading 3x3 block maps coordinate vectors to exact
/// (dyadic) combinations of coordinate vectors, diagonal elsewhere:
///   A e0 = e0 + 2 e1,  A e1 = e1 + 2 e2,  A e2 = e0 + e2.
/// With b = e0 the Arnoldi basis is exactly {e0, e1, e2} and the
/// orthogonalization at step j=2 cancels w to EXACTLY zero -- a mid-cycle
/// breakdown with two accumulated Givens rotations, in every ortho variant.
la::CsrMatrix<double> invariant_subspace_matrix(index_t n) {
  la::TripletBuilder<double> bb(n, n);
  bb.add(0, 0, 1.0);
  bb.add(0, 2, 1.0);
  bb.add(1, 0, 2.0);
  bb.add(1, 1, 1.0);
  bb.add(2, 1, 2.0);
  bb.add(2, 2, 1.0);
  for (index_t i = 3; i < n; ++i) bb.add(i, i, double(i + 1));
  return bb.build();
}

class BreakdownVariants : public ::testing::TestWithParam<OrthoKind> {};

TEST_P(BreakdownVariants, MidCycleBreakdownYieldsExactSolution) {
  // Regression for the breakdown-path Givens corruption: the final
  // Hessenberg column used to enter the least-squares solve UNROTATED while
  // g lives in the rotated basis, so the x update after a breakdown at
  // j >= 1 was wrong and only repeated restarts papered over it.  The fix
  // must deliver the exact solution within the first cycle: 3 iterations,
  // true residual at rounding level.
  auto A = invariant_subspace_matrix(8);
  CsrOperator<double> op(A);
  std::vector<double> b(8, 0.0);
  b[0] = 1.0;
  KrylovOptions opts;
  opts.ortho = GetParam();
  std::vector<double> x;
  auto res = gmres<double>(op, nullptr, b, x, opts);
  EXPECT_TRUE(res.converged);
  // The breakdown ends the first cycle after exactly 3 Arnoldi steps; any
  // further iteration means the post-breakdown update was not exact.
  EXPECT_EQ(res.iterations, 3);
  EXPECT_LE(la::residual_norm(A, x, b), 1e-12 * res.initial_residual);
  // The invariant-subspace solution: x = (0.2, -0.4, 0.8, 0, ...).
  EXPECT_NEAR(x[0], 0.2, 1e-12);
  EXPECT_NEAR(x[1], -0.4, 1e-12);
  EXPECT_NEAR(x[2], 0.8, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, BreakdownVariants,
                         ::testing::Values(OrthoKind::MGS, OrthoKind::CGS2,
                                           OrthoKind::SingleReduce));

TEST(Gmres, FirstIterationBreakdownOnEigenvectorRhs) {
  // Breakdown at j=0 (no accumulated rotations): rhs is an eigenvector.
  la::TripletBuilder<double> bb(6, 6);
  for (index_t i = 0; i < 6; ++i) bb.add(i, i, double(i + 2));
  auto A = bb.build();
  CsrOperator<double> op(A);
  std::vector<double> b(6, 0.0);
  b[0] = 4.0;  // power of two: V[0] = e0 exactly
  std::vector<double> x;
  auto res = gmres<double>(op, nullptr, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 1);
  EXPECT_NEAR(x[0], 2.0, 1e-14);
  EXPECT_LE(la::residual_norm(A, x, b), 1e-13 * res.initial_residual);
}

TEST(Gmres, RestartLimitsBasisSize) {
  // With restart=5 on a problem needing more iterations, the solver must
  // still converge through multiple cycles.
  auto A = laplace2d(14, 14);
  CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 4);
  KrylovOptions opts;
  opts.restart = 5;
  std::vector<double> x;
  auto res = gmres<double>(op, nullptr, b, x, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.iterations, 5);
  EXPECT_LT(la::residual_norm(A, x, b), 1e-6 * res.initial_residual);
}

// ---------------------------------------------------------------------------
// Initial-guess contract: empty x = zero guess, system-sized x = warm start,
// anything else = error (see krylov/solver.hpp).

TEST(Gmres, WarmStartContinuesFromCallerIterate) {
  auto A = laplace2d(12, 12);
  CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 14);
  KrylovOptions part;
  part.max_iters = 4;
  std::vector<double> x;
  auto partial = gmres<double>(op, nullptr, b, x, part);
  ASSERT_FALSE(partial.converged);
  // A warm-started solve must pick up EXACTLY where the partial solve left
  // off: its initial residual is the partial solve's true final residual,
  // bitwise (same operator, same kernels, same summation order).
  std::vector<double> xw = x;
  auto warm = gmres<double>(op, nullptr, b, xw);
  EXPECT_EQ(warm.initial_residual, partial.final_residual);
  EXPECT_TRUE(warm.converged);
  EXPECT_LT(la::residual_norm(A, xw, b), 1e-6 * partial.initial_residual);
}

TEST(Gmres, WarmStartAtExactSolutionTakesZeroIterations) {
  auto A = laplace2d(10, 10);
  CsrOperator<double> op(A);
  auto xref = random_vector(A.num_rows(), 15);
  std::vector<double> b;
  la::spmv(A, xref, b);
  // b was produced by the same deterministic SpMV the solver applies, so
  // the warm-start residual is exactly zero.
  std::vector<double> x = xref;
  auto res = gmres<double>(op, nullptr, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], xref[i]);
}

TEST(Gmres, EmptyGuessMatchesExplicitZeroGuessBitwise) {
  auto A = laplace2d(9, 9);
  CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 16);
  std::vector<double> x_empty;
  auto r1 = gmres<double>(op, nullptr, b, x_empty);
  std::vector<double> x_zero(b.size(), 0.0);
  auto r2 = gmres<double>(op, nullptr, b, x_zero);
  EXPECT_EQ(r1.iterations, r2.iterations);
  ASSERT_EQ(r1.residual_history.size(), r2.residual_history.size());
  for (size_t i = 0; i < r1.residual_history.size(); ++i)
    EXPECT_EQ(r1.residual_history[i], r2.residual_history[i]);
  for (size_t i = 0; i < x_empty.size(); ++i)
    EXPECT_EQ(x_empty[i], x_zero[i]);
}

TEST(Gmres, RejectsWrongSizedInitialGuess) {
  auto A = laplace2d(4, 4);
  CsrOperator<double> op(A);
  std::vector<double> b(16, 1.0);
  std::vector<double> x(7, 0.0);  // neither empty nor n
  EXPECT_THROW(gmres<double>(op, nullptr, b, x), Error);
}

TEST(Cg, WarmStartContractMatchesGmres) {
  auto A = laplace2d(10, 10);
  CsrOperator<double> op(A);
  auto xref = random_vector(A.num_rows(), 17);
  std::vector<double> b;
  la::spmv(A, xref, b);
  std::vector<double> x = xref;
  auto res = cg<double>(op, nullptr, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
  std::vector<double> bad(5, 0.0);
  EXPECT_THROW(cg<double>(op, nullptr, b, bad), Error);
  // Partial solve + warm continuation, as for GMRES.
  KrylovOptions part;
  part.max_iters = 4;
  std::vector<double> xp;
  auto partial = cg<double>(op, nullptr, b, xp, part);
  ASSERT_FALSE(partial.converged);
  auto warm = cg<double>(op, nullptr, b, xp);
  EXPECT_TRUE(warm.converged);
}

class OrthoVariants : public ::testing::TestWithParam<OrthoKind> {};

TEST_P(OrthoVariants, AllVariantsConvergeToSameSolution) {
  auto A = convection_diffusion2d(10, 10, 2.0);
  CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 5);
  KrylovOptions opts;
  opts.ortho = GetParam();
  std::vector<double> x;
  auto res = gmres<double>(op, nullptr, b, x, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(la::residual_norm(A, x, b), 1e-6 * res.initial_residual);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OrthoVariants,
                         ::testing::Values(OrthoKind::MGS, OrthoKind::CGS2,
                                           OrthoKind::SingleReduce));

TEST(Gmres, SingleReduceUsesFewerReductionsThanMgs) {
  // The defining property of the single-reduce variant [30]: one global
  // all-reduce per iteration vs j+2 for MGS at Arnoldi step j.
  auto A = laplace2d(12, 12);
  CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 6);

  KrylovOptions mgs_opts;
  mgs_opts.ortho = OrthoKind::MGS;
  std::vector<double> x1;
  auto mgs_res = gmres<double>(op, nullptr, b, x1, mgs_opts);

  KrylovOptions sr_opts;
  sr_opts.ortho = OrthoKind::SingleReduce;
  std::vector<double> x2;
  auto sr_res = gmres<double>(op, nullptr, b, x2, sr_opts);

  ASSERT_TRUE(mgs_res.converged);
  ASSERT_TRUE(sr_res.converged);
  // Similar iteration counts, far fewer reductions.
  EXPECT_NEAR(double(sr_res.iterations), double(mgs_res.iterations),
              0.3 * double(mgs_res.iterations) + 3.0);
  EXPECT_LT(sr_res.profile.reductions, mgs_res.profile.reductions / 2);
}

TEST(Gmres, ReductionCountScalesWithIterations) {
  auto A = laplace2d(10, 10);
  CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 7);
  KrylovOptions opts;
  opts.ortho = OrthoKind::SingleReduce;
  std::vector<double> x;
  auto res = gmres<double>(op, nullptr, b, x, opts);
  // One fused reduction per iteration + residual norms (one per restart + 1
  // initial) + occasional cancellation fallbacks.
  EXPECT_GE(res.profile.reductions, res.iterations);
  EXPECT_LE(res.profile.reductions, 2 * res.iterations + 10);
}

TEST(Gmres, IlukPreconditionerCutsIterations) {
  auto A = laplace2d(16, 16);
  CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 8);

  std::vector<double> x0;
  auto plain = gmres<double>(op, nullptr, b, x0);

  ilu::IlukFactorization<double> ilu;
  ilu.symbolic(A, 1);
  ilu.numeric(A);
  trisolve::SubstitutionEngine<double> eng;
  eng.setup(ilu.factorization(), nullptr);
  struct IluPrec final : LinearOperator<double> {
    const trisolve::SubstitutionEngine<double>* e;
    index_t n;
    index_t rows() const override { return n; }
    index_t cols() const override { return n; }
    void apply_impl(const std::vector<double>& x, std::vector<double>& y,
                    OpProfile* prof) const override {
      e->solve(x, y, prof);
    }
  } prec;
  prec.e = &eng;
  prec.n = A.num_rows();

  std::vector<double> x1;
  auto pre = gmres<double>(op, &prec, b, x1);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(pre.converged);
  EXPECT_LT(pre.iterations, plain.iterations);
}

TEST(Cg, SolvesSpdSystemAndMatchesGmres) {
  auto A = laplace2d(12, 12);
  CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 9);
  std::vector<double> xcg, xgm;
  auto rc = cg<double>(op, nullptr, b, xcg);
  auto rg = gmres<double>(op, nullptr, b, xgm);
  EXPECT_TRUE(rc.converged);
  EXPECT_TRUE(rg.converged);
  for (size_t i = 0; i < xcg.size(); ++i) EXPECT_NEAR(xcg[i], xgm[i], 1e-5);
}

TEST(Cg, RejectsNonSpdOperator) {
  la::TripletBuilder<double> bb(2, 2);
  bb.add(0, 0, 1.0);
  bb.add(0, 1, 3.0);
  bb.add(1, 0, 3.0);
  bb.add(1, 1, 1.0);
  auto A = bb.build();
  CsrOperator<double> op(A);
  std::vector<double> b{1.0, -1.0}, x;
  EXPECT_THROW(cg<double>(op, nullptr, b, x), Error);
}

class RestartSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(RestartSweep, ConvergesForAnyRestartLength) {
  // Table I lists the restart length among the tunable GMRES parameters;
  // convergence must hold for short and long cycles alike.
  auto A = convection_diffusion2d(11, 11, 2.0);
  CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 11);
  KrylovOptions opts;
  opts.restart = GetParam();
  std::vector<double> x;
  auto res = gmres<double>(op, nullptr, b, x, opts);
  EXPECT_TRUE(res.converged) << "restart " << GetParam();
  EXPECT_LT(la::residual_norm(A, x, b), 1e-6 * res.initial_residual);
}

INSTANTIATE_TEST_SUITE_P(Lengths, RestartSweep,
                         ::testing::Values(3, 5, 10, 30, 100));

TEST(Gmres, TighterToleranceNeedsMoreIterations) {
  auto A = laplace2d(12, 12);
  CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 12);
  index_t prev = 0;
  for (double tol : {1e-3, 1e-7, 1e-11}) {
    KrylovOptions opts;
    opts.tol = tol;
    std::vector<double> x;
    auto res = gmres<double>(op, nullptr, b, x, opts);
    EXPECT_TRUE(res.converged);
    EXPECT_GE(res.iterations, prev);
    prev = res.iterations;
  }
}

TEST(Gmres, FloatInstantiationConverges) {
  la::TripletBuilder<float> bb(4, 4);
  for (index_t i = 0; i < 4; ++i) {
    bb.add(i, i, 3.0f);
    if (i > 0) bb.add(i, i - 1, -1.0f);
    if (i + 1 < 4) bb.add(i, i + 1, -1.0f);
  }
  auto A = bb.build();
  CsrOperator<float> op(A);
  std::vector<float> b{1.f, 0.f, 0.f, 1.f}, x;
  KrylovOptions opts;
  opts.tol = 1e-5;
  auto res = gmres<float>(op, nullptr, b, x, opts);
  EXPECT_TRUE(res.converged);
}

// ---------------------------------------------------------------------------
// Batched block solvers (krylov/block.hpp): column-vs-solo bitwise identity,
// deflation of early finishers (including breakdown columns), contracts.

void expect_column_matches_solo(const SolveResult& solo,
                                const std::vector<double>& x_solo,
                                const SolveResult& col,
                                const std::vector<double>& x_col,
                                const std::string& what) {
  EXPECT_EQ(col.converged, solo.converged) << what;
  EXPECT_EQ(col.iterations, solo.iterations) << what;
  ASSERT_EQ(col.residual_history.size(), solo.residual_history.size()) << what;
  for (size_t i = 0; i < solo.residual_history.size(); ++i)
    EXPECT_EQ(col.residual_history[i], solo.residual_history[i])
        << what << " history[" << i << "]";
  ASSERT_EQ(x_col.size(), x_solo.size()) << what;
  for (size_t i = 0; i < x_solo.size(); ++i)
    EXPECT_EQ(x_col[i], x_solo[i]) << what << " x[" << i << "]";
}

TEST(BlockGmres, ColumnsMatchSoloSolvesWithPreconditioner) {
  auto A = laplace2d(14, 14);
  CsrOperator<double> op(A);
  DirectPrec prec(A);
  const size_t w = 3;
  std::vector<std::vector<double>> B(w);
  for (size_t c = 0; c < w; ++c)
    B[c] = random_vector(A.num_rows(), static_cast<unsigned>(31 + c));
  std::vector<std::vector<double>> solo_x(w);
  std::vector<SolveResult> solo(w);
  for (size_t c = 0; c < w; ++c)
    solo[c] = gmres<double>(op, &prec, B[c], solo_x[c]);
  std::vector<std::vector<double>> X;
  auto br = block_gmres<double>(op, &prec, B, X);
  ASSERT_EQ(br.columns.size(), w);
  EXPECT_TRUE(br.all_converged());
  for (size_t c = 0; c < w; ++c)
    expect_column_matches_solo(solo[c], solo_x[c], br.columns[c], X[c],
                               "gmres column " + std::to_string(c));
}

TEST(BlockGmres, BreakdownColumnDeflatesOthersContinue) {
  // Column 0 breaks down exactly (rhs spans a 3-dim invariant subspace,
  // see MidCycleBreakdownYieldsExactSolution) and deflates after 3
  // iterations; column 1 is a general rhs that keeps iterating.  Both must
  // reproduce their solo trajectories bit for bit.
  auto A = invariant_subspace_matrix(8);
  CsrOperator<double> op(A);
  std::vector<std::vector<double>> B(2);
  B[0].assign(8, 0.0);
  B[0][0] = 1.0;
  B[1] = random_vector(8, 7);
  std::vector<std::vector<double>> solo_x(2);
  std::vector<SolveResult> solo(2);
  for (size_t c = 0; c < 2; ++c)
    solo[c] = gmres<double>(op, nullptr, B[c], solo_x[c]);
  ASSERT_EQ(solo[0].iterations, 3);  // the breakdown path
  std::vector<std::vector<double>> X;
  auto br = block_gmres<double>(op, nullptr, B, X);
  EXPECT_TRUE(br.all_converged());
  for (size_t c = 0; c < 2; ++c)
    expect_column_matches_solo(solo[c], solo_x[c], br.columns[c], X[c],
                               "breakdown batch column " + std::to_string(c));
}

TEST(BlockGmres, EveryOrthoMatchesSoloSolvesAcrossRestartsAndBreakdown) {
  // Column 0 breaks down after 3 steps and deflates while the others
  // restart every 4 steps, so the fused MGS projection steps run over a
  // shrinking column set.  Under every orthogonalization each column
  // reproduces its solo trajectory bit for bit.
  auto A = invariant_subspace_matrix(8);
  CsrOperator<double> op(A);
  std::vector<std::vector<double>> B{std::vector<double>(8, 0.0),
                                     random_vector(8, 17),
                                     random_vector(8, 19)};
  B[0][0] = 1.0;
  for (OrthoKind k : {OrthoKind::SingleReduce, OrthoKind::MGS,
                      OrthoKind::CGS2}) {
    KrylovOptions opts;
    opts.ortho = k;
    opts.restart = 4;
    std::vector<std::vector<double>> solo_x(B.size());
    std::vector<SolveResult> solo(B.size());
    for (size_t c = 0; c < B.size(); ++c)
      solo[c] = gmres<double>(op, nullptr, B[c], solo_x[c], opts);
    std::vector<std::vector<double>> X;
    auto br = block_gmres<double>(op, nullptr, B, X, opts);
    EXPECT_TRUE(br.all_converged()) << to_string(k);
    for (size_t c = 0; c < B.size(); ++c)
      expect_column_matches_solo(solo[c], solo_x[c], br.columns[c], X[c],
                                 std::string(to_string(k)) + " column " +
                                     std::to_string(c));
  }
}

TEST(BlockGmres, HonorsPerColumnInitialGuessContract) {
  auto A = laplace2d(10, 10);
  CsrOperator<double> op(A);
  const index_t n = A.num_rows();
  std::vector<double> xref = random_vector(n, 3);
  std::vector<double> b(static_cast<size_t>(n));
  la::spmv(A, xref, b, 1.0, 0.0, nullptr, {});
  // Column 0: warm start at the exact solution (0 iterations); column 1:
  // zero guess on the same rhs (works for the solution).
  std::vector<std::vector<double>> B{b, b};
  std::vector<std::vector<double>> X{xref, {}};
  auto br = block_gmres<double>(op, nullptr, B, X);
  EXPECT_TRUE(br.all_converged());
  EXPECT_EQ(br.columns[0].iterations, 0);
  EXPECT_GT(br.columns[1].iterations, 0);
  for (size_t i = 0; i < xref.size(); ++i)
    EXPECT_EQ(X[0][i], xref[i]) << "warm-start column must stay untouched";
  // A wrong-sized column is a caller bug.
  std::vector<std::vector<double>> Xbad{std::vector<double>(7, 0.0), {}};
  EXPECT_THROW(block_gmres<double>(op, nullptr, B, Xbad), Error);
}

TEST(BlockGmres, FacadeBatchUnderMgsMatchesSoloSolves) {
  // Block GMRES takes every orthogonalization: a solve_batch under MGS
  // (one fused all-reduce per projection step across the columns) gives
  // each column exactly its solve() trajectory.
  auto p = test::laplace_problem(8, 2, 2, 1);
  const index_t n = p.A.num_rows();
  SolverConfig cfg;
  cfg.ranks = 4;
  cfg.krylov.ortho = OrthoKind::MGS;
  std::vector<std::vector<double>> B(3);
  for (size_t c = 0; c < B.size(); ++c)
    B[c] = random_vector(n, static_cast<unsigned>(41 + c));
  Solver sb(cfg);
  sb.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<std::vector<double>> X;
  auto reps = sb.solve_batch(B, X);
  ASSERT_EQ(reps.size(), B.size());
  for (size_t c = 0; c < B.size(); ++c) {
    Solver s(cfg);
    s.setup(p.A, p.Z, p.owner, p.num_parts);
    std::vector<double> x;
    auto rep = s.solve(B[c], x);
    EXPECT_TRUE(reps[c].converged) << "column " << c;
    EXPECT_EQ(reps[c].iterations, rep.iterations) << "column " << c;
    EXPECT_EQ(reps[c].residual_history, rep.residual_history) << "column " << c;
    ASSERT_EQ(X[c].size(), x.size());
    EXPECT_EQ(std::memcmp(X[c].data(), x.data(), x.size() * sizeof(double)),
              0)
        << "column " << c;
  }
}

/// Counts which seam of an operator a solve drives.
class SeamCounter final : public LinearOperator<double> {
 public:
  explicit SeamCounter(const la::CsrMatrix<double>& A) : op_(A) {}
  index_t rows() const override { return op_.rows(); }
  index_t cols() const override { return op_.cols(); }
  mutable count_t single = 0, block = 0;

 protected:
  void apply_impl(const std::vector<double>& x, std::vector<double>& y,
                  OpProfile* prof) const override {
    ++single;
    op_.apply(x, y, prof);
  }
  void apply_columns_impl(const std::vector<const std::vector<double>*>& X,
                          const std::vector<std::vector<double>*>& Y,
                          OpProfile* prof) const override {
    ++block;
    op_.apply_columns(X, Y, prof);
  }

 private:
  CsrOperator<double> op_;
};

TEST(KrylovSolver, ApplyRuleKeysOnTheSolveWidth) {
  // A single-rhs solve applies A and M through apply(); a multi-rhs solve
  // through apply_columns() -- also once deflation leaves one column
  // active (the zero rhs deflates before the first iteration).
  auto A = laplace2d(8, 8);
  const index_t n = A.num_rows();
  for (KrylovMethod m : EnumTraits<KrylovMethod>::all) {
    KrylovOptions opts;
    opts.method = m;
    const auto solver = make_krylov<double>(opts);
    SeamCounter op(A), prec(A);  // M = A: any SPD operator will do
    std::vector<double> x;
    solver->solve(op, &prec, random_vector(n, 71), x);
    EXPECT_GT(op.single, 0) << to_string(m);
    EXPECT_GT(prec.single, 0) << to_string(m);
    EXPECT_EQ(op.block + prec.block, 0) << to_string(m);
    op.single = prec.single = 0;
    std::vector<std::vector<double>> B{random_vector(n, 72),
                                       std::vector<double>(n, 0.0)},
        X;
    solver->solve_block(op, &prec, B, X);
    EXPECT_GT(op.block, 0) << to_string(m);
    EXPECT_GT(prec.block, 0) << to_string(m);
    EXPECT_EQ(op.single + prec.single, 0) << to_string(m);
  }
}

TEST(KrylovSolver, ZeroIterationCapRunsNoIteration) {
  // max_iters = 0 runs no iteration for every method at every width: the
  // iterate stays at the guess and the final residual is the initial one.
  auto A = laplace2d(8, 8);
  CsrOperator<double> op(A);
  DirectPrec prec(A);
  const index_t n = A.num_rows();
  for (KrylovMethod m : EnumTraits<KrylovMethod>::all) {
    KrylovOptions opts;
    opts.method = m;
    opts.max_iters = 0;
    const auto solver = make_krylov<double>(opts);
    for (size_t w : {size_t(1), size_t(3)}) {
      std::vector<std::vector<double>> B(w), X(w);
      for (size_t c = 0; c < w; ++c)
        B[c] = random_vector(n, static_cast<unsigned>(61 + c));
      std::vector<SolveResult> cols;
      if (w == 1)
        cols.push_back(solver->solve(op, &prec, B[0], X[0]));
      else
        cols = solver->solve_block(op, &prec, B, X).columns;
      for (size_t c = 0; c < w; ++c) {
        const std::string what = std::string(to_string(m)) + " width " +
                                 std::to_string(w) + " column " +
                                 std::to_string(c);
        const auto& r = cols[c];
        EXPECT_FALSE(r.converged) << what;
        EXPECT_EQ(r.iterations, 0) << what;
        EXPECT_GT(r.initial_residual, 0.0) << what;
        EXPECT_EQ(r.final_residual, r.initial_residual) << what;
        EXPECT_EQ(r.residual_history,
                  std::vector<double>{r.initial_residual})
            << what;
        EXPECT_EQ(X[c], std::vector<double>(static_cast<size_t>(n), 0.0))
            << what;
      }
    }
  }
}

TEST(BlockCg, ColumnsMatchSoloSolves) {
  auto A = laplace2d(12, 12);
  CsrOperator<double> op(A);
  DirectPrec prec(A);
  const size_t w = 3;
  std::vector<std::vector<double>> B(w);
  for (size_t c = 0; c < w; ++c)
    B[c] = random_vector(A.num_rows(), static_cast<unsigned>(91 + c));
  B[2].assign(B[2].size(), 0.0);  // zero rhs: converges (deflates) at once
  std::vector<std::vector<double>> solo_x(w);
  std::vector<SolveResult> solo(w);
  for (size_t c = 0; c < w; ++c)
    solo[c] = cg<double>(op, &prec, B[c], solo_x[c]);
  std::vector<std::vector<double>> X;
  auto br = block_cg<double>(op, &prec, B, X);
  ASSERT_EQ(br.columns.size(), w);
  EXPECT_TRUE(br.all_converged());
  EXPECT_EQ(br.columns[2].iterations, 0);
  for (size_t c = 0; c < w; ++c)
    expect_column_matches_solo(solo[c], solo_x[c], br.columns[c], X[c],
                               "cg column " + std::to_string(c));
}

}  // namespace
}  // namespace frosch::krylov
