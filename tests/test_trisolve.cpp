// Tests for the triangular-solve engines (src/trisolve): numeric equivalence
// of the exact variants, approximation behaviour of Jacobi sweeps, and the
// operation-profile contracts the perf model relies on.
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "common/half.hpp"
#include "direct/gp_lu.hpp"
#include "direct/multifrontal.hpp"
#include "fem/assembly.hpp"
#include "graph/nested_dissection.hpp"
#include "ilu/iluk.hpp"
#include "la/ops.hpp"
#include "support/matrices.hpp"
#include "trisolve/engines.hpp"

namespace frosch::trisolve {
namespace {

using test::laplace2d;
using test::random_vector;

class ExactEngines : public ::testing::TestWithParam<TrisolveKind> {};

TEST_P(ExactEngines, MatchSubstitutionOnCholeskyFactors) {
  auto A = laplace2d(8, 8);
  direct::MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();

  auto b = random_vector(A.num_rows(), 5);
  SubstitutionEngine<double> ref_engine;
  ref_engine.setup(f, nullptr);
  std::vector<double> xref;
  ref_engine.solve(b, xref, nullptr);

  auto engine = make_trisolve<double>(GetParam());
  engine->setup(f, nullptr);
  std::vector<double> x;
  engine->solve(b, x, nullptr);
  ASSERT_EQ(x.size(), xref.size());
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], xref[i], 1e-11);
}

TEST_P(ExactEngines, MatchSubstitutionOnPivotedLuFactors) {
  // Pivoted factors exercise the row permutation path.
  auto A = laplace2d(7, 5);
  // Perturb asymmetrically so LU actually pivots somewhere.
  auto Av = A;
  {
    auto& vals = Av.values();
    std::mt19937 rng(17);
    std::uniform_real_distribution<double> u(0.0, 0.2);
    for (auto& v : vals) v += u(rng);
  }
  direct::GilbertPeierlsLu<double> lu;
  lu.symbolic(Av);
  lu.numeric(Av);
  const auto& f = lu.factorization();

  auto xref = random_vector(Av.num_rows(), 9);
  std::vector<double> b;
  la::spmv(Av, xref, b);

  auto engine = make_trisolve<double>(GetParam());
  engine->setup(f, nullptr);
  std::vector<double> x;
  engine->solve(b, x, nullptr);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], xref[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(AllExactKinds, ExactEngines,
                         ::testing::Values(TrisolveKind::LevelSet,
                                           TrisolveKind::SupernodalLevelSet,
                                           TrisolveKind::PartitionedInverse));

TEST(LevelSets, TridiagonalIsFullySequential) {
  la::TripletBuilder<double> b(6, 6);
  for (index_t i = 0; i < 6; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
  }
  auto L = b.build();
  index_t nlev = 0;
  auto level = lower_levels(L, &nlev);
  EXPECT_EQ(nlev, 6);
  for (index_t i = 0; i < 6; ++i) EXPECT_EQ(level[i], i + 1);
}

TEST(LevelSets, DiagonalIsOneLevel) {
  auto L = la::identity<double>(10);
  index_t nlev = 0;
  lower_levels(L, &nlev);
  EXPECT_EQ(nlev, 1);
  upper_levels(L, &nlev);
  EXPECT_EQ(nlev, 1);
}

TEST(Supernodal, FewerLaunchesThanElementLevelSet) {
  // On an ND-ordered Laplacian factor, supernodal levels must not exceed
  // element levels (usually far fewer) -- the kernel-launch saving the paper
  // attributes to the supernodal SpTRSV.
  auto A = laplace2d(16, 16);
  auto perm = graph::nested_dissection(graph::build_graph(A));
  A = la::permute_symmetric(A, perm);
  direct::MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();

  LevelSetEngine<double> ls;
  ls.setup(f, nullptr);
  SupernodalEngine<double> sn;
  sn.setup(f, nullptr);
  EXPECT_LE(sn.lower_nlevels(), ls.lower_nlevels());
  EXPECT_LE(sn.upper_nlevels(), ls.upper_nlevels());

  OpProfile pls, psn;
  std::vector<double> b = random_vector(A.num_rows(), 3), x;
  ls.solve(b, x, &pls);
  sn.solve(b, x, &psn);
  EXPECT_LE(psn.launches, pls.launches);
}

TEST(PartitionedInverse, FactorCountMatchesLevelsMinusOne) {
  auto A = laplace2d(6, 6);
  direct::MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();

  LevelSetEngine<double> ls;
  ls.setup(f, nullptr);
  PartitionedInverseEngine<double> pi;
  pi.setup(f, nullptr);
  EXPECT_EQ(pi.num_factors(),
            size_t(ls.lower_nlevels() - 1 + ls.upper_nlevels() - 1));
}

TEST(JacobiSweeps, ConvergesToExactSolveWithManySweeps) {
  auto A = laplace2d(6, 6);
  direct::MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();

  auto b = random_vector(A.num_rows(), 4);
  SubstitutionEngine<double> ref_engine;
  ref_engine.setup(f, nullptr);
  std::vector<double> xref;
  ref_engine.solve(b, xref, nullptr);

  double prev_err = 1e30;
  for (int sweeps : {2, 8, 32, 128}) {
    JacobiSweepsEngine<double> jac(sweeps);
    jac.setup(f, nullptr);
    std::vector<double> x;
    jac.solve(b, x, nullptr);
    double err = 0;
    for (size_t i = 0; i < x.size(); ++i)
      err = std::max(err, std::abs(x[i] - xref[i]));
    EXPECT_LT(err, prev_err + 1e-14) << "sweeps=" << sweeps;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-10);  // 128 sweeps: effectively exact
}

TEST(JacobiSweeps, DefaultFiveSweepsIsApproximate) {
  auto A = laplace2d(10, 10);
  direct::MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();
  auto b = random_vector(A.num_rows(), 6);

  SubstitutionEngine<double> ref_engine;
  ref_engine.setup(f, nullptr);
  std::vector<double> xref;
  ref_engine.solve(b, xref, nullptr);

  auto jac = make_trisolve<double>(TrisolveKind::JacobiSweeps);
  jac->setup(f, nullptr);
  std::vector<double> x;
  jac->solve(b, x, nullptr);
  double err = 0;
  for (size_t i = 0; i < x.size(); ++i)
    err = std::max(err, std::abs(x[i] - xref[i]));
  EXPECT_GT(err, 1e-10);  // genuinely inexact...
  EXPECT_LT(err, 1.0);    // ...but a usable preconditioner application
}

TEST(Profiles, JacobiSetupIsCheapLevelSetSetupStreamsFactors) {
  // The structural reason FastSpTRSV wins the setup race (Table IVa).
  auto A = laplace2d(12, 12);
  direct::MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();

  OpProfile pj, pl;
  JacobiSweepsEngine<double> jac(5);
  jac.setup(f, &pj);
  LevelSetEngine<double> ls;
  ls.setup(f, &pl);
  EXPECT_LT(pj.bytes, pl.bytes);
  EXPECT_LE(pj.launches, pl.launches);
}

TEST(FloatEngines, AllKindsSolveInSinglePrecision) {
  // The HalfPrecisionOperator path runs every engine in float.
  la::TripletBuilder<float> b(8, 8);
  for (index_t i = 0; i < 8; ++i) {
    b.add(i, i, 3.0f);
    if (i > 0) b.add(i, i - 1, -1.0f);
    if (i + 1 < 8) b.add(i, i + 1, -1.0f);
  }
  auto A = b.build();
  direct::MultifrontalCholesky<float> chol;
  chol.symbolic(A);
  chol.numeric(A);
  std::vector<float> rhs(8, 1.0f), x;
  for (auto kind : {TrisolveKind::Substitution, TrisolveKind::LevelSet,
                    TrisolveKind::SupernodalLevelSet,
                    TrisolveKind::PartitionedInverse}) {
    auto eng = make_trisolve<float>(kind);
    eng->setup(chol.factorization(), nullptr);
    eng->solve(rhs, x, nullptr);
    std::vector<float> Ax;
    la::spmv(A, x, Ax);
    for (index_t i = 0; i < 8; ++i)
      EXPECT_NEAR(Ax[i], 1.0f, 1e-4f) << to_string(kind);
  }
}

TEST(PartitionedInverse, HandlesUnitDiagonalLuFactors) {
  // GP-LU produces unit-diagonal L; the inverse factors must respect it.
  la::TripletBuilder<double> b(6, 6);
  for (index_t i = 0; i < 6; ++i) {
    b.add(i, i, 4.0);
    if (i > 0) b.add(i, i - 1, -1.5);
    if (i + 1 < 6) b.add(i, i + 1, -0.5);
  }
  auto A = b.build();
  direct::GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  lu.numeric(A);
  PartitionedInverseEngine<double> pi;
  pi.setup(lu.factorization(), nullptr);
  std::vector<double> rhs{1, 0, 2, 0, 3, 0}, x;
  pi.solve(rhs, x, nullptr);
  EXPECT_NEAR(la::residual_norm(A, x, rhs), 0.0, 1e-12);
}

TEST(Profiles, JacobiSolveHasConstantCriticalPath) {
  auto A = laplace2d(12, 12);
  direct::MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();
  auto b = random_vector(A.num_rows(), 2);

  OpProfile pj, pl;
  std::vector<double> x;
  JacobiSweepsEngine<double> jac(5);
  jac.setup(f, nullptr);
  jac.solve(b, x, &pj);
  LevelSetEngine<double> ls;
  ls.setup(f, nullptr);
  ls.solve(b, x, &pl);
  // 5 sweeps x 2 factors = 10 launches, regardless of level structure...
  EXPECT_EQ(pj.launches, 10);
  // ...whereas the level-set engine launches once per level per factor.
  EXPECT_EQ(pl.launches, ls.lower_nlevels() + ls.upper_nlevels());
  // More total flops for Jacobi, but much more exposed parallelism per launch.
  EXPECT_GT(pj.flops, pl.flops);
  EXPECT_GT(pj.mean_width(), pl.mean_width());
}

class ParallelEngines : public ::testing::TestWithParam<TrisolveKind> {};

TEST_P(ParallelEngines, ThreadedSolveMatchesSubstitution) {
  // Within-level parallel execution (exec layer, threads=4) against the
  // serial substitution baseline; also the ThreadSanitizer CI workload.
  auto A = laplace2d(12, 12);
  direct::MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();

  auto b = random_vector(A.num_rows(), 5);
  SubstitutionEngine<double> ref_engine;
  ref_engine.setup(f, nullptr);
  std::vector<double> xref;
  ref_engine.solve(b, xref, nullptr);

  TrisolveOptions opts;
  opts.exec = exec::ExecPolicy::with_threads(4);
  auto engine = make_trisolve<double>(GetParam(), opts);
  engine->setup(f, nullptr);
  std::vector<double> x;
  engine->solve(b, x, nullptr);
  ASSERT_EQ(x.size(), xref.size());
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], xref[i], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(AllExactKindsThreaded, ParallelEngines,
                         ::testing::Values(TrisolveKind::LevelSet,
                                           TrisolveKind::SupernodalLevelSet,
                                           TrisolveKind::PartitionedInverse));

// ---- dense-panel sweep on Cholesky factors ----------------------------

/// The factors the panel sweep must reproduce bit for bit.
struct PanelCase {
  const char* name;
  la::CsrMatrix<double> A;  ///< SPD, already in factor order
};

la::CsrMatrix<double> nd_ordered(const la::CsrMatrix<double>& A) {
  return la::permute_symmetric(
      A, graph::nested_dissection(graph::build_graph(A)));
}

std::vector<PanelCase> panel_cases() {
  std::vector<PanelCase> cases;
  {
    const fem::BrickMesh mesh(8, 8, 8);
    cases.push_back(
        {"laplace3d-nd",
         nd_ordered(fem::apply_dirichlet(fem::assemble_laplace(mesh),
                                         mesh.x0_face_nodes())
                        .A)});
  }
  {
    const fem::BrickMesh mesh(4, 3, 3);
    cases.push_back(
        {"elasticity-nd",
         nd_ordered(fem::apply_dirichlet(fem::assemble_elasticity(mesh),
                                         fem::clamped_x0_dofs(mesh))
                        .A)});
  }
  cases.push_back({"tridiagonal-natural", test::tridiag(40)});
  cases.push_back({"one-row", test::tridiag(1)});
  return cases;
}

TEST(PanelSweep, CholeskyFactorsAreFlaggedOthersAreNot) {
  auto A = laplace2d(6, 6);
  direct::MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  EXPECT_TRUE(chol.factorization().cholesky);
  direct::GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  lu.numeric(A);
  EXPECT_FALSE(lu.factorization().cholesky);
}

/// Every sweep engine on every block width, serial and threaded, must be
/// memcmp-equal column by column to the CSR row kernel's L-then-U
/// substitution (after the factor's row permutation) -- the arithmetic
/// the engines ran before the panel sweep.
template <class Scalar>
void expect_factor_sweeps_match(const Factorization<Scalar>& f,
                                const std::string& name) {
  const index_t n = f.n();
  const size_t rows = static_cast<size_t>(n);
  for (const index_t w : {1, 3, 8, 9, 17}) {
    const size_t ws = static_cast<size_t>(w);
    std::vector<Scalar> B(rows * ws);
    for (index_t c = 0; c < w; ++c) {
      const auto col = random_vector(n, 100 + static_cast<unsigned>(c));
      for (size_t i = 0; i < rows; ++i)
        B[i * ws + c] = static_cast<Scalar>(col[i]);
    }
    std::vector<std::vector<Scalar>> ref(ws, std::vector<Scalar>(rows));
    for (size_t c = 0; c < ws; ++c) {
      std::vector<Scalar> b(rows);
      for (size_t i = 0; i < rows; ++i) b[i] = B[i * ws + c];
      f.apply_row_perm(b, ref[c]);
      substitution_sweep<1>(f.L, f.unit_diag_L, /*forward=*/true,
                            ref[c].data(), 1);
      substitution_sweep<1>(f.U, /*unit_diag=*/false, /*forward=*/false,
                            ref[c].data(), 1);
    }
    for (const int threads : {1, 4}) {
      for (const auto kind :
           {TrisolveKind::Substitution, TrisolveKind::LevelSet,
            TrisolveKind::SupernodalLevelSet}) {
        TrisolveOptions opts;
        opts.exec = exec::ExecPolicy::with_threads(threads);
        auto engine = make_trisolve<Scalar>(kind, opts);
        engine->setup(f, nullptr);
        std::vector<Scalar> X(rows * ws, Scalar(-1));
        engine->solve_block(n, w, B.data(), X.data(), nullptr);
        for (size_t c = 0; c < ws; ++c) {
          std::vector<Scalar> col(rows);
          for (size_t i = 0; i < rows; ++i) col[i] = X[i * ws + c];
          EXPECT_EQ(std::memcmp(col.data(), ref[c].data(),
                                rows * sizeof(Scalar)),
                    0)
              << name << " " << to_string(kind) << " w=" << w
              << " threads=" << threads << " column " << c;
        }
      }
    }
  }
}

/// The factor axis: the Cholesky factor (panel sweep), a pivoted LU factor
/// and an ILU(1) factor (CSR row kernel only) of every panel case.  The LU
/// factors the case with every third row scaled by 1/64, so partial
/// pivoting permutes rows and the engines' row permutation is exercised.
template <class Scalar>
void expect_sweeps_match_csr_substitution() {
  for (const PanelCase& pc : panel_cases()) {
    const la::CsrMatrix<Scalar> A = pc.A.template convert<Scalar>();
    const std::string name = pc.name;
    direct::MultifrontalCholesky<Scalar> chol;
    chol.symbolic(A);
    chol.numeric(A);
    expect_factor_sweeps_match(chol.factorization(), name + " cholesky");
    la::CsrMatrix<Scalar> As = A;
    for (index_t i = 0; i < As.num_rows(); i += 3)
      for (index_t k = As.row_begin(i); k < As.row_end(i); ++k)
        As.val(k) = As.val(k) / Scalar(64);
    direct::GilbertPeierlsLu<Scalar> lu;
    lu.symbolic(As);
    lu.numeric(As);
    expect_factor_sweeps_match(lu.factorization(), name + " gp-lu");
    ilu::IlukFactorization<Scalar> iluk;
    iluk.symbolic(A, /*level=*/1);
    iluk.numeric(A);
    expect_factor_sweeps_match(iluk.factorization(), name + " iluk1");
  }
}

TEST(PanelSweep, SweepEnginesMatchCsrSubstitutionBitwise) {
  expect_sweeps_match_csr_substitution<double>();
}

TEST(PanelSweep, SweepEnginesMatchCsrSubstitutionBitwiseFloat) {
  expect_sweeps_match_csr_substitution<float>();
}

TEST(PanelSweep, SweepEnginesMatchCsrSubstitutionBitwiseHalf) {
  expect_sweeps_match_csr_substitution<half>();
}

}  // namespace
}  // namespace frosch::trisolve
