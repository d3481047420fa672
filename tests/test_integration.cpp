// Cross-module integration tests: full-pipeline behaviours the paper's
// evaluation relies on that no single-module test covers -- algebraic
// (graph-partitioned) usage, the translations-only null space fallback,
// Matrix Market round trips through the solver, repeated numeric setups
// (amortization correctness), and experiment-driver consistency.
#include <gtest/gtest.h>

#include <cstdio>

#include "dd/schwarz.hpp"
#include "fem/assembly.hpp"
#include "graph/partition.hpp"
#include "krylov/cg.hpp"
#include "krylov/gmres.hpp"
#include "la/mm_io.hpp"
#include "perf/experiment.hpp"
#include "support/fixtures.hpp"
#include "support/problems.hpp"

namespace frosch {
namespace {

using test::algebraic_laplace;
using test::ScratchFile;

TEST(Algebraic, GraphPartitionedGdswConverges) {
  // Fully algebraic mode: unstructured k-way partition from the matrix
  // graph only, constant null space.
  auto p = algebraic_laplace(8, 13, 1);  // 13: deliberately awkward k
  dd::SchwarzConfig cfg;
  comm::SimComm comm(p.decomp.num_parts, cfg.exec);
  cfg.comm = &comm;
  dd::SchwarzPreconditioner<double> prec(cfg, p.decomp);
  prec.symbolic_setup(p.A);
  prec.numeric_setup(p.A, p.Z);
  krylov::CsrOperator<double> op(p.A);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  auto res = krylov::gmres<double>(op, &prec, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 80);
}

TEST(Algebraic, IrregularPartitionsStillPartitionInterface) {
  auto p = algebraic_laplace(7, 9, 1);
  auto ip = dd::build_interface(p.A, p.decomp);
  EXPECT_EQ(ip.interface_dofs.size() + ip.interior_dofs.size(),
            size_t(p.A.num_rows()));
  for (size_t q = 0; q < ip.interface_dofs.size(); ++q)
    EXPECT_FALSE(ip.vertex_support[q].empty());
}

TEST(NullSpace, TranslationsOnlyElasticityStillConverges) {
  // Section III: "the method might still perform well when only the
  // translations are used" [16] -- the algebraic fallback when rotations
  // are unavailable.
  fem::BrickMesh mesh(6, 6, 6);
  auto A_full = fem::assemble_elasticity(mesh);
  auto sys = fem::apply_dirichlet(A_full, fem::clamped_x0_dofs(mesh));
  auto node_part = graph::box_partition_3d(mesh.nodes_x(), mesh.nodes_y(),
                                           mesh.nodes_z(), 2, 2, 2);
  IndexVector owner(sys.keep.size());
  for (size_t q = 0; q < sys.keep.size(); ++q)
    owner[q] = node_part[sys.keep[q] / 3];
  auto decomp = dd::build_decomposition(sys.A, owner, 8, 1);

  index_t iters[2];
  for (int tr_only = 0; tr_only <= 1; ++tr_only) {
    auto Z = fem::restrict_nullspace(
        fem::elasticity_nullspace(mesh, tr_only != 0), sys.keep);
    dd::SchwarzConfig cfg;
    cfg.subdomain.dof_block_size = 3;
    cfg.extension.dof_block_size = 3;
    comm::SimComm comm(decomp.num_parts, cfg.exec);
    cfg.comm = &comm;
    dd::SchwarzPreconditioner<double> prec(cfg, decomp);
    prec.symbolic_setup(sys.A);
    prec.numeric_setup(sys.A, Z);
    krylov::CsrOperator<double> op(sys.A);
    std::vector<double> b(static_cast<size_t>(sys.A.num_rows()), 1.0), x;
    krylov::KrylovOptions opts;
    opts.ortho = krylov::OrthoKind::MGS;
    auto res = krylov::gmres<double>(op, &prec, b, x, opts);
    ASSERT_TRUE(res.converged) << (tr_only ? "translations" : "full RBM");
    iters[tr_only] = res.iterations;
  }
  // Full rigid body modes give a (weakly) richer coarse space.
  EXPECT_LE(iters[0], iters[1] + 6);
}

TEST(MatrixMarket, RoundTripThroughSolver) {
  auto p = algebraic_laplace(5, 4, 1);
  ScratchFile scratch(".mtx");
  la::write_matrix_market(scratch.path(), p.A);
  auto B = la::read_matrix_market(scratch.path());
  ASSERT_EQ(B.num_rows(), p.A.num_rows());
  ASSERT_EQ(B.num_entries(), p.A.num_entries());
  for (index_t i = 0; i < p.A.num_rows(); ++i)
    for (index_t k = p.A.row_begin(i); k < p.A.row_end(i); ++k)
      EXPECT_DOUBLE_EQ(B.at(i, p.A.col(k)), p.A.val(k));
}

TEST(MatrixMarket, ReadsSymmetricStorage) {
  ScratchFile scratch(".mtx");
  {
    std::FILE* f = std::fopen(scratch.path().c_str(), "w");
    std::fprintf(f, "%%%%MatrixMarket matrix coordinate real symmetric\n");
    std::fprintf(f, "3 3 4\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 3 1.0\n");
    std::fclose(f);
  }
  auto A = la::read_matrix_market(scratch.path());
  EXPECT_DOUBLE_EQ(A.at(0, 1), -1.0);  // mirrored
  EXPECT_DOUBLE_EQ(A.at(1, 0), -1.0);
  EXPECT_EQ(A.num_entries(), 5);  // diagonal not duplicated
}

TEST(Amortization, RepeatedNumericSetupsKeepSolving) {
  // The sequence-of-systems scenario: refactor with scaled values (same
  // pattern), resolve, and check the answers track the scaling.
  auto p = algebraic_laplace(6, 6, 1);
  dd::SchwarzConfig cfg;
  comm::SimComm comm(p.decomp.num_parts, cfg.exec);
  cfg.comm = &comm;
  dd::SchwarzPreconditioner<double> prec(cfg, p.decomp);
  prec.symbolic_setup(p.A);

  krylov::CsrOperator<double> op1(p.A);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x1, x2;
  prec.numeric_setup(p.A, p.Z);
  auto r1 = krylov::gmres<double>(op1, &prec, b, x1);
  ASSERT_TRUE(r1.converged);

  auto A2 = p.A;
  for (auto& v : A2.values()) v *= 2.0;  // same pattern, scaled values
  prec.numeric_setup(A2, p.Z);
  krylov::CsrOperator<double> op2(A2);
  auto r2 = krylov::gmres<double>(op2, &prec, b, x2);
  ASSERT_TRUE(r2.converged);
  for (size_t i = 0; i < x1.size(); ++i)
    EXPECT_NEAR(x2[i], 0.5 * x1[i], 1e-5 * std::abs(x1[i]) + 1e-9);
}

TEST(Experiment, WeakScalingMeshMatchesRankFactors) {
  auto mesh = perf::weak_scaling_mesh(42, 3);
  // 42 = 7*3*2 on an unconstrained grid; mesh elems = factors * 3.
  index_t prod = 1;
  for (index_t d : mesh) {
    EXPECT_EQ(d % 3, 0);
    prod *= d / 3;
  }
  EXPECT_EQ(prod, 42);
}

TEST(Experiment, LaplaceAndElasticityDriversConverge) {
  for (bool elast : {false, true}) {
    perf::ExperimentSpec spec;
    spec.ranks = 8;
    spec.elems_per_rank = 3;
    spec.elasticity = elast;
    auto r = perf::run_experiment(spec);
    EXPECT_TRUE(r.converged) << (elast ? "elasticity" : "laplace");
    EXPECT_GT(r.schwarz.coarse_dim, 0);
    EXPECT_GT(r.krylov.flops, 0.0);
  }
}

TEST(Experiment, SinglePrecisionPathRecordsSmallerProfiles) {
  perf::ExperimentSpec spec;
  spec.ranks = 8;
  spec.elems_per_rank = 3;
  auto rd = perf::run_experiment(spec);
  spec.precision = Precision::Float;
  auto rf = perf::run_experiment(spec);
  ASSERT_TRUE(rd.converged);
  ASSERT_TRUE(rf.converged);
  // The float preconditioner's numeric phase moves about half the bytes.
  double bd = 0, bf = 0;
  for (auto& r : rd.schwarz.ranks) bd += r.numeric.bytes;
  for (auto& r : rf.schwarz.ranks) bf += r.numeric.bytes;
  EXPECT_LT(bf, 0.75 * bd);
  EXPECT_GT(bf, 0.25 * bd);
}

class AwkwardPartitions : public ::testing::TestWithParam<index_t> {};

TEST_P(AwkwardPartitions, DuplicateVertexClassesDoNotBreakCoarseProblem) {
  // Regression: irregular graph partitions split one equivalence class into
  // several vertex components with identical part sets; without canonical
  // merging their rGDSW columns coincide and the Galerkin matrix is
  // singular (GP-LU used to throw "structurally singular").
  auto p = algebraic_laplace(10, GetParam(), 1);
  dd::SchwarzConfig cfg;
  comm::SimComm comm(p.decomp.num_parts, cfg.exec);
  cfg.comm = &comm;
  dd::SchwarzPreconditioner<double> prec(cfg, p.decomp);
  prec.symbolic_setup(p.A);
  ASSERT_NO_THROW(prec.numeric_setup(p.A, p.Z));
  krylov::CsrOperator<double> op(p.A);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  auto res = krylov::gmres<double>(op, &prec, b, x);
  EXPECT_TRUE(res.converged) << GetParam() << " parts";
  EXPECT_LT(res.iterations, 70);
}

INSTANTIATE_TEST_SUITE_P(PartCounts, AwkwardPartitions,
                         ::testing::Values(8, 10, 16, 24));

class OverlapGrowth : public ::testing::TestWithParam<index_t> {};

TEST_P(OverlapGrowth, AlgebraicOverlapReducesIterations) {
  // Wider overlap strengthens the one-level part (kappa ~ 1 + H/delta).
  const index_t parts = GetParam();
  index_t prev = 10000;
  for (index_t ov : {1, 3}) {
    auto p = algebraic_laplace(8, parts, ov);
    dd::SchwarzConfig cfg;
    cfg.overlap = ov;
    cfg.two_level = false;  // isolate the one-level effect
    comm::SimComm comm(p.decomp.num_parts, cfg.exec);
    cfg.comm = &comm;
    dd::SchwarzPreconditioner<double> prec(cfg, p.decomp);
    prec.symbolic_setup(p.A);
    prec.numeric_setup(p.A, p.Z);
    krylov::CsrOperator<double> op(p.A);
    std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
    krylov::KrylovOptions opts;
    opts.ortho = krylov::OrthoKind::MGS;
    auto res = krylov::gmres<double>(op, &prec, b, x, opts);
    ASSERT_TRUE(res.converged);
    EXPECT_LE(res.iterations, prev + 1);
    prev = res.iterations;
  }
}

INSTANTIATE_TEST_SUITE_P(Parts, OverlapGrowth, ::testing::Values(4, 8, 12));

}  // namespace
}  // namespace frosch
