// Tests for the execution layer (src/exec) and for the parallel-vs-serial
// equivalence of every hot path that runs on it: ThreadPool mechanics
// (chunk draining, exception propagation, nested-region safety), the
// determinism contract of parallel_reduce, and golden runs of the la
// kernels, trisolve engines, FastILU, Schwarz apply, and the full GMRES
// facade at threads in {1, 4} against serial.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "common/error.hpp"
#include "direct/multifrontal.hpp"
#include "exec/exec.hpp"
#include "ilu/fastilu.hpp"
#include "la/block.hpp"
#include "la/spmv.hpp"
#include "la/vector_ops.hpp"
#include "solver/solver.hpp"
#include "support/compare.hpp"
#include "support/matrices.hpp"
#include "support/problems.hpp"
#include "trisolve/engines.hpp"

namespace frosch::exec {
namespace {

using test::laplace2d;
using test::laplace_problem;
using test::random_sparse;
using test::random_vector;

// ---------------------------------------------------------------------------
// ThreadPool mechanics

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3);
  const index_t nchunks = 100;
  std::vector<std::atomic<int>> hits(nchunks);
  for (auto& h : hits) h = 0;
  pool.run_chunks(nchunks, [&](index_t c) { hits[c]++; }, /*concurrency=*/4);
  for (index_t c = 0; c < nchunks; ++c) EXPECT_EQ(hits[c].load(), 1);
}

TEST(ThreadPool, WorksWithMoreConcurrencyThanChunks) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.run_chunks(3, [&](index_t c) { sum += static_cast<int>(c); }, 16);
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  std::vector<int> hits(10, 0);
  pool.run_chunks(10, [&](index_t c) { hits[c] = 1; }, 4);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPool, PropagatesFirstExceptionAndStaysUsable) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run_chunks(
          50,
          [&](index_t c) {
            if (c == 37) throw Error("chunk 37 failed");
          },
          4),
      Error);
  // All chunks still executed; the pool is not poisoned.
  std::atomic<int> count{0};
  pool.run_chunks(20, [&](index_t) { count++; }, 4);
  EXPECT_EQ(count.load(), 20);
}

TEST(ParallelFor, ExceptionPropagatesThroughGlobalPool) {
  auto p = ExecPolicy::with_threads(4);
  EXPECT_THROW(parallel_for(
                   p, 5000,
                   [](index_t i) {
                     if (i == 4999) throw Error("boom");
                   },
                   /*grain=*/16),
               Error);
  // Global pool still serves subsequent regions.
  std::vector<int> out(5000, 0);
  parallel_for(p, 5000, [&](index_t i) { out[i] = 1; }, /*grain=*/16);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 5000);
}

TEST(ParallelFor, NestedRegionsRunInlineWithoutDeadlock) {
  auto p = ExecPolicy::with_threads(2);
  // Two chunks forced to overlap: each waits until the other has started,
  // so exactly one runs on a pool worker while the caller runs the other.
  // Each then launches a nested region, which must execute inline on BOTH
  // participating threads (a worker waiting on workers would deadlock a
  // finite pool; the caller chunk fanning out would break the
  // outermost-region-wins invariant).
  const auto caller_id = std::this_thread::get_id();
  std::atomic<int> started{0};
  long sums[2] = {0, 0};
  int on_worker[2] = {0, 0};
  int saw_inside[2] = {0, 0};
  parallel_for(
      p, 2,
      [&](index_t c) {
        started++;
        while (started.load() < 2) std::this_thread::yield();
        on_worker[c] = std::this_thread::get_id() != caller_id ? 1 : 0;
        saw_inside[c] = ThreadPool::inside_worker() ? 1 : 0;
        sums[c] = parallel_reduce<long>(
            p, 1000,
            [](index_t b, index_t e) {
              long t = 0;
              for (index_t i = b; i < e; ++i) t += i;
              return t;
            },
            /*grain=*/8);
      },
      /*grain=*/1);
  EXPECT_EQ(sums[0], 499500);
  EXPECT_EQ(sums[1], 499500);
  EXPECT_EQ(on_worker[0] + on_worker[1], 1);
  // Both the worker chunk AND the caller chunk count as inside pool work.
  EXPECT_EQ(saw_inside[0] + saw_inside[1], 2);
}

TEST(ChunkDecomposition, CoversRangeAndIsPolicyIndependent) {
  for (index_t n : {1, 5, 1000, 12345, 1 << 20}) {
    const index_t nc = chunk_count(n);
    ASSERT_GE(nc, 1);
    ASSERT_LE(nc, kMaxChunks);
    index_t covered = 0;
    index_t prev_end = 0;
    for (index_t c = 0; c < nc; ++c) {
      const auto [b, e] = chunk_range(n, nc, c);
      EXPECT_EQ(b, prev_end);
      EXPECT_LE(b, e);
      covered += e - b;
      prev_end = e;
    }
    EXPECT_EQ(covered, n);
    EXPECT_EQ(prev_end, n);
  }
}

TEST(ParallelReduce, BitwiseIdenticalAcrossThreadCounts) {
  auto x = random_vector(100003, 11);
  auto block = [&](index_t b, index_t e) {
    double s = 0.0;
    for (index_t i = b; i < e; ++i) s += x[i] * 1.000000119 - 0.25 * x[i];
    return s;
  };
  const double serial =
      parallel_reduce<double>(ExecPolicy::serial(), 100003, block);
  for (int t : {1, 2, 4, 8}) {
    const double par = parallel_reduce<double>(ExecPolicy::with_threads(t),
                                               100003, block);
    EXPECT_EQ(par, serial) << "threads=" << t;
  }
}

// ---------------------------------------------------------------------------
// la kernel equivalence

TEST(LaKernels, SpmvBitwiseAcrossThreadCounts) {
  auto A = random_sparse(900, 700, 0.02, 3);
  auto x = random_vector(700, 4);
  std::vector<double> y_serial, y_par;
  la::spmv(A, x, y_serial);
  for (int t : {2, 4}) {
    la::spmv(A, x, y_par, 1.0, 0.0, nullptr, ExecPolicy::with_threads(t));
    ASSERT_EQ(y_par.size(), y_serial.size());
    for (size_t i = 0; i < y_serial.size(); ++i)
      EXPECT_EQ(y_par[i], y_serial[i]) << "threads=" << t << " row " << i;
  }
}

TEST(LaKernels, SpmvRequiresSizedYWhenBetaNonzero) {
  auto A = random_sparse(50, 40, 0.1, 7);
  auto x = random_vector(40, 8);
  std::vector<double> y;  // deliberately unsized
  EXPECT_THROW(la::spmv(A, x, y, 1.0, 0.5), Error);
  y.assign(50, 1.0);
  EXPECT_NO_THROW(la::spmv(A, x, y, 1.0, 0.5));
  // Transpose form: same contract against num_cols.
  std::vector<double> yt;
  EXPECT_THROW(la::spmv_transpose(A, random_vector(50, 9), yt, 1.0, 2.0),
               Error);
}

TEST(LaKernels, SpmvTransposeBitwiseAcrossThreadCounts) {
  auto A = random_sparse(5000, 60, 0.05, 5);
  auto x = random_vector(5000, 6);
  std::vector<double> y_serial, y_par;
  la::spmv_transpose(A, x, y_serial);
  for (int t : {1, 2, 4}) {
    la::spmv_transpose(A, x, y_par, 1.0, 0.0, nullptr,
                       ExecPolicy::with_threads(t));
    ASSERT_EQ(y_par.size(), y_serial.size());
    for (size_t i = 0; i < y_serial.size(); ++i)
      EXPECT_EQ(y_par[i], y_serial[i]) << "threads=" << t << " col " << i;
  }
}

TEST(LaKernels, DotAndMultiDotBitwiseAcrossThreadCounts) {
  auto x = random_vector(50001, 1);
  auto y = random_vector(50001, 2);
  const double ref = la::dot(x, y);
  std::vector<std::vector<double>> vs = {x, y, random_vector(50001, 3)};
  // A multi-dot group: every vs[j] against y in one fused reduction.
  std::vector<la::DotJob<double>> jobs;
  for (const auto& v : vs) jobs.push_back({&v, &y});
  std::vector<double> mref;
  la::dist_fused_dots(la::DistContext{}, jobs, mref);
  for (int t : {1, 2, 4, 8}) {
    const auto policy = ExecPolicy::with_threads(t);
    EXPECT_EQ(la::dot(x, y, nullptr, policy), ref) << "threads=" << t;
    std::vector<double> m;
    la::dist_fused_dots(la::DistContext{}, jobs, m, nullptr, policy);
    ASSERT_EQ(m.size(), mref.size());
    for (size_t j = 0; j < m.size(); ++j) EXPECT_EQ(m[j], mref[j]);
  }
}

// ---------------------------------------------------------------------------
// trisolve / ilu equivalence

TEST(TrisolveParallel, LevelSetEnginesBitwiseMatchSerialEngines) {
  auto A = laplace2d(24, 24);
  direct::MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();
  auto b = random_vector(A.num_rows(), 5);

  for (auto kind : {trisolve::TrisolveKind::LevelSet,
                    trisolve::TrisolveKind::SupernodalLevelSet,
                    trisolve::TrisolveKind::PartitionedInverse,
                    trisolve::TrisolveKind::JacobiSweeps}) {
    trisolve::TrisolveOptions serial_opts;
    auto ref = trisolve::make_trisolve<double>(kind, serial_opts);
    ref->setup(f, nullptr);
    std::vector<double> xref;
    ref->solve(b, xref, nullptr);

    trisolve::TrisolveOptions par_opts;
    par_opts.exec = ExecPolicy::with_threads(4);
    auto eng = trisolve::make_trisolve<double>(kind, par_opts);
    eng->setup(f, nullptr);
    std::vector<double> x;
    eng->solve(b, x, nullptr);
    ASSERT_EQ(x.size(), xref.size());
    for (size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(x[i], xref[i])
          << "kind=" << trisolve::to_string(kind) << " i=" << i;
  }
}

TEST(FastIluParallel, FactorsBitwiseMatchSerial) {
  auto A = laplace2d(16, 16);
  ilu::FastIlu<double> serial_f, par_f;
  serial_f.symbolic(A, /*level=*/1);
  serial_f.numeric(A, /*sweeps=*/3);
  par_f.symbolic(A, /*level=*/1);
  par_f.numeric(A, /*sweeps=*/3, nullptr, ExecPolicy::with_threads(4));

  const auto& fs = serial_f.factorization();
  const auto& fp = par_f.factorization();
  ASSERT_EQ(fs.L.num_entries(), fp.L.num_entries());
  ASSERT_EQ(fs.U.num_entries(), fp.U.num_entries());
  for (index_t k = 0; k < fs.L.num_entries(); ++k)
    EXPECT_EQ(fs.L.val(k), fp.L.val(k));
  for (index_t k = 0; k < fs.U.num_entries(); ++k)
    EXPECT_EQ(fs.U.val(k), fp.U.val(k));
}

// ---------------------------------------------------------------------------
// Schwarz / facade golden equivalence at threads in {1, 4}

class FacadeThreads : public ::testing::TestWithParam<index_t> {};

TEST_P(FacadeThreads, SchwarzApplyMatchesSerial) {
  auto p = laplace_problem(8, 2, 2, 2);
  auto decomp = dd::build_decomposition(p.A, p.owner, p.num_parts, 1);

  dd::SchwarzConfig serial_cfg;
  comm::SimComm serial_comm(decomp.num_parts, serial_cfg.exec);
  serial_cfg.comm = &serial_comm;
  dd::SchwarzPreconditioner<double> serial_prec(serial_cfg, decomp);
  serial_prec.symbolic_setup(p.A);
  serial_prec.numeric_setup(p.A, p.Z);

  dd::SchwarzConfig cfg;
  cfg.exec = ExecPolicy::with_threads(static_cast<int>(GetParam()));
  cfg.subdomain.exec = cfg.extension.exec = cfg.coarse.exec = cfg.exec;
  comm::SimComm comm(decomp.num_parts, cfg.exec);
  cfg.comm = &comm;
  dd::SchwarzPreconditioner<double> prec(cfg, decomp);
  prec.symbolic_setup(p.A);
  prec.numeric_setup(p.A, p.Z);

  EXPECT_EQ(prec.coarse_dim(), serial_prec.coarse_dim());
  auto x = random_vector(p.A.num_rows(), 21);
  std::vector<double> y_serial(x.size()), y(x.size());
  serial_prec.apply(x, y_serial, nullptr);
  prec.apply(x, y, nullptr);
  ASSERT_EQ(y.size(), y_serial.size());
  for (size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(y[i], y_serial[i]) << "threads=" << GetParam() << " i=" << i;
}

TEST_P(FacadeThreads, GmresSolveMatchesSerialWithIdenticalIterations) {
  auto p = laplace_problem(8, 2, 2, 2);

  SolverConfig serial_cfg;
  Solver serial_solver(serial_cfg);
  serial_solver.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0);
  std::vector<double> x_serial, x;
  auto serial_rep = serial_solver.solve(b, x_serial);
  ASSERT_TRUE(serial_rep.converged);

  SolverConfig cfg;
  cfg.threads = GetParam();
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.owner, p.num_parts);
  auto rep = solver.solve(b, x);

  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.iterations, serial_rep.iterations);
  EXPECT_EQ(rep.threads, GetParam());
  ASSERT_EQ(x.size(), x_serial.size());
  // Every kernel in the pipeline is bitwise thread-count-independent, so
  // the whole Krylov trajectory is too.
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_serial[i]);
  test::expect_residual_below(p.A, x, b, 1e-6);
}

TEST_P(FacadeThreads, FastIluSchwarzSolveMatchesSerial) {
  // The approximate pipeline (FastILU factors + Jacobi-sweep trisolve) is
  // the most parallelism-hungry configuration of Table I.
  auto p = laplace_problem(8, 2, 2, 1);

  auto make_cfg = [&](index_t threads) {
    SolverConfig c;
    c.threads = threads;
    c.schwarz.subdomain.kind = dd::LocalSolverKind::FastIlu;
    c.schwarz.subdomain.trisolve = trisolve::TrisolveKind::JacobiSweeps;
    c.schwarz.subdomain.ordering = dd::Ordering::Natural;
    c.krylov.max_iters = 400;
    return c;
  };

  Solver serial_solver(make_cfg(1));
  serial_solver.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0);
  std::vector<double> x_serial, x;
  auto serial_rep = serial_solver.solve(b, x_serial);
  ASSERT_TRUE(serial_rep.converged);

  Solver solver(make_cfg(GetParam()));
  solver.setup(p.A, p.Z, p.owner, p.num_parts);
  auto rep = solver.solve(b, x);
  EXPECT_EQ(rep.iterations, serial_rep.iterations);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_serial[i]);
}

INSTANTIATE_TEST_SUITE_P(ThreadLadder, FacadeThreads,
                         ::testing::Values(index_t(1), index_t(4)));

TEST(FacadeThreads_Config, ThreadsParameterFlowsIntoReport) {
  ParameterList params;
  params.set("threads", "4");
  auto p = test::algebraic_laplace(6, 4, 1);
  Solver solver(params);
  EXPECT_EQ(solver.config().threads, 4);
  solver.setup(p.A, p.Z, p.decomp);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  auto rep = solver.solve(b, x);
  EXPECT_EQ(rep.threads, 4);
  EXPECT_TRUE(rep.converged);
}

TEST(FacadeThreads_Config, RejectsNonPositiveThreads) {
  ParameterList params;
  params.set("threads", "0");
  EXPECT_THROW(SolverConfig::from_parameters(params), Error);
}

TEST(ExecBackendEnum, RoundTrips) {
  EXPECT_EQ(from_string<ExecBackend>("serial"), ExecBackend::Serial);
  EXPECT_EQ(from_string<ExecBackend>("threads"), ExecBackend::Threads);
  EXPECT_THROW(from_string<ExecBackend>("cuda"), Error);
  EXPECT_FALSE(ExecPolicy::with_threads(1).parallel());
  EXPECT_TRUE(ExecPolicy::with_threads(2).parallel());
}

}  // namespace
}  // namespace frosch::exec
