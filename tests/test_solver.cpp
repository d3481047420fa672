// Tests for the frosch::Solver facade layer (src/solver): ParameterList
// semantics, the from_string round trips of every configuration enum, the
// unified Krylov interface (GMRES/CG parity), the preconditioner registry,
// and the golden equivalence of the facade with the hand-wired pipeline.
#include <gtest/gtest.h>

#include <cstring>

#include "frosch.hpp"
#include "support/matrices.hpp"
#include "support/problems.hpp"

namespace frosch {
namespace {

using test::laplace2d;
using test::random_vector;

// ---------------------------------------------------------------------------
// from_string round trips: every enumerator of every configuration enum.

template <class E>
void check_roundtrip() {
  for (E k : EnumTraits<E>::all) {
    EXPECT_EQ(from_string<E>(to_string(k)), k)
        << EnumTraits<E>::type_name << " '" << to_string(k) << "'";
  }
  EXPECT_THROW(from_string<E>("definitely-not-a-name"), Error);
}

TEST(EnumParse, RoundTripsEveryEnumerator) {
  check_roundtrip<krylov::OrthoKind>();
  check_roundtrip<krylov::KrylovMethod>();
  check_roundtrip<dd::CoarseSpaceKind>();
  check_roundtrip<dd::LocalSolverKind>();
  check_roundtrip<dd::EntityKind>();
  check_roundtrip<dd::Ordering>();
  check_roundtrip<trisolve::TrisolveKind>();
}

TEST(EnumParse, UnknownNameErrorListsValidNames) {
  try {
    from_string<krylov::OrthoKind>("mgs2");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mgs2"), std::string::npos);
    for (auto k : EnumTraits<krylov::OrthoKind>::all)
      EXPECT_NE(msg.find(to_string(k)), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// ParameterList.

TEST(ParameterList, TypedSetAndGet) {
  ParameterList p;
  p.set("restart", 50).set("tol", 1e-9).set("two-level", true)
      .set("coarse-space", "gdsw");
  EXPECT_EQ(p.get<index_t>("restart"), 50);
  EXPECT_DOUBLE_EQ(p.get<double>("tol"), 1e-9);
  EXPECT_TRUE(p.get<bool>("two-level"));
  EXPECT_EQ(p.get<std::string>("coarse-space"), "gdsw");
}

TEST(ParameterList, CoercesStringsTheWayFlagsArrive) {
  ParameterList p;
  p.set("restart", "50").set("tol", "1e-9").set("two-level", "off");
  EXPECT_EQ(p.get<index_t>("restart"), 50);
  EXPECT_DOUBLE_EQ(p.get<double>("tol"), 1e-9);
  EXPECT_FALSE(p.get<bool>("two-level"));
  EXPECT_EQ(p.get<std::string>("restart"), "50");
}

TEST(ParameterList, MissingAndMalformedKeysThrow) {
  ParameterList p;
  p.set("tol", "not-a-number");
  EXPECT_THROW(p.get<double>("tol"), Error);
  EXPECT_THROW(p.get<index_t>("absent"), Error);
  EXPECT_EQ(p.get_or<index_t>("absent", 7), 7);
}

TEST(ParameterList, RejectsIntegersOutOfIndexRange) {
  // 2^32 would silently truncate to 0 through a narrowing cast; the parser
  // must reject anything outside index_t instead.
  ParameterList p;
  p.set("max-iters", "4294967296").set("restart", "-4294967295");
  EXPECT_THROW(p.get<index_t>("max-iters"), Error);
  EXPECT_THROW(p.get<index_t>("restart"), Error);
}

TEST(ParameterList, TracksUnusedKeys) {
  ParameterList p;
  p.set("tol", 1e-8).set("typo-key", 1);
  (void)p.get<double>("tol");
  const auto unused = p.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo-key");
}

// ---------------------------------------------------------------------------
// SolverConfig::from_parameters.

TEST(SolverConfig, PopulatesEveryOptionStructFromStrings) {
  ParameterList p;
  p.set("solver", "cg")
      .set("ortho", "cgs2")
      .set("restart", "17")
      .set("max-iters", "123")
      .set("tol", "1e-5")
      .set("preconditioner", "schwarz-float")
      .set("num-parts", "12")
      .set("overlap", "2")
      .set("two-level", "false")
      .set("coarse-space", "gdsw")
      .set("subdomain-solver", "iluk")
      .set("subdomain-trisolve", "level-set")
      .set("extension-solver", "superlu-like")
      .set("extension-trisolve", "substitution")
      .set("coarse-solver", "tacho-like")
      .set("coarse-trisolve", "jacobi-sweeps")
      .set("ordering", "natural")
      .set("ilu-level", "2")
      .set("fastilu-sweeps", "4")
      .set("fastsptrsv-sweeps", "6")
      .set("dof-block-size", "3");
  auto c = SolverConfig::from_parameters(p);
  EXPECT_EQ(c.krylov.method, krylov::KrylovMethod::Cg);
  EXPECT_EQ(c.krylov.ortho, krylov::OrthoKind::CGS2);
  EXPECT_EQ(c.krylov.restart, 17);
  EXPECT_EQ(c.krylov.max_iters, 123);
  EXPECT_DOUBLE_EQ(c.krylov.tol, 1e-5);
  EXPECT_EQ(c.preconditioner, "schwarz-float");
  EXPECT_EQ(c.num_parts, 12);
  EXPECT_EQ(c.schwarz.overlap, 2);
  EXPECT_FALSE(c.schwarz.two_level);
  EXPECT_EQ(c.schwarz.coarse_space, dd::CoarseSpaceKind::GDSW);
  EXPECT_EQ(c.schwarz.subdomain.kind, dd::LocalSolverKind::Iluk);
  EXPECT_EQ(c.schwarz.subdomain.trisolve, trisolve::TrisolveKind::LevelSet);
  EXPECT_EQ(c.schwarz.extension.kind, dd::LocalSolverKind::SuperLULike);
  EXPECT_EQ(c.schwarz.extension.trisolve,
            trisolve::TrisolveKind::Substitution);
  EXPECT_EQ(c.schwarz.coarse.kind, dd::LocalSolverKind::TachoLike);
  EXPECT_EQ(c.schwarz.coarse.trisolve, trisolve::TrisolveKind::JacobiSweeps);
  EXPECT_EQ(c.schwarz.subdomain.ordering, dd::Ordering::Natural);
  EXPECT_EQ(c.schwarz.extension.ordering, dd::Ordering::Natural);
  EXPECT_EQ(c.schwarz.subdomain.ilu_level, 2);
  EXPECT_EQ(c.schwarz.subdomain.fastilu_sweeps, 4);
  EXPECT_EQ(c.schwarz.subdomain.fastsptrsv_sweeps, 6);
  EXPECT_EQ(c.schwarz.subdomain.dof_block_size, 3);
  EXPECT_EQ(c.schwarz.extension.dof_block_size, 3);
}

TEST(SolverConfig, UnknownKeyErrorNamesKeyAndSchema) {
  ParameterList p;
  p.set("coarse-spce", "gdsw");  // typo
  try {
    SolverConfig::from_parameters(p);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("coarse-spce"), std::string::npos) << msg;
    EXPECT_NE(msg.find("coarse-space"), std::string::npos) << msg;
  }
}

TEST(SolverConfig, BadEnumValueErrorListsValidNames) {
  ParameterList p;
  p.set("coarse-space", "agdsw");
  try {
    SolverConfig::from_parameters(p);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("gdsw"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rgdsw"), std::string::npos) << msg;
  }
}

TEST(SolverConfig, RejectsOutOfRangeValues) {
  for (auto [key, value] : {std::pair<const char*, const char*>{"restart", "0"},
                            {"tol", "0"},
                            {"num-parts", "0"},
                            {"overlap", "-1"},
                            {"ilu-level", "-2"},
                            {"dof-block-size", "0"}}) {
    ParameterList p;
    p.set(key, value);
    EXPECT_THROW(SolverConfig::from_parameters(p), Error) << key;
  }
}

TEST(SolverConfig, ZeroIterationCapIsAcceptedAndRunsNoIteration) {
  ParameterList params;
  params.set("max-iters", 0);
  const auto cfg = SolverConfig::from_parameters(params);
  EXPECT_EQ(cfg.krylov.max_iters, 0);
  auto p = test::laplace_problem(6, 2, 2, 1);
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  const auto rep = solver.solve(b, x);
  EXPECT_FALSE(rep.converged);
  EXPECT_EQ(rep.iterations, 0);
  EXPECT_GT(rep.initial_residual, 0.0);
  EXPECT_EQ(rep.final_residual, rep.initial_residual);
  EXPECT_EQ(rep.residual_history, std::vector<double>{rep.initial_residual});
}

TEST(SolverConfig, BaseOverlaySemantics) {
  SolverConfig base;
  base.krylov.restart = 99;
  base.schwarz.overlap = 3;
  ParameterList p;
  p.set("overlap", 1);
  auto c = SolverConfig::from_parameters(p, base);
  EXPECT_EQ(c.schwarz.overlap, 1);   // overridden
  EXPECT_EQ(c.krylov.restart, 99);   // inherited from base
}

// ---------------------------------------------------------------------------
// Unified Krylov interface.

TEST(KrylovSolver, FactoryDispatchesOnMethod) {
  krylov::KrylovOptions opts;
  opts.method = krylov::KrylovMethod::Gmres;
  EXPECT_EQ(krylov::make_krylov<double>(opts)->method(),
            krylov::KrylovMethod::Gmres);
  opts.method = krylov::KrylovMethod::Cg;
  EXPECT_EQ(krylov::make_krylov<double>(opts)->method(),
            krylov::KrylovMethod::Cg);
}

TEST(KrylovSolver, CgAndGmresPopulateTheSameResultFields) {
  // The drift fix: both methods solve the same SPD system with identical
  // tolerance-on-initial-residual semantics and fill the same SolveResult
  // fields, including the residual history.
  auto A = laplace2d(12, 12);
  krylov::CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 21);

  krylov::KrylovOptions opts;
  opts.tol = 1e-8;
  std::vector<double> xg, xc;
  opts.method = krylov::KrylovMethod::Gmres;
  auto rg = krylov::make_krylov<double>(opts)->solve(op, nullptr, b, xg);
  opts.method = krylov::KrylovMethod::Cg;
  auto rc = krylov::make_krylov<double>(opts)->solve(op, nullptr, b, xc);

  for (const auto* r : {&rg, &rc}) {
    ASSERT_TRUE(r->converged);
    EXPECT_GT(r->initial_residual, 0.0);
    // History: initial residual first, one entry per iteration, final entry
    // confirmed against the true residual and under the target.
    ASSERT_EQ(r->residual_history.size(), size_t(r->iterations) + 1);
    EXPECT_DOUBLE_EQ(r->residual_history.front(), r->initial_residual);
    EXPECT_DOUBLE_EQ(r->residual_history.back(), r->final_residual);
    EXPECT_LE(r->final_residual, opts.tol * r->initial_residual);
  }
  // Same system, same semantics: the answers agree.
  for (size_t i = 0; i < xg.size(); ++i) EXPECT_NEAR(xc[i], xg[i], 1e-6);
}

TEST(KrylovSolver, PerIterationCallbackObservesEveryIteration) {
  auto A = laplace2d(10, 10);
  krylov::CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 22);
  for (auto method : EnumTraits<krylov::KrylovMethod>::all) {
    krylov::KrylovOptions opts;
    opts.method = method;
    std::vector<index_t> seen;
    opts.on_iteration = [&](index_t it, double res) {
      seen.push_back(it);
      EXPECT_GT(res, 0.0);
    };
    std::vector<double> x;
    auto r = krylov::make_krylov<double>(opts)->solve(op, nullptr, b, x);
    ASSERT_TRUE(r.converged);
    ASSERT_EQ(seen.size(), size_t(r.iterations));
    for (size_t i = 0; i < seen.size(); ++i)
      EXPECT_EQ(seen[i], index_t(i) + 1);
  }
}

TEST(KrylovSolver, GmresHistoryIsConsistentWithLegacyEntryPoint) {
  auto A = laplace2d(10, 10);
  krylov::CsrOperator<double> op(A);
  auto b = random_vector(A.num_rows(), 23);
  krylov::GmresOptions opts;
  opts.restart = 5;  // force several cycles
  std::vector<double> x;
  auto r = krylov::gmres<double>(op, nullptr, b, x, opts);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.residual_history.size(), size_t(r.iterations) + 1);
  EXPECT_DOUBLE_EQ(r.residual_history.back(), r.final_residual);
}

// ---------------------------------------------------------------------------
// Preconditioner registry.

TEST(Registry, BuiltInsAreRegistered) {
  auto& r = preconditioner_registry();
  EXPECT_TRUE(r.has("schwarz"));
  EXPECT_TRUE(r.has("schwarz-float"));
  EXPECT_TRUE(r.has("none"));
}

TEST(Registry, UnknownNameErrorListsRegisteredNames) {
  SolverConfig cfg;
  cfg.preconditioner = "multigrid";
  try {
    Solver solver(cfg);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("multigrid"), std::string::npos) << msg;
    EXPECT_NE(msg.find("schwarz"), std::string::npos) << msg;
  }
}

TEST(Registry, CustomFactoryIsCreatableByName) {
  auto& r = preconditioner_registry();
  r.add("test-schwarz", [](const SolverConfig& cfg,
                           const dd::Decomposition& d) {
    return std::make_unique<dd::SchwarzPreconditioner<double>>(cfg.schwarz, d);
  });
  auto p = test::algebraic_laplace(6, 4, 1);
  SolverConfig cfg;
  cfg.preconditioner = "test-schwarz";
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.decomp);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  auto rep = solver.solve(b, x);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(rep.coarse_dim, 0);
}

// ---------------------------------------------------------------------------
// Facade behaviour.

TEST(Facade, SolveBeforeSetupThrows) {
  Solver solver;
  std::vector<double> b(4, 1.0), x;
  EXPECT_THROW(solver.solve(b, x), Error);
}

TEST(Facade, NonePreconditionerSolvesUnpreconditioned) {
  auto p = test::algebraic_laplace(5, 4, 1);
  ParameterList params;
  params.set("preconditioner", "none").set("num-parts", 4);
  Solver solver(params);
  solver.setup(p.A, p.Z);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  auto rep = solver.solve(b, x);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.coarse_dim, 0);
  EXPECT_LT(la::residual_norm(p.A, x, b), 1e-6 * rep.initial_residual);
}

TEST(Facade, ReportIsStoredAndConsolidated) {
  auto p = test::algebraic_laplace(6, 6, 1);
  Solver solver{SolverConfig{}};
  solver.setup(p.A, p.Z, p.decomp);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  auto rep = solver.solve(b, x);
  ASSERT_TRUE(rep.converged);
  EXPECT_EQ(solver.report().iterations, rep.iterations);
  EXPECT_EQ(rep.residual_history.size(), size_t(rep.iterations) + 1);
  EXPECT_EQ(rep.coarse_dim, solver.coarse_dim());
  EXPECT_GT(rep.coarse_dim, 0);
  // Per-phase profiles: per-rank Schwarz work plus a positive pure-Krylov
  // share (the preconditioner applications are subtracted out).
  EXPECT_EQ(rep.schwarz.ranks.size(), size_t(p.decomp.num_parts));
  EXPECT_GT(rep.krylov.flops, 0.0);
  EXPECT_FALSE(rep.str().empty());
}

TEST(Facade, RepeatedSolvesReportPerSolveProfiles) {
  // The preconditioner accumulates apply()-side profiles across solves; the
  // report must still cover one solve at a time.
  auto p = test::algebraic_laplace(6, 4, 1);
  Solver solver{SolverConfig{}};
  solver.setup(p.A, p.Z, p.decomp);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x1, x2;
  auto r1 = solver.solve(b, x1);
  auto r2 = solver.solve(b, x2);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  // Identical problem and (zero) initial guess: the second report must
  // match the first, not include its work on top.
  EXPECT_EQ(r2.iterations, r1.iterations);
  EXPECT_EQ(r2.schwarz.apply_count, r1.schwarz.apply_count);
  double f1 = 0.0, f2 = 0.0;
  for (const auto& rp : r1.schwarz.ranks) f1 += rp.solve.flops;
  for (const auto& rp : r2.schwarz.ranks) f2 += rp.solve.flops;
  EXPECT_DOUBLE_EQ(f2, f1);
  EXPECT_DOUBLE_EQ(r2.krylov.flops, r1.krylov.flops);
}

TEST(Facade, FloatPreconditionerMovesFewerSetupBytes) {
  auto p = test::algebraic_laplace(6, 6, 1);
  double bytes[2];
  index_t iters[2];
  int i = 0;
  for (const char* prec : {"schwarz", "schwarz-float"}) {
    SolverConfig cfg;
    cfg.preconditioner = prec;
    Solver solver(cfg);
    solver.setup(p.A, p.Z, p.decomp);
    std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
    auto rep = solver.solve(b, x);
    ASSERT_TRUE(rep.converged) << prec;
    double sum = 0.0;
    for (const auto& rp : rep.schwarz.ranks) sum += rp.numeric.bytes;
    bytes[i] = sum;
    iters[i] = rep.iterations;
    ++i;
  }
  EXPECT_LT(bytes[1], 0.75 * bytes[0]);
  EXPECT_NEAR(double(iters[1]), double(iters[0]), 0.3 * double(iters[0]) + 3);
}

// ---------------------------------------------------------------------------
// Golden equivalence: the facade reproduces the hand-wired pipeline
// EXACTLY (same iteration count, coarse dimension, and residuals) -- the
// legacy quickstart path on the 16^3 Laplace and a small elasticity
// problem.  Tests are the one place the hand-wired pipeline remains.

struct Golden {
  index_t iterations;
  index_t coarse_dim;
  double final_residual;
};

Golden hand_wired(const test::MeshProblem& p, const SolverConfig& cfg) {
  auto decomp =
      dd::build_decomposition(p.A, p.owner, p.num_parts, cfg.schwarz.overlap);
  comm::SimComm comm(decomp.num_parts, cfg.schwarz.exec);
  auto schwarz = cfg.schwarz;
  schwarz.comm = &comm;
  dd::SchwarzPreconditioner<double> prec(schwarz, decomp);
  prec.symbolic_setup(p.A);
  prec.numeric_setup(p.A, p.Z);
  krylov::CsrOperator<double> op(p.A);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  auto res = krylov::gmres<double>(op, &prec, b, x, cfg.krylov.gmres_options());
  EXPECT_TRUE(res.converged);
  return {res.iterations, prec.coarse_dim(), res.final_residual};
}

Golden facade(const test::MeshProblem& p, const SolverConfig& cfg) {
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  auto rep = solver.solve(b, x);
  EXPECT_TRUE(rep.converged);
  return {rep.iterations, rep.coarse_dim, rep.final_residual};
}

TEST(FacadeGolden, MatchesHandWiredQuickstartOnLaplace16) {
  auto p = test::laplace_problem(16, 2, 2, 2);
  SolverConfig cfg;  // paper defaults, as in examples/quickstart.cpp
  const Golden ref = hand_wired(p, cfg);
  const Golden got = facade(p, cfg);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.coarse_dim, ref.coarse_dim);
  EXPECT_DOUBLE_EQ(got.final_residual, ref.final_residual);
}

TEST(FacadeGolden, MatchesHandWiredOnElasticity) {
  auto p = test::elasticity_problem(5, 2, 2, 2);
  SolverConfig cfg;
  cfg.schwarz.subdomain.dof_block_size = 3;
  cfg.schwarz.extension.dof_block_size = 3;
  const Golden ref = hand_wired(p, cfg);
  const Golden got = facade(p, cfg);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.coarse_dim, ref.coarse_dim);
  EXPECT_DOUBLE_EQ(got.final_residual, ref.final_residual);
}

// ---------------------------------------------------------------------------
// Overlapped communication and the pipelined solvers through the facade:
// the "krylov" alias key, the "overlap_comm" switch, and their schema rows.

TEST(SolverConfig, ParsesKrylovAliasAndOverlapCommKeys) {
  ParameterList p;
  p.set("krylov", "cg-pipe");
  EXPECT_EQ(SolverConfig::from_parameters(p).krylov.method,
            krylov::KrylovMethod::CgPipe);
  ParameterList q;
  q.set("krylov", "gmres-pipe").set("overlap_comm", "off");
  auto c = SolverConfig::from_parameters(q);
  EXPECT_EQ(c.krylov.method, krylov::KrylovMethod::GmresPipe);
  EXPECT_FALSE(c.overlap_comm);
  // When both spellings are given, the krylov key wins.
  ParameterList both;
  both.set("solver", "cg").set("krylov", "gmres-pipe");
  EXPECT_EQ(SolverConfig::from_parameters(both).krylov.method,
            krylov::KrylovMethod::GmresPipe);
  ParameterList on;
  on.set("overlap_comm", "on");
  EXPECT_TRUE(SolverConfig::from_parameters(on).overlap_comm);
  EXPECT_TRUE(SolverConfig{}.overlap_comm);  // the default
}

TEST(SolverConfig, ParameterDocsCoverKrylovAndOverlapComm) {
  bool saw_krylov = false, saw_overlap = false;
  for (const auto& d : SolverConfig::parameter_docs()) {
    if (d.key == "krylov") saw_krylov = true;
    if (d.key == "overlap_comm") saw_overlap = true;
  }
  EXPECT_TRUE(saw_krylov);
  EXPECT_TRUE(saw_overlap);
}

TEST(Facade, KrylovKeySolvesPipelinedEndToEnd) {
  auto p = test::laplace_problem(8, 2, 2, 2);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0);
  {
    ParameterList params;
    params.set("krylov", "gmres-pipe").set("ranks", 4);
    Solver solver(params);
    solver.setup(p.A, p.Z, p.owner, p.num_parts);
    std::vector<double> x;
    auto rep = solver.solve(b, x);
    EXPECT_TRUE(rep.converged);
    EXPECT_LT(la::residual_norm(p.A, x, b), 1e-6 * rep.initial_residual);
    // The pipelined contract survived the round trip: one POSTED fused
    // all-reduce per iteration, on every rank.
    ASSERT_EQ(rep.rank_krylov.size(), 4u);
    for (const auto& pr : rep.rank_krylov)
      EXPECT_EQ(pr.ov_reductions, static_cast<count_t>(rep.iterations));
  }
  {
    ParameterList params;
    params.set("krylov", "cg-pipe")
        .set("preconditioner", "none")
        .set("ranks", 4);
    Solver solver(params);
    solver.setup(p.A, p.Z, p.owner, p.num_parts);
    std::vector<double> x;
    auto rep = solver.solve(b, x);
    EXPECT_TRUE(rep.converged);
    EXPECT_LT(la::residual_norm(p.A, x, b), 1e-6 * rep.initial_residual);
    for (const auto& pr : rep.rank_krylov)
      EXPECT_EQ(pr.ov_reductions, static_cast<count_t>(rep.iterations + 1));
  }
}

TEST(Facade, OverlapCommOffIsBitwiseIdenticalToOn) {
  auto p = test::laplace_problem(8, 2, 2, 2);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0);
  SolveReport reps[2];
  std::vector<double> xs[2];
  int i = 0;
  for (const char* overlap : {"on", "off"}) {
    ParameterList params;
    params.set("overlap_comm", overlap).set("ranks", 4);
    Solver solver(params);
    solver.setup(p.A, p.Z, p.owner, p.num_parts);
    reps[i] = solver.solve(b, xs[i]);
    ++i;
  }
  // Same bits either way: the overlap is a scheduling choice, not a
  // numerical one.
  EXPECT_EQ(reps[0].iterations, reps[1].iterations);
  ASSERT_EQ(xs[0].size(), xs[1].size());
  EXPECT_EQ(
      std::memcmp(xs[0].data(), xs[1].data(), xs[0].size() * sizeof(double)),
      0);
  // Only the measured async share differs: the overlapped run posted its
  // ghost imports (windows, ov_ traffic), the blocking run posted nothing.
  count_t on_ov = 0, off_ov = 0;
  double on_windows = 0.0, off_windows = 0.0;
  for (const auto& pr : reps[0].rank_krylov) {
    on_ov += pr.ov_neighbor_msgs;
    on_windows += pr.overlap_s;
  }
  for (const auto& pr : reps[1].rank_krylov) {
    off_ov += pr.ov_neighbor_msgs;
    off_windows += pr.overlap_s;
  }
  EXPECT_GT(on_ov, 0);
  EXPECT_EQ(off_ov, 0);
  EXPECT_GT(on_windows, 0.0);
  EXPECT_EQ(off_windows, 0.0);
  // ... and the report surfaces it per rank.
  ASSERT_EQ(reps[0].rank_overlap.size(), 4u);
  for (double w : reps[0].rank_overlap) EXPECT_GT(w, 0.0);
  for (double w : reps[1].rank_overlap) EXPECT_EQ(w, 0.0);
}

// ---------------------------------------------------------------------------
// SolveSession: the batched multi-RHS service on top of Solver::solve_batch.

TEST(SolverConfig, ParsesBlockSizeAndBatchKeys) {
  ParameterList p;
  p.set("block-size", 8).set("batch", 3);
  auto c = SolverConfig::from_parameters(p);
  EXPECT_EQ(c.block_size, 8);
  EXPECT_EQ(c.batch, 3);
  ParameterList bad;
  bad.set("block-size", 0);
  EXPECT_THROW(SolverConfig::from_parameters(bad), Error);
}

TEST(SolveSession, BatchedSolutionsMatchSoloSolvesBitwise) {
  auto p = test::algebraic_laplace(8, 4, 1);
  const index_t n = p.A.num_rows();
  SolverConfig cfg;
  cfg.block_size = 2;  // 5 rhs -> blocks of 2, 2, 1
  // Solo references on an identically-configured, identically-set-up
  // solver.
  Solver ref(cfg);
  ref.setup(p.A, p.Z, p.decomp);
  std::vector<std::vector<double>> B(5);
  std::vector<std::vector<double>> solo_x(5);
  std::vector<SolveReport> solo(5);
  for (size_t c = 0; c < 5; ++c) {
    B[c] = random_vector(n, static_cast<unsigned>(40 + c));
    solo[c] = ref.solve(B[c], solo_x[c]);
    ASSERT_TRUE(solo[c].converged);
  }
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.decomp);
  SolveSession session(solver);
  EXPECT_EQ(session.block_size(), 2);
  std::vector<size_t> tickets;
  for (size_t c = 0; c < 5; ++c) tickets.push_back(session.enqueue(B[c]));
  EXPECT_EQ(session.pending(), 5u);
  EXPECT_FALSE(session.solved(tickets[0]));
  EXPECT_THROW(session.solution(tickets[0]), Error);
  session.flush();
  EXPECT_EQ(session.pending(), 0u);
  for (size_t c = 0; c < 5; ++c) {
    const auto& rep = session.report(tickets[c]);
    const auto& x = session.solution(tickets[c]);
    EXPECT_TRUE(rep.converged) << "ticket " << c;
    EXPECT_EQ(rep.iterations, solo[c].iterations) << "ticket " << c;
    ASSERT_EQ(rep.residual_history.size(), solo[c].residual_history.size());
    for (size_t i = 0; i < solo[c].residual_history.size(); ++i)
      EXPECT_EQ(rep.residual_history[i], solo[c].residual_history[i])
          << "ticket " << c << " history[" << i << "]";
    ASSERT_EQ(x.size(), solo_x[c].size());
    for (size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(x[i], solo_x[c][i]) << "ticket " << c << " x[" << i << "]";
  }
}

TEST(SolveSession, AutoFlushesAtBatchThreshold) {
  auto p = test::algebraic_laplace(6, 4, 1);
  const index_t n = p.A.num_rows();
  SolverConfig cfg;
  cfg.block_size = 2;
  cfg.batch = 2;
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.decomp);
  SolveSession session(solver);
  const auto t0 = session.enqueue(random_vector(n, 1));
  EXPECT_EQ(session.pending(), 1u);
  EXPECT_FALSE(session.solved(t0));
  const auto t1 = session.enqueue(random_vector(n, 2));
  // The second enqueue reached the batch threshold: both solved, nothing
  // pending, no explicit flush needed.
  EXPECT_EQ(session.pending(), 0u);
  EXPECT_TRUE(session.solved(t0));
  EXPECT_TRUE(session.solved(t1));
  EXPECT_TRUE(session.report(t0).converged);
  EXPECT_TRUE(session.report(t1).converged);
}

TEST(SolveSession, DeflatesTrivialColumnAndKeepsOthersExact) {
  // Mixed difficulty in one block: a zero rhs converges (and deflates) at
  // iteration 0 while its block mate runs a full solve -- which must still
  // match its solo trajectory bitwise.
  auto p = test::algebraic_laplace(8, 4, 1);
  const index_t n = p.A.num_rows();
  SolverConfig cfg;
  cfg.block_size = 2;
  Solver ref(cfg);
  ref.setup(p.A, p.Z, p.decomp);
  auto b = random_vector(n, 9);
  std::vector<double> x_solo;
  auto solo = ref.solve(b, x_solo);
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.decomp);
  SolveSession session(solver);
  const auto tz = session.enqueue(std::vector<double>(
      static_cast<size_t>(n), 0.0));
  const auto tb = session.enqueue(b);
  session.flush();
  EXPECT_TRUE(session.report(tz).converged);
  EXPECT_EQ(session.report(tz).iterations, 0);
  EXPECT_EQ(session.report(tb).iterations, solo.iterations);
  const auto& x = session.solution(tb);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_solo[i]);
}

TEST(SolveSession, WarmStartTicketContinuesFromGuess) {
  // The facade-level initial-guess contract: a warm-started ticket resumes
  // exactly at the caller's iterate (its initial residual is the previous
  // report's true final residual, bitwise).
  auto p = test::algebraic_laplace(8, 4, 1);
  const index_t n = p.A.num_rows();
  SolverConfig cfg;
  cfg.krylov.max_iters = 3;  // force a partial first solve
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.decomp);
  auto b = random_vector(n, 21);
  std::vector<double> x;
  auto rep1 = solver.solve(b, x);
  ASSERT_FALSE(rep1.converged);
  cfg.krylov.max_iters = 2000;
  Solver solver2(cfg);
  solver2.setup(p.A, p.Z, p.decomp);
  SolveSession session(solver2);
  const auto t = session.enqueue(b, x);
  session.flush();
  EXPECT_EQ(session.report(t).initial_residual, rep1.final_residual);
  EXPECT_TRUE(session.report(t).converged);
}

// ---------------------------------------------------------------------------
// Solver::refresh -- the layered setup cache (DESIGN.md section 9).  A
// numeric-only refresh must be BITWISE identical to a cold setup on the
// same matrix at every (backend, ranks, threads) combination, move no
// pattern bytes, and survive open sessions and repeated setups.

/// Symmetric diagonal rescale D*A*D: same pattern, nonuniformly changed
/// values, symmetry (and for an SPD input, positive definiteness) kept.
la::CsrMatrix<double> diag_rescaled(const la::CsrMatrix<double>& A) {
  auto B = A;
  auto& vals = B.values();
  for (index_t i = 0; i < B.num_rows(); ++i) {
    const double di = 1.0 + 0.25 * static_cast<double>(i % 3);
    for (index_t k = B.row_begin(i); k < B.row_end(i); ++k) {
      const double dj = 1.0 + 0.25 * static_cast<double>(B.col(k) % 3);
      vals[static_cast<size_t>(k)] = A.val(k) * di * dj;
    }
  }
  return B;
}

/// Drops the symmetric off-diagonal pair anchored at `row`'s first
/// off-diagonal entry -- a pattern change that keeps the matrix symmetric
/// (and a Laplacian diagonally dominant).  Returns the changed matrix and
/// stores the first row whose pattern differs in `first_diff_row`.
la::CsrMatrix<double> drop_symmetric_pair(const la::CsrMatrix<double>& A,
                                          index_t row,
                                          index_t* first_diff_row) {
  index_t j = -1;
  for (index_t k = A.row_begin(row); k < A.row_end(row); ++k)
    if (A.col(k) != row) {
      j = A.col(k);
      break;
    }
  FROSCH_CHECK(j >= 0, "drop_symmetric_pair: row has no off-diagonal entry");
  *first_diff_row = row < j ? row : j;
  std::vector<index_t> rowptr{0}, colind;
  std::vector<double> values;
  for (index_t i = 0; i < A.num_rows(); ++i) {
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k) {
      if ((i == row && A.col(k) == j) || (i == j && A.col(k) == row))
        continue;
      colind.push_back(A.col(k));
      values.push_back(A.val(k));
    }
    rowptr.push_back(static_cast<index_t>(colind.size()));
  }
  return la::CsrMatrix<double>(A.num_rows(), A.num_cols(), std::move(rowptr),
                               std::move(colind), std::move(values));
}

/// Cold setup on A2 vs. setup on A then refresh(A2): same iteration count,
/// bitwise-identical solution.
void check_refresh_bitwise(const test::MeshProblem& p,
                           const SolverConfig& cfg) {
  const auto A2 = diag_rescaled(p.A);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0);

  Solver cold(cfg);
  cold.setup(A2, p.Z, p.owner, p.num_parts);
  std::vector<double> x_cold;
  const auto rep_cold = cold.solve(b, x_cold);
  ASSERT_TRUE(rep_cold.converged);
  EXPECT_FALSE(rep_cold.setup_reused);

  Solver warm(cfg);
  warm.setup(p.A, p.Z, p.owner, p.num_parts);
  warm.refresh(A2);
  std::vector<double> x_ref;
  const auto rep_ref = warm.solve(b, x_ref);
  ASSERT_TRUE(rep_ref.converged);
  EXPECT_TRUE(rep_ref.setup_reused);
  EXPECT_GT(rep_ref.wall_refresh_s, 0.0);
  EXPECT_EQ(rep_ref.iterations, rep_cold.iterations);
  EXPECT_EQ(rep_ref.coarse_dim, rep_cold.coarse_dim);
  ASSERT_EQ(x_ref.size(), x_cold.size());
  EXPECT_EQ(std::memcmp(x_ref.data(), x_cold.data(),
                        x_ref.size() * sizeof(double)),
            0);
}

void sweep_refresh_bitwise(const test::MeshProblem& p, SolverConfig cfg) {
  for (ExecMode mode : {ExecMode::Auto, ExecMode::Device}) {
    for (index_t ranks : {index_t(1), index_t(4)}) {
      for (index_t threads : {index_t(1), index_t(4)}) {
        cfg.exec_mode = mode;
        cfg.ranks = ranks;
        cfg.threads = threads;
        SCOPED_TRACE(std::string("exec=") + to_string(mode) + " ranks=" +
                     std::to_string(ranks) + " threads=" +
                     std::to_string(threads));
        check_refresh_bitwise(p, cfg);
      }
    }
  }
}

TEST(RefreshSuite, BitwiseIdenticalToColdSetupOnLaplace16) {
  sweep_refresh_bitwise(test::laplace_problem(16, 2, 2, 2), SolverConfig{});
}

TEST(RefreshSuite, BitwiseIdenticalToColdSetupOnElasticity) {
  SolverConfig cfg;
  cfg.schwarz.subdomain.dof_block_size = 3;
  cfg.schwarz.extension.dof_block_size = 3;
  sweep_refresh_bitwise(test::elasticity_problem(5, 2, 2, 2), cfg);
}

TEST(RefreshSuite, BitwiseIdenticalToColdSetupThroughThreeLevelHierarchy) {
  // refresh() must propagate the numeric overlay through EVERY level of the
  // coarse hierarchy: the level-2 Schwarz refactors its subdomains and the
  // recursion re-gathers the level-3 operator.  GDSW + 32 parts so the
  // coarse problem is big enough for the recursion to engage.
  SolverConfig cfg;
  cfg.schwarz.coarse_space = dd::CoarseSpaceKind::GDSW;
  cfg.schwarz.hierarchy.levels = 3;
  cfg.schwarz.hierarchy.coarse_ranks = dd::CoarseRanks::All;
  cfg.krylov.method = krylov::KrylovMethod::Gmres;
  cfg.ranks = 4;
  cfg.threads = 2;
  cfg.propagate_exec();
  check_refresh_bitwise(test::laplace_problem(12, 4, 4, 2), cfg);
}

TEST(RefreshSuite, FiveMatrixScaledSequencePinsIterations) {
  // Scaling by 4^step is exact in floating point, and so is the square root
  // every Cholesky pivot picks up (2^step), so the whole Krylov trajectory
  // scales exactly: every step of the sequence must reproduce step 0's
  // residual history bit for bit, its solution must be step 0's divided by
  // 4^step exactly, and each refreshed solve must bitwise match a cold
  // solver on that step's matrix.
  auto p = test::laplace_problem(16, 2, 2, 2);
  SolverConfig cfg;
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0);
  Solver warm(cfg);
  warm.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<double> x0;
  const auto rep0 = warm.solve(b, x0);
  ASSERT_TRUE(rep0.converged);
  for (int step = 1; step < 5; ++step) {
    auto Ak = p.A;
    const double scale = static_cast<double>(1 << (2 * step));
    for (auto& v : Ak.values()) v *= scale;
    warm.refresh(Ak);
    std::vector<double> xr;
    const auto rep = warm.solve(b, xr);
    ASSERT_TRUE(rep.converged) << "step " << step;
    EXPECT_TRUE(rep.setup_reused);
    EXPECT_EQ(rep.iterations, rep0.iterations) << "step " << step;
    ASSERT_EQ(rep.residual_history.size(), rep0.residual_history.size())
        << "step " << step;
    EXPECT_EQ(std::memcmp(rep.residual_history.data(),
                          rep0.residual_history.data(),
                          rep0.residual_history.size() * sizeof(double)),
              0)
        << "step " << step;
    ASSERT_EQ(xr.size(), x0.size());
    size_t unscaled = 0;
    for (size_t i = 0; i < xr.size(); ++i)
      if (xr[i] * scale != x0[i]) ++unscaled;
    EXPECT_EQ(unscaled, 0u) << "step " << step;

    Solver cold(cfg);
    cold.setup(Ak, p.Z, p.owner, p.num_parts);
    std::vector<double> xc;
    const auto repc = cold.solve(b, xc);
    EXPECT_EQ(rep.iterations, repc.iterations) << "step " << step;
    EXPECT_EQ(std::memcmp(xr.data(), xc.data(), xr.size() * sizeof(double)),
              0)
        << "step " << step;
  }
}

TEST(RefreshSuite, SecondSetupFullyResetsCachedState) {
  // Regression: a second cold setup() on a used solver (solves + refresh
  // behind it) must behave exactly like a fresh solver -- same reports,
  // same setup snapshots, no refresh leftovers, same device residency.
  auto p = test::laplace_problem(8, 2, 2, 2);
  SolverConfig cfg;
  cfg.exec_mode = ExecMode::Device;
  const auto A2 = diag_rescaled(p.A);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0);

  Solver fresh(cfg);
  fresh.setup(A2, p.Z, p.owner, p.num_parts);
  std::vector<double> xf;
  const auto repf = fresh.solve(b, xf);
  ASSERT_TRUE(repf.converged);

  Solver used(cfg);
  used.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<double> x0;
  ASSERT_TRUE(used.solve(b, x0).converged);
  used.refresh(A2);
  ASSERT_TRUE(used.solve(b, x0).converged);
  used.setup(A2, p.Z, p.owner, p.num_parts);  // the second cold setup
  std::vector<double> xu;
  const auto repu = used.solve(b, xu);
  ASSERT_TRUE(repu.converged);

  EXPECT_FALSE(repu.setup_reused);
  EXPECT_EQ(repu.wall_refresh_s, 0.0);
  EXPECT_TRUE(repu.rank_refresh_comm.empty());
  EXPECT_TRUE(repu.rank_refresh_transfers.empty());
  EXPECT_TRUE(repu.schwarz_refresh.ranks.empty());
  EXPECT_EQ(repu.iterations, repf.iterations);
  EXPECT_EQ(std::memcmp(xu.data(), xf.data(), xu.size() * sizeof(double)), 0);
  ASSERT_EQ(repu.rank_setup_comm.size(), repf.rank_setup_comm.size());
  for (size_t r = 0; r < repu.rank_setup_comm.size(); ++r) {
    EXPECT_EQ(repu.rank_setup_comm[r].msg_bytes,
              repf.rank_setup_comm[r].msg_bytes)
        << "rank " << r;
    EXPECT_EQ(repu.rank_setup_comm[r].neighbor_msgs,
              repf.rank_setup_comm[r].neighbor_msgs)
        << "rank " << r;
  }
  ASSERT_EQ(repu.rank_setup_transfers.size(),
            repf.rank_setup_transfers.size());
  for (size_t r = 0; r < repu.rank_setup_transfers.size(); ++r) {
    EXPECT_EQ(repu.rank_setup_transfers[r].total.bytes(),
              repf.rank_setup_transfers[r].total.bytes())
        << "rank " << r;
    EXPECT_EQ(repu.rank_setup_transfers[r].total.count(),
              repf.rank_setup_transfers[r].total.count())
        << "rank " << r;
  }
}

TEST(RefreshSuite, StrictMismatchNamesFirstDifferingRow) {
  auto p = test::laplace_problem(8, 2, 2, 2);
  Solver solver{SolverConfig{}};
  solver.setup(p.A, p.Z, p.owner, p.num_parts);
  index_t diff_row = -1;
  const auto A2 = drop_symmetric_pair(p.A, 0, &diff_row);
  try {
    solver.refresh(A2);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("refresh pattern mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("row " + std::to_string(diff_row)), std::string::npos)
        << msg;
  }
  // The failed refresh left the solver untouched: it still solves the
  // ORIGINAL system exactly like an unperturbed twin.
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x, xt;
  const auto rep = solver.solve(b, x);
  Solver twin{SolverConfig{}};
  twin.setup(p.A, p.Z, p.owner, p.num_parts);
  const auto rept = twin.solve(b, xt);
  EXPECT_EQ(rep.iterations, rept.iterations);
  EXPECT_EQ(std::memcmp(x.data(), xt.data(), x.size() * sizeof(double)), 0);
}

TEST(RefreshSuite, AutoModeFallsBackToFullSetupOnPatternChange) {
  auto p = test::laplace_problem(8, 2, 2, 2);
  SolverConfig cfg;
  cfg.refresh = RefreshMode::Auto;
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.owner, p.num_parts);
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  ASSERT_TRUE(solver.solve(b, x).converged);
  index_t diff_row = -1;
  const auto A2 = drop_symmetric_pair(p.A, 0, &diff_row);
  solver.refresh(A2);  // pattern changed: silently falls back to setup()
  std::vector<double> xa;
  const auto repa = solver.solve(b, xa);
  ASSERT_TRUE(repa.converged);
  EXPECT_FALSE(repa.setup_reused);  // how callers observe the fallback
  Solver cold(cfg);
  cold.setup(A2, p.Z, p.owner, p.num_parts);
  std::vector<double> xc;
  const auto repc = cold.solve(b, xc);
  EXPECT_EQ(repa.iterations, repc.iterations);
  EXPECT_EQ(std::memcmp(xa.data(), xc.data(), xa.size() * sizeof(double)), 0);
}

TEST(RefreshSuite, SessionSurvivesRefresh) {
  // An open SolveSession keeps working across refresh(): tickets solved
  // after the refresh run against the new matrix, bitwise identical to a
  // cold solver on it.
  auto p = test::algebraic_laplace(8, 4, 1);
  const index_t n = p.A.num_rows();
  SolverConfig cfg;
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.decomp);
  SolveSession session(solver);
  const auto b = random_vector(n, 7);
  const auto t0 = session.enqueue(b);
  session.flush();
  ASSERT_TRUE(session.report(t0).converged);

  const auto A2 = diag_rescaled(p.A);
  solver.refresh(A2);
  const auto t1 = session.enqueue(b);
  session.flush();
  ASSERT_TRUE(session.report(t1).converged);
  EXPECT_TRUE(session.report(t1).setup_reused);

  Solver cold(cfg);
  cold.setup(A2, p.Z, p.decomp);
  std::vector<double> xc;
  const auto repc = cold.solve(b, xc);
  EXPECT_EQ(session.report(t1).iterations, repc.iterations);
  const auto& x1 = session.solution(t1);
  ASSERT_EQ(x1.size(), xc.size());
  EXPECT_EQ(std::memcmp(x1.data(), xc.data(), x1.size() * sizeof(double)), 0);
}

TEST(RefreshSuite, ConcurrentRefreshRanks4Threads2) {
  // The TSan CI case: refresh's value-overlay exchange and numeric
  // re-factorization run with 4 virtual ranks on 2 pool threads, the
  // configuration where rank work interleaves on shared threads.  Bitwise
  // gate as everywhere else.
  SolverConfig cfg;
  cfg.ranks = 4;
  cfg.threads = 2;
  check_refresh_bitwise(test::laplace_problem(8, 2, 2, 1), cfg);
}

TEST(RefreshSuite, ChainedRefreshesMatchColdSetup) {
  // setup(A) -> refresh(A2) -> refresh(A3): the second refresh runs on the
  // Galerkin and extension structures the cold setup cached and the first
  // refresh kept, and must still solve bitwise like a cold setup on A3.
  // 4 virtual ranks on 2 pool threads, the TSan CI configuration.
  auto p = test::laplace_problem(8, 2, 2, 1);
  SolverConfig cfg;
  cfg.ranks = 4;
  cfg.threads = 2;
  const auto A2 = diag_rescaled(p.A);
  auto A3 = diag_rescaled(A2);
  for (auto& v : A3.values()) v *= 3.0;
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0);

  Solver cold(cfg);
  cold.setup(A3, p.Z, p.owner, p.num_parts);
  std::vector<double> xc;
  const auto repc = cold.solve(b, xc);
  ASSERT_TRUE(repc.converged);

  Solver warm(cfg);
  warm.setup(p.A, p.Z, p.owner, p.num_parts);
  warm.refresh(A2);
  std::vector<double> x2;
  ASSERT_TRUE(warm.solve(b, x2).converged);
  warm.refresh(A3);
  std::vector<double> x3;
  const auto rep3 = warm.solve(b, x3);
  ASSERT_TRUE(rep3.converged);
  EXPECT_TRUE(rep3.setup_reused);
  EXPECT_EQ(rep3.iterations, repc.iterations);
  ASSERT_EQ(x3.size(), xc.size());
  EXPECT_EQ(std::memcmp(x3.data(), xc.data(), x3.size() * sizeof(double)), 0);
}

TEST(RefreshSuite, RefreshMovesNoPatternOrHaloBytes) {
  // The ledger gate (also enforced by bench_sequence): a refresh re-stages
  // factor and coarse-operator values but never Matrix-pattern or
  // Halo-plan bytes, and its wire traffic undercuts the cold setup's.
  auto p = test::laplace_problem(8, 2, 2, 2);
  SolverConfig cfg;
  cfg.exec_mode = ExecMode::Device;
  cfg.ranks = 4;
  Solver solver(cfg);
  solver.setup(p.A, p.Z, p.owner, p.num_parts);
  solver.refresh(diag_rescaled(p.A));
  std::vector<double> b(static_cast<size_t>(p.A.num_rows()), 1.0), x;
  const auto rep = solver.solve(b, x);
  ASSERT_TRUE(rep.converged);
  ASSERT_TRUE(rep.setup_reused);
  ASSERT_FALSE(rep.rank_refresh_transfers.empty());
  double factor_bytes = 0.0, coarse_bytes = 0.0;
  for (size_t r = 0; r < rep.rank_refresh_transfers.size(); ++r) {
    const auto& led = rep.rank_refresh_transfers[r];
    EXPECT_EQ(led.of(device::Xfer::Matrix).bytes(), 0.0) << "rank " << r;
    EXPECT_EQ(led.of(device::Xfer::Halo).bytes(), 0.0) << "rank " << r;
    factor_bytes += led.of(device::Xfer::Factor).bytes();
    coarse_bytes += led.of(device::Xfer::CoarseOp).bytes();
  }
  EXPECT_GT(factor_bytes, 0.0);
  EXPECT_GT(coarse_bytes, 0.0);
  double setup_msg = 0.0, refresh_msg = 0.0;
  for (const auto& o : rep.rank_setup_comm) setup_msg += o.msg_bytes;
  for (const auto& o : rep.rank_refresh_comm) refresh_msg += o.msg_bytes;
  EXPECT_GT(refresh_msg, 0.0);
  EXPECT_LT(refresh_msg, setup_msg);
}

TEST(SolverConfig, ParsesRefreshKeyAndDocumentsIt) {
  EXPECT_EQ(SolverConfig{}.refresh, RefreshMode::Strict);
  check_roundtrip<RefreshMode>();
  ParameterList p;
  p.set("refresh", "auto");
  const auto c = SolverConfig::from_parameters(p);
  EXPECT_EQ(c.refresh, RefreshMode::Auto);
  bool found = false;
  for (const auto& d : SolverConfig::parameter_docs()) {
    if (d.key != "refresh") continue;
    found = true;
    EXPECT_NE(d.values.find("strict"), std::string::npos);
    EXPECT_NE(d.values.find("auto"), std::string::npos);
    EXPECT_NE(d.doc.find("fall back"), std::string::npos);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace frosch
