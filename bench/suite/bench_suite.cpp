// bench_suite -- the end-to-end solver benchmark program (README.md).
//
// One process runs one workload for a wall-clock budget and prints ONE JSON
// line of raw samples on stdout; run.py turns the samples into reported
// values, medians and quartiles.  Every cycle of a workload is the same op sequence on the same
// seeded inputs: a cold setup, solves, then numeric refreshes to seeded
// D_k A D_k matrices with solves after each.
//
//   --trace 0  TIMED: cycles drive the public frosch::Solver facade (setup,
//              solve / solve_batch, refresh) at exec=device, threads=1, so
//              one run gives host wall-clock and, from the same reports,
//              exact modeled Summit seconds.
//   --trace 1  TRACED: facade cycles alternate with cycles of the same
//              pipeline rebuilt from public layer functions, with timing
//              decorators on three seams -- the operator, the
//              preconditioner, and the coarse solver.  Span self times give
//              the per-layer host seconds; counts come from the facade's
//              reports.  The traced solves must match the facade's bitwise.
//
// Gates (each failure counts as a failed operation; any failure makes
// bench_suite exit non-zero): every solve converges and its true residual
// ||b - A x|| / ||b||, recomputed here with la::spmv, is at most 10 x tol;
// exact values repeat bitwise in every cycle; traced iterations, residual
// histories and solutions equal the facade's bitwise; spans nest.
//
// Usage:
//   bench_suite --workload NAME --seed N --seconds S --trace 0|1
//               [--trace-out trace.json]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fem/assembly.hpp"
#include "fem/mesh.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "krylov/operator.hpp"
#include "krylov/solver.hpp"
#include "la/dist.hpp"
#include "la/spmv.hpp"
#include "mlevel/hierarchy.hpp"
#include "perf/experiment.hpp"
#include "solver/solver.hpp"

using namespace frosch;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kTol = 1e-7;
constexpr double kResidualGate = 10.0 * kTol;

// ------------------------------------------------------------- workloads

/// One workload.  A cycle is: cold setup on A (D_0 A D_0 for a sequence);
/// `solves` solves on it; then
/// `steps` times, refresh to D_k A D_k followed by `step_solves` solves.  A
/// solve is one solve() when `width` is 1 and one solve_batch() of `width`
/// right-hand sides otherwise.  Why each workload exists is in README.md.
struct Workload {
  const char* name;
  bool elasticity;
  index_t elems;  ///< brick edge length in elements
  index_t parts;  ///< subdomains, one virtual rank each
  std::vector<std::pair<const char*, const char*>> keys;  ///< extra config
  int solves;
  int steps;
  int step_solves;
  int width;
  /// time_to_solution_s spans refresh + first solve of each step (a matrix
  /// sequence) instead of cold setup + first solve.
  bool sequence;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"laplace-direct", false, 22, 8, {}, 3, 1, 1, 1, false},
      {"elasticity-coarse", true, 10, 27, {{"dof-block-size", "3"}}, 3, 1, 1,
       1, false},
      {"laplace-ilu-p64", false, 26, 64,
       {{"subdomain-solver", "iluk"}, {"subdomain-trisolve", "level-set"}}, 5,
       1, 1, 1, false},
      {"elasticity-sequence", true, 11, 16, {{"dof-block-size", "3"}}, 1, 2,
       1, 4, true},
  };
  return w;
}

SolverConfig workload_config(const Workload& w) {
  ParameterList p;
  p.set("preconditioner", "schwarz")
      .set("coarse-space", "rgdsw")
      .set("krylov", "gmres")
      .set("ortho", "single-reduce")
      .set("restart", index_t{30})
      .set("tol", kTol)
      .set("num-parts", w.parts)
      .set("ranks", index_t{0})
      .set("exec", "device")
      .set("threads", index_t{1});
  for (const auto& [k, v] : w.keys) p.set(k, v);
  return SolverConfig::from_parameters(p);
}

/// splitmix64: a portable seeded stream (std distributions are
/// implementation-defined, and the inputs must not depend on the library).
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Everything one cycle consumes, generated once from the seed.
struct Inputs {
  la::CsrMatrix<double> A;  ///< the setup matrix: A, or D_0 A D_0 (sequence)
  la::DenseMatrix<double> Z;
  std::vector<la::CsrMatrix<double>> steps;  ///< D_k A D_k, k = 1..steps
  std::vector<std::vector<std::vector<double>>> rhs;  ///< per solve, columns
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  const index_t e = w.elems;
  fem::BrickMesh mesh(e, e, e, double(e), double(e), double(e));
  la::CsrMatrix<double> A;
  if (w.elasticity) {
    auto sys = fem::apply_dirichlet(fem::assemble_elasticity(mesh),
                                    fem::clamped_x0_dofs(mesh));
    in.Z = fem::restrict_nullspace(fem::elasticity_nullspace(mesh), sys.keep);
    A = std::move(sys.A);
  } else {
    auto sys =
        fem::apply_dirichlet(fem::assemble_laplace(mesh), mesh.x0_face_nodes());
    in.Z = fem::restrict_nullspace(fem::laplace_nullspace(mesh), sys.keep);
    A = std::move(sys.A);
  }
  const size_t n = static_cast<size_t>(A.num_rows());
  Rng rng{seed * 0x100000001b3ULL + 0x51ed27};
  // Symmetric diagonal rescale D A D: same pattern, every value changed, SPD
  // kept.  It moves the near-null space away from Z, which costs
  // iterations, so a sequence starts from a rescaled matrix too and all its
  // batches solve alike matrices.
  auto rescaled = [&] {
    std::vector<double> d(n);
    for (auto& v : d) v = 1.0 + 0.25 * rng.uniform();
    auto B = A;
    for (index_t i = 0; i < B.num_rows(); ++i)
      for (index_t q = B.row_begin(i); q < B.row_end(i); ++q)
        B.val(q) = A.val(q) * d[static_cast<size_t>(i)] *
                   d[static_cast<size_t>(B.col(q))];
    return B;
  };
  in.A = w.sequence ? rescaled() : A;
  for (int k = 0; k < w.steps; ++k) in.steps.push_back(rescaled());
  const int total = w.solves + w.steps * w.step_solves;
  for (int s = 0; s < total; ++s) {
    std::vector<std::vector<double>> cols(static_cast<size_t>(w.width),
                                          std::vector<double>(n));
    for (auto& c : cols)
      for (auto& v : c) v = 2.0 * rng.uniform() - 1.0;
    in.rhs.push_back(std::move(cols));
  }
  return in;
}

// --------------------------------------------------------------- samples

/// Raw samples per metric, in the order they were taken.
struct Metric {
  std::string unit;
  bool exact = false;  ///< deterministic: compared exactly, not by a band
  std::vector<double> samples;
};

class Samples {
 public:
  void add(const std::string& name, const char* unit, bool exact, double v) {
    Metric& m = m_[name];
    m.unit = unit;
    m.exact = exact;
    m.samples.push_back(v);
  }
  const std::map<std::string, Metric>& all() const { return m_; }

 private:
  std::map<std::string, Metric> m_;
};

/// Operation and gate accounting.  Every failure is named on stderr.
struct Gates {
  count_t attempted = 0;
  count_t failed = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
  }
};

// ---------------------------------------------------------------- tracing

struct Span {
  const char* name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;
  /// Inclusive operation profile of the work under the span, for the
  /// modeled side of the host-vs-model share table.
  OpProfile prof;
};

/// In-memory span recorder: spans of one thread, appended in begin order,
/// so every subtree is a contiguous index range starting at its root.
class Tracer {
 public:
  int begin(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        {name, now(), 0.0, stack_.empty() ? -1 : stack_.back(), OpProfile{}});
    stack_.push_back(id);
    return id;
  }
  void end(int id) {
    spans_[static_cast<size_t>(id)].end = now();
    stack_.pop_back();
  }
  void charge(int id, const OpProfile& p) {
    spans_[static_cast<size_t>(id)].prof += p;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const { return seconds_since(t0_); }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanGuard {
 public:
  SpanGuard(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~SpanGuard() { t_.end(id_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  void charge(const OpProfile& p) { t_.charge(id_, p); }

 private:
  Tracer& t_;
  int id_;
};

/// Runs f under a span charged with the profile delta f recorded into
/// `prof`.  Reads the caller's profile before and after instead of
/// substituting one, so the accumulation order -- and with it every
/// downstream bit -- is the undecorated one.
template <class F>
void traced(Tracer& tr, const char* span, OpProfile* prof, F&& f) {
  SpanGuard g(tr, span);
  const OpProfile before = prof ? *prof : OpProfile{};
  f();
  if (prof) {
    OpProfile d = *prof;
    d -= before;
    g.charge(d);
  }
}

/// Timing decorator of a LinearOperator seam (the operator or the
/// preconditioner).  Forwards apply_columns, under its own span name, so
/// the fused block path and its communication counts are unchanged.
class TimedOp final : public krylov::LinearOperator<double> {
 public:
  TimedOp(const krylov::LinearOperator<double>& inner, Tracer& tr,
          const char* span, const char* block_span)
      : inner_(inner), tr_(tr), span_(span), block_span_(block_span) {}
  index_t rows() const override { return inner_.rows(); }
  index_t cols() const override { return inner_.cols(); }
  /// Invocations so far; one block application counts once.
  count_t calls() const { return calls_; }

 protected:
  void apply_impl(const std::vector<double>& x, std::vector<double>& y,
                  OpProfile* prof) const override {
    ++calls_;
    traced(tr_, span_, prof, [&] { inner_.apply(x, y, prof); });
  }
  void apply_columns_impl(const std::vector<const std::vector<double>*>& X,
                          const std::vector<std::vector<double>*>& Y,
                          OpProfile* prof) const override {
    ++calls_;
    traced(tr_, block_span_, prof,
           [&] { inner_.apply_columns(X, Y, prof); });
  }

 private:
  const krylov::LinearOperator<double>& inner_;
  Tracer& tr_;
  const char* span_;
  const char* block_span_;
  mutable count_t calls_ = 0;
};

/// Timing decorator of the coarse-solver seam.
class TimedCoarse final : public dd::CoarseLevelSolver<double> {
 public:
  TimedCoarse(std::unique_ptr<dd::CoarseLevelSolver<double>> inner,
              Tracer& tr)
      : inner_(std::move(inner)), tr_(tr) {}
  count_t solve_calls() const { return solve_calls_; }

  void numeric_setup(const la::CsrMatrix<double>& A0, comm::Communicator& c,
                     OpProfile* prof) override {
    traced(tr_, "mlevel.coarse_setup", prof,
           [&] { inner_->numeric_setup(A0, c, prof); });
  }
  void numeric_refresh(const la::CsrMatrix<double>& A0, comm::Communicator& c,
                       OpProfile* prof) override {
    traced(tr_, "mlevel.coarse_refresh", prof,
           [&] { inner_->numeric_refresh(A0, c, prof); });
  }
  void solve(const std::vector<double>& r0, std::vector<double>& z0,
             OpProfile* prof) const override {
    ++solve_calls_;
    traced(tr_, "mlevel.coarse_solve", prof,
           [&] { inner_->solve(r0, z0, prof); });
  }
  std::vector<dd::CoarseLevelReport> level_reports() const override {
    return inner_->level_reports();
  }

 private:
  std::unique_ptr<dd::CoarseLevelSolver<double>> inner_;
  Tracer& tr_;
  mutable count_t solve_calls_ = 0;
};

// -------------------------------------------------------------- pipelines

/// One column of one solve: what the bitwise comparisons look at.
struct Column {
  bool converged = false;
  index_t iterations = 0;
  double final_residual = 0.0;
  std::vector<double> history;
  std::vector<double> x;
};

/// The op sequence of a cycle, run either by the facade or by the traced
/// rebuild.  reset() (untimed) drops the previous cycle's state so every
/// setup() is cold.
class Pipeline {
 public:
  virtual ~Pipeline() = default;
  virtual void reset() = 0;
  virtual void setup(const la::CsrMatrix<double>& A,
                     const la::DenseMatrix<double>& Z) = 0;
  virtual void refresh(const la::CsrMatrix<double>& A) = 0;
  virtual std::vector<Column> solve(
      const std::vector<std::vector<double>>& B) = 0;
};

enum class After { Cold, Refresh, Solve };

/// THE adapter: the only code that reads SolveReport fields.  `reps` are
/// the per-column reports of one solve; `after` says what preceded it,
/// which decides the fields that are meaningful: setup-phase fields after
/// a cold setup (refreshed reports accumulate numeric work on top of the
/// cold one), refresh-phase fields after a refresh.  Modeled solve seconds
/// are taken on the first solve after a cold setup only, because the
/// coarse-level solve shares in SolveReport::schwarz.coarse_levels
/// accumulate across solves since setup.
void read_reports(const std::vector<SolveReport>& reps, After after,
                  const perf::SummitModel& model, Samples& out,
                  std::vector<Column>& cols) {
  cols.resize(reps.size());
  index_t iters = 0;
  for (size_t c = 0; c < reps.size(); ++c) {
    cols[c].converged = reps[c].converged;
    cols[c].iterations = reps[c].iterations;
    cols[c].final_residual = reps[c].final_residual;
    cols[c].history = reps[c].residual_history;
    iters = std::max(iters, reps[c].iterations);
  }
  const SolveReport& r = reps.front();  // profile fields cover the batch
  auto add = [&](const char* name, const char* unit, double v) {
    out.add(name, unit, true, v);
  };
  auto sum = [](const std::vector<OpProfile>& ps, double OpProfile::*f) {
    double s = 0.0;
    for (const auto& p : ps) s += p.*f;
    return s;
  };
  auto moved = [](const std::vector<device::TransferLedger>& ls,
                  double device::TransferStats::*f) {
    double s = 0.0;
    for (const auto& l : ls) s += l.total.*f;
    return s;
  };
  constexpr auto h2d = &device::TransferStats::h2d_bytes;
  auto breakdown = [&](const char* key) {
    const auto it = r.schwarz.numeric_breakdown.find(key);
    return it == r.schwarz.numeric_breakdown.end() ? 0.0 : it->second.flops;
  };

  add("iterations", "count", iters);
  {
    double flops = 0.0, bytes = 0.0;
    for (const auto& rp : r.schwarz.ranks) {
      flops += rp.solve.flops;
      bytes += rp.solve.bytes;
    }
    add("dd.apply_calls", "count", static_cast<double>(r.schwarz.apply_count));
    add("dd.apply_flops", "flop", flops);
    add("dd.apply_bytes", "B", bytes);
  }
  add("mlevel.coarse_solve_flops", "flop", r.schwarz.coarse.solve.flops);
  add("mlevel.coarse_comm_bytes", "B", r.schwarz.coarse_comm_bytes);
  add("krylov.flops", "flop", r.krylov.flops);
  add("krylov.bytes", "B", r.krylov.bytes);
  {
    count_t reds = 0, msgs = 0, windows = 0;
    for (const auto& p : r.rank_krylov) {
      reds = std::max(reds, p.reductions);
      msgs += p.neighbor_msgs;
      windows += p.overlap_windows;
    }
    add("comm.reductions", "count", static_cast<double>(reds));
    add("comm.neighbor_msgs", "count", static_cast<double>(msgs));
    add("comm.msg_bytes", "B", sum(r.rank_krylov, &OpProfile::msg_bytes));
    add("comm.overlap_windows", "count", static_cast<double>(windows));
  }
  add("solver.solve_imbalance", "ratio", r.solve_imbalance);
  add("device.solve_h2d_bytes", "B", moved(r.rank_transfers, h2d));
  add("device.solve_d2h_bytes", "B",
      moved(r.rank_transfers, &device::TransferStats::d2h_bytes));

  if (after == After::Cold) {
    perf::ExperimentResult er;
    er.ranks = r.ranks;
    er.converged = r.converged;
    er.iterations = r.iterations;
    er.coarse_dim = r.coarse_dim;
    er.schwarz = r.schwarz;
    er.krylov = r.krylov;
    er.rank_krylov = r.rank_krylov;
    er.rank_setup_comm = r.rank_setup_comm;
    er.setup_transfers = r.rank_setup_transfers;
    er.solve_transfers = r.rank_transfers;
    er.solve_imbalance = r.solve_imbalance;
    const auto gpu = perf::model_times(er, model, perf::Execution::Gpu, 4);
    const auto cpu =
        perf::model_times(er, model, perf::Execution::CpuCores, 4);
    add("model_gpu_setup_s", "model_s", gpu.setup);
    add("model_gpu_solve_s", "model_s", gpu.solve);
    add("model_cpu_setup_s", "model_s", cpu.setup);
    add("model_cpu_solve_s", "model_s", cpu.solve);
    add("dd.local_factor_flops", "flop",
        sum(r.schwarz.rank_factor, &OpProfile::flops));
    add("dd.local_factor_bytes", "B",
        sum(r.schwarz.rank_factor, &OpProfile::bytes));
    add("dd.sptrsv_setup_bytes", "B",
        sum(r.schwarz.rank_trisolve_setup, &OpProfile::bytes));
    add("dd.extension_flops", "flop",
        sum(r.schwarz.rank_extension, &OpProfile::flops));
    add("dd.rap_flops", "flop", breakdown("coarse-rap-spgemm"));
    add("mlevel.coarse_dim", "count", static_cast<double>(r.coarse_dim));
    add("mlevel.coarse_factor_flops", "flop",
        breakdown("coarse-factorization"));
    add("comm.setup_msg_bytes", "B",
        sum(r.rank_setup_comm, &OpProfile::msg_bytes));
    add("device.setup_h2d_bytes", "B", moved(r.rank_setup_transfers, h2d));
  } else if (after == After::Refresh) {
    add("comm.refresh_msg_bytes", "B",
        sum(r.rank_refresh_comm, &OpProfile::msg_bytes));
    add("device.refresh_h2d_bytes", "B",
        moved(r.rank_refresh_transfers, h2d));
  }
}

/// The public facade, exactly as a user drives it.
class FacadePipeline final : public Pipeline {
 public:
  FacadePipeline(const SolverConfig& cfg, const perf::SummitModel& model,
                 Samples& facts)
      : cfg_(cfg), model_(model), facts_(facts) {}

  /// Exact values of the current cycle in the order they were produced
  /// (the repetition gate compares cycles with it).
  const std::vector<double>& fingerprint() const { return fingerprint_; }

  void reset() override {
    solver_.reset();
    solver_ = std::make_unique<Solver>(cfg_);
    fingerprint_.clear();
  }
  void setup(const la::CsrMatrix<double>& A,
             const la::DenseMatrix<double>& Z) override {
    solver_->setup(A, Z);
    after_ = After::Cold;
  }
  void refresh(const la::CsrMatrix<double>& A) override {
    solver_->refresh(A);
    after_ = After::Refresh;
  }
  std::vector<Column> solve(
      const std::vector<std::vector<double>>& B) override {
    std::vector<std::vector<double>> X;
    std::vector<SolveReport> reps;
    if (B.size() == 1) {
      X.resize(1);
      reps.push_back(solver_->solve(B[0], X[0]));
    } else {
      reps = solver_->solve_batch(B, X);
    }
    Samples mine;
    std::vector<Column> cols;
    read_reports(reps, after_, model_, mine, cols);
    after_ = After::Solve;
    for (const auto& [name, m] : mine.all()) {
      facts_.add(name, m.unit.c_str(), true, m.samples.front());
      fingerprint_.push_back(m.samples.front());
    }
    for (size_t c = 0; c < cols.size(); ++c) {
      cols[c].x = std::move(X[c]);
      fingerprint_.push_back(cols[c].final_residual);
    }
    return cols;
  }

 private:
  SolverConfig cfg_;
  const perf::SummitModel& model_;
  Samples& facts_;
  std::unique_ptr<Solver> solver_;
  After after_ = After::Cold;
  std::vector<double> fingerprint_;
};

/// The facade's pipeline rebuilt from public layer functions, in the
/// facade's order (Solver::setup(A, Z), setup_phases, solve, solve_batch,
/// refresh), with spans around each layer call and timing decorators on
/// the operator, the preconditioner, and the coarse solver.
class TracedPipeline final : public Pipeline {
 public:
  TracedPipeline(const SolverConfig& cfg, Tracer& tr, Samples& counts)
      : base_(cfg), tr_(tr), counts_(counts) {}

  void reset() override {
    krylov_.reset();
    prec_.reset();
    coarse_ = nullptr;
    dist_A_ = la::DistCsrMatrix<double>{};
    plan_.reset();
    comm_.reset();
    arena_.reset();
  }

  void setup(const la::CsrMatrix<double>& A,
             const la::DenseMatrix<double>& Z) override {
    SpanGuard root(tr_, "setup");
    A_ = A;
    Z_ = Z;
    cfg_ = base_;
    IndexVector owner;
    {
      SpanGuard s(tr_, "graph.partition");
      OpProfile p;
      owner = graph::recursive_bisection(graph::build_graph(A_, &p),
                                         cfg_.num_parts, &p);
      s.charge(p);
    }
    {
      SpanGuard s(tr_, "dd.decomposition");
      OpProfile p;
      decomp_ = dd::build_decomposition(A_, owner, cfg_.num_parts,
                                        cfg_.schwarz.overlap, &p);
      s.charge(p);
    }
    {
      SpanGuard s(tr_, "la.dist_build");
      OpProfile p;
      const int R = static_cast<int>(
          cfg_.ranks > 0 ? cfg_.ranks
                         : std::max<index_t>(1, decomp_.num_parts));
      cfg_.propagate_exec();
      arena_ = std::make_unique<device::DeviceArena>(R);
      cfg_.attach_arena(arena_.get());
      const exec::ExecPolicy policy = cfg_.krylov.exec;
      if (R == 1)
        comm_ = std::make_unique<comm::SelfComm>(policy);
      else
        comm_ = std::make_unique<comm::SimComm>(R, policy);
      IndexVector rank_of(decomp_.owner.size());
      for (size_t i = 0; i < decomp_.owner.size(); ++i)
        rank_of[i] = comm_->block_owner(decomp_.num_parts, decomp_.owner[i]);
      plan_ = std::make_unique<la::HaloPlan>(
          la::build_halo_plan(A_, rank_of, R, &p));
      dist_A_.build(A_, *plan_, policy, &p);
      for (int r = 0; r < R; ++r) {
        const auto& Al = dist_A_.local[static_cast<size_t>(r)];
        if (Al.num_entries() > 0)
          arena_->to_device(r, Al.values().data(), Al.storage_bytes(),
                            device::Xfer::Matrix);
      }
      s.charge(p);
    }
    cfg_.schwarz.comm = comm_.get();
    cfg_.krylov.dist = la::DistContext{comm_.get(), plan_.get()};
    krylov_ = krylov::make_krylov<double>(cfg_.krylov);
    prec_ = std::make_unique<dd::SchwarzPreconditioner<double>>(cfg_.schwarz,
                                                                decomp_);
    auto coarse = std::make_unique<TimedCoarse>(
        std::make_unique<mlevel::CoarseHierarchy<double>>(cfg_.schwarz,
                                                          decomp_.num_parts),
        tr_);
    coarse_ = coarse.get();
    prec_->set_coarse_solver(std::move(coarse));
    {
      SpanGuard s(tr_, "dd.symbolic");
      prec_->symbolic_setup(A_);
      for (const auto& rp : prec_->profiles().ranks) s.charge(rp.symbolic);
    }
    {
      SpanGuard s(tr_, "dd.numeric");
      prec_->numeric_setup(A_, Z_);
      s.charge(numeric_total());
    }
  }

  void refresh(const la::CsrMatrix<double>& A) override {
    SpanGuard root(tr_, "refresh");
    FROSCH_CHECK(A.rowptr() == A_.rowptr() && A.colind() == A_.colind(),
                 "traced refresh: pattern mismatch");
    std::copy(A.values().begin(), A.values().end(), A_.values().begin());
    {
      SpanGuard s(tr_, "la.refresh_values");
      std::vector<double> changed;
      dist_A_.refresh_values(A_, cfg_.krylov.exec, &changed);
      for (size_t r = 0; r < changed.size(); ++r)
        if (changed[r] > 0.0)
          arena_->transfer(static_cast<int>(r), device::Dir::H2D, changed[r],
                           device::Xfer::Factor);
    }
    {
      SpanGuard s(tr_, "dd.refresh");
      const OpProfile before = numeric_total();
      if (!prec_->numeric_refresh(A_, Z_)) prec_->numeric_setup(A_, Z_);
      OpProfile d = numeric_total();
      d -= before;
      s.charge(d);
    }
  }

  std::vector<Column> solve(
      const std::vector<std::vector<double>>& B) override {
    std::vector<std::vector<double>> X;
    krylov::BlockSolveResult res;
    count_t op_calls = 0;
    const count_t coarse_before = coarse_->solve_calls();
    {
      const bool block = B.size() > 1;
      SpanGuard root(tr_, block ? "krylov.solve_block" : "krylov.solve");
      krylov::DistCsrOperator<double> op(dist_A_, *comm_, cfg_.krylov.exec,
                                         cfg_.overlap_comm);
      TimedOp top(op, tr_, "la.spmv", "la.spmv_block");
      TimedOp tprec(*prec_, tr_, "dd.apply", "dd.apply_block");
      const double w = static_cast<double>(B.size());
      stage(2.0 * w, device::Dir::H2D);
      if (block) {
        res = krylov_->solve_block(top, &tprec, B, X);
      } else {
        X.resize(1);
        res.columns.push_back(krylov_->solve(top, &tprec, B[0], X[0]));
        res.profile = res.columns.front().profile;
      }
      stage(w, device::Dir::D2H);
      op_calls = top.calls();
      root.charge(res.profile);
    }
    counts_.add("la.spmv_calls", "count", true, static_cast<double>(op_calls));
    counts_.add("mlevel.coarse_solve_calls", "count", true,
                static_cast<double>(coarse_->solve_calls() - coarse_before));
    std::vector<Column> cols(res.columns.size());
    for (size_t c = 0; c < cols.size(); ++c) {
      const auto& sr = res.columns[c];
      cols[c] = {sr.converged, sr.iterations, sr.final_residual,
                 sr.residual_history, std::move(X[c])};
    }
    return cols;
  }

 private:
  /// The facade's per-solve device staging of owned rhs/solution shares.
  void stage(double num_vectors, device::Dir dir) {
    for (int r = 0; r < comm_->size(); ++r) {
      const double owned =
          static_cast<double>(plan_->owned_count(r)) * sizeof(double);
      if (owned == 0.0) continue;
      arena_->transfer(r, dir, owned * num_vectors, device::Xfer::Rhs);
    }
    arena_->sync_all();
  }

  OpProfile numeric_total() const {
    OpProfile t;
    for (const auto& rp : prec_->profiles().ranks) t += rp.numeric;
    t += prec_->profiles().coarse.numeric;
    return t;
  }

  const SolverConfig base_;
  Tracer& tr_;
  Samples& counts_;

  SolverConfig cfg_;
  la::CsrMatrix<double> A_;
  la::DenseMatrix<double> Z_;
  dd::Decomposition decomp_;
  // Declared in dependency order: destruction runs preconditioner and
  // Krylov first, the communicator and arena they point into last.
  std::unique_ptr<device::DeviceArena> arena_;
  std::unique_ptr<comm::Communicator> comm_;
  std::unique_ptr<la::HaloPlan> plan_;
  la::DistCsrMatrix<double> dist_A_;
  std::unique_ptr<dd::SchwarzPreconditioner<double>> prec_;
  TimedCoarse* coarse_ = nullptr;  ///< owned by prec_
  std::unique_ptr<krylov::KrylovSolver<double>> krylov_;
};

// ------------------------------------------------------------------ cycles

double true_residual(const la::CsrMatrix<double>& A,
                     const std::vector<double>& b,
                     const std::vector<double>& x) {
  if (x.size() != b.size()) return INFINITY;
  std::vector<double> ax(b.size());
  la::spmv(A, x, ax);
  double rr = 0.0, bb = 0.0;
  for (size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - ax[i]) * (b[i] - ax[i]);
    bb += b[i] * b[i];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

/// Runs one cycle on `p`: wall samples into `wall`, every solve's columns
/// (in order) into `solves`.  An exception aborts the cycle and counts as
/// the failure of the op that threw.  Returns the cycle's wall seconds.
double run_cycle(const Workload& w, const Inputs& in, Pipeline& p,
                 Samples& wall, Gates& gates,
                 std::vector<std::vector<Column>>& solves) {
  p.reset();
  const auto t0 = Clock::now();
  const char* op = "setup";
  try {
    p.setup(in.A, in.Z);
    const double t_setup = seconds_since(t0);
    wall.add("setup_s", "s", false, t_setup);
    gates.check(true, "setup");
    size_t next = 0;
    for (int step = 0; step <= w.steps; ++step) {
      const la::CsrMatrix<double>& Ak =
          step == 0 ? in.A : in.steps[static_cast<size_t>(step - 1)];
      const auto t_step = Clock::now();
      if (step > 0) {
        op = "refresh";
        p.refresh(Ak);
        const double t = seconds_since(t_step);
        wall.add("refresh_s", "s", false, t);
        gates.check(true, "refresh");
      }
      const int n = step == 0 ? w.solves : w.step_solves;
      for (int j = 0; j < n; ++j, ++next) {
        op = "solve";
        const auto& B = in.rhs[next];
        const auto ts = Clock::now();
        auto cols = p.solve(B);
        const double t = seconds_since(ts);
        wall.add("solve_s", "s", false, t);
        if (j == 0 && step == 0 && !w.sequence)
          wall.add("time_to_solution_s", "s", false, seconds_since(t0));
        if (j == 0 && step > 0 && w.sequence)
          wall.add("time_to_solution_s", "s", false, seconds_since(t_step));
        bool ok = cols.size() == B.size();
        for (size_t c = 0; ok && c < cols.size(); ++c) {
          const double rel = true_residual(Ak, B[c], cols[c].x);
          if (!cols[c].converged || !(rel <= kResidualGate)) {
            std::fprintf(stderr,
                         "%s step %d solve %d column %zu: converged=%d true "
                         "residual %.3e (gate %.1e)\n",
                         w.name, step, j, c, int(cols[c].converged), rel,
                         kResidualGate);
            ok = false;
          }
        }
        gates.check(ok, std::string(w.name) + " solve converges to tol");
        solves.push_back(std::move(cols));
      }
    }
  } catch (const std::exception& e) {
    gates.check(false, std::string(w.name) + " " + op + " threw: " + e.what());
  }
  return seconds_since(t0);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_columns(const std::vector<std::vector<Column>>& a,
                  const std::vector<std::vector<Column>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t s = 0; s < a.size(); ++s) {
    if (a[s].size() != b[s].size()) return false;
    for (size_t c = 0; c < a[s].size(); ++c) {
      const Column& x = a[s][c];
      const Column& y = b[s][c];
      if (x.iterations != y.iterations || !same_bits(x.history, y.history) ||
          !same_bits(x.x, y.x))
        return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ trace output

/// Self time of each span: its duration minus its children's.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end - spans[i].start;
  for (const auto& s : spans)
    if (s.parent >= 0)
      self[static_cast<size_t>(s.parent)] -= s.end - s.start;
  return self;
}

/// Structural check: children lie inside their parent, siblings do not
/// overlap, and each root's subtree self times sum to the root's duration.
bool check_spans(const std::vector<Span>& spans) {
  const double eps = 1e-9;
  const auto self = self_times(spans);
  std::vector<double> last_end(spans.size(), -INFINITY);
  double root_end = -INFINITY;
  bool ok = true;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    ok = ok && s.end >= s.start && self[i] >= -eps;
    if (s.parent < 0) {
      ok = ok && s.start >= root_end;
      root_end = s.end;
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    double& prev = last_end[static_cast<size_t>(s.parent)];
    ok = ok && s.start >= p.start && s.end <= p.end && s.start >= prev;
    prev = s.end;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    size_t j = i + 1;
    double sum = self[i];
    for (; j < spans.size() && spans[j].parent >= 0; ++j) sum += self[j];
    ok = ok && std::fabs(sum - (spans[i].end - spans[i].start)) <= 1e-6;
  }
  return ok;
}

void write_chrome_trace(const std::vector<Span>& spans, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write trace file %s\n", path);
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i ? "," : "", s.name, 1e6 * s.start, 1e6 * (s.end - s.start),
                 i, s.parent);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

/// Per-layer host seconds: the self time of `span` summed over the subtree
/// of each root named `root`, one sample per root.  Several spans may feed
/// one metric.
struct SpanMetric {
  const char* root;
  const char* span;
  const char* metric;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"setup", "graph.partition", "graph.partition_s"},
    {"setup", "dd.decomposition", "dd.decomposition_s"},
    {"setup", "la.dist_build", "la.dist_build_s"},
    {"setup", "dd.symbolic", "dd.symbolic_s"},
    {"setup", "dd.numeric", "dd.numeric_self_s"},
    {"setup", "mlevel.coarse_setup", "mlevel.coarse_setup_s"},
    {"krylov.solve", "krylov.solve", "krylov.self_s"},
    {"krylov.solve", "la.spmv", "la.spmv_s"},
    {"krylov.solve", "dd.apply", "dd.apply_self_s"},
    {"krylov.solve", "mlevel.coarse_solve", "mlevel.coarse_solve_s"},
    {"krylov.solve_block", "krylov.solve_block", "krylov.block_self_s"},
    {"krylov.solve_block", "la.spmv_block", "la.spmv_block_s"},
    {"krylov.solve_block", "dd.apply_block", "dd.apply_block_s"},
    {"krylov.solve_block", "mlevel.coarse_solve", "mlevel.coarse_solve_s"},
    {"refresh", "la.refresh_values", "la.refresh_values_s"},
    {"refresh", "dd.refresh", "dd.refresh_self_s"},
    {"refresh", "mlevel.coarse_refresh", "mlevel.coarse_refresh_s"},
};

/// Adds the kSpanMetrics samples of every root span to `out`.  A metric
/// whose root never ran (the block path on a single-vector workload) reads
/// 0, so every workload reports the same names.
void add_span_metrics(const std::vector<Span>& spans, Samples& out) {
  const auto self = self_times(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    std::map<std::string, double> by_name;
    for (size_t j = i; j < spans.size() && (j == i || spans[j].parent >= 0);
         ++j)
      by_name[spans[j].name] += self[j];
    std::map<std::string, double> root_metrics;
    for (const auto& m : kSpanMetrics)
      if (std::strcmp(spans[i].name, m.root) == 0)
        root_metrics[m.metric] += by_name[m.span];
    for (const auto& [name, v] : root_metrics) out.add(name, "s", false, v);
    if (std::strcmp(spans[i].name, "setup") == 0)
      out.add("trace.unattributed_setup_frac", "ratio", false,
              self[i] / (spans[i].end - spans[i].start));
  }
  for (const auto& m : kSpanMetrics)
    if (!out.all().count(m.metric)) out.add(m.metric, "s", false, 0.0);
}

struct ShareRow {
  std::string layer;
  double host_s = 0.0;
  double model_s = 0.0;
};

/// Host share vs modeled CpuCoreModel share of every traced layer, summed
/// over the run.  A span's self profile is its inclusive profile minus its
/// children's, like its self time.  The self time of the setup and refresh
/// roots (work outside every layer span) is the "unattributed" row.
std::vector<ShareRow> layer_shares(const std::vector<Span>& spans,
                                   const perf::CpuCoreModel& cpu) {
  const auto self = self_times(spans);
  std::vector<OpProfile> own(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) own[i] += spans[i].prof;
  for (const auto& s : spans)
    if (s.parent >= 0) own[static_cast<size_t>(s.parent)] -= s.prof;

  std::vector<std::string> order;
  std::map<std::string, std::pair<double, OpProfile>> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    const bool glue = spans[i].parent < 0 &&
                      std::strncmp(spans[i].name, "krylov.", 7) != 0;
    const std::string layer = glue ? "unattributed" : spans[i].name;
    auto [it, fresh] = by_layer.try_emplace(layer);
    if (fresh) order.push_back(layer);
    it->second.first += self[i];
    it->second.second += own[i];
  }
  std::vector<ShareRow> rows;
  for (const auto& l : order) {
    const auto& [host, prof] = by_layer[l];
    rows.push_back({l, host, cpu.time(prof)});
  }
  std::stable_partition(rows.begin(), rows.end(), [](const ShareRow& r) {
    return r.layer != "unattributed";
  });
  return rows;
}

void print_shares(const std::vector<ShareRow>& rows) {
  double host = 0.0, model = 0.0;
  for (const auto& r : rows) {
    host += r.host_s;
    model += r.model_s;
  }
  std::fprintf(stderr,
               "\nlayer shares (host wall vs modeled CpuCoreModel, "
               "threads=1)\n%-22s %10s %7s %12s %7s\n",
               "layer", "host s", "host%", "model s", "model%");
  for (const auto& r : rows) {
    const double hs = host > 0.0 ? 100.0 * r.host_s / host : 0.0;
    const double ms = model > 0.0 ? 100.0 * r.model_s / model : 0.0;
    std::fprintf(stderr, "%-22s %10.4f %6.1f%% %12.3e %6.1f%%\n",
                 r.layer.c_str(), r.host_s, hs, r.model_s, ms);
  }
  for (const auto& r : rows) {
    if (r.layer == "unattributed") continue;
    const double hs = host > 0.0 ? r.host_s / host : 0.0;
    const double ms = model > 0.0 ? r.model_s / model : 0.0;
    // A finding, not a gate: the model or the host disagrees by more than
    // 2x on a layer that matters (>= 5% of either clock).
    if (std::max(hs, ms) >= 0.05 &&
        (hs > 2.0 * ms || ms > 2.0 * hs))
      std::fprintf(stderr,
                   "FINDING: %s is %.1f%% of host time but %.1f%% of "
                   "modeled time\n",
                   r.layer.c_str(), 100.0 * hs, 100.0 * ms);
  }
}

// ------------------------------------------------------------------- output

void print_json(const Workload& w, std::uint64_t seed, int trace,
                const Gates& g, const Samples& s,
                const std::vector<ShareRow>& shares) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
              "\"attempted\":%lld,\"failed\":%lld,\"metrics\":{",
              w.name, static_cast<unsigned long long>(seed), trace,
              static_cast<long long>(g.attempted),
              static_cast<long long>(g.failed));
  bool first = true;
  for (const auto& [name, m] : s.all()) {
    std::printf("%s\"%s\":{\"unit\":\"%s\",\"exact\":%s,\"samples\":[",
                first ? "" : ",", name.c_str(), m.unit.c_str(),
                m.exact ? "true" : "false");
    for (size_t i = 0; i < m.samples.size(); ++i)
      std::printf("%s%.17g", i ? "," : "", m.samples[i]);
    std::printf("]}");
    first = false;
  }
  std::printf("},\"layers\":[");
  for (size_t i = 0; i < shares.size(); ++i)
    std::printf("%s{\"layer\":\"%s\",\"host_s\":%.17g,\"model_s\":%.17g}",
                i ? "," : "", shares[i].layer.c_str(), shares[i].host_s,
                shares[i].model_s);
  std::printf("]}\n");
}

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "bench_suite: %s\nusage: bench_suite --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\nworkloads:",
               msg);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, trace_out;
  long long seed = -1;
  double budget = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") name = v;
    else if (a == "--seed") seed = std::atoll(v);
    else if (a == "--seconds") budget = std::atof(v);
    else if (a == "--trace") trace = std::atoi(v);
    else if (a == "--trace-out") trace_out = v;
    else return usage(("unknown flag " + a).c_str());
  }
  const Workload* w = nullptr;
  for (const auto& c : workloads())
    if (name == c.name) w = &c;
  if (!w) return usage(("unknown workload '" + name + "'").c_str());
  if (seed < 0 || budget <= 0.0 || (trace != 0 && trace != 1))
    return usage("--seed >= 0, --seconds > 0 and --trace 0|1 are required");

  const perf::SummitModel model(perf::miniature_summit());
  const SolverConfig cfg = workload_config(*w);
  const Inputs in = make_inputs(*w, static_cast<std::uint64_t>(seed));

  Gates gates;
  // `wall`: op wall-clock samples of the facade cycles.  `facts`: exact
  // values from the facade's reports, the traced counters, and (traced
  // runs) the span-derived per-layer seconds.
  Samples wall, facts;
  FacadePipeline facade(cfg, model, facts);
  std::vector<double> first_fingerprint;
  auto facade_cycle = [&](std::vector<std::vector<Column>>& solves) {
    const double t = run_cycle(*w, in, facade, wall, gates, solves);
    if (first_fingerprint.empty())
      first_fingerprint = facade.fingerprint();
    else
      gates.check(same_bits(facade.fingerprint(), first_fingerprint),
                  std::string(w->name) +
                      " exact values repeat bitwise across cycles");
    return t;
  };

  // A new cycle starts only if the previous one's duration still fits the
  // budget, so a run takes about --seconds whatever the cycle length.
  const auto t0 = Clock::now();
  std::vector<ShareRow> shares;
  if (trace == 0) {
    double last = 0.0;
    do {
      std::vector<std::vector<Column>> solves;
      last = facade_cycle(solves);
    } while (gates.failed == 0 && seconds_since(t0) + last <= budget);
    wall.add("peak_rss_mb", "MB", false, peak_rss_mb());
  } else {
    Tracer tr;
    // Op walls of the traced cycles: only setup_s is read, for
    // trace.setup_overhead_frac; the span self times below give the rest.
    Samples traced_wall;
    TracedPipeline traced(cfg, tr, facts);
    double last = 0.0;
    do {
      std::vector<std::vector<Column>> ref, got;
      const double tf = facade_cycle(ref);
      const double tt = run_cycle(*w, in, traced, traced_wall, gates, got);
      gates.check(same_columns(ref, got),
                  std::string(w->name) +
                      " traced iterations, residual histories and solutions "
                      "equal the facade's bitwise");
      if (gates.failed > 0) break;
      // Paired with the facade cycle just before it, so machine drift
      // between cycles cancels.
      facts.add("trace.overhead_frac", "ratio", false, tt / tf - 1.0);
      facts.add("trace.setup_overhead_frac", "ratio", false,
                traced_wall.all().at("setup_s").samples.back() /
                        wall.all().at("setup_s").samples.back() -
                    1.0);
      last = tf + tt;
    } while (seconds_since(t0) + last <= budget);

    const auto& spans = tr.spans();
    gates.check(check_spans(spans),
                std::string(w->name) + " spans nest and self times sum to "
                                       "their root");
    add_span_metrics(spans, facts);
    shares = layer_shares(spans, model.config().cpu);
    print_shares(shares);
    if (!trace_out.empty()) write_chrome_trace(spans, trace_out.c_str());
  }

  // Timed runs report their wall samples plus the exact end-to-end values;
  // traced runs report every fact (their facade walls share the process
  // with traced cycles, so they are not reported).
  Samples out = trace == 0 ? wall : Samples{};
  for (const auto& [mname, m] : facts.all()) {
    if (trace == 0 && mname != "iterations" && mname.rfind("model_", 0) != 0)
      continue;
    for (double v : m.samples) out.add(mname, m.unit.c_str(), m.exact, v);
  }
  print_json(*w, static_cast<std::uint64_t>(seed), trace, gates, out, shares);
  return gates.failed == 0 ? 0 : 1;
}
