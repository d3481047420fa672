// Umbrella header: the public API of miniFROSch.
//
// The canonical entry point is the frosch::Solver facade -- configure it
// (typed SolverConfig or string-driven ParameterList), set it up, solve,
// read the report (see examples/quickstart.cpp):
//
//   #include "frosch.hpp"
//
//   auto A = ...;                                 // la::CsrMatrix<double>
//   auto Z = ...;                                 // null-space basis
//   frosch::ParameterList params;
//   params.set("coarse-space", "rgdsw")           // any SolverConfig key;
//         .set("ortho", "single-reduce")          //   see parameter_docs()
//         .set("tol", 1e-7);
//   frosch::Solver solver(params);
//   solver.setup(A, Z, owner, num_parts);         // or setup(A, Z, decomp),
//                                                 // or algebraic setup(A, Z)
//   std::vector<double> b(...), x;
//   auto rep = solver.solve(b, x);                // frosch::SolveReport:
//                                                 //   iterations, residual
//                                                 //   history, coarse dim,
//                                                 //   per-phase profiles
//
// The subsystem layers underneath (dd::SchwarzPreconditioner,
// krylov::KrylovSolver and its block engine, the trisolve engines, ...)
// remain individually includable for fine-grained control; the facade is how
// examples, benches, and the perf experiment driver wire them together.
#pragma once

#include "comm/comm.hpp"
#include "dd/decomposition.hpp"
#include "dd/half_precision.hpp"
#include "dd/interface.hpp"
#include "dd/preconditioner.hpp"
#include "dd/schwarz.hpp"
#include "exec/exec.hpp"
#include "fem/assembly.hpp"
#include "fem/mesh.hpp"
#include "graph/partition.hpp"
#include "krylov/block.hpp"
#include "krylov/cg.hpp"
#include "krylov/gmres.hpp"
#include "krylov/solver.hpp"
#include "la/csr.hpp"
#include "la/dist.hpp"
#include "la/mm_io.hpp"
#include "la/ops.hpp"
#include "la/spmv.hpp"
#include "mlevel/hierarchy.hpp"
#include "perf/experiment.hpp"
#include "solver/config.hpp"
#include "solver/parameter_list.hpp"
#include "solver/registry.hpp"
#include "solver/session.hpp"
#include "solver/solver.hpp"
