// GDSW / reduced-GDSW coarse space construction -- Section III steps 1-4.
//
// Given the interface partition and a null-space basis Z of the global
// Neumann operator, builds the energy-minimizing coarse basis
//
//     Phi = [ -A_II^{-1} A_IGamma ; I ] Phi_Gamma ,
//
// where Phi_Gamma carries, per interface entity (GDSW) or per vertex entity
// with multiplicity weights (rGDSW), the restriction of Z to that entity.
// The interior extension solves reuse the block-diagonal structure of A_II:
// one independent sparse solve per subdomain interior -- the
// embarrassingly parallel step the paper runs on the GPU during setup.
#pragma once

#include "dd/interface.hpp"
#include "dd/local_solver.hpp"
#include "la/ops.hpp"
#include "trisolve/substitution.hpp"

namespace frosch::dd {

enum class CoarseSpaceKind {
  GDSW,   ///< one basis function per entity x null-space vector
  RGDSW,  ///< vertex-based reduced space [Dohrmann-Widlund Option 1]
};

const char* to_string(CoarseSpaceKind k);

}  // namespace frosch::dd

namespace frosch {

template <>
struct EnumTraits<dd::CoarseSpaceKind> {
  static constexpr const char* type_name = "CoarseSpaceKind";
  static constexpr std::array<dd::CoarseSpaceKind, 2> all = {
      dd::CoarseSpaceKind::GDSW, dd::CoarseSpaceKind::RGDSW};
};

}  // namespace frosch

namespace frosch::dd {

/// Profiles of the coarse-space construction, keyed for Fig. 4's breakdown.
struct CoarseSpaceProfile {
  OpProfile interface_values;  ///< assembling Phi_Gamma
  OpProfile extension_rhs;     ///< A * Phi_Gamma sparse product
  OpProfile extension_solves;  ///< per-interior solves (incl. factorization)
  std::vector<OpProfile> per_part_extension;  ///< rank-attributed share
};

/// Builds Phi_Gamma as an n x nc CSR matrix with entries only on interface
/// rows.  Columns with (numerically) zero norm after per-entity
/// orthogonalization are dropped -- e.g. linearized rotations restricted to
/// a single-node vertex are linear combinations of the translations there.
template <class Scalar>
la::CsrMatrix<Scalar> build_interface_basis(const InterfacePartition& ip,
                                            const la::DenseMatrix<double>& Z,
                                            index_t n, CoarseSpaceKind kind,
                                            OpProfile* prof = nullptr) {
  const index_t nn = Z.num_cols();
  // Candidate columns: per coarse entity, the (weighted) restriction of each
  // null-space vector.
  struct Candidate {
    IndexVector rows;
    std::vector<double> vals;
  };
  std::vector<std::vector<Candidate>> entity_cols;  // [entity][nullspace col]

  if (kind == CoarseSpaceKind::GDSW) {
    entity_cols.resize(ip.entities.size());
    for (size_t e = 0; e < ip.entities.size(); ++e) {
      entity_cols[e].resize(static_cast<size_t>(nn));
      for (index_t c = 0; c < nn; ++c) {
        auto& cand = entity_cols[e][c];
        for (index_t i : ip.entities[e].dofs) {
          const double v = Z(i, c);
          if (v != 0.0) {
            cand.rows.push_back(i);
            cand.vals.push_back(v);
          }
        }
      }
    }
  } else {
    // rGDSW: coarse entities are the vertex entities (plus fallback entities
    // referenced by vertex_support); weights 1/|support| give a partition of
    // unity on the interface.
    entity_cols.resize(ip.entities.size());
    for (size_t q = 0; q < ip.interface_dofs.size(); ++q) {
      const index_t i = ip.interface_dofs[q];
      const auto& sup = ip.vertex_support[q];
      const double w = 1.0 / static_cast<double>(sup.size());
      for (index_t v : sup) {
        if (entity_cols[v].empty())
          entity_cols[v].resize(static_cast<size_t>(nn));
        for (index_t c = 0; c < nn; ++c) {
          const double val = w * Z(i, c);
          if (val != 0.0) {
            entity_cols[v][c].rows.push_back(i);
            entity_cols[v][c].vals.push_back(val);
          }
        }
      }
    }
  }

  // Per-entity modified Gram-Schmidt with rank filtering, then pack.
  index_t ncols = 0;
  std::vector<IndexVector> col_rows;
  std::vector<std::vector<double>> col_vals;
  double flops = 0.0;

  for (auto& cols : entity_cols) {
    std::vector<Candidate*> kept;
    for (auto& cand : cols) {
      if (cand.rows.empty()) continue;
      // Orthogonalize against previously kept columns of this entity (they
      // share the same row support superset; use map-free dot via two
      // pointers on sorted rows -- candidate rows are built in sorted order).
      for (Candidate* k : kept) {
        double dot = 0.0;
        size_t a = 0, b = 0;
        while (a < cand.rows.size() && b < k->rows.size()) {
          if (cand.rows[a] == k->rows[b])
            dot += cand.vals[a] * k->vals[b], ++a, ++b;
          else if (cand.rows[a] < k->rows[b])
            ++a;
          else
            ++b;
        }
        if (dot == 0.0) continue;
        // cand -= dot * k (k is normalized).
        size_t bi = 0;
        for (size_t ai = 0; ai < cand.rows.size(); ++ai) {
          while (bi < k->rows.size() && k->rows[bi] < cand.rows[ai]) ++bi;
          if (bi < k->rows.size() && k->rows[bi] == cand.rows[ai])
            cand.vals[ai] -= dot * k->vals[bi];
        }
        flops += 4.0 * static_cast<double>(cand.rows.size());
      }
      double nrm = 0.0;
      for (double v : cand.vals) nrm += v * v;
      nrm = std::sqrt(nrm);
      if (nrm < 1e-10) continue;  // dependent or zero: drop
      for (double& v : cand.vals) v /= nrm;
      kept.push_back(&cand);
      col_rows.push_back(cand.rows);
      col_vals.push_back(cand.vals);
      ++ncols;
    }
  }

  la::TripletBuilder<Scalar> b2(n, ncols);
  for (index_t c = 0; c < ncols; ++c)
    for (size_t q = 0; q < col_rows[c].size(); ++q)
      b2.add(col_rows[c][q], c, static_cast<Scalar>(col_vals[c][q]));
  if (prof) {
    prof->flops += flops;
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(ncols);
  }
  return b2.build();
}

namespace detail {

/// The per-part extension solves of extend_basis, cold or warm: finds the
/// coarse columns active on this interior, solves them against -W(I, c) in
/// interleaved blocks of up to kRowTile columns (one block sweep each,
/// charged as such), and collects the nonzero Phi entries column by column.
/// `Wt` is W's transpose, so row c lists column c's (W row, value) pairs;
/// this interior owns W's rows [w0, w0 + |I|), one per dof of `I`.  The
/// blocks are built and read in the solver's fill-reducing ordering, so the
/// solver needs no block workspace of its own.  Every column of a block
/// solve is bitwise its solo solve, and identical inputs produce identical
/// entries, which is what extends the bitwise refresh contract through the
/// coarse basis.
template <class Scalar, class Entry>
void extension_solve_columns(const la::CsrMatrix<Scalar>& Wt, index_t w0,
                             const IndexVector& I, index_t nc,
                             const LocalSolver<Scalar>& solver,
                             std::vector<Entry>& entries, OpProfile* pprof) {
  const index_t w1 = w0 + static_cast<index_t>(I.size());
  const size_t ni = I.size();
  const auto cols = Wt.colind().begin();
  // pos[q]: the ordered row of interior dof q.
  const IndexVector& perm = solver.ordering();
  IndexVector pos(ni);
  for (size_t i = 0; i < ni; ++i)
    pos[perm.empty() ? i : static_cast<size_t>(perm[i])] =
        static_cast<index_t>(i);
  constexpr index_t kTile = trisolve::kRowTile;
  std::vector<Scalar> B, X;  // sized by the first, widest block
  // The block's coarse columns, ascending, with their Wt entry ranges.
  index_t tile_c[kTile], tile_kb[kTile], tile_ke[kTile];
  index_t tw = 0;
  auto solve_tile = [&] {
    const size_t ws = static_cast<size_t>(tw);
    if (B.size() < ni * ws) {
      B.resize(ni * ws);
      X.resize(ni * ws);
    }
    std::fill(B.begin(), B.begin() + ni * ws, Scalar(0));
    for (index_t j = 0; j < tw; ++j)
      for (index_t k = tile_kb[j]; k < tile_ke[j]; ++k)
        B[static_cast<size_t>(pos[Wt.col(k) - w0]) * ws + j] = -Wt.val(k);
    solver.solve_ordered(B.data(), X.data(), tw, pprof);
    for (index_t j = 0; j < tw; ++j)
      for (size_t q = 0; q < ni; ++q) {
        const Scalar x = X[static_cast<size_t>(pos[q]) * ws + j];
        if (x != Scalar(0)) entries.push_back({I[q], tile_c[j], x});
      }
    tw = 0;
  };
  for (index_t c = 0; c < nc; ++c) {
    // Column c's entries on this interior: a sorted sub-range of Wt's row.
    const auto kb = std::lower_bound(cols + Wt.row_begin(c),
                                     cols + Wt.row_end(c), w0) - cols;
    const auto ke =
        std::lower_bound(cols + kb, cols + Wt.row_end(c), w1) - cols;
    if (kb == ke) continue;
    tile_c[tw] = c;
    tile_kb[tw] = static_cast<index_t>(kb);
    tile_ke[tw] = static_cast<index_t>(ke);
    if (++tw == kTile) solve_tile();
  }
  if (tw > 0) solve_tile();
}

}  // namespace detail

/// Base-layer cache of the interior-extension solves, filled by a cold
/// extend_basis call and reused by warm ones: the per-part interior
/// index sets, the extracted interior matrices with their value maps into
/// A, the factorized extension solvers (whose symbolic structure --
/// ordering, ordered pattern, elimination tree, factor layout -- survives
/// a value-only matrix change), and the structure of the extension
/// right-hand sides W = A(interior, :) Phi_Gamma.  See DESIGN.md section 9.
template <class Scalar>
struct ExtensionCache {
  bool valid = false;
  std::vector<IndexVector> interior_of;    ///< per part, interior dofs
  std::vector<la::CsrMatrix<Scalar>> App;  ///< per part, interior matrix
  std::vector<IndexVector> App_map;        ///< per part, App entry -> A entry
  std::vector<std::unique_ptr<LocalSolver<Scalar>>> solvers;  ///< per part
  IndexVector W_rows;    ///< W's row -> dof: the interiors, part after part
  IndexVector W_first;   ///< per part, its first row of W (num_parts + 1)
  la::CsrMatrix<Scalar> W;  ///< A(W_rows, :) Phi_Gamma

  void reset(index_t num_parts) {
    valid = false;
    interior_of.assign(static_cast<size_t>(num_parts), {});
    App.assign(static_cast<size_t>(num_parts), {});
    App_map.assign(static_cast<size_t>(num_parts), {});
    solvers.clear();
    solvers.resize(static_cast<size_t>(num_parts));
    W_rows.clear();
    W_first.assign(static_cast<size_t>(num_parts) + 1, 0);
    W = {};
  }
};

/// Computes the full energy-minimizing basis Phi from Phi_Gamma by solving
/// the block-diagonal interior extension problems part by part with the
/// given extension-solver configuration.  The per-part solves are fully
/// independent -- the embarrassingly parallel setup step the paper runs on
/// the GPU -- and execute concurrently under `policy`; each part collects
/// its Phi entries privately and they are merged in part order, so the
/// result is identical at every thread count.
///
/// Layered setup (DESIGN.md section 9): a call on an invalid `cache` fills
/// it; a call on a valid one reuses the cached interior sets, extracted
/// matrices, solver symbolic structure and W structure, re-running only the
/// numeric overlays (W's numeric product, value copy-up, numeric
/// refactorization, extension solves).  The caller invalidates the cache
/// when A's pattern, the decomposition or Phi_Gamma changes.  A warm Phi is
/// bitwise identical to a cold rebuild on the same matrix -- the right-hand
/// sides and solves are value-dependent and always re-run.
template <class Scalar>
la::CsrMatrix<Scalar> extend_basis(const la::CsrMatrix<Scalar>& A,
                                   const Decomposition& d,
                                   const InterfacePartition& ip,
                                   const la::CsrMatrix<Scalar>& phi_gamma,
                                   const LocalSolverConfig& ext_cfg,
                                   ExtensionCache<Scalar>& cache,
                                   CoarseSpaceProfile* prof = nullptr,
                                   const exec::ExecPolicy& policy = {},
                                   const IndexVector* part_ranks = nullptr) {
  const index_t n = A.num_rows();
  const index_t nc = phi_gamma.num_cols();
  const bool warm = cache.valid;
  if (prof) prof->per_part_extension.assign(static_cast<size_t>(d.num_parts), {});

  // Interior dofs per part and the rows of W (base layers: cached across
  // warm calls).
  if (!warm) {
    cache.reset(d.num_parts);
    for (index_t i : ip.interior_dofs) cache.interior_of[d.owner[i]].push_back(i);
    for (index_t p = 0; p < d.num_parts; ++p) {
      const auto& I = cache.interior_of[p];
      cache.W_rows.insert(cache.W_rows.end(), I.begin(), I.end());
      cache.W_first[p + 1] = static_cast<index_t>(cache.W_rows.size());
    }
  }

  // RHS for all extensions at once: W = A * Phi_Gamma on the interior rows
  // only (Phi_Gamma vanishes on the interior, so they equal A_IGamma
  // Phi_Gamma).  Its structure is pattern-derived; its values are recomputed
  // on every call.
  OpProfile* rhs_prof = prof ? &prof->extension_rhs : nullptr;
  if (!warm)
    cache.W = la::spgemm_symbolic(A, phi_gamma, &cache.W_rows, rhs_prof);
  la::spgemm_numeric(A, phi_gamma, cache.W, &cache.W_rows, rhs_prof);
  const la::CsrMatrix<Scalar> Wt = la::transpose(cache.W);

  // Per-part private results, merged serially below.
  struct PartEntry {
    index_t row, col;
    Scalar val;
  };
  std::vector<std::vector<PartEntry>> part_entries(
      static_cast<size_t>(d.num_parts));
  std::vector<OpProfile> part_prof(static_cast<size_t>(d.num_parts));

  exec::parallel_for(
      policy, d.num_parts,
      [&](index_t p) {
        const IndexVector& I = cache.interior_of[p];
        if (I.empty()) return;
        OpProfile* pprof = prof ? &part_prof[p] : nullptr;
        // Local interior matrix and its factorization.  The extension solve
        // stages and launches on the GPU of the part's owning virtual rank.
        // Warm: copy up only the interior values; the numeric pass then
        // refactors against the frozen symbolic structure.
        if (warm) {
          la::refresh_submatrix_values(A, cache.App_map[p], cache.App[p]);
        } else {
          LocalSolverConfig pcfg = ext_cfg;
          if (part_ranks != nullptr)
            pcfg.exec.device_rank = static_cast<int>((*part_ranks)[p]);
          cache.App[p] = la::extract_submatrix(A, I, I, &cache.App_map[p]);
          cache.solvers[p] = std::make_unique<LocalSolver<Scalar>>(pcfg);
          cache.solvers[p]->symbolic(cache.App[p], pprof);
        }
        cache.solvers[p]->numeric(cache.App[p], pprof, pprof);
        detail::extension_solve_columns(Wt, cache.W_first[p], I, nc,
                                        *cache.solvers[p], part_entries[p],
                                        pprof);
      },
      /*grain=*/1);
  cache.valid = true;

  la::TripletBuilder<Scalar> phi_b(n, nc);
  // Interface block of Phi = Phi_Gamma itself.
  for (index_t i = 0; i < n; ++i)
    for (index_t k = phi_gamma.row_begin(i); k < phi_gamma.row_end(i); ++k)
      phi_b.add(i, phi_gamma.col(k), phi_gamma.val(k));
  for (index_t p = 0; p < d.num_parts; ++p) {
    for (const auto& e : part_entries[p]) phi_b.add(e.row, e.col, e.val);
    if (prof) {
      prof->per_part_extension[p] = part_prof[p];
      prof->extension_solves += part_prof[p];
    }
  }
  return phi_b.build();
}

}  // namespace frosch::dd
