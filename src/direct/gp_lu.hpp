// Gilbert--Peierls left-looking sparse LU with partial pivoting: the
// SuperLU-ancestor algorithm standing in for SuperLU in this study
// (see DESIGN.md substitution table).
//
// Key behavioural property reproduced from the paper (Section VIII-A):
// partial pivoting makes the factor structure depend on the numerical
// values, so NOTHING from the symbolic phase can be reused across numeric
// factorizations -- symbolic_reusable() == false -- and any downstream
// triangular-solve setup (level sets, supernode detection) must be redone
// after every numeric factorization.  That is the mechanism behind the large
// SuperLU setup times on GPUs in Fig. 4 / Table III.
//
// Dense tail: once the active matrix has filled in, column-at-a-time sparse
// updates waste their indexing on what is effectively a dense block.  At the
// first column j0 whose unpivoted part of x = L \ A(:,j0) holds at least half
// of the remaining n - j0 rows (and n - j0 >= kDenseTailMin), every remaining
// column is reach-solved against the j0 sparse pivots, its unpivoted entries
// are scattered into one dense (n - j0)^2 Schur block, and that block is
// factored by the blocked partial-pivoting kernel la::lu_factor_blocked --
// the "switch to full code" of MA48 and the dense kernels of SuperLU's
// supernodes.  The switch is a pure function of the input, the factors land
// in the same CSR Factorization, and every trisolve engine stays unchanged.
#pragma once

#include "common/op_profile.hpp"
#include "direct/factorization.hpp"
#include "la/dense.hpp"
#include "la/ops.hpp"

namespace frosch::direct {

template <class Scalar>
class GilbertPeierlsLu {
 public:
  /// Symbolic phase: for partial-pivoting LU there is no reusable analysis;
  /// we only cache the dimension.  (Kept for interface symmetry with the
  /// three-phase Trilinos solver structure.)
  void symbolic(const la::CsrMatrix<Scalar>& A) {
    FROSCH_CHECK(A.num_rows() == A.num_cols(), "GP-LU: square matrices only");
    n_ = A.num_rows();
  }

  /// Smallest trailing dimension worth a dense tail: below it the sparse
  /// column loop is cheap and the block's bookkeeping would dominate.
  static constexpr index_t kDenseTailMin = 32;

  /// Numeric phase: factors P A = L U column by column.  Each column solves
  /// the sparse triangular system L x = A(:,j) via depth-first reach on the
  /// partially built L, then pivots on the largest unpivoted entry -- until
  /// the dense tail takes over the remaining columns (see file comment).
  void numeric(const la::CsrMatrix<Scalar>& A, OpProfile* prof = nullptr) {
    FROSCH_CHECK(A.num_rows() == n_ && A.num_cols() == n_,
                 "GP-LU: numeric called with different dimensions");
    const index_t n = n_;
    // Column access: CSR of A^T is CSC of A.
    const la::CsrMatrix<Scalar> At = la::transpose(A);

    // Dynamic factor storage in CSC, row indices in PIVOTED space for U and
    // ORIGINAL space for L until the end.
    std::vector<IndexVector> Lrows(n), Urows(n);
    std::vector<std::vector<Scalar>> Lvals(n), Uvals(n);
    IndexVector pinv(static_cast<size_t>(n), -1);  // original row -> pivot pos

    std::vector<Scalar> x(static_cast<size_t>(n), Scalar(0));
    std::vector<char> visited(static_cast<size_t>(n), 0);
    IndexVector reach, dfs_stack, dfs_pos;
    double flops = 0.0;  // sparse column work; the dense tail reports its own
    index_t j0 = n;      // first dense-tail column (n: no tail)
    IndexVector block_row;  // original row -> dense-tail block row
    la::DenseMatrix<Scalar> S;  // Schur block of the dense tail

    for (index_t j = 0; j < n; ++j) {
      // ---- sparse triangular solve x = L \ A(:,j) --------------------
      // Depth-first search from the pattern of A(:,j) over the graph of L
      // (edges: pivoted column k -> original rows of L(:,k)).
      reach.clear();
      for (index_t p = At.row_begin(j); p < At.row_end(j); ++p) {
        const index_t r = At.col(p);  // original row index with A(r, j) != 0
        if (visited[r]) continue;
        // Iterative DFS.
        dfs_stack.assign(1, r);
        dfs_pos.assign(1, 0);
        visited[r] = 1;
        while (!dfs_stack.empty()) {
          const index_t node = dfs_stack.back();
          const index_t k = pinv[node];  // pivoted column this row eliminates
          bool descended = false;
          if (k >= 0) {
            auto& lr = Lrows[k];
            for (index_t& q = dfs_pos.back(); q < (index_t)lr.size(); ) {
              const index_t child = lr[q];
              ++q;
              if (!visited[child]) {
                visited[child] = 1;
                dfs_stack.push_back(child);
                dfs_pos.push_back(0);
                descended = true;
                break;
              }
            }
          }
          if (!descended) {
            reach.push_back(node);
            dfs_stack.pop_back();
            dfs_pos.pop_back();
          }
        }
      }
      // reach is in reverse topological order w.r.t. dependencies.
      for (index_t r : reach) {
        visited[r] = 0;
        x[r] = Scalar(0);
      }
      for (index_t p = At.row_begin(j); p < At.row_end(j); ++p)
        x[At.col(p)] = At.val(p);
      // Process reach from the END (topological order): eliminate with
      // already-pivoted columns.
      for (auto it = reach.rbegin(); it != reach.rend(); ++it) {
        const index_t r = *it;
        const index_t k = pinv[r];
        if (k < 0) continue;  // not yet pivoted: stays as L candidate
        const Scalar xk = x[r];
        if (xk == Scalar(0)) continue;
        auto& lr = Lrows[k];
        auto& lv = Lvals[k];
        for (size_t q = 0; q < lr.size(); ++q) x[lr[q]] -= lv[q] * xk;
        flops += 2.0 * static_cast<double>(lr.size());
      }
      // ---- dense-tail switch and scatter ----------------------------------
      if (j0 == n && n - j >= kDenseTailMin) {
        index_t unpivoted = 0;
        for (index_t r : reach)
          if (pinv[r] < 0 && x[r] != Scalar(0)) ++unpivoted;
        if (2 * unpivoted >= n - j) {
          j0 = j;
          block_row.assign(static_cast<size_t>(n), -1);
          for (index_t r = 0, b = 0; r < n; ++r)
            if (pinv[r] < 0) block_row[r] = b++;
          S = la::DenseMatrix<Scalar>(n - j0, n - j0);
        }
      }
      if (j >= j0) {
        for (index_t r : reach) {
          if (x[r] == Scalar(0)) continue;
          if (pinv[r] >= 0) {
            Urows[j].push_back(pinv[r]);
            Uvals[j].push_back(x[r]);
          } else {
            S(block_row[r], j - j0) = x[r];
          }
        }
        continue;
      }
      // ---- partial pivot ---------------------------------------------
      index_t piv = -1;
      double best = -1.0;
      for (index_t r : reach) {
        if (pinv[r] >= 0) continue;
        const double mag = std::abs(static_cast<double>(x[r]));
        if (mag > best) {
          best = mag;
          piv = r;
        }
      }
      FROSCH_CHECK(piv >= 0 && best > 0.0,
                   "GP-LU: structurally or numerically singular at column " << j);
      pinv[piv] = j;
      const Scalar d = x[piv];
      // ---- split into U (pivoted rows) and L (unpivoted, scaled) ------
      for (index_t r : reach) {
        if (x[r] == Scalar(0) && r != piv) continue;
        if (pinv[r] >= 0 && r != piv) {
          Urows[j].push_back(pinv[r]);
          Uvals[j].push_back(x[r]);
        } else if (r != piv) {
          Lrows[j].push_back(r);
          Lvals[j].push_back(x[r] / d);
          flops += 1.0;
        }
      }
      Urows[j].push_back(j);  // U diagonal = pivot
      Uvals[j].push_back(d);
    }

    // ---- dense tail: factor the Schur block, map it into the columns ----
    OpProfile dense;
    if (j0 < n) {
      const index_t nt = n - j0;
      IndexVector rows(static_cast<size_t>(nt)), dpiv;  // block row -> original
      for (index_t r = 0; r < n; ++r)
        if (block_row[r] >= 0) rows[block_row[r]] = r;
      dense.bytes += static_cast<double>(nt) * nt * sizeof(Scalar);  // scatter
      const index_t bad = la::lu_factor_blocked(S, dpiv, &dense);
      FROSCH_CHECK(bad < 0, "GP-LU: structurally or numerically singular at column "
                                << j0 + bad);
      for (index_t k = 0; k < nt; ++k) {
        std::swap(rows[k], rows[dpiv[k]]);
        pinv[rows[k]] = j0 + k;
      }
      for (index_t c = 0; c < nt; ++c) {
        const index_t j = j0 + c;
        const Scalar* col = S.col(c);
        for (index_t i = 0; i < c; ++i) {
          if (col[i] == Scalar(0)) continue;
          Urows[j].push_back(j0 + i);
          Uvals[j].push_back(col[i]);
        }
        Urows[j].push_back(j);
        Uvals[j].push_back(col[c]);
        for (index_t i = c + 1; i < nt; ++i) {
          if (col[i] == Scalar(0)) continue;
          Lrows[j].push_back(rows[i]);
          Lvals[j].push_back(col[i]);
        }
      }
      S = la::DenseMatrix<Scalar>();  // free the block before the CSR pack
    }

    // ---- pack factors into CSR with pivoted row indices ----------------
    // L: unit lower triangular; stored row-wise with explicit unit diagonal.
    fact_.L = pack_columns(n, Lrows, Lvals, &pinv, /*unit_diag=*/true);
    fact_.U = pack_columns(n, Urows, Uvals, nullptr, /*unit_diag=*/false);
    fact_.unit_diag_L = true;
    tail_start_ = j0;
    fact_.row_perm_old2new.assign(pinv.begin(), pinv.end());
    fact_.sn_ptr = detect_supernodes(la::transpose(fact_.L));

    if (prof) {
      prof->flops += flops + dense.flops;
      // Left-looking elimination re-reads the partial L factor once per
      // column reached by the DFS: the traffic is proportional to the
      // update flops (index + value per multiply-add), with none of the
      // supernodal blocking that would amortize it.  The dense tail adds
      // its scatter and the blocked kernel's panel-by-panel traffic.
      prof->bytes += 6.0 * flops + dense.bytes +
                     2.0 * (fact_.L.storage_bytes() + fact_.U.storage_bytes());
      // Left-looking column loop is inherently sequential: the critical path
      // is the full column count, launched one column-kernel at a time.
      prof->launches += n;
      prof->critical_path += n;
      prof->work_items += static_cast<double>(n);
    }
  }

  /// Structure depends on pivoting, hence on values: nothing is reusable.
  static constexpr bool symbolic_reusable() { return false; }

  /// First column of the last numeric()'s dense tail; n() when it had none.
  index_t dense_tail_start() const { return tail_start_; }

  const Factorization<Scalar>& factorization() const { return fact_; }
  Factorization<Scalar>& factorization() { return fact_; }

 private:
  /// Packs per-column factor entries into CSR, releasing each column once
  /// placed.  Columns go in ascending order, so every row comes out sorted;
  /// `row_map` (if given) maps a stored row to its pivoted position and
  /// `unit_diag` adds L's explicit unit diagonal.
  static la::CsrMatrix<Scalar> pack_columns(
      index_t n, std::vector<IndexVector>& rows,
      std::vector<std::vector<Scalar>>& vals, const IndexVector* row_map,
      bool unit_diag) {
    auto row = [&](index_t r) { return row_map ? (*row_map)[r] : r; };
    std::vector<index_t> rowptr(static_cast<size_t>(n) + 1, 0);
    for (index_t j = 0; j < n; ++j) {
      if (unit_diag) ++rowptr[j + 1];
      for (index_t r : rows[j]) ++rowptr[row(r) + 1];
    }
    for (index_t i = 0; i < n; ++i) rowptr[i + 1] += rowptr[i];
    std::vector<index_t> colind(static_cast<size_t>(rowptr[n]));
    std::vector<Scalar> values(static_cast<size_t>(rowptr[n]));
    std::vector<index_t> next(rowptr.begin(), rowptr.end() - 1);
    for (index_t j = 0; j < n; ++j) {
      if (unit_diag) {
        colind[next[j]] = j;
        values[next[j]++] = Scalar(1);
      }
      for (size_t q = 0; q < rows[j].size(); ++q) {
        const index_t p = next[row(rows[j][q])]++;
        colind[p] = j;
        values[p] = vals[j][q];
      }
      IndexVector().swap(rows[j]);
      std::vector<Scalar>().swap(vals[j]);
    }
    return la::CsrMatrix<Scalar>(n, n, std::move(rowptr), std::move(colind),
                                 std::move(values));
  }

  index_t n_ = 0;
  index_t tail_start_ = 0;
  Factorization<Scalar> fact_;
};

}  // namespace frosch::direct
