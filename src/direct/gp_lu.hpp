// Gilbert--Peierls left-looking sparse LU with partial pivoting: the
// SuperLU-ancestor algorithm standing in for SuperLU in this study
// (see DESIGN.md substitution table).
//
// Key behavioural property reproduced from the paper (Section VIII-A):
// partial pivoting makes the factor structure depend on the numerical
// values, so no factor analysis from the symbolic phase can be reused
// across numeric factorizations -- symbolic_reusable() == false (the
// symbolic phase keeps only A's column access) -- and any downstream
// triangular-solve setup (level sets, supernode detection) must be redone
// after every numeric factorization.  That is the mechanism behind the large
// SuperLU setup times on GPUs in Fig. 4 / Table III.
//
// Dense tail: once the active matrix has filled in, column-at-a-time sparse
// updates waste their indexing on what is effectively a dense block.  At the
// first column j0 whose unpivoted part of x = L \ A(:,j0) holds at least half
// of the remaining n - j0 rows (and n - j0 >= kDenseTailMin), every remaining
// column is reach-solved against the j0 sparse pivots over their pivot DAG,
// its unpivoted entries are scattered into one dense (n - j0)^2 Schur block,
// and that block is factored by the blocked partial-pivoting kernel
// la::lu_factor_blocked -- the "switch to full code" of MA48 and the dense
// kernels of SuperLU's supernodes.  The switch is a pure function of the
// input, the block is packed straight into the same CSR Factorization, and
// every trisolve engine stays unchanged.
#pragma once

#include "common/op_profile.hpp"
#include "direct/factorization.hpp"
#include "la/dense.hpp"
#include "la/ops.hpp"

namespace frosch::direct {

template <class Scalar>
class GilbertPeierlsLu {
 public:
  /// Symbolic phase: partial pivoting leaves no reusable factor analysis,
  /// but the column access to A is pattern-only: A^T (CSR of A^T is CSC of
  /// A) and its value map into A are built here, once, and every numeric
  /// pass refills the values through the map.
  void symbolic(const la::CsrMatrix<Scalar>& A) {
    FROSCH_CHECK(A.num_rows() == A.num_cols(), "GP-LU: square matrices only");
    n_ = A.num_rows();
    At_ = la::transpose(A, nullptr, &At_map_);
  }

  /// Smallest trailing dimension worth a dense tail: below it the sparse
  /// column loop is cheap and the block's bookkeeping would dominate.
  static constexpr index_t kDenseTailMin = 32;

  /// Numeric phase: factors P A = L U column by column.  Each column solves
  /// the sparse triangular system L x = A(:,j) via depth-first reach on the
  /// partially built L, then pivots on the largest unpivoted entry -- until
  /// the dense tail takes over the remaining columns (see file comment).
  void numeric(const la::CsrMatrix<Scalar>& A, OpProfile* prof = nullptr) {
    check_pattern(A);
    la::refresh_submatrix_values(A, At_map_, At_);
    const la::CsrMatrix<Scalar>& At = At_;
    const index_t n = n_;

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

    for (index_t j = 0; j < n; ++j) {
      const double flops_before = flops;
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
      // ---- dense-tail switch: the tail re-solves this column ----------
      if (n - j >= kDenseTailMin) {
        index_t unpivoted = 0;
        for (index_t r : reach)
          if (pinv[r] < 0 && x[r] != Scalar(0)) ++unpivoted;
        if (2 * unpivoted >= n - j) {
          j0 = j;
          flops = flops_before;
          break;
        }
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

    // ---- dense tail: solve its columns, factor the Schur block ---------
    const index_t nt = n - j0;
    IndexVector rows;  // block row -> original row
    la::DenseMatrix<Scalar> S(nt, nt);  // Schur block of the dense tail
    OpProfile dense;
    if (nt > 0) {
      for (index_t r = 0; r < n; ++r)
        if (pinv[r] < 0) rows.push_back(r);
      // Every column leaves stale values in x outside its reach.
      std::fill(x.begin(), x.end(), Scalar(0));
      flops += solve_tail_columns(At, j0, pinv, Lrows, Lvals, Urows, Uvals,
                                  rows, x, S);
      dense.bytes += static_cast<double>(nt) * nt * sizeof(Scalar);  // scatter
      IndexVector dpiv;
      const index_t bad = la::lu_factor_blocked(S, dpiv, &dense);
      FROSCH_CHECK(bad < 0, "GP-LU: structurally or numerically singular at column "
                                << j0 + bad);
      for (index_t k = 0; k < nt; ++k) {
        std::swap(rows[k], rows[dpiv[k]]);
        pinv[rows[k]] = j0 + k;
      }
    }

    // ---- pack factors into CSR with pivoted row indices ----------------
    pack(j0, pinv, Lrows, Lvals, Urows, Uvals, S);
    tail_start_ = j0;
    fact_.row_perm_old2new.assign(pinv.begin(), pinv.end());

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
  /// Rejects an A whose pattern is not the one symbolic() analyzed: every
  /// A^T entry (j, i) must map into row i of A at column j, and the counts
  /// must agree, so the map is a bijection onto A's entries.
  void check_pattern(const la::CsrMatrix<Scalar>& A) const {
    bool same = A.num_rows() == n_ && A.num_cols() == n_ &&
                static_cast<size_t>(A.num_entries()) == At_map_.size();
    for (index_t j = 0; same && j < n_; ++j)
      for (index_t k = At_.row_begin(j); k < At_.row_end(j); ++k) {
        const index_t i = At_.col(k), src = At_map_[static_cast<size_t>(k)];
        same = same && src >= A.row_begin(i) && src < A.row_end(i) &&
               A.col(src) == j;
      }
    FROSCH_CHECK(same, "GP-LU: numeric pattern differs from symbolic()");
  }

  /// Solves the tail columns j0..n-1 against the j0 sparse pivots and
  /// scatters each into its block column of S; returns the update flops.
  /// The reach runs over the pivot DAG alone (node k -> the pivot positions
  /// of L(:,k)'s pivoted rows, in L(:,k) order): unpivoted rows are leaves
  /// of the column path's DFS, so dropping them leaves the pivoted nodes in
  /// the same topological order and every update sequence unchanged.  x is
  /// zero on entry and on return.
  static double solve_tail_columns(
      const la::CsrMatrix<Scalar>& At, index_t j0, const IndexVector& pinv,
      const std::vector<IndexVector>& Lrows,
      const std::vector<std::vector<Scalar>>& Lvals,
      std::vector<IndexVector>& Urows, std::vector<std::vector<Scalar>>& Uvals,
      const IndexVector& rows, std::vector<Scalar>& x,
      la::DenseMatrix<Scalar>& S) {
    const index_t n = At.num_rows();
    IndexVector prow(static_cast<size_t>(j0));  // pivot position -> row
    for (index_t r = 0; r < n; ++r)
      if (pinv[r] >= 0) prow[pinv[r]] = r;
    IndexVector dag_ptr(static_cast<size_t>(j0) + 1, 0), dag;
    for (index_t k = 0; k < j0; ++k) {
      for (index_t r : Lrows[k])
        if (pinv[r] >= 0) dag.push_back(pinv[r]);
      dag_ptr[k + 1] = static_cast<index_t>(dag.size());
    }
    std::vector<char> visited(static_cast<size_t>(j0), 0);
    IndexVector reach, dfs_stack, dfs_pos;
    double flops = 0.0;
    for (index_t j = j0; j < n; ++j) {
      reach.clear();
      for (index_t p = At.row_begin(j); p < At.row_end(j); ++p) {
        const index_t root = pinv[At.col(p)];
        if (root < 0 || visited[root]) continue;
        dfs_stack.assign(1, root);
        dfs_pos.assign(1, dag_ptr[root]);
        visited[root] = 1;
        while (!dfs_stack.empty()) {
          const index_t k = dfs_stack.back();
          index_t q = dfs_pos.back();
          while (q < dag_ptr[k + 1] && visited[dag[q]]) ++q;
          if (q < dag_ptr[k + 1]) {
            const index_t child = dag[q];
            dfs_pos.back() = q + 1;
            visited[child] = 1;
            dfs_stack.push_back(child);
            dfs_pos.push_back(dag_ptr[child]);
          } else {
            reach.push_back(k);
            dfs_stack.pop_back();
            dfs_pos.pop_back();
          }
        }
      }
      for (index_t p = At.row_begin(j); p < At.row_end(j); ++p)
        x[At.col(p)] = At.val(p);
      for (auto it = reach.rbegin(); it != reach.rend(); ++it) {
        const index_t k = *it;
        visited[k] = 0;
        const Scalar xk = x[prow[k]];
        if (xk == Scalar(0)) continue;
        const IndexVector& lr = Lrows[k];
        const std::vector<Scalar>& lv = Lvals[k];
        for (size_t q = 0; q < lr.size(); ++q) x[lr[q]] -= lv[q] * xk;
        flops += 2.0 * static_cast<double>(lr.size());
      }
      for (index_t k : reach) {
        Scalar& v = x[prow[k]];
        if (v != Scalar(0)) {
          Urows[j].push_back(k);
          Uvals[j].push_back(v);
        }
        v = Scalar(0);
      }
      // Unpivoted rows go to the block column; exact zeros stay out, as
      // the column path drops them.
      Scalar* col = S.col(j - j0);
      for (size_t b = 0; b < rows.size(); ++b) {
        Scalar& v = x[rows[b]];
        if (v != Scalar(0)) col[b] = v;
        v = Scalar(0);
      }
    }
    return flops;
  }

  /// Packs the factors into fact_'s CSR L (explicit unit diagonal) and U
  /// with pivoted row indices, and detects L's supernodes.  Columns below
  /// j0 come from the per-column lists (each released once placed), columns
  /// from j0 on from their U lists plus the factored block S: U takes S's
  /// upper triangle with its diagonal, L its strictly lower part, exact
  /// zeros dropped.  One count pass and one fill pass, both in ascending
  /// column order, so every row comes out sorted.
  void pack(index_t j0, const IndexVector& pinv,
            std::vector<IndexVector>& Lrows,
            std::vector<std::vector<Scalar>>& Lvals,
            std::vector<IndexVector>& Urows,
            std::vector<std::vector<Scalar>>& Uvals,
            la::DenseMatrix<Scalar>& S) {
    const index_t n = n_;
    // The previous pass's factors go first, or they would share the peak
    // with the new ones and S.
    fact_.L = la::CsrMatrix<Scalar>();
    fact_.U = la::CsrMatrix<Scalar>();
    const size_t nz = static_cast<size_t>(n) + 1;
    std::vector<index_t> lptr(nz, 0), uptr(nz, 0);
    // Count pass.
    for (index_t j = 0; j < n; ++j) {
      ++lptr[j + 1];
      for (index_t k : Urows[j]) ++uptr[k + 1];
      if (j < j0) {
        for (index_t r : Lrows[j]) ++lptr[pinv[r] + 1];
      } else {
        const index_t c = j - j0, nt = n - j0;
        const Scalar* col = S.col(c);
        for (index_t i = 0; i < c; ++i)
          if (col[i] != Scalar(0)) ++uptr[j0 + i + 1];
        ++uptr[j + 1];
        for (index_t i = c + 1; i < nt; ++i)
          if (col[i] != Scalar(0)) ++lptr[j0 + i + 1];
      }
    }
    for (index_t i = 0; i < n; ++i) {
      lptr[i + 1] += lptr[i];
      uptr[i + 1] += uptr[i];
    }
    // Fill pass.
    std::vector<index_t> lcol(static_cast<size_t>(lptr[n])),
        ucol(static_cast<size_t>(uptr[n]));
    std::vector<Scalar> lval(lcol.size()), uval(ucol.size());
    std::vector<index_t> lnext(lptr.begin(), lptr.end() - 1),
        unext(uptr.begin(), uptr.end() - 1);
    auto put = [](std::vector<index_t>& next, std::vector<index_t>& col,
                  std::vector<Scalar>& val, index_t i, index_t j, Scalar v) {
      const index_t p = next[i]++;
      col[p] = j;
      val[p] = v;
    };
    for (index_t j = 0; j < n; ++j) {
      put(lnext, lcol, lval, j, j, Scalar(1));
      for (size_t q = 0; q < Urows[j].size(); ++q)
        put(unext, ucol, uval, Urows[j][q], j, Uvals[j][q]);
      IndexVector().swap(Urows[j]);
      std::vector<Scalar>().swap(Uvals[j]);
      if (j < j0) {
        for (size_t q = 0; q < Lrows[j].size(); ++q)
          put(lnext, lcol, lval, pinv[Lrows[j][q]], j, Lvals[j][q]);
        IndexVector().swap(Lrows[j]);
        std::vector<Scalar>().swap(Lvals[j]);
        continue;
      }
      const index_t c = j - j0, nt = n - j0;
      const Scalar* col = S.col(c);
      for (index_t i = 0; i < c; ++i)
        if (col[i] != Scalar(0)) put(unext, ucol, uval, j0 + i, j, col[i]);
      put(unext, ucol, uval, j, j, col[c]);
      for (index_t i = c + 1; i < nt; ++i)
        if (col[i] != Scalar(0)) put(lnext, lcol, lval, j0 + i, j, col[i]);
    }
    S = la::DenseMatrix<Scalar>();
    // L's column pattern by a pattern-only counting transpose (rows come
    // out ascending, the diagonal first).
    std::vector<index_t> tptr(nz, 0), trow(lcol.size());
    for (index_t c : lcol) ++tptr[c + 1];
    for (index_t j = 0; j < n; ++j) tptr[j + 1] += tptr[j];
    std::vector<index_t> tnext(tptr.begin(), tptr.end() - 1);
    for (index_t i = 0; i < n; ++i)
      for (index_t p = lptr[i]; p < lptr[i + 1]; ++p)
        trow[tnext[lcol[p]]++] = i;
    fact_.sn_ptr = detect_supernodes(tptr, trow);
    fact_.L = la::CsrMatrix<Scalar>(n, n, std::move(lptr), std::move(lcol),
                                    std::move(lval));
    fact_.U = la::CsrMatrix<Scalar>(n, n, std::move(uptr), std::move(ucol),
                                    std::move(uval));
    fact_.unit_diag_L = true;
  }

  index_t n_ = 0;
  index_t tail_start_ = 0;
  la::CsrMatrix<Scalar> At_;  ///< A^T: column access to A
  IndexVector At_map_;        ///< A^T entry -> A entry
  Factorization<Scalar> fact_;
};

}  // namespace frosch::direct
