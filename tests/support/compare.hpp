// Golden comparators and structural assertions shared by the test suites.
// Each expect_* helper emits gtest non-fatal failures with the offending
// coordinates, so call sites stay one line.
#pragma once

#include <cstdint>
#include <vector>

#include "la/csr.hpp"
#include "la/dense.hpp"

namespace frosch::test {

/// Entrywise |A - B| <= tol over the union of both patterns (via dense).
void expect_matrices_near(const la::CsrMatrix<double>& A,
                          const la::CsrMatrix<double>& B, double tol);

/// Entrywise |A - D| <= tol against a dense golden reference.
void expect_matches_dense(const la::CsrMatrix<double>& A,
                          const la::DenseMatrix<double>& D, double tol);

/// Elementwise |a - b| <= tol; also fails on size mismatch.
void expect_vectors_near(const std::vector<double>& a,
                         const std::vector<double>& b, double tol);

/// |A(i,j) - A(j,i)| <= tol for every stored entry.
void expect_symmetric(const la::CsrMatrix<double>& A, double tol);

/// ||b - A x||_2 <= rel_tol * ||b||_2 -- the residual-norm assertion used
/// by every end-to-end solve test.
void expect_residual_below(const la::CsrMatrix<double>& A,
                           const std::vector<double>& x,
                           const std::vector<double>& b, double rel_tol);

/// True when p is a permutation of {0, ..., n-1}.
bool is_permutation(const IndexVector& p, index_t n);

/// FNV-1a over the bytes of the count values at p, continuing from h: the
/// fingerprint golden digests use to pin bitwise results.
template <class T>
std::uint64_t fnv1a(const T* p, size_t count,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* c = reinterpret_cast<const unsigned char*>(p);
  for (size_t i = 0; i < count * sizeof(T); ++i) {
    h ^= c[i];
    h *= 1099511628211ull;
  }
  return h;
}
template <class T>
std::uint64_t fnv1a(const std::vector<T>& v,
                    std::uint64_t h = 1469598103934665603ull) {
  return fnv1a(v.data(), v.size(), h);
}

}  // namespace frosch::test
