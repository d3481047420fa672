// Dense vector kernels (axpy/dot/norm/scale) with profile instrumentation.
//
// Dot products additionally record a global reduction: the collective model
// charges one all-reduce latency per `reductions` increment, which is exactly
// the cost the single-reduce GMRES variant (Section I, Table I) is designed
// to amortize.
//
// All kernels execute through the exec layer.  Elementwise kernels are
// bitwise reproducible at any thread count (disjoint writes); reductions use
// exec::parallel_reduce's fixed chunk decomposition, so dot/norm2 are
// ALSO bitwise identical across thread counts including serial -- the
// property the equivalence tests in test_exec assert.
#pragma once

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/op_profile.hpp"
#include "common/types.hpp"
#include "device/arena.hpp"
#include "exec/exec.hpp"

namespace frosch::la {

template <class Scalar>
void axpy(Scalar alpha, const std::vector<Scalar>& x, std::vector<Scalar>& y,
          OpProfile* prof = nullptr, const exec::ExecPolicy& policy = {}) {
  FROSCH_ASSERT(x.size() == y.size(), "axpy: size mismatch");
  exec::parallel_for(policy, static_cast<index_t>(x.size()),
                     [&](index_t i) { y[i] += alpha * x[i]; });
  device::launches(policy, 1);
  if (prof) {
    prof->flops += 2.0 * static_cast<double>(x.size());
    prof->bytes += 3.0 * static_cast<double>(x.size()) * sizeof(Scalar);
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(x.size());
  }
}

template <class Scalar>
void scale(std::vector<Scalar>& x, Scalar alpha, OpProfile* prof = nullptr,
           const exec::ExecPolicy& policy = {}) {
  exec::parallel_for(policy, static_cast<index_t>(x.size()),
                     [&](index_t i) { x[i] *= alpha; });
  device::launches(policy, 1);
  if (prof) {
    prof->flops += static_cast<double>(x.size());
    prof->bytes += 2.0 * static_cast<double>(x.size()) * sizeof(Scalar);
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(x.size());
  }
}

/// Local dot product + one modeled global reduction.
template <class Scalar>
Scalar dot(const std::vector<Scalar>& x, const std::vector<Scalar>& y,
           OpProfile* prof = nullptr, const exec::ExecPolicy& policy = {}) {
  FROSCH_ASSERT(x.size() == y.size(), "dot: size mismatch");
  const Scalar s = exec::parallel_reduce<Scalar>(
      policy, static_cast<index_t>(x.size()), [&](index_t b, index_t e) {
        Scalar p(0);
        for (index_t i = b; i < e; ++i) p += x[i] * y[i];
        return p;
      });
  device::launches(policy, 1);
  if (prof) {
    prof->flops += 2.0 * static_cast<double>(x.size());
    prof->bytes += 2.0 * static_cast<double>(x.size()) * sizeof(Scalar);
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(x.size());
    prof->reductions += 1;
  }
  return s;
}

template <class Scalar>
Scalar norm2(const std::vector<Scalar>& x, OpProfile* prof = nullptr,
             const exec::ExecPolicy& policy = {}) {
  return std::sqrt(dot(x, x, prof, policy));
}

}  // namespace frosch::la
