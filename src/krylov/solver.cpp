#include "krylov/solver.hpp"

namespace frosch::krylov {

const char* to_string(OrthoKind k) {
  switch (k) {
    case OrthoKind::MGS: return "mgs";
    case OrthoKind::CGS2: return "cgs2";
    case OrthoKind::SingleReduce: return "single-reduce";
  }
  return "unknown";
}

const char* to_string(KrylovMethod k) {
  switch (k) {
    case KrylovMethod::Gmres: return "gmres";
    case KrylovMethod::Cg: return "cg";
    case KrylovMethod::GmresPipe: return "gmres-pipe";
    case KrylovMethod::CgPipe: return "cg-pipe";
  }
  return "unknown";
}

template class KrylovSolver<double>;
template class KrylovSolver<float>;

}  // namespace frosch::krylov
