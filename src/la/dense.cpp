#include "common/half.hpp"
#include "la/dense.hpp"

namespace frosch::la {

template class DenseMatrix<double>;
template class DenseMatrix<float>;
template class DenseMatrix<half>;

template index_t lu_factor_blocked(DenseMatrix<double>&, IndexVector&,
                                   OpProfile*);
template index_t lu_factor_blocked(DenseMatrix<float>&, IndexVector&,
                                   OpProfile*);
template index_t lu_factor_blocked(DenseMatrix<half>&, IndexVector&,
                                   OpProfile*);

template void partial_cholesky(DenseMatrix<double>&, index_t, OpProfile*);
template void partial_cholesky(DenseMatrix<float>&, index_t, OpProfile*);
template void partial_cholesky(DenseMatrix<half>&, index_t, OpProfile*);

}  // namespace frosch::la
