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

}  // namespace frosch::la
