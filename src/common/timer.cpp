// Intentionally empty: Timer is header-only; this TU anchors the
// frosch_common library target.
#include "common/timer.hpp"
