#include "compiler/interconnect.h"

#include <algorithm>

#include "common/error.h"

namespace cosmic::compiler {

InterconnectModel::InterconnectModel(BusKind kind, int columns,
                                     int rows_per_thread)
    : kind_(kind), columns_(columns), rows_(rows_per_thread),
      numPes_(columns * rows_per_thread)
{
    COSMIC_ASSERT(columns_ > 0 && rows_ > 0, "empty PE array");
    // Hierarchical: one bus per row plus one tree lane per column.
    // SingleShared (TABLA): one arbitrated bus per 64-PE group.
    busCount_ = kind_ == BusKind::Hierarchical
                    ? rows_ + columns_
                    : std::max(1, numPes_ / 64);
}

} // namespace cosmic::compiler
