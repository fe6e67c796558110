// Portable scalar backend: a table over the reference loops in
// generic_impl.h. Compiled with -ffp-contract=off so GCC never fuses the
// multiply-adds the AVX2 backend keeps separate.
#include "kernels/generic_impl.h"
#include "kernels/table.h"

namespace mulink::kernels::detail {

const KernelTable& ScalarTable() {
  static const KernelTable table = {
      &GenericAtan2,
      &GenericSinCos,
      &GenericDeinterleave,
      &GenericRotateRows,
      &GenericRotateRowsSplit,
      &GenericMuAccumulateRow,
      &GenericMuAccumulateSplitRow,
      &GenericDominantTapPowerSplit,
      &GenericMeanStabilityAccumulate,
      &GenericMultiply,
      &GenericSumSquares,
      &GenericNormalizedDistanceSq,
      &GenericWeightedCovariance,
      &GenericBartlettScan,
      &GenericMusicScan,
      &GenericColumnMoments,
      &GenericColumnMedians,
  };
  return table;
}

}  // namespace mulink::kernels::detail
