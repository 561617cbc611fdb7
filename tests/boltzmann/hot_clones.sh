#!/bin/sh
# Every PLINGER_HOT function (common/simd.hpp) keeps its AVX2 copy: the
# library must carry a "[clone .avx2]" symbol for each, so a refactor
# that drops the attribute, or moves a hot loop out of a marked body,
# fails here instead of silently running the 2-wide baseline.
#
#   hot_clones.sh <nm> <libplinger_boltzmann.a>
set -u
symbols=$("$1" -C "$2") || exit 1
status=0
for fn in 'ModeEquations::rhs_full(' 'ModeEquations::rhs_tca(' \
          'BesselTable::eval(' 'fold_point(' \
          'Dverk::attempt_step<' 'Dop853::attempt_step<' \
          'Dop853::prepare_dense<' 'Dop853::dense_eval('; do
  if printf '%s\n' "$symbols" | grep -F "$fn" | grep -qF '[clone .avx2]'
  then
    echo "ok: $fn"
  else
    echo "no AVX2 copy: $fn"
    status=1
  fi
done
exit $status
