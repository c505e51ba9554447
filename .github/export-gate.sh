#!/bin/sh
# Export gate: every value a library interface exports must have a user
# outside its own module.  For each `val NAME` in lib/**/*.mli, NAME has
# to appear as a whole word in some .ml/.mli file under the directories
# below other than the module's own .ml/.mli.  A value only its own
# module uses belongs out of the .mli; one nothing uses belongs deleted.
# The check is lexical, so a mention in another file's comment counts.
#
# Run from the repository root: sh .github/export-gate.sh
# Prints each offender as "<file.mli>: <name>" and exits 1 if any.
set -eu

dirs="lib bin bench examples perfbench test"
status=0
for mli in $(find lib -name '*.mli' | sort); do
  base=${mli%.mli}
  for name in $(sed -n "s/^[[:space:]]*val[[:space:]]\{1,\}\([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    if ! grep -rlw --include='*.ml' --include='*.mli' -e "$name" $dirs \
        | grep -qv -e "^$base\.ml\$" -e "^$base\.mli\$"; then
      echo "$mli: $name"
      status=1
    fi
  done
done
exit $status
