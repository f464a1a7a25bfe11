#!/bin/sh
# Bit-exactness gate for the training paths.
#
# Usage: check.sh KF_EXE TABLE
#
# Each row of TABLE is
# "algorithm<TAB>sizes<TAB>engine flags<TAB>weights_checksum" for
# `kf train --json SIZES -a ALGORITHM ENGINE FLAGS` (sizes such as
# "-m 20000 -n 256"); blank lines and lines starting with # are skipped.
# Every row is re-run; each row whose checksum differs is printed with
# the value it got, and the script then exits 1.  An intended checksum
# change is an edit to TABLE.
set -u
kf=$1
table=$2
tab=$(printf '\t')
status=0
rows=0
while IFS="$tab" read -r algo sizes flags want; do
  case $algo in '' | '#'*) continue ;; esac
  rows=$((rows + 1))
  # $sizes and $flags are split into words on purpose:
  # "-m 20000 -n 256", "-e host --domains 2".
  got=$("$kf" train --json $sizes -a "$algo" $flags < /dev/null |
    sed -n 's/.*"weights_checksum":"\([0-9a-f]*\)".*/\1/p')
  if [ "$got" != "$want" ]; then
    printf '%s\t%s\t%s\t%s\t(table: %s)\n' "$algo" "$sizes" "$flags" \
      "${got:-<no checksum>}" "$want"
    status=1
  fi
done < "$table"
if [ "$status" -eq 0 ]; then
  echo "golden-check: $rows of $rows checksums match $table"
else
  echo "golden-check: the rows above differ from $table"
fi
exit $status
