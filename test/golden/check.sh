#!/bin/sh
# Bit-exactness gate for the training and checkpoint paths.
#
# Usage: check.sh KF_EXE TRAIN_TABLE CKPT_TABLE
#
# Each row of either table is
# "algorithm<TAB>sizes<TAB>flags<TAB>checksum" (sizes such as
# "-m 20000 -n 256"); blank lines and lines starting with # are
# skipped.  A TRAIN_TABLE row holds the weights_checksum that
# `kf train --json SIZES -a ALGORITHM FLAGS` prints; a CKPT_TABLE row
# holds the payload checksum (line 2 of the file) of the checkpoint
# that `kf train SIZES -a ALGORITHM FLAGS --checkpoint FILE` leaves in
# FILE.  Every row is re-run; each row whose checksum differs is printed
# with the value it got, and the script then exits 1.  An intended
# checksum change is an edit to the table.
set -u
kf=$1
tab=$(printf '\t')
ckpt=$(mktemp)
trap 'rm -f "$ckpt"' EXIT
status=0
rows=0

# checksum KIND ALGORITHM SIZES FLAGS
# $3 and $4 are split into words on purpose: "-m 20000 -n 256",
# "-e host --domains 2".
checksum() {
  case $1 in
    train)
      "$kf" train --json $3 -a "$2" $4 < /dev/null |
        sed -n 's/.*"weights_checksum":"\([0-9a-f]*\)".*/\1/p' ;;
    ckpt)
      rm -f "$ckpt"
      "$kf" train $3 -a "$2" $4 --checkpoint "$ckpt" < /dev/null > /dev/null &&
        sed -n 2p "$ckpt" ;;
  esac
}

# check_table KIND TABLE
check_table() {
  while IFS="$tab" read -r algo sizes flags want; do
    case $algo in '' | '#'*) continue ;; esac
    rows=$((rows + 1))
    got=$(checksum "$1" "$algo" "$sizes" "$flags")
    if [ "$got" != "$want" ]; then
      printf '%s\t%s\t%s\t%s\t(%s: %s)\n' "$algo" "$sizes" "$flags" \
        "${got:-<no checksum>}" "$2" "$want"
      status=1
    fi
  done < "$2"
}

check_table train "$2"
check_table ckpt "$3"
if [ "$status" -eq 0 ]; then
  echo "golden-check: $rows of $rows checksums match $2 and $3"
else
  echo "golden-check: the rows above differ from their table"
fi
exit $status
