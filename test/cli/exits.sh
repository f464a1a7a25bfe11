#!/bin/sh
# A bad argument must stop kf with exit 2 and one "kf <subcommand>:
# <message>" line on stderr, never with an uncaught exception (exit
# 125).  Prints each case's command, exit status and stderr; paths
# under the temporary directory read TMP.
kf=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
printf 'garbage' > "$tmp/corrupt.ckpt"
check() {
  "$kf" "$@" > /dev/null 2> "$tmp/err"
  status=$?
  echo "kf $*: exit $status" | sed "s|$tmp|TMP|g"
  sed "s|$tmp|TMP|g" "$tmp/err"
}
# a thread load the tuner rejects for this shape
check codegen --tl 99 -m 1000 -n 64
# model files that are missing, corrupt, or named twice
check serve --model /nonexistent.ckpt
check serve --model "$tmp/corrupt.ckpt"
check serve --model a=/nonexistent.ckpt --model a=/nonexistent.ckpt
