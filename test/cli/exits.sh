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
# a directory given as a model file
check serve --model "$tmp"
# a script that does not parse, one with an unbound variable, and one
# whose vector length is computed in a loop, which has no static plan
# and runs on the reference interpreter
printf 'a = 1;\nb = ;\n' > "$tmp/syntax.dml"
printf 'a = 1;\nb = nope + 1;\nwrite(b, "b");\n' > "$tmp/unbound.dml"
printf 'k = 0; i = 0;\nwhile (i < 3) { k = k + 2; i = i + 1; }\nz = matrix(0, rows=k, cols=1);\nwrite(z, "z");\n' > "$tmp/looplen.dml"
check script -f "$tmp/syntax.dml" -m 200 -n 16
check script -f "$tmp/unbound.dml" -m 200 -n 16
check script -f "$tmp/looplen.dml" -m 200 -n 16
