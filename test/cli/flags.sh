#!/bin/sh
# Print every kf subcommand's flags, one "<subcommand> --long [-s]" per
# line, as `kf <subcommand> --help=plain` lists them.
kf=$1
for cmd in run tune codegen train serve top script; do
  "$kf" "$cmd" --help=plain | sed -n \
    -e "s/^       \(--[A-Za-z0-9-]*\).*/$cmd \1/p" \
    -e "s/^       \(-[A-Za-z0-9]\)[^-]*\(--[A-Za-z0-9-]*\).*/$cmd \2 \1/p"
done
