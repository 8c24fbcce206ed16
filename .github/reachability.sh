#!/usr/bin/env bash
# Fails when a function declared outside _test.go files and package main
# is linked by no binary of the repository and is not on the keep-list,
# .github/reachability.keep. Run from the repository root:
#
#	bash .github/reachability.sh
#
# Every binary (cmd/*, examples/* and perfbench) is built with inlining
# off (-gcflags=all=-l), so nothing is inlined away, and their text
# symbols are compared with the declarations. Package main files are
# left out: each belongs to one binary. Generic functions and methods
# are skipped: their symbols carry shape suffixes the comparison cannot
# match.
set -euo pipefail

keep=$(dirname "$0")/reachability.keep
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin"

for d in cmd/* examples/*; do
	go build -gcflags=all=-l -o "$work/bin/$(echo "$d" | tr / _)" "./$d"
done
(cd perfbench && go build -gcflags=all=-l -o "$work/bin/perfbench" .)
for b in "$work"/bin/*; do go tool nm "$b"; done |
	sed -nE 's/^ *[0-9a-f]+ [Tt] //p' | sort -u >"$work/linked"

git ls-files '*.go' ':!:*_test.go' ':!:perfbench/*' | xargs grep -L '^package main' | while read -r f; do
	d=$(dirname "$f")
	pkg=juryselect/$d
	[ "$d" = . ] && pkg=juryselect
	sed -nE -e 's/^func \(([A-Za-z_][A-Za-z0-9_]* )?\*([A-Za-z0-9_]+)\) ([A-Za-z0-9_]+)\(.*/(*\2).\3/p' \
		-e 's/^func \(([A-Za-z_][A-Za-z0-9_]* )?([A-Za-z0-9_]+)\) ([A-Za-z0-9_]+)\(.*/\2.\3/p' \
		-e 's/^func ([A-Za-z0-9_]+)\(.*/\1/p' "$f" |
		{ grep -vx init || true; } | sed "s|^|$pkg.|"
done | sort -u >"$work/declared"

comm -23 "$work/declared" "$work/linked" >"$work/unreached"
sed -e '/^#/d' -e '/^$/d' "$keep" | sort -u >"$work/keep"
comm -23 "$work/unreached" "$work/keep" >"$work/dead"
if [ -s "$work/dead" ]; then
	echo "declared but linked by no binary (delete it, or list it with a reason in $keep):"
	cat "$work/dead"
	exit 1
fi
echo "reachability: $(wc -l <"$work/unreached") unreached functions, all on the keep-list"
