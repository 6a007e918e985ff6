#!/usr/bin/env bash
# unused_exports.sh lists the exported functions and methods of the
# repository's non-test Go outside benchmarks/ whose name appears on no
# other non-test, non-comment line. benchmarks/ and examples/ count as
# callers. An export only its own tests reach is API that nothing uses:
# delete it together with its test asserts, or add it to the allowlist
# below with the reason it stays.
#
# The check is by name, so it misses an export whose name is also used
# for something else; it never flags a used one. Exits 1 when anything
# outside the allowlist is listed.
#
# Usage: bash scripts/unused_exports.sh   (from anywhere in the repo)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# One entry a line: a method name, Recv.Method, Func, pkgdir.Func or a
# path prefix ending in /, then a tab, then why it stays.
allowlist=$(cat <<'EOF'
Less	sort.Interface method, called through the interface
Swap	sort.Interface method, called through the interface
Unwrap	errors.Unwrap protocol, called by errors.Is and errors.As
internal/fuzz/diff/	test-framework-free helpers the differential tests call
FSA.AcceptsAliasSeq	the pattern tests' reference for the FSA's local language
FSA.CountFlattened	the pattern tests' reference for A-Seq's flattened workload
sase.EnumerateWindow	the tests' trend enumerator, the ground truth of Figure 2's counts
Engine.EventsSkipped	frames carry its counter; the snapshot tests read it
Manager.StatesFor	the allocating twin of AppendStatesFor that the window tests pin it to
Server.Draining	the drain tests poll it
cogra.MustCompile	the public API's counterpart of MustParse, for fixed query text
EOF
)

git ls-files '*.go' ':!:*_test.go' | awk -v allow="$allowlist" '
# Read every file named on stdin. Count, per identifier, the code lines
# it appears on; remember every exported func and method defined
# outside benchmarks/.
{
	file = $0
	fnr = 0
	while ((getline line < file) > 0) {
		fnr++
		if (line ~ /^[[:space:]]*\/\//) continue
		if (line ~ /^package /) pkg = substr(line, 9)
		count(line)
		if (file !~ /^benchmarks\// && line ~ /^func /) define(file, fnr, line, pkg)
	}
	close(file)
}
function count(line,    seen, w) {
	split("", seen)
	while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
		w = substr(line, RSTART, RLENGTH)
		if (!(w in seen)) { seen[w] = 1; uses[w]++ }
		line = substr(line, RSTART + RLENGTH)
	}
}
function define(file, fnr, line, pkg,    sig, recv, r, n, parts, name, dir) {
	sig = substr(line, 6)
	recv = ""
	if (sig ~ /^\(/) {
		r = substr(sig, 2, index(sig, ")") - 2)
		sig = substr(sig, index(sig, ")") + 2)
		n = split(r, parts, " ")
		recv = parts[n]
		sub(/^\*/, "", recv)
		sub(/\[.*/, "", recv)
	}
	if (!match(sig, /^[A-Z][A-Za-z0-9_]*/)) return
	name = substr(sig, 1, RLENGTH)
	dir = "."
	if (index(file, "/")) {
		dir = file
		sub(/\/[^\/]*$/, "", dir)
	}
	ndefs++
	defName[ndefs] = name
	defWhere[ndefs] = file ":" fnr
	defDir[ndefs] = dir
	defKey[ndefs] = (recv != "" ? recv : pkg) "." name
}
END {
	n = split(allow, lines, "\n")
	for (i = 1; i <= n; i++) {
		split(lines[i], f, "\t")
		if (f[1] != "") allowed[f[1]] = 1
	}
	bad = 0
	for (i = 1; i <= ndefs; i++) {
		if (uses[defName[i]] > 1) continue
		if (defName[i] in allowed || defKey[i] in allowed) continue
		skip = 0
		for (a in allowed) {
			if (a ~ /\/$/ && index(defDir[i] "/", a) == 1) skip = 1
		}
		if (skip) continue
		printf "%s: %s has no caller outside its tests\n", defWhere[i], defKey[i]
		bad = 1
	}
	exit bad
}'
