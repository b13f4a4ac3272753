#!/usr/bin/env bash
# ab.sh measures the working tree against a parent commit with the
# repository's benchmark, as alternating pairs of runs:
#
#   scripts/ab.sh <parent-ref> [--workload W] [--pairs N] [--seconds S]
#                              [--trace 0|1] [--seed K]
#
# The parent is cloned (`git clone --shared --no-checkout`, then checked
# out detached) into a temporary directory, removed on exit, so each side
# builds its own bench/run.sh binary into its own .bench_build and
# nothing is written under the repository's .git. Pair i runs seed K+i-1 (K defaults to 1) once on each side,
# the parent first on odd seeds and the working tree first on even ones.
# Without --workload it runs all four workloads; --workload takes one name
# or a space-separated list. --trace 1 runs the per-layer pass instead of
# the end-to-end one. Fewer than 10 pairs draws a warning: a claimed gain
# needs the change better in at least 9 of 10 pairs, and one run's
# setup_s alone can swing by a tenth.
#
# Every result file is kept under .ab/<time>-<parent>/ as
# <side>-<workload>-<seed>.json, next to each run's output (.log). For
# every metric in the files' `metrics` and `info` (or, with --trace 1, the
# layer file's `metrics`) it prints the median and the interquartile range
# on each side, the median's change, whether that change is larger than
# the parent's IQR, the gate's verdict on a metric BENCHMARK.json gates
# (`bound`: ok when the change's median is within the metric's bound in the
# worse direction, WORSE beyond it, unresolved when the parent's own
# IQR/median already exceeds the bound), and the sign test: in how many
# pairs the working tree was better (by BENCHMARK.json's direction;
# `lower k/N` for a metric it does not list). It writes the same as
# summary.json, and prints
# `make loc` parent -> working tree. Last it prints the paper's quality
# tables (`go test -count=1 -run '^TestPaper' -v .`, run once in each
# checkout: they are deterministic) side by side, parent | working tree,
# `n/a` on a side without them; both are kept as paper-<side>.txt. It
# needs bash, git, go, jq and awk.
set -euo pipefail

usage() {
	sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
	exit 2
}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
[ $# -ge 1 ] && [ "${1#-}" = "$1" ] || usage
parent_ref=$1
shift
workloads="wan-stream big-source cache-churn cache-hot" pairs=10 seconds=15 trace=0 seed=1
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	--workload) workloads=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--trace) trace=$2 ;;
	--seed) seed=$2 ;;
	*) usage ;;
	esac
	shift 2
done
if [ "$pairs" -lt 10 ]; then
	echo "ab.sh: warning: $pairs pairs; a claimed gain needs at least 10 (better in 9 of 10)" >&2
fi

parent=$(git -C "$root" rev-parse --verify "$parent_ref^{commit}")
change=$(git -C "$root" rev-parse HEAD)
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
	change="$change+dirty"
fi
out="$root/.ab/$(date -u +%Y%m%dT%H%M%SZ)-${parent:0:12}"
mkdir -p "$out"
wt=$(mktemp -d "${TMPDIR:-/tmp}/ab-parent.XXXXXX")
cleanup() {
	chmod -R u+w "$wt" 2>/dev/null || true
	rm -rf "$wt"
}
trap cleanup EXIT
# bash runs no EXIT trap when a signal ends it: exit, so the clone goes.
trap 'exit 130' INT
trap 'exit 143' TERM
git clone --quiet --shared --no-checkout "$root" "$wt"
git -C "$wt" checkout --quiet --detach "$parent"

file=result
[ "$trace" = 1 ] && file=layers

# one SIDE DIR WORKLOAD SEED runs one pass in one checkout and keeps its
# result file.
one() {
	local side=$1 dir=$2 w=$3 s=$4 base="$out/$1-$3-$4"
	rm -f "$dir/bench/out/$file-$w.json"
	printf '%s  %-6s %-11s seed %s\n' "$(date -u +%T)" "$side" "$w" "$s" >&2
	bash "$dir/bench/run.sh" --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" >"$base.log" 2>&1 ||
		echo "ab: $side $w seed $s exited $? (see $base.log)" >&2
	if [ ! -f "$dir/bench/out/$file-$w.json" ]; then
		echo "ab: $side $w seed $s wrote no $file-$w.json (see $base.log)" >&2
		exit 1
	fi
	cp "$dir/bench/out/$file-$w.json" "$base.json"
	printf '%s\t%s\t%s\t%s\n' "$side" "$w" "$s" "$base.json" >>"$out/runs.tsv"
}

for w in $workloads; do
	for ((s = seed; s < seed + pairs; s++)); do
		if ((s % 2)); then
			one parent "$wt" "$w" "$s"
			one change "$root" "$w" "$s"
		else
			one change "$root" "$w" "$s"
			one parent "$wt" "$w" "$s"
		fi
	done
done

# loc DIR prints `make loc` of one checkout as label<TAB>value lines.
loc() {
	make -s -C "$1" loc 2>/dev/null | awk '{ v = $NF; l = substr($0, 1, 22); sub(/ +$/, "", l); print l "\t" v }'
}
loc "$wt" >"$out/loc-parent.tsv" || true
loc "$root" >"$out/loc-change.tsv" || true

while IFS=$'\t' read -r side w s f; do
	jq -c --arg side "$side" --arg w "$w" --argjson seed "$s" \
		'{side: $side, workload: $w, seed: $seed, correct, failed,
		  values: (((.metrics // {}) + (.info // {})) | map_values(.value))}' "$f"
done <"$out/runs.tsv" |
	jq -s --slurpfile bench "$root/BENCHMARK.json" \
		--arg parent "$parent" --arg change "$change" --argjson pairs "$pairs" \
		--argjson seconds "$seconds" --argjson trace "$trace" --argjson seed "$seed" \
		--rawfile locp "$out/loc-parent.tsv" --rawfile locc "$out/loc-change.tsv" '
	def q($p): sort as $s | ($s | length) as $n | (($n - 1) * $p) as $h | ($h | floor) as $lo
		| $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $n - 1] | min] - $s[$lo]);
	def stats: {median: q(0.5), q1: q(0.25), q3: q(0.75)};
	def tsv: split("\n") | map(select(length > 0) | split("\t") | {key: .[0], value: (.[1] | tonumber)}) | from_entries;
	(($bench[0].end_to_end + $bench[0].per_layer) | map({key: .name, value: .better}) | from_entries) as $better
	| ($bench[0].end_to_end | map(.name)) as $gated
	| ($bench[0].end_to_end | map({key: .name, value: .bound}) | from_entries) as $bounds
	| {parent: $parent, change: $change, pairs: $pairs, seconds: $seconds, trace: $trace,
	   seeds: [range($seed; $seed + $pairs)],
	   loc: (($locp | tsv) as $p | ($locc | tsv) as $c
		| [$c | keys_unsorted[] | {key: ., value: {parent: $p[.], change: $c[.]}}] | from_entries),
	   workloads: (group_by(.workload) | map(
		. as $runs
		| ($runs | map(select(.side == "parent"))) as $ps
		| ($runs | map(select(.side == "change"))) as $cs
		| {key: $runs[0].workload, value: {
			correct: {parent: ($ps | all(.correct)), change: ($cs | all(.correct))},
			failed: {parent: ($ps | map(.failed) | add), change: ($cs | map(.failed) | add)},
			metrics: ([$runs[].values | keys[]] | unique | map(
				. as $m
				| [$ps[] | {key: (.seed | tostring), value: .values[$m]}] | from_entries | with_entries(select(.value | type == "number")) | . as $pv
				| [$cs[] | {key: (.seed | tostring), value: .values[$m]}] | from_entries | with_entries(select(.value | type == "number")) | . as $cv
				| [$pv | keys[] | select($cv[.] != null) | {p: $pv[.], c: $cv[.]}] as $pairs
				| select(($pairs | length) > 0)
				| ([$pv[]] | stats) as $pst | ([$cv[]] | stats) as $cst
				| {key: $m, value: {
					gated: ($gated | index($m) != null), better: $better[$m],
					parent: $pst, change: $cst, pairs: ($pairs | length),
					lower: ($pairs | map(select(.c < .p)) | length),
					higher: ($pairs | map(select(.c > .p)) | length),
					delta_pct: (if $pst.median == 0 then null else ($cst.median - $pst.median) / $pst.median * 100 end),
					outside_parent_iqr: ((($cst.median - $pst.median) | fabs) > ($pst.q3 - $pst.q1))}}
				| .value.wins = (if .value.better == "lower" then .value.lower
					elif .value.better == "higher" then .value.higher else null end)
				| .value.bound = (.value as $v | $bounds[.key] as $b | ($v.parent.median | fabs) as $p
					| if $b == null or $p == 0 then null
					elif ($v.parent.q3 - $v.parent.q1) / $p > $b then "unresolved"
					elif (if $v.better == "higher" then $v.parent.median - $v.change.median
						else $v.change.median - $v.parent.median end) / $p > $b then "WORSE"
					else "ok" end)
			) | from_entries)}}) | from_entries)}' >"$out/summary.json"

jq -r '
	def num: if . == null then "-" elif (fabs >= 100) then (. * 10 | round / 10 | tostring)
		else (. * 1000 | round / 1000 | tostring) end;
	"parent \(.parent[0:12])  change \(.change[0:12] + (if (.change | endswith("+dirty")) then "+dirty" else "" end))  \(.pairs) pairs, seeds \(.seeds[0])-\(.seeds[-1]), \(.seconds) s, trace \(.trace)",
	(.workloads | to_entries[] |
		"", "== \(.key): correct parent \(.value.correct.parent) change \(.value.correct.change); failed parent \(.value.failed.parent) change \(.value.failed.change)",
		"metric\tparent median [q1 q3]\tchange median [q1 q3]\tchange %\t> IQR\tbound\twins",
		(.value.metrics | to_entries[] | .value as $v |
			"\(if $v.gated then "*" else "" end)\(.key)\t\($v.parent.median | num) [\($v.parent.q1 | num) \($v.parent.q3 | num)]\t\($v.change.median | num) [\($v.change.q1 | num) \($v.change.q3 | num)]\t\(if $v.delta_pct == null then "-" else ($v.delta_pct * 10 | round / 10 | tostring) end)\t\(if $v.outside_parent_iqr then "yes" else "no" end)\t\($v.bound // "-")\t\(if $v.wins == null then "lower \($v.lower)/\($v.pairs)" else "\($v.wins)/\($v.pairs)" end)")),
	"", "make loc\tparent\tchange",
	(.loc | to_entries[] | "\(.key)\t\(.value.parent // "-")\t\(.value.change)")
' "$out/summary.json" | awk -F'\t' '
	NF <= 1 { print; next }
	{ printf "%-34s", $1; for (i = 2; i <= NF; i++) printf " %-28s", $i; printf "\n" }'
echo
echo "(* gated in BENCHMARK.json; wins by its direction) results and summary.json: $out"

# paper DIR prints one checkout's paper tables, without go test's own
# lines, or n/a when it has none.
paper() {
	local tables
	tables=$(cd "$1" && go test -count=1 -run '^TestPaper' -v . 2>&1 |
		grep -vE '^(=== (RUN|PAUSE|CONT)|--- PASS|PASS$|ok |testing: warning)') || true
	printf '%s\n' "${tables:-n/a}"
}
paper "$wt" >"$out/paper-parent.txt"
paper "$root" >"$out/paper-change.txt"
echo
echo "paper tables: parent | change"
awk 'NR == FNR { p[FNR] = $0; n = FNR; if (length($0) > w) w = length($0); next }
	{ c[FNR] = $0; if (FNR > n) n = FNR }
	END { for (i = 1; i <= n; i++) printf "%-" w "s | %s\n", p[i], c[i] }' "$out/paper-parent.txt" "$out/paper-change.txt"
