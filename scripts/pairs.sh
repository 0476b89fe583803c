#!/usr/bin/env bash
# Paired benchmark runs of one workload: the committed files of REF
# against this tree, alternating which side goes first, seeds 1..N.
# Prints, per end-to-end metric of BENCHMARK.json, the rule a claimed gain
# is judged by: both medians, the distance between REF's quartiles, the
# pairs this tree won and each side's failed operations.
#
#   scripts/pairs.sh WORKLOAD [REF] [N] [SECONDS]      (make pairs W=... REF=... N=... SECONDS=...)
#
# REF is exported with git archive into .bench_build/pairs/ref, a plain
# directory of committed files like the one the benchmark is judged in;
# nothing is left in .git. Each side builds into its own .bench_build.
set -euo pipefail
w=${1:?usage: scripts/pairs.sh WORKLOAD [REF] [N] [SECONDS]}
ref=${2:-HEAD~1} n=${3:-10} secs=${4:-10}
root=$(git rev-parse --show-toplevel)
cd "$root"
out="$root/.bench_build/pairs"
rm -rf "$out/ref" && mkdir -p "$out/ref"
git archive "$ref" | tar -x -C "$out/ref"

# run SIDE DIR SEED: the result line (the last one) of one run. A run that
# fails, or leaves no result line, stops the script: no summary is printed
# from part of the pairs.
run() {
	(cd "$2" && bash bench/run.sh --workload "$w" --seed "$3" --seconds "$secs" --trace 0) | tail -n 1 >"$out/$1-$3.json"
	grep -q '"failed":' "$out/$1-$3.json" || {
		echo "pairs: $1 seed $3 left no result line" >&2
		exit 1
	}
}
for seed in $(seq 1 "$n"); do
	# One run a line: errexit skips every command of an && list but the last.
	if ((seed % 2)); then
		run ref "$out/ref" "$seed"
		run new "$root" "$seed"
	else
		run new "$root" "$seed"
		run ref "$out/ref" "$seed"
	fi
	echo "pair $seed of $n done" >&2
done

# value SIDE SEED NAME: one number off a result line.
value() {
	grep -o "\"$3\":{\"value\":[^,}]*" "$out/$1-$2.json" | sed 's/.*://'
}
failed() {
	for seed in $(seq 1 "$n"); do grep -o '"failed":[0-9]*' "$out/$1-$seed.json"; done | awk -F: '{ t += $2 } END { print t + 0 }'
}
# quartiles: q1 median q3 of the numbers on stdin, by the method
# bench/stats.go uses (Python's statistics.quantiles, exclusive).
quartiles() {
	sort -g | awk '{ s[NR] = $1 }
		function cut(i,   m, j, d) {
			m = i * (NR + 1); j = int(m / 4)
			if (j < 1) j = 1; else if (j > NR - 1) j = NR - 1
			d = m - j * 4
			return (s[j] * (4 - d) + s[j + 1] * d) / 4
		}
		END { if (NR == 1) print s[1], s[1], s[1]; else print cut(1), cut(2), cut(3) }'
}

printf '%s: %s against %s, %d pairs of %ss\n' "$w" "$(git describe --always --dirty)" "$ref" "$n" "$secs"
printf '%-22s %-7s %12s %12s %12s %6s\n' metric better "ref median" "new median" "ref q3-q1" "w-l"
# The end_to_end block of BENCHMARK.json, one "name better" per metric.
awk '/"end_to_end"/ { on = 1 } on && /\]/ { exit }
	on && /"name"/ { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); print name, $2 }' BENCHMARK.json |
	while read -r m better; do
		wl=$(for seed in $(seq 1 "$n"); do echo "$(value ref "$seed" "$m") $(value new "$seed" "$m")"; done |
			awk -v b="$better" '{ d = b == "lower" ? $1 - $2 : $2 - $1; w += d > 0; l += d < 0 } # a tie counts for neither
				END { print w + 0 "-" l + 0 }')
		read -r rq1 rmed rq3 < <(for seed in $(seq 1 "$n"); do value ref "$seed" "$m"; done | quartiles)
		read -r _ cmed _ < <(for seed in $(seq 1 "$n"); do value new "$seed" "$m"; done | quartiles)
		printf '%-22s %-7s %12.6g %12.6g %12.6g %6s\n' "$m" "$better" "$rmed" "$cmed" \
			"$(awk -v a="$rq1" -v b="$rq3" 'BEGIN { print b - a }')" "$wl"
	done
printf 'failed: ref %s, new %s\n' "$(failed ref)" "$(failed new)"
