#!/bin/sh
# Variant-registry smoke test: exercise the open Variant API end to end
# through the CLI. Checks that -list-variants prints the full registry
# (the paper's six plus PALP and RWoW-DCA), that both follow-on
# variants run as adhoc simulations with their variant-specific report
# lines, and that PALP actually overlaps partition accesses on a
# write-heavy mix while RWoW-DCA actually counts SET bits. Two more
# adhoc runs cover the paths that book chip time outside the plain
# read/write issuers: PALP with program-and-verify under fault
# injection must verify writes, and the Baseline write-pausing
# comparator must pause.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

bin="$tmp/pcmapsim"
$GO build -o "$bin" ./cmd/pcmapsim

# The registry listing must name every variant, old and new.
$bin -list-variants > "$tmp/variants.txt"
for v in Baseline RoW-NR WoW-NR RWoW-NR RWoW-RD RWoW-RDE PALP RWoW-DCA; do
    if ! grep -q "^$v " "$tmp/variants.txt"; then
        echo "variant-smoke: -list-variants is missing $v" >&2
        cat "$tmp/variants.txt" >&2
        exit 1
    fi
done

# PALP: a write-heavy mix at small budgets must produce at least one
# read or write served against a busy bank's free partition.
$bin -exp adhoc -workload MP4 -variant PALP -warmup 500 -measure 8000 \
    2> /dev/null > "$tmp/palp.txt"
overlaps=$(awk '/^part overlaps/ {print $3 + $5}' "$tmp/palp.txt")
if [ -z "$overlaps" ]; then
    echo "variant-smoke: PALP adhoc report has no 'part overlaps' line" >&2
    cat "$tmp/palp.txt" >&2
    exit 1
fi
if [ "$overlaps" -le 0 ]; then
    echo "variant-smoke: PALP served 0 partition overlaps on MP4" >&2
    cat "$tmp/palp.txt" >&2
    exit 1
fi

# RWoW-DCA: the same mix must report a nonzero mean SET-bit count per
# write (content analysis ran on the programming path).
$bin -exp adhoc -workload MP4 -variant RWoW-DCA -warmup 500 -measure 8000 \
    2> /dev/null > "$tmp/dca.txt"
sets=$(awk '/^bits per write/ {print $4}' "$tmp/dca.txt")
if [ -z "$sets" ]; then
    echo "variant-smoke: RWoW-DCA adhoc report has no 'bits per write' line" >&2
    cat "$tmp/dca.txt" >&2
    exit 1
fi
if ! awk -v s="$sets" 'BEGIN { exit !(s > 0) }'; then
    echo "variant-smoke: RWoW-DCA reports $sets mean SET bits per write" >&2
    cat "$tmp/dca.txt" >&2
    exit 1
fi

# PALP with program-and-verify: read-backs, re-programs and remaps book
# the line's partition; the run must complete and verify writes.
$bin -exp adhoc -workload MP4 -variant PALP -verify -endurance 1 -drift 0.005 \
    -warmup 500 -measure 8000 2> /dev/null > "$tmp/palp_verify.txt"
verified=$(awk '/^verify path/ {print $3}' "$tmp/palp_verify.txt")
if [ -z "$verified" ] || [ "$verified" -le 0 ]; then
    echo "variant-smoke: PALP -verify reports no verified writes" >&2
    cat "$tmp/palp_verify.txt" >&2
    exit 1
fi

# Baseline write pausing: the coarse write books in segments and must
# pause for reads on MP4.
$bin -exp adhoc -workload MP4 -variant Baseline -pausing -warmup 500 -measure 8000 \
    2> /dev/null > "$tmp/pausing.txt"
pauses=$(awk '/^write pauses/ {print $3}' "$tmp/pausing.txt")
if [ -z "$pauses" ] || [ "$pauses" -le 0 ]; then
    echo "variant-smoke: Baseline -pausing reports no write pauses" >&2
    cat "$tmp/pausing.txt" >&2
    exit 1
fi

echo "variant-smoke: OK ($overlaps PALP partition overlaps, $sets mean SET bits/write, $verified PALP verified writes, $pauses write pauses)"
