#!/bin/sh
# Run the deterministic end-to-end commands and print the md5sum of every
# output they write (stdout, stderr, exit status and artifact files).
#
#   scripts/acceptance.sh OUTDIR
#
# Every output is a pure function of the source tree, so two listings of
# the same tree must be identical, and the diff of the listings of two
# trees names every output a change moved:
#
#   scripts/acceptance.sh /tmp/before   # at the parent commit
#   scripts/acceptance.sh /tmp/after    # at the change
#   diff <(scripts/acceptance.sh /tmp/b) <(scripts/acceptance.sh /tmp/a)
#
# Inputs are read by their repo-relative paths and no output names
# OUTDIR, so listings from different checkouts and OUTDIRs compare.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 OUTDIR" >&2
  exit 124
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."

dune build bin/vwctl.exe bench/main.exe
vw=_build/default/bin/vwctl.exe
bench=_build/default/bench/main.exe

# run NAME CMD...: stdout to NAME.out, stderr to NAME.err, and the exit
# status to the shared exit-status file
run() {
  name=$1
  shift
  rc=0
  "$@" >"$out/$name.out" 2>"$out/$name.err" || rc=$?
  echo "$name $rc" >>"$out/exit-status"
}

rm -f "$out/exit-status"
run blast $vw run quickstart -w udp-blast -b 4096 -d 2 --stats-json \
  --events "$out/blast.bin" --events-format bin --pcap "$out/blast.pcap"
run ping $vw run quickstart -w udp-ping --events "$out/ping.jsonl" --stats-json
run fig5 $vw run figure5 -w tcp-stream -b 200000 -d 10 \
  --events "$out/fig5.bin" --events-format bin \
  --metrics "$out/fig5-metrics.json" --pcap "$out/fig5.pcap"
run fig5-rll $vw run figure5 -w tcp-stream -b 200000 -d 10 --rll \
  --pcap "$out/fig5-rll.pcap"
run fig6 $vw run figure6 -w rether --stats-json \
  --events "$out/fig6.bin" --events-format bin
run fuzz $vw fuzz --runs 200 --seed 42
run conform $vw conform test/conformance --json
run suite $vw suite scripts/suite
run repeat $vw run quickstart -w udp-ping -b 640 -d 2 --repeat 16
run trace $vw run scripts/quickstart_udp.fsl -w udp-ping --trace 20
# the two captures test_golden pins by digest
run digest $vw run quickstart -w udp-ping -b 640 -d 2 --pcap "$out/digest.pcap"
run digest-rll $vw run quickstart -w udp-ping -b 640 -d 2 --rll \
  --pcap "$out/digest-rll.pcap"
run fig7 $bench fig7
run fig8 $bench fig8

cd "$out"
md5sum -- *
