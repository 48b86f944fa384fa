#!/usr/bin/env sh
# The whole CI gate; .github/workflows/ci.yml runs this script, so the
# same check runs locally with `sh tools/ci.sh` from any directory.
set -eu
cd "$(dirname "$0")/.."
ROOT="$(pwd)"
export PYTHONPATH="$ROOT/src"
WORK="$(mktemp -d -t harvest_ci.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

# Tier 1: byte-compile every module, then run the full test suite.
python -m compileall -q src
python -m pytest -x -q
# Benchmark smoke: the four end-to-end workloads of bench/ run, pass
# their correctness gate, and emit every metric BENCHMARK.json lists.
python -m pytest -q bench/test_bench.py

# repro NAME ARGS... runs `python -m repro ARGS` inside the fresh
# directory $WORK/NAME, so relative output paths land there, and keeps
# its stdout as NAME/stdout.txt.
repro() {
    mkdir "$WORK/$1"
    (cd "$WORK/$1" && shift && python -m repro "$@" > stdout.txt)
}

# same NAME "ALT" ARGS... runs `repro ARGS` twice, the second time with
# ALT appended (a later option overrides an earlier one), and requires
# byte-identical stdout and output files from both runs.
same() {
    name="$1"
    alt="$2"
    shift 2
    repro "$name.a" "$@"
    repro "$name.b" "$@" $alt
    diff -r "$WORK/$name.a" "$WORK/$name.b"
    echo "$name smoke ok: deterministic across runs"
}

# Trace smoke: a short traced continuum replay must pass the Chrome
# trace-event schema check.
repro trace trace --duration 6 --step-start 1 --step-end 3 \
    --step-rate 700 --base-rate 60 --seed 2 --out trace.json
python - "$WORK/trace/trace.json" <<'EOF'
import sys
from repro.serving.trace_export import validate_chrome_trace

payload = validate_chrome_trace(open(sys.argv[1]).read())
assert payload["traceEvents"], "trace smoke produced no events"
print(f"trace smoke ok: {len(payload['traceEvents'])} events")
EOF

# Determinism: identical invocations (and a sweep at one worker vs a
# two-process pool) produce byte-identical stdout and files.
same cache "" cache --frames 80 --seed 1 \
    --scene-change-rates 0.0,0.05,0.5 --out cache.json
same network "" network --frames 15 --seed 1 --broker-messages 60 \
    --outage-start 5 --outage-seconds 3 --out network.json \
    --trace-out network.trace.json
same profile "" profile --duration 4 --fluid-duration 40 \
    --burst-rate 900 --seed 1 --out profile.json \
    --speedscope profile.speedscope.json --folded-out profile.folded
same faas "" faas --duration 3600 --seed 1 --out faas.json
same sweep "--jobs 2" sweep --replications 4 --duration 600 --seed 7 \
    --jobs 1 --out sweep.json --metrics-out sweep.prom

# The network replay's trace must pass the schema check and carry the
# contended-uplink spans.
python - "$WORK/network.a/network.trace.json" <<'EOF'
import sys
from repro.serving.trace_export import validate_chrome_trace

payload = validate_chrome_trace(open(sys.argv[1]).read())
uplinks = [e for e in payload["traceEvents"]
           if e.get("name") == "uplink"]
assert uplinks, "network smoke produced no uplink spans"
print(f"network smoke ok: {len(uplinks)} uplink spans")
EOF
