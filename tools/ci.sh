#!/usr/bin/env sh
# The whole CI gate; .github/workflows/ci.yml runs this script, so the
# same check runs locally with `sh tools/ci.sh` from any directory.
set -eu
cd "$(dirname "$0")/.."
ROOT="$(pwd)"
export PYTHONPATH="$ROOT/src"
WORK="$(mktemp -d -t harvest_ci.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

# Bytecode goes under $WORK, not into __pycache__ directories beside
# the sources, so a CI run leaves src/ as it found it.
export PYTHONPYCACHEPREFIX="$WORK/pycache"

# Tier 1: byte-compile every module, then run the full test suite,
# listing the ten slowest tests and the suite's wall time, next to the
# line counts of src/ and of the CLI.
python -m compileall -q src
tier1_start=$(date +%s)
python -m pytest -x -q --durations=10
echo "tier-1 wall: $(( $(date +%s) - tier1_start )) s;" \
    "src/ $(find src -name '*.py' | xargs cat | wc -l) lines," \
    "cli.py $(wc -l < src/repro/cli.py) lines"
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

# refuses OPTION ARGS... runs `python -m repro ARGS`, which must exit
# 2 with empty stdout and a first stderr line `error: OPTION ...`:
# a bad value is refused, naming its option, before anything runs.
refuses() {
    option="$1"
    shift
    status=0
    python -m repro "$@" > "$WORK/refused.out" 2> "$WORK/refused.err" \
        || status=$?
    first="$(head -n 1 "$WORK/refused.err")"
    case "$status:$first" in
        "2:error: $option "*) ;;
        *) echo "repro $* gave exit $status: $first" >&2; exit 1 ;;
    esac
    if [ -s "$WORK/refused.out" ]; then
        echo "repro $* wrote to stdout before refusing" >&2
        exit 1
    fi
    echo "refuses ok: $option"
}
refuses --edge-preprocess-ms trace --duration 6 --step-start 1 \
    --step-end 3 --step-rate 700 --base-rate 60 --seed 2 \
    --edge-preprocess-ms inf
refuses --instances sweep --replications 2 --duration 300 --instances 0
refuses --scene-change-rates cache --scene-change-rates abc --frames 5
refuses --step-start trace --step-start 20 --duration 6
refuses --step-start autoscale --step-start 5 --step-end 4

# Trace smoke: a short traced continuum replay is deterministic and
# must pass the Chrome trace-event schema check.
same trace "" trace --duration 6 --step-start 1 --step-end 3 \
    --step-rate 700 --base-rate 60 --seed 2 --out trace.json
python - "$WORK/trace.a/trace.json" <<'EOF'
import sys
from repro.serving.trace_export import validate_chrome_trace

payload = validate_chrome_trace(open(sys.argv[1]).read())
assert payload["traceEvents"], "trace smoke produced no events"
print(f"trace smoke ok: {len(payload['traceEvents'])} events")
EOF

# Determinism: identical invocations (and a sweep at one worker vs a
# two-process pool) produce byte-identical stdout and files.
same autoscale "" autoscale --duration 12 --step-start 2 --step-end 6 \
    --step-rate 2000 --base-rate 150 --seed 5
same cache "" cache --frames 80 --seed 1 \
    --scene-change-rates 0.0,0.05,0.5 --out cache.json
same cache_exact "" cache --threshold 0 --frames 80 --seed 1 \
    --scene-change-rates 0.0,0.05,0.5 --out cache.json
same network "" network --frames 15 --seed 1 --broker-messages 60 \
    --outage-start 5 --outage-seconds 3 --out network.json \
    --trace-out network.trace.json
same profile "" profile --duration 4 --fluid-duration 40 \
    --burst-rate 900 --seed 1 --forward --out profile.json \
    --speedscope profile.speedscope.json --folded-out profile.folded
same profile_sampled "" profile --duration 4 --fluid-duration 40 \
    --burst-rate 900 --seed 1 --sample-rate 0.5 --out profile.json
same faas "" faas --duration 3600 --seed 1 --out faas.json
same faas_churn "" faas --duration 3600 --seed 2 --keep-alive 10 \
    --slo-ms 25 --hold-seconds 300 --out faas.json
same faas_never_reap "" faas --duration 600 --seed 1 --keep-alive inf
same metrics "" metrics --rate 150 --requests 120
same metrics_reject "" metrics --requests 60 --rate 400 --queue-limit 4 \
    --seed 3
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
