#!/usr/bin/env bash
# Schema check for the machine-readable bench output (BENCH_*.json emitted by
# the bench drivers' --json flag; see bench/bench_util.h JsonReporter).
#
# Usage:
#   check_bench_json.sh file.json [more.json...]
#       Validate existing report files.
#   check_bench_json.sh --run BENCH_BINARY OUT.json
#       Run `BENCH_BINARY --smoke --json OUT.json` first, then validate
#       OUT.json — the ctest `bench_smoke` wiring, which keeps the JSON
#       surface from silently rotting.
#
# Validation uses python3's json module when available (full parse + key
# check) and falls back to grep'ing for the required keys otherwise.

set -u

required_top=(bench seed hardware_concurrency records)
required_record=(dataset threads wall_ms initializations pruned_seeds affinity)
# Benches may append extra per-record fields; those are schema too. The
# async throughput bench must carry its latency/throughput columns, the
# pipeline-cache bench its session/hit/miss/bytes columns.
required_async_record=(jobs throughput_jobs_per_s mean_latency_ms
                       p95_latency_ms mean_queue_ms)
required_cache_record=(sessions requests rebuilds cache_hits cache_misses
                       cache_bytes)
required_streaming_record=(delta_edges edge_mass update_ms p95_update_ms
                           rebuild_ms p95_rebuild_ms speedup)
required_cold_start_record=(first_response_ms store_hits store_misses
                            store_corrupt_pages speedup)
required_fault_recovery_record=(injected_faults store_retries
                                store_write_errors recovery_ms overhead_pct)
required_micro_kernels_record=(edges cycles_per_edge cycles_per_edge_scalar
                               speedup bit_identical)
required_multitenant_record=(tenants offered_jobs admitted_jobs shed_jobs
                             throughput_jobs_per_s mean_latency_ms
                             p95_latency_ms p99_latency_ms mean_queue_ms
                             tenant0_share deadline_misses bit_identical)
required_crash_recovery_record=(journal_appends recovered_jobs overhead_pct
                                recovery_ms bit_identical)
# `bit_identical` is a correctness field, not a timing: wherever a record
# carries it, it must read 1 (the fast path matched its reference on every
# cycle), so a bench that recorded drift fails the schema check.
# Latency/timing fields must be real, finite and non-negative — a NaN or a
# negative wall/percentile means the bench's timing math broke, and it used
# to sail through both validation branches.
timing_keys=(wall_ms mean_latency_ms p95_latency_ms p99_latency_ms
             mean_queue_ms update_ms p95_update_ms rebuild_ms p95_rebuild_ms
             first_response_ms recovery_ms)

files=()
if [ "${1:-}" = "--run" ]; then
  if [ "$#" -ne 3 ]; then
    echo "usage: check_bench_json.sh --run BENCH_BINARY OUT.json" >&2
    exit 2
  fi
  binary="$2"
  out="$3"
  if ! "$binary" --smoke --json "$out"; then
    echo "check_bench_json: '$binary --smoke --json $out' failed" >&2
    exit 1
  fi
  files=("$out")
else
  files=("$@")
fi

if [ "${#files[@]}" -eq 0 ]; then
  echo "usage: check_bench_json.sh [--run BENCH_BINARY OUT.json] [file.json...]" >&2
  exit 2
fi

status=0
for f in "${files[@]}"; do
  if [ ! -s "$f" ]; then
    echo "check_bench_json: $f missing or empty" >&2
    status=1
    continue
  fi
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$f" "${required_top[*]}" "${required_record[*]}" \
        "${required_async_record[*]}" "${required_cache_record[*]}" \
        "${required_streaming_record[*]}" "${required_cold_start_record[*]}" \
        "${required_fault_recovery_record[*]}" \
        "${required_micro_kernels_record[*]}" \
        "${required_multitenant_record[*]}" \
        "${required_crash_recovery_record[*]}" \
        "${timing_keys[*]}" \
        << 'EOF'
import json, math, sys
path, top_keys, record_keys = sys.argv[1], sys.argv[2].split(), sys.argv[3].split()
async_keys = sys.argv[4].split()
cache_keys = sys.argv[5].split()
streaming_keys = sys.argv[6].split()
cold_start_keys = sys.argv[7].split()
fault_recovery_keys = sys.argv[8].split()
micro_kernels_keys = sys.argv[9].split()
multitenant_keys = sys.argv[10].split()
crash_recovery_keys = sys.argv[11].split()
timing_keys = sys.argv[12].split()
try:
    with open(path) as fh:
        doc = json.load(fh)
except (OSError, ValueError) as e:
    sys.exit(f"check_bench_json: {path}: not valid JSON: {e}")
missing = [k for k in top_keys if k not in doc]
if missing:
    sys.exit(f"check_bench_json: {path}: missing top-level keys {missing}")
if not isinstance(doc["records"], list) or not doc["records"]:
    sys.exit(f"check_bench_json: {path}: 'records' must be a non-empty array")
if doc["bench"] == "async_throughput":
    record_keys = record_keys + async_keys
if doc["bench"] == "pipeline_cache":
    record_keys = record_keys + cache_keys
if doc["bench"] == "streaming_updates":
    record_keys = record_keys + streaming_keys
if doc["bench"] == "cold_start":
    record_keys = record_keys + cold_start_keys
if doc["bench"] == "fault_recovery":
    record_keys = record_keys + fault_recovery_keys
if doc["bench"] == "micro_kernels":
    record_keys = record_keys + micro_kernels_keys
if doc["bench"] == "multitenant":
    record_keys = record_keys + multitenant_keys
if doc["bench"] == "crash_recovery":
    record_keys = record_keys + crash_recovery_keys
for i, record in enumerate(doc["records"]):
    missing = [k for k in record_keys if k not in record]
    if missing:
        sys.exit(f"check_bench_json: {path}: record #{i} missing keys {missing}")
    if "bit_identical" in record and record["bit_identical"] != 1:
        sys.exit(f"check_bench_json: {path}: record #{i} "
                 f"({record.get('dataset')!r}) has bit_identical = "
                 f"{record['bit_identical']!r}, expected 1")
    for key in timing_keys:
        if key not in record:
            continue
        value = record[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or math.isnan(value) or math.isinf(value) or value < 0:
            sys.exit(f"check_bench_json: {path}: record #{i} field "
                     f"'{key}' = {value!r} is not a finite non-negative number")
EOF
    [ "$?" -eq 0 ] || status=1
  else
    keys=("${required_top[@]}" "${required_record[@]}")
    if grep -q '"bench": "async_throughput"' "$f"; then
      keys+=("${required_async_record[@]}")
    fi
    if grep -q '"bench": "pipeline_cache"' "$f"; then
      keys+=("${required_cache_record[@]}")
    fi
    if grep -q '"bench": "streaming_updates"' "$f"; then
      keys+=("${required_streaming_record[@]}")
    fi
    if grep -q '"bench": "cold_start"' "$f"; then
      keys+=("${required_cold_start_record[@]}")
    fi
    if grep -q '"bench": "fault_recovery"' "$f"; then
      keys+=("${required_fault_recovery_record[@]}")
    fi
    if grep -q '"bench": "micro_kernels"' "$f"; then
      keys+=("${required_micro_kernels_record[@]}")
    fi
    if grep -q '"bench": "multitenant"' "$f"; then
      keys+=("${required_multitenant_record[@]}")
    fi
    if grep -q '"bench": "crash_recovery"' "$f"; then
      keys+=("${required_crash_recovery_record[@]}")
    fi
    for key in "${keys[@]}"; do
      if ! grep -q "\"$key\"" "$f"; then
        echo "check_bench_json: $f: missing key \"$key\"" >&2
        status=1
      fi
    done
    if grep -Eq '"bit_identical": *[^1 ]' "$f"; then
      echo "check_bench_json: $f: a record has bit_identical other than 1" >&2
      status=1
    fi
    # Mirror of the python3 branch's timing sanity: printf-style emitters
    # render broken doubles as nan/inf tokens (invalid JSON, which grep
    # alone would happily pass) and negative timings as a leading minus.
    for key in "${timing_keys[@]}"; do
      if grep -Eiq "\"$key\": *-?(nan|inf)" "$f"; then
        echo "check_bench_json: $f: field \"$key\" is NaN/Inf" >&2
        status=1
      fi
      if grep -Eq "\"$key\": *-[0-9]" "$f"; then
        echo "check_bench_json: $f: field \"$key\" is negative" >&2
        status=1
      fi
    done
  fi
done

if [ "$status" -eq 0 ]; then
  echo "bench JSON OK: ${#files[@]} file(s) match the schema"
fi
exit "$status"
