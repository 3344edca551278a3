#!/usr/bin/env bash
# Repo gate, composable: `check.sh <step>` runs one stage, `check.sh all`
# (or no argument) runs the full gate. CI invokes the same steps one by
# one, so the gate and the workflow cannot diverge — edm-audit's
# ci.workflow_gate rule checks the STEPS list below against
# .github/workflows/ci.yml.
#
#   check.sh fmt     rustfmt --check
#   check.sh lint    clippy, warnings denied
#   check.sh audit   edm-audit static analysis
#   check.sh build   release build
#   check.sh test    cargo test
#   check.sh smoke   perf + obs + checkpoint/resume smokes
#   check.sh spec    edm-spec conformance replay of smoke + corpus journals
#   check.sh serve   edm-serve daemon: ingest pipeline, kill/resume, replay digest
#   check.sh fuzz    edm-fuzz smoke batch (+ fuzz_throughput bench cell)
#   check.sh model   analytic-model differential gate (edm-exp model-diff
#                    vs scripts/model_tolerances.json, + model_* bench cells)
#   check.sh tsan    ThreadSanitizer lane over the serve tests (advisory;
#                    skips cleanly without a nightly toolchain + rust-src)
#
# EDM_CHECK_QUICK=1 shrinks the expensive steps (test -> workspace lib
# tests only, smoke/spec/fuzz -> skipped) for local edit loops.
set -euo pipefail
cd "$(dirname "$0")/.."

STEPS="fmt lint audit build test smoke spec serve fuzz model tsan"
QUICK="${EDM_CHECK_QUICK:-0}"

# Resolve a release binary inside the active target directory. The steps
# used to hardcode ./target/release/<bin>, which ran stale (or missing)
# binaries whenever CARGO_TARGET_DIR pointed the build somewhere else.
bin() {
    printf '%s/release/%s' "${CARGO_TARGET_DIR:-target}" "$1"
}

# Temp dirs live in an array cleaned by a single EXIT trap, so any number
# of steps can allocate scratch space without a later `trap ... EXIT`
# silently replacing (and leaking) an earlier step's cleanup. scratch_dir
# reports through the SCRATCH_DIR global rather than stdout: a command
# substitution would fork the append into a subshell, leaking the dir.
CLEANUP_DIRS=()
cleanup() {
    for d in "${CLEANUP_DIRS[@]-}"; do
        if [ -n "$d" ]; then
            rm -rf "$d"
        fi
    done
}
trap cleanup EXIT
scratch_dir() {
    SCRATCH_DIR="$(mktemp -d)"
    CLEANUP_DIRS+=("$SCRATCH_DIR")
}

step_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
}

step_lint() {
    echo "==> cargo clippy (deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
}

step_audit() {
    echo "==> edm-audit"
    # Determinism & panic-hygiene static analysis: exits nonzero on any
    # unsuppressed finding. Runs before the release build so rule
    # violations surface in seconds, not after a full compile.
    cargo run -q -p edm-audit --bin edm-audit
}

step_build() {
    echo "==> cargo build --release"
    cargo build --release
}

step_test() {
    if [ "$QUICK" = "1" ]; then
        echo "==> cargo test (quick: lib tests only)"
        cargo test -q --workspace --lib
    else
        echo "==> cargo test"
        cargo test -q
    fi
}

step_smoke() {
    if [ "$QUICK" = "1" ]; then
        echo "==> smoke skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    echo "==> edm-perf --smoke"
    "$(bin edm-perf)" --smoke

    echo "==> obs smoke (edm-sim --obs-level events + edm-probe --journal)"
    local obs_dir
    scratch_dir; obs_dir="$SCRATCH_DIR"
    cat > "$obs_dir/smoke.scn" <<'EOF'
trace home02
scale 0.004
osds 8
groups 4
policy EDM-HDF
schedule midpoint
force true
EOF
    "$(bin edm-sim)" "$obs_dir/smoke.scn" \
        --obs "$obs_dir/smoke.jsonl" --obs-level events > /dev/null
    # The probe exits nonzero if any journal line fails to parse.
    local probe_out
    probe_out="$("$(bin edm-probe)" --journal "$obs_dir/smoke.jsonl")"
    echo "$probe_out" | grep -q "trigger evaluations" \
        || { echo "obs smoke: no trigger evaluations in journal"; exit 1; }
    echo "$probe_out" | grep -q "ftl.block_erases" \
        || { echo "obs smoke: no erase counter in journal"; exit 1; }
    grep -q '"kind":"trigger_eval"' "$obs_dir/smoke.jsonl" \
        || { echo "obs smoke: trigger_eval event missing"; exit 1; }
    grep -q '"rsd":' "$obs_dir/smoke.jsonl" \
        || { echo "obs smoke: rsd field missing"; exit 1; }
    local event_count
    event_count="$(wc -l < "$obs_dir/smoke.jsonl")"
    [ "$event_count" -gt 0 ] || { echo "obs smoke: empty journal"; exit 1; }
    echo "obs smoke: $event_count journal lines OK"

    echo "==> checkpoint/resume smoke (edm-sim --checkpoint-* / --resume / edm-probe --snapshot)"
    # An uninterrupted run and a run resumed from a mid-run checkpoint
    # must print bit-identical reports and determinism digests.
    local ckpt_dir
    scratch_dir; ckpt_dir="$SCRATCH_DIR"
    cat > "$ckpt_dir/ckpt.scn" <<'EOF'
trace home02
scale 0.002
osds 8
policy EDM-CDF
schedule every-tick
fail 150000 1 rebuild
EOF
    "$(bin edm-sim)" "$ckpt_dir/ckpt.scn" \
        --checkpoint-every 0 --checkpoint-dir "$ckpt_dir/ckpts" \
        > "$ckpt_dir/uninterrupted.txt" 2> /dev/null
    local snap_count mid_snap
    snap_count="$(ls "$ckpt_dir"/ckpts/*.snap | wc -l)"
    [ "$snap_count" -ge 2 ] \
        || { echo "ckpt smoke: want >=2 checkpoints, got $snap_count"; exit 1; }
    mid_snap="$(ls "$ckpt_dir"/ckpts/*.snap | sed -n "$(( (snap_count + 1) / 2 ))p")"
    "$(bin edm-sim)" --resume "$mid_snap" \
        > "$ckpt_dir/resumed.txt" 2> /dev/null
    diff "$ckpt_dir/uninterrupted.txt" "$ckpt_dir/resumed.txt" \
        || { echo "ckpt smoke: resumed run diverged from uninterrupted run"; exit 1; }
    grep -q "determinism digest 0x" "$ckpt_dir/resumed.txt" \
        || { echo "ckpt smoke: no determinism digest printed"; exit 1; }
    local probe_snap
    probe_snap="$("$(bin edm-probe)" --snapshot "$mid_snap")"
    echo "$probe_snap" | grep -q "embedded scenario" \
        || { echo "ckpt smoke: probe found no embedded scenario"; exit 1; }
    echo "$probe_snap" | grep -q "policy          EDM-CDF" \
        || { echo "ckpt smoke: probe manifest missing policy"; exit 1; }
    echo "ckpt smoke: $snap_count checkpoints, resume digest matches OK"
}

step_spec() {
    if [ "$QUICK" = "1" ]; then
        echo "==> spec skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    echo "==> spec conformance (edm-sim --obs + edm-probe --verify)"
    # The obs smoke shape plus every corpus scenario: each run's event
    # journal must replay cleanly through the edm-spec state machine
    # (edm-probe --verify exits nonzero on the first illegal transition).
    local spec_dir
    scratch_dir; spec_dir="$SCRATCH_DIR"
    cat > "$spec_dir/smoke.scn" <<'EOF'
trace home02
scale 0.004
osds 8
groups 4
policy EDM-HDF
schedule midpoint
force true
EOF
    local n=0 scn name
    for scn in "$spec_dir/smoke.scn" fuzz/corpus/*.scn; do
        name="$(basename "$scn" .scn)"
        "$(bin edm-sim)" "$scn" \
            --obs "$spec_dir/$name.jsonl" --obs-level events > /dev/null
        "$(bin edm-probe)" --verify "$spec_dir/$name.jsonl" \
            | grep -q "conformant" \
            || { echo "spec: $name journal violates the EDM spec"; exit 1; }
        n=$((n + 1))
    done
    echo "spec: $n scenario journals conformant"

    echo "==> spec component-affine journal (1024 OSDs, 8 placement components)"
    # The datacenter shape under component client affinity: its journal
    # must pass the full spec, the queue-model and plan-source checks
    # included.
    cat > "$spec_dir/dc.scn" <<'EOF'
trace home02
scale 0.001
osds 1024
groups 32
objects_per_file 4
policy EDM-HDF
schedule every-tick
stride 4
affinity component
EOF
    "$(bin edm-sim)" "$spec_dir/dc.scn" \
        --obs "$spec_dir/dc.jsonl" --obs-level events > /dev/null
    "$(bin edm-probe)" --verify "$spec_dir/dc.jsonl" > /dev/null \
        || { echo "spec: 1024-OSD component-affine journal violates the EDM spec"; exit 1; }
    echo "spec: 1024-OSD component-affine journal conformant"
}

# --- serve helpers: raw HTTP over bash /dev/tcp (no curl dependency) ---
serve_get() { # <port> <path> -> body on stdout
    exec 3<>"/dev/tcp/127.0.0.1/$1" || return 1
    printf 'GET %s HTTP/1.1\r\n\r\n' "$2" >&3
    local reply
    reply="$(cat <&3)"
    exec 3<&- 3>&-
    printf '%s' "${reply#*$'\r\n\r\n'}"
}

serve_post() { # <port> <path> [body-file] -> body on stdout
    local len=0
    if [ -n "${3:-}" ]; then
        len="$(wc -c < "$3")"
    fi
    exec 3<>"/dev/tcp/127.0.0.1/$1" || return 1
    {
        printf 'POST %s HTTP/1.1\r\nContent-Length: %s\r\n\r\n' "$2" "$len"
        if [ -n "${3:-}" ]; then cat "$3"; fi
    } >&3
    local reply
    reply="$(cat <&3)"
    exec 3<&- 3>&-
    case "$reply" in
        "HTTP/1.1 200"*) ;;
        *) echo "serve: POST $2 -> ${reply%%$'\r'*}" >&2; return 1 ;;
    esac
    printf '%s' "${reply#*$'\r\n\r\n'}"
}

serve_wait_port() { # <port-file>; sets SERVE_PORT
    local i
    for i in $(seq 1 200); do
        if [ -s "$1" ]; then
            SERVE_PORT="$(head -n1 "$1")"
            return 0
        fi
        sleep 0.05
    done
    echo "serve: daemon never wrote its port file $1"
    exit 1
}

serve_wait_health() { # <port> <healthz-substring> <description>
    local i
    for i in $(seq 1 1200); do
        if serve_get "$1" /healthz 2> /dev/null | grep -q "$2"; then
            return 0
        fi
        sleep 0.05
    done
    echo "serve: timed out waiting for $3"
    serve_get "$1" /healthz 2> /dev/null || true
    exit 1
}

step_serve() {
    if [ "$QUICK" = "1" ]; then
        echo "==> serve skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    echo "==> serve gate (live daemon: ingest, kill/resume convergence, replay digest)"
    local serve_dir
    scratch_dir; serve_dir="$SCRATCH_DIR"
    # The fuzz-corpus live scenario: crosses wear ticks and fires
    # migrations within a ~1200-op stream.
    cat > "$serve_dir/live.scn" <<'EOF'
trace random
scale 0.002
schedule every-tick
lambda 0.05
EOF
    "$(bin edm-serve)" --dump-ops "$serve_dir/live.scn" > "$serve_dir/ops.txt"
    local total_ops
    total_ops="$(wc -l < "$serve_dir/ops.txt")"
    [ "$total_ops" -gt 500 ] || { echo "serve: suspiciously short op stream"; exit 1; }

    # (1) Dilated live replay must reproduce the batch digest, and its
    # journal must conform to the EDM spec.
    local batch_digest
    batch_digest="$("$(bin edm-sim)" "$serve_dir/live.scn" 2> /dev/null \
        | grep -o "determinism digest 0x[0-9a-f]*" | grep -o "0x[0-9a-f]*")"
    [ -n "$batch_digest" ] || { echo "serve: edm-sim printed no digest"; exit 1; }
    "$(bin edm-serve)" "$serve_dir/live.scn" --speed 100000 \
        --port-file "$serve_dir/replay.port" --journal "$serve_dir/replay.jsonl" \
        > /dev/null &
    local replay_pid=$!
    serve_wait_port "$serve_dir/replay.port"
    serve_wait_health "$SERVE_PORT" '"done":true' "the dilated replay to finish"
    serve_get "$SERVE_PORT" /stats > "$serve_dir/replay-stats.json"
    serve_post "$SERVE_PORT" /shutdown > /dev/null
    wait "$replay_pid"
    grep -q "\"digest\":\"$batch_digest\"" "$serve_dir/replay-stats.json" \
        || { echo "serve: live replay digest diverged from edm-sim $batch_digest"; \
             cat "$serve_dir/replay-stats.json"; exit 1; }
    "$(bin edm-probe)" --verify "$serve_dir/replay.jsonl" | grep -q "conformant" \
        || { echo "serve: replay journal violates the EDM spec"; exit 1; }

    # (2) Uninterrupted ingest run: the full stream through POST /ingest.
    # Its journal must also verify, and /plan must carry a real plan.
    "$(bin edm-serve)" "$serve_dir/live.scn" --mode ingest \
        --port-file "$serve_dir/a.port" --journal "$serve_dir/ingest.jsonl" \
        > /dev/null &
    local a_pid=$!
    serve_wait_port "$serve_dir/a.port"
    { cat "$serve_dir/ops.txt"; echo "end"; } > "$serve_dir/ops-end.txt"
    serve_post "$SERVE_PORT" /ingest "$serve_dir/ops-end.txt" > /dev/null
    serve_wait_health "$SERVE_PORT" '"done":true' "the uninterrupted ingest run"
    serve_get "$SERVE_PORT" /healthz | grep -q '"ok":true' \
        || { echo "serve: daemon unhealthy after ingest"; exit 1; }
    serve_get "$SERVE_PORT" /plan > "$serve_dir/plan.json"
    grep -q '"plan_chosen"' "$serve_dir/plan.json" \
        || { echo "serve: /plan carries no chosen plan"; cat "$serve_dir/plan.json"; exit 1; }
    serve_get "$SERVE_PORT" /stats > "$serve_dir/stats-uninterrupted.json"
    serve_post "$SERVE_PORT" /shutdown > /dev/null
    wait "$a_pid"
    grep -q "\"applied_ops\":$total_ops" "$serve_dir/stats-uninterrupted.json" \
        || { echo "serve: ingest run did not apply all $total_ops ops"; exit 1; }
    "$(bin edm-probe)" --verify "$serve_dir/ingest.jsonl" | grep -q "conformant" \
        || { echo "serve: ingest journal violates the EDM spec"; exit 1; }

    # (3) Kill-and-resume: feed a third of the stream, cut a checkpoint,
    # kill -9 the daemon, resume from the snapshot, re-feed the ENTIRE
    # stream. Dedup skips the checkpointed prefix and /stats must
    # converge bit-identically on the uninterrupted run's.
    local part
    part=$(( total_ops / 3 ))
    head -n "$part" "$serve_dir/ops.txt" > "$serve_dir/ops-part.txt"
    "$(bin edm-serve)" "$serve_dir/live.scn" --mode ingest \
        --port-file "$serve_dir/b.port" --checkpoint-dir "$serve_dir/ckpts" \
        > /dev/null &
    local b_pid=$!
    serve_wait_port "$serve_dir/b.port"
    serve_post "$SERVE_PORT" /ingest "$serve_dir/ops-part.txt" > /dev/null
    serve_wait_health "$SERVE_PORT" "\"ingest_accepted\":$part,\"ingest_buffered\":0" \
        "the partial stream to drain"
    serve_post "$SERVE_PORT" /checkpoint > /dev/null
    serve_wait_health "$SERVE_PORT" '"checkpoints":1' "the checkpoint to be cut"
    kill -9 "$b_pid"
    wait "$b_pid" 2> /dev/null || true
    local snap
    snap="$(ls "$serve_dir"/ckpts/*.snap | tail -n1)"
    [ -n "$snap" ] || { echo "serve: no checkpoint survived the kill"; exit 1; }
    "$(bin edm-serve)" --resume "$snap" --mode ingest \
        --port-file "$serve_dir/c.port" > /dev/null &
    local c_pid=$!
    serve_wait_port "$serve_dir/c.port"
    serve_post "$SERVE_PORT" /ingest "$serve_dir/ops-end.txt" > /dev/null
    serve_wait_health "$SERVE_PORT" '"done":true' "the resumed ingest run"
    serve_get "$SERVE_PORT" /healthz | grep -q "\"skipped_ops\":$part" \
        || { echo "serve: resume dedup did not skip the checkpointed prefix"; \
             serve_get "$SERVE_PORT" /healthz; exit 1; }
    serve_get "$SERVE_PORT" /stats > "$serve_dir/stats-resumed.json"
    serve_post "$SERVE_PORT" /shutdown > /dev/null
    wait "$c_pid"
    diff "$serve_dir/stats-uninterrupted.json" "$serve_dir/stats-resumed.json" \
        || { echo "serve: killed-and-resumed /stats diverged from uninterrupted run"; exit 1; }
    echo "serve: replay digest $batch_digest matches, journals conformant, kill/resume converges OK"
}

step_fuzz() {
    if [ "$QUICK" = "1" ]; then
        echo "==> fuzz skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    echo "==> edm-fuzz --bench (oracle smoke + fuzz_throughput cell)"
    # A fixed seed-1 batch through the full differential-oracle battery;
    # merges the fuzz_throughput cell into BENCH_edm.json. Nightly CI
    # runs the long-budget variant.
    "$(bin edm-fuzz)" --bench
}

step_model() {
    if [ "$QUICK" = "1" ]; then
        echo "==> model skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    echo "==> model-diff gate (edm-exp model-diff vs scripts/model_tolerances.json)"
    # Differential cross-validation of the analytic mean-field model
    # (edm-model) against the simulator over every fuzz-corpus scenario:
    # per-scenario KS distance, max relative erase error, and GC-rate
    # error must stay within the committed tolerances. Also merges the
    # model_* cells into BENCH_edm.json.
    "$(bin edm-exp)" model-diff
}

step_tsan() {
    if [ "$QUICK" = "1" ]; then
        echo "==> tsan skipped (EDM_CHECK_QUICK=1)"
        return 0
    fi
    echo "==> tsan (nightly -Zsanitizer=thread over edm-serve tests)"
    # ThreadSanitizer instruments std itself, so it needs a nightly
    # toolchain with the rust-src component (-Zbuild-std). The lane is
    # advisory and environment-gated: machines without that toolchain
    # skip cleanly instead of failing the gate. The blocking layer for
    # concurrency bugs stays edm-audit's conc.* static rules; this lane
    # catches the dynamic races those can't see.
    if ! command -v rustup > /dev/null 2>&1; then
        echo "tsan: rustup not available, skipping"
        return 0
    fi
    if ! rustup toolchain list 2> /dev/null | grep -q '^nightly'; then
        echo "tsan: no nightly toolchain installed, skipping"
        return 0
    fi
    if ! rustup component list --toolchain nightly --installed 2> /dev/null \
        | grep -q '^rust-src'; then
        echo "tsan: nightly rust-src missing (needed for -Zbuild-std), skipping"
        return 0
    fi
    local host
    host="$(rustc -vV | sed -n 's/^host: //p')"
    # Only the crate with real thread concurrency in library code: the
    # serve daemon (listener + worker + journal threads).
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -q -Zbuild-std --target "$host" \
        -p edm-serve
    echo "tsan: serve test suite clean under ThreadSanitizer"
}

run_step() {
    case "$1" in
        fmt)   step_fmt ;;
        lint)  step_lint ;;
        audit) step_audit ;;
        build) step_build ;;
        test)  step_test ;;
        smoke) step_smoke ;;
        spec)  step_spec ;;
        serve) step_serve ;;
        fuzz)  step_fuzz ;;
        model) step_model ;;
        tsan)  step_tsan ;;
        all)
            for s in $STEPS; do
                run_step "$s"
            done
            ;;
        *)
            echo "check.sh: unknown step '$1' (steps: $STEPS all)" >&2
            exit 2
            ;;
    esac
}

run_step "${1:-all}"
echo "check.sh: '${1:-all}' passed."
