# Development shortcuts (https://github.com/casey/just)

# Run every test in the workspace, under a hard wall-clock cap so a
# hung simulation (the failure mode the watchdog exists for) can never
# wedge the suite itself.
test:
    timeout 1500 cargo test --workspace

# Lint + docs, as CI runs them.
lint:
    cargo fmt --all -- --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The verification layer (see crates/verify): exhaustive model check
# of every coherence protocol, workload-IR lint over every registered
# workload, the schedcheck interleaving model check of the real atomics
# (with its ordering-mutation sweep), and the engine-vs-model
# conformance (trace refinement) campaign. The determinism +
# shim/probe-bypass rules are clippy configuration: `just lint`.
verify-static:
    cargo run --release -p bounce-verify --bin modelcheck
    cargo run --release -p bounce-bench --bin repro -- lint
    cargo run --release -p bounce-verify --bin schedcheck -- --mutate
    cargo run --release -p bounce-bench --bin repro -- conform --quick

# Regenerate every table and figure into results/ (with gnuplot scripts).
# jobs=0 means one worker per host core; jobs=1 is the serial baseline.
# Output is byte-identical at every job count.
repro jobs="0":
    cargo run --release -p bounce-bench --bin repro -- all --jobs {{jobs}} --out results/ --plots

# Quick repro (CI-speed sweeps).
repro-quick jobs="0":
    cargo run --release -p bounce-bench --bin repro -- all --quick --jobs {{jobs}} --out results-quick/

# All criterion benches.
bench:
    cargo bench --workspace

# Smoke-run the benches without measuring.
bench-check:
    cargo bench --workspace -- --test

# Run every example.
examples:
    for e in quickstart placement_advisor lock_shootout model_fit energy_explorer trace_bounces host_microbench native_sweep custom_machine; do \
        cargo run --release --example $e; done

# Compare the working tree with commit `base` on perfbench, as
# perfbench/README.md's "Comparing two commits" asks: `pairs` pairs of
# `seconds`-long runs of `workload` (`all` runs the four), alternating
# which side runs first. Prints, for each end-to-end metric in
# BENCHMARK.json, both sides' medians with quartiles, change / base, and
# the pairs the change wins, ties counted apart. `base` is checked out
# in a git worktree under a temporary directory, which holds the two
# builds and the runs' JSON and is removed on exit.
perfbench-pairs base workload pairs="10" seconds="20":
    #!/usr/bin/env bash
    set -euo pipefail
    tmp=$(mktemp -d)
    trap 'git worktree remove --force "$tmp/base" 2>/dev/null || true; git worktree prune; rm -rf "$tmp"' EXIT
    git worktree add --quiet --detach "$tmp/base" "{{base}}"
    for side in base change; do
        src=.; [ "$side" = base ] && src="$tmp/base"
        echo "building the $side side" >&2
        CARGO_TARGET_DIR="$tmp/target-$side" cargo build --release --quiet --offline \
            --manifest-path "$src/perfbench/Cargo.toml"
    done
    args=(--seconds "{{seconds}}")
    [ "{{workload}}" = all ] || args+=(--workload "{{workload}}")
    for i in $(seq 1 "{{pairs}}"); do
        order="base change"; [ $((i % 2)) -eq 0 ] && order="change base"
        for side in $order; do
            echo "pair $i of {{pairs}}: $side" >&2
            "$tmp/target-$side/release/perfbench" "${args[@]}" --json "$tmp/$side-$i.json" >/dev/null \
                || echo "pair $i: the $side run failed its output checks" >&2
        done
    done
    python3 - "$tmp" "{{pairs}}" <<'EOF'
    import json, sys
    tmp, pairs = sys.argv[1], int(sys.argv[2])
    e2e = json.load(open("BENCHMARK.json"))["end_to_end"]
    sides = ("base", "change")
    runs = {s: [] for s in sides}
    for s in sides:
        for i in range(1, pairs + 1):
            doc = json.load(open(f"{tmp}/{s}-{i}.json"))
            runs[s].append({w["name"]: w for w in doc["workloads"]})

    def quartiles(xs):
        xs = sorted(xs)
        def at(p):
            k = p * (len(xs) - 1)
            lo = int(k)
            hi = min(lo + 1, len(xs) - 1)
            return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
        return at(0.5), at(0.25), at(0.75)

    failed = 0
    for w in runs["base"][0]:
        for s in sides:
            reps = [r[w]["timed_reps"] for r in runs[s]]
            digests = sorted({r[w]["digest"] for r in runs[s]})
            fails = sum(len(r[w]["failures"]) for r in runs[s])
            failed += fails
            print(f"{w} {s}: {min(reps)}-{max(reps)} repetitions per run, "
                  f"digests {', '.join(digests)}, {fails} failed points")
    print()
    print("| workload | metric | base median [q1, q3] | change median [q1, q3] "
          "| change / base | change wins | gap > base IQR |")
    print("|---|---|---|---|---|---|---|")
    for w in runs["base"][0]:
        for m in e2e:
            name = m["name"]
            b = [r[w]["metrics"][name]["value"] for r in runs["base"]]
            c = [r[w]["metrics"][name]["value"] for r in runs["change"]]
            better = (lambda x, y: y < x) if m["better"] == "lower" else (lambda x, y: y > x)
            wins = sum(better(x, y) for x, y in zip(b, c))
            ties = sum(x == y for x, y in zip(b, c))
            (bm, bq1, bq3), (cm, cq1, cq3) = quartiles(b), quartiles(c)
            ratio = f"{cm / bm:.3f}" if bm else "n/a"
            gap = "yes" if abs(cm - bm) > bq3 - bq1 else "no"
            print(f"| {w} | {name} | {bm:.4g} [{bq1:.4g}, {bq3:.4g}] "
                  f"| {cm:.4g} [{cq1:.4g}, {cq3:.4g}] | {ratio} "
                  f"| {wins}/{pairs} ({ties} ties) | {gap} |")
    sys.exit(1 if failed else 0)
    EOF
