#!/bin/sh
# Tier-1 verification for the PANDAS reproduction (referenced from
# ROADMAP.md). Fails fast on the first broken step.
set -eu

cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

# Layering: the socket transport carries wire messages and knows nothing of
# the protocol; what hosts a node on it lives in internal/swarm.
echo "== layering: internal/transport does not depend on internal/core"
if go list -deps ./internal/transport | grep -qx 'pandas/internal/core'; then
	echo "layering: internal/transport imports internal/core" >&2
	exit 1
fi

# The adversary package wraps components through interfaces and hooks;
# core wires it up, so the dependency runs one way only (DESIGN.md §3.8).
echo "== layering: internal/adversary does not depend on internal/core"
if go list -deps ./internal/adversary | grep -qx 'pandas/internal/core'; then
	echo "layering: internal/adversary imports internal/core" >&2
	exit 1
fi

# The blob owns the withheld square, its size and its detection bound;
# it knows nothing of who withholds or of the protocol.
echo "== layering: internal/blob does not depend on internal/adversary or internal/core"
if go list -deps ./internal/blob | grep -qxE 'pandas/internal/(adversary|core)'; then
	echo "layering: internal/blob imports internal/adversary or internal/core" >&2
	exit 1
fi

# The churn engine owns who is online and is driven by core, which reads
# the scenario list and calls the engine's transitions; the engine never
# reads a scenario or an adversary config (DESIGN.md §3.5).
echo "== layering: internal/membership does not depend on internal/core or internal/adversary"
if go list -deps ./internal/membership | grep -qxE 'pandas/internal/(adversary|core)'; then
	echo "layering: internal/membership imports internal/core or internal/adversary" >&2
	exit 1
fi

# Peer health (timeout backoff, its penalty, its trace events) is node
# state in internal/core; membership owns views and the churn engine and
# neither traces nor plans fetches (DESIGN.md §3.5).
echo "== layering: internal/membership does not depend on internal/obsv or internal/fetch"
if go list -deps ./internal/membership | grep -qxE 'pandas/internal/(obsv|fetch)'; then
	echo "layering: internal/membership imports internal/obsv or internal/fetch" >&2
	exit 1
fi

# The Kademlia DHT serves only the Fig. 12/14 baseline (DHT-based DAS).
# Churn runs keep no per-node DHT peers: a restarting node reloads its
# bootstrap view instead of crawling (DESIGN.md §3.5).
echo "== layering: internal/core and internal/membership do not depend on internal/dht"
if go list -deps ./internal/core ./internal/membership | grep -qx 'pandas/internal/dht'; then
	echo "layering: internal/core or internal/membership imports internal/dht" >&2
	exit 1
fi

# The simulator counts traffic in simnet.NodeStats; it keeps no metrics
# registry. The only exported counters are pandas-node -metrics's totals
# of its slot records.
echo "== layering: internal/simnet does not depend on internal/obsv"
if go list -deps ./internal/simnet | grep -qx 'pandas/internal/obsv'; then
	echo "layering: internal/simnet imports internal/obsv" >&2
	exit 1
fi

# The evaluation runs on the simulator; real-socket runs are pandas-swarm's
# and pandas-node's.
echo "== layering: internal/experiments does not depend on internal/swarm or internal/transport"
if go list -deps ./internal/experiments | grep -qxE 'pandas/internal/(swarm|transport)'; then
	echo "layering: internal/experiments imports internal/swarm or internal/transport" >&2
	exit 1
fi

echo "== go build ./..."
go build ./...

# The sizes every simplicity change reports, bench/ excluded: non-test Go
# and all Go, tests included.
go_files=$(git ls-files '*.go' | grep -v '^bench/')
echo "== non-test Go lines: $(echo "$go_files" | grep -v _test.go | xargs cat | wc -l), all Go lines: $(echo "$go_files" | xargs cat | wc -l)"

echo "== go test ./..."
go test ./...

# Fixed-seed outputs must not depend on goroutine scheduling or map
# order: run the tests that pin them five more times on one and two CPUs,
# so an output that moves one run in ten fails here. They pin the rendered
# experiments, the metrics views (TestPlanGolden) and, since
# TestTraceGolden, the JSONL event traces too. In kzg,
# TestHashRowsDeterministic pins the builder's parallel row digests to the
# serial ones; in core, TestBuilderPipelinedMatchesMonolithic and
# TestTransmitMatchesReference pin the builder's concurrent prove and
# transmit stages to the serial forms, TestBuilderSeedingReusesArenas
# holds both to a few allocations a slot once the arenas have grown,
# TestSeedDatagramsLandWithinTheirSlot checks that the simulator is done
# with every seed datagram before the next slot reuses the arenas,
# TestRecycledMessagesMatchFresh pins runs whose fetch messages are
# recycled (and poisoned on release) to runs with fresh ones,
# TestSimulatedSlotRecyclesMessages holds a simulated slot to a fifth of
# what it allocated with a fresh message per send,
# TestPlanRoundMatchesReference pins the round planner's under-k
# coverage lists to unfiltered ones, TestStaticClusterBacksOffDeadPeers
# checks that a static cluster's live nodes time out dead holders (peer
# health has no switch, so no runtime fetches without it),
# TestSeedPlanMatchesReference pins the seed plan and its boost packing
# to the map-based planner, TestSeedSizesMatchEncoding checks every
# seed datagram, which transmit builds on every core, against its
# encoding, and TestBuilderBoostMapIsExact checks each holder's share of
# the CB map: the stratified draw and the class-by-class layout of the
# shares must not depend on scheduling either.
echo "== fixed-seed tests x5 at -cpu 1,2 (experiments, core, baseline, kzg)"
go test -run 'Deterministic|Golden|TestBuilderPipelinedMatchesMonolithic|TestTransmitMatchesReference|TestBuilderSeedingReusesArenas|TestRecycledMessagesMatchFresh|TestSimulatedSlotRecyclesMessages|TestSeedDatagramsLandWithinTheirSlot|TestPlanRoundMatchesReference|TestStaticClusterBacksOffDeadPeers|TestSeedPlanMatchesReference|TestSeedSizesMatchEncoding|TestBuilderBoostMapIsExact' -count=5 -cpu 1,2 \
	./internal/experiments ./internal/core ./internal/baseline ./internal/kzg

# Every internal package runs under the race detector except experiments,
# whose rendered goldens already take minutes without it (run above), and
# so does pandas-node, whose metrics handler reads what its event loop adds.
echo "== go test -race (internal/..., experiments excluded; cmd/pandas-node)"
go test -race $(go list ./internal/... | grep -v /experiments$) ./cmd/pandas-node

# The purego tag compiles out the AVX-512 kernels: the scalar butterflies
# and multiplies every non-AVX-512 machine runs, which both encode and
# decode now depend on, get the same differential tests, and the store
# decodes restored cells into its own memory on them too.
echo "== go test -tags purego (gf65536, rs, blob, core)"
go test -tags purego ./internal/gf65536 ./internal/rs ./internal/blob ./internal/core

echo "== fuzz: FFT decode vs the Vandermonde matrix oracle (10 s)"
go test ./internal/rs -run '^$' -fuzz FuzzReconstructMatchesMatrix -fuzztime 10s

# The datagram decoder parses whatever arrives on the socket, in place:
# differential against the copying reference decoder kept in its test file.
echo "== fuzz: in-place wire decode vs the copying reference (10 s)"
go test ./internal/wire -run '^$' -fuzz FuzzDecode -fuzztime 10s

# The lazy planner's one-word heap keys against a stable sort of every
# candidate, scores drawn up to both ends of the int32 range.
echo "== fuzz: lazy fetch planning vs the stable-sort oracle (10 s)"
go test ./internal/fetch -run '^$' -fuzz FuzzPlanLazyFrom -fuzztime 10s

# One iteration of every benchmark, so none can rot; -short skips the
# paper-scale ones (a 1,000-node slot alone runs for ~25 s). Measure with
# a fixed count, e.g. -benchtime 20000x -count 5.
echo "== every benchmark compiles and runs (1 iteration, -short)"
go test -short -run '^$' -bench . -benchtime 1x ./...

# bench/ is its own module (pandas/bench, replace pandas => ../), so the
# ./... patterns above never compile it: an internal rename would break
# the benchmark silently until the pipeline runs it.
echo "== bench module: go vet + go test"
(
	cd bench
	go vet ./...
	go test -skip '^TestQuickSmoke$' ./...
	# TestQuickSmoke profiles two 16-node slots per workload, which finish
	# in about one tick of the 100 Hz CPU profiler; when no tick lands in
	# one the harness reports "pprof traces: no samples". Since dead nodes
	# stopped running their 50 idle rounds, the quick sim_real_faulty slot
	# is cheaper still, and on a 2-vCPU box 11 runs in 15 failed this way
	# (5 in 15 before). bench/ is frozen outside benchmark PRs, so until
	# the harness accepts an empty quick profile that one failure gets
	# twenty attempts here.
	attempts=20
	attempt=1
	until out=$(go test -count=1 -run '^TestQuickSmoke$' ./... 2>&1); do
		echo "$out"
		case "$out" in
		*"pprof traces: no samples"*) [ "$attempt" -lt "$attempts" ] || exit 1 ;;
		*) exit 1 ;;
		esac
		attempt=$((attempt + 1))
	done
	echo "$out"
)

echo "== evaluation suite smoke (reduced geometry, 60 nodes, 1 slot)"
go run ./cmd/pandas-sim -small -exp all -nodes 60 -slots 1 >/dev/null

# The examples are the module's callers of its packages: each must build
# and run to a zero exit.
for dir in examples/*/; do
	echo "== example ${dir%/}"
	go run "./$dir" >/dev/null
done

echo "== swarm smoke (8 processes, 1 slot, real UDP)"
go run ./cmd/pandas-swarm -n 8 -k 4 -samples 4 -slots 1 -timeout 90s -q

# Two of the eight nodes are killed 10 ms into each slot; each is restarted,
# registers on a new control connection and is handed the slot in flight.
echo "== swarm kill/restart smoke (8 processes, 2 slots, 25% killed per slot)"
out=$(go run ./cmd/pandas-swarm -n 8 -k 4 -samples 4 -slots 2 -kill 0.25 -kill-delay 10ms -timeout 90s -q)
echo "$out"
echo "$out" | grep -q '^total restarts: [1-9]' || { echo "swarm kill smoke: nothing was restarted" >&2; exit 1; }
echo "$out" | grep -Eq '^2 +8/8 ' || { echo "swarm kill smoke: slot 2 did not harvest 8/8 reports" >&2; exit 1; }

# The run EXPERIMENTS.md quotes: 32 nodes, 10% killed 100 ms into each
# slot. Here 31 peers, not 7, must learn each successor's new address from
# the supervisor.
echo "== swarm kill/restart at 32 nodes (33 processes, 3 slots, 10% killed per slot)"
out=$(go run ./cmd/pandas-swarm -n 32 -slots 3 -kill 0.1 -timeout 120s -q)
echo "$out"
echo "$out" | grep -q '^total restarts: [1-9]' || { echo "swarm 32-node kill run: nothing was restarted" >&2; exit 1; }
[ "$(echo "$out" | grep -Ec '^[1-3] +32/32 ')" -eq 3 ] || { echo "swarm 32-node kill run: a slot did not harvest 32/32 reports" >&2; exit 1; }

# Hand-launched static-peers mode: nothing drives the nodes but the
# builder's seeds, so slot 2 completing on every node shows they follow it.
# -k 4 -custody 8 gives every node every line, so three nodes cover all.
# Node 0 and the builder export -metrics: the builder writes its totals
# when its last slot is done, node 0 when it drains on SIGINT.
echo "== static-mode smoke (3 nodes + builder, 2 slots, real UDP)"
(
	dir=$(mktemp -d)
	trap 'kill $pids 2>/dev/null || true; rm -rf "$dir"' EXIT
	go build -o "$dir/pandas-node" ./cmd/pandas-node
	base=$((21000 + $$ % 20000))
	for i in 0 1 2 3; do echo "127.0.0.1:$((base + i))"; done >"$dir/peers.txt"
	flags="-peers $dir/peers.txt -seed 7 -k 4 -custody 8 -samples 4"
	pids=""
	for i in 0 1 2; do
		metrics=""
		[ $i -ne 0 ] || metrics="-metrics 127.0.0.1:0"
		"$dir/pandas-node" $flags -index $i $metrics >"$dir/node$i.log" 2>&1 &
		pids="$pids $!"
		[ $i -ne 0 ] || node0=$!
	done
	for i in 0 1 2; do
		n=0
		until grep -q '^ready ' "$dir/node$i.log"; do
			n=$((n + 1))
			[ $n -lt 100 ] || { echo "static smoke: node $i never became ready" >&2; exit 1; }
			sleep 0.1
		done
	done
	"$dir/pandas-node" $flags -index 3 -builder -slots 2 -slot-gap 2s -metrics 127.0.0.1:0 >"$dir/builder.log" 2>&1
	kill -INT $node0
	wait $node0 || { echo "static smoke: node 0 did not drain cleanly" >&2; cat "$dir/node0.log" >&2; exit 1; }
	for i in 0 1 2; do
		grep -q '^slot 2: .*sampled=true' "$dir/node$i.log" || {
			echo "static smoke: node $i did not sample slot 2:" >&2
			cat "$dir/node$i.log" "$dir/builder.log" >&2
			exit 1
		}
	done
	grep -q '^node_slots_completed_total 2$' "$dir/node0.log" || {
		echo "static smoke: node 0's drained totals lack node_slots_completed_total 2:" >&2
		cat "$dir/node0.log" >&2
		exit 1
	}
	grep -q '^builder_slot 2$' "$dir/builder.log" || {
		echo "static smoke: the builder did not write its totals after its last slot:" >&2
		cat "$dir/builder.log" >&2
		exit 1
	}
)

echo "verify: OK"
