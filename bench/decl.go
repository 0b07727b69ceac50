package main

import "fmt"

// decl declares one metric: the same name, unit and direction appear in
// BENCHMARK.json (a test keeps the two in step). bound, on end-to-end
// metrics only, is the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type decl struct {
	name, unit, better string
	bound              float64
}

var endToEndDecls = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"slot_wall_s", "s", "lower", 0.25},
	{"slot_cpu_s", "s", "lower", 0.25},
	{"sample_p50_ms", "ms", "lower", 0.25},
	{"sample_p99_ms", "ms", "lower", 0.20},
	{"deadline_share", "ratio", "higher", 0.01},
	{"fetch_msgs_per_node", "count", "lower", 0.15},
	{"fetch_kb_per_node", "KB", "lower", 0.06},
	{"builder_mb_out", "MB", "lower", 0.06},
	{"alloc_mb_per_slot", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayerDecls lists every per-layer metric a traced run reports. One
// that does not apply to the workload is reported as 0.
var perLayerDecls = []decl{
	// CPU profile, attributed to the innermost pandas/internal frame.
	{"gf65536.cpu_share", "ratio", "lower", 0},
	{"rs.cpu_share", "ratio", "lower", 0},
	{"blob.cpu_share", "ratio", "lower", 0},
	{"kzg.cpu_share", "ratio", "lower", 0},
	{"wire.cpu_share", "ratio", "lower", 0},
	{"transport.cpu_share", "ratio", "lower", 0},
	{"simnet.cpu_share", "ratio", "lower", 0},
	{"fetch.cpu_share", "ratio", "lower", 0},
	{"core.cpu_share", "ratio", "lower", 0},
	{"assign.cpu_share", "ratio", "lower", 0},
	{"obsv.cpu_share", "ratio", "lower", 0},
	{"runtime_gc.cpu_share", "ratio", "lower", 0},
	{"other.cpu_share", "ratio", "lower", 0},
	// CPU profile, time anywhere under an exported entry point.
	{"rs.reconstruct.cum_share", "ratio", "lower", 0},
	{"core.store_try_reconstruct.cum_share", "ratio", "lower", 0},
	{"kzg.verify.cum_share", "ratio", "lower", 0},
	{"rs.encode.cum_share", "ratio", "lower", 0},
	{"kzg.prove_all.cum_share", "ratio", "lower", 0},
	{"blob.extend.cum_share", "ratio", "lower", 0},
	{"fetch.plan_lazy.cum_share", "ratio", "lower", 0},
	{"core.handle_message.cum_share", "ratio", "lower", 0},
	{"wire.codec.cum_share", "ratio", "lower", 0},
	// Decorated transport and receive handler (udp_local).
	{"transport.send_busy_ms_per_slot", "ms", "lower", 0},
	{"core.handle_busy_ms_per_slot", "ms", "lower", 0},
	{"transport.udp_datagrams_per_slot", "count", "lower", 0},
	{"transport.udp_bytes_per_slot", "count", "lower", 0},
	{"transport.udp_lost_share", "ratio", "lower", 0},
	// Simulator and Go runtime counters.
	{"simnet.events_per_slot", "count", "lower", 0},
	{"simnet.ns_per_event", "ns", "lower", 0},
	{"simnet.dropped_share", "ratio", "lower", 0},
	{"runtime.mallocs_per_slot", "count", "lower", 0},
	{"runtime.gc_cycles_per_slot", "count", "lower", 0},
	{"runtime.gc_pause_ms_per_slot", "ms", "lower", 0},
	// Protocol behaviour, from the nodes' round statistics and phases.
	{"core.rounds_per_node", "count", "lower", 0},
	{"core.cells_requested_per_node", "count", "lower", 0},
	{"core.duplicate_cell_share", "ratio", "lower", 0},
	{"core.late_reply_share", "ratio", "lower", 0},
	{"core.reconstructed_cells_per_node", "count", "lower", 0},
	{"core.seed_p99_ms", "ms", "lower", 0},
	{"core.consolidation_p50_ms", "ms", "lower", 0},
	{"core.consolidation_p99_ms", "ms", "lower", 0},
	// Builder spans (builder_slot).
	{"core.builder_prepare_ms", "ms", "lower", 0},
	{"core.builder_seed_ms", "ms", "lower", 0},
	{"core.builder_overlap_share", "ratio", "higher", 0},
	// Probes, encode side (builder_slot).
	{"gf65536.muladd_mbps", "MB/s", "higher", 0},
	{"gf65536.muladd8_mbps", "MB/s", "higher", 0},
	{"rs.encode_mbps", "MB/s", "higher", 0},
	{"blob.extend_ms", "ms", "lower", 0},
	{"blob.extend_mbps", "MB/s", "higher", 0},
	{"kzg.commit_ms", "ms", "lower", 0},
	{"kzg.prove_all_ms", "ms", "lower", 0},
	// Probes, decode side (sim_real_faulty, udp_local).
	{"rs.reconstruct_mbps", "MB/s", "higher", 0},
	{"rs.reconstruct_us_per_line", "us", "lower", 0},
	{"rs.reconstruct_cold_us_per_line", "us", "lower", 0},
	{"core.store_reconstruct_us_per_line", "us", "lower", 0},
	{"core.store_add_ns_per_cell", "ns", "lower", 0},
	{"kzg.verify_ns_per_cell", "ns", "lower", 0},
	{"kzg.verify_batch_ns_per_cell", "ns", "lower", 0},
	{"core.node_seed_ingest_ns_per_cell", "ns", "lower", 0},
	{"core.node_query_serve_ns_per_cell", "ns", "lower", 0},
	// Probes, planner and simulator (sim_dense, sim_real_faulty).
	{"fetch.plan_lazy_us_per_call", "us", "lower", 0},
	{"fetch.plan_us_per_call", "us", "lower", 0},
	{"simnet.engine_ns_per_event", "ns", "lower", 0},
	{"simnet.send_deliver_ns_per_msg", "ns", "lower", 0},
	{"assign.for_ns_per_node", "ns", "lower", 0},
	{"core.table_build_ms", "ms", "lower", 0},
	// Probes, wire codec and sockets (udp_local).
	{"wire.encode_seed_ns_per_cell", "ns", "lower", 0},
	{"wire.decode_seed_ns_per_cell", "ns", "lower", 0},
	{"wire.encode_query_ns", "ns", "lower", 0},
	{"wire.decode_query_ns", "ns", "lower", 0},
	{"wire.encode_response_ns_per_cell", "ns", "lower", 0},
	{"wire.decode_response_ns_per_cell", "ns", "lower", 0},
	{"wire.decode_allocs_per_msg", "count", "lower", 0},
	{"transport.udp_send_ns_per_msg", "ns", "lower", 0},
	{"transport.udp_rtt_p50_us", "us", "lower", 0},
	{"transport.udp_rtt_p99_us", "us", "lower", 0},
	{"transport.udp_blast_mbps", "MB/s", "higher", 0},
	{"transport.udp_blast_drop_share", "ratio", "lower", 0},
	// Harness diagnostics.
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.setup_first_s", "s", "lower", 0},
	{"obsv.events_per_slot", "count", "lower", 0},
	{"machine.calib_stream_ms", "ms", "lower", 0},
	{"machine.calib_chase_ms", "ms", "lower", 0},
	{"machine.calib_sha_ms", "ms", "lower", 0},
}

var unitOf = func() map[string]string {
	units := map[string]string{}
	for _, d := range append(append([]decl(nil), endToEndDecls...), perLayerDecls...) {
		units[d.name] = d.unit
	}
	return units
}()

// metrics is a run's reported values by declared name.
type metrics map[string]metric

// put records a declared metric; an undeclared name is a bug here.
func (m metrics) put(name string, value float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not declared in decl.go", name))
	}
	m[name] = metric{value, unit}
}

// fillMissing reports every per-layer metric the workload did not fill
// as 0: it does not apply there.
func (m metrics) fillMissing() {
	for _, d := range perLayerDecls {
		if _, ok := m[d.name]; !ok {
			m.put(d.name, 0)
		}
	}
}
