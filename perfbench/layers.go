package main

import (
	"math"
	"runtime/metrics"
	"strings"
)

// layerNames lists every per-layer metric with its unit, in report order.
// Every traced run reports all of them; a layer a workload does not
// exercise reads 0.
var layerNames = []struct{ name, unit string }{
	{"loadgen.late_ms_p99", "ms"},
	{"platform.client.self_ms", "ms"},
	{"platform.client.retries_per_call", "ratio"},
	{"platform.server.self_ms.submissions", "ms"},
	{"platform.server.self_ms.reports_batch", "ms"},
	{"platform.server.self_ms.fingerprints", "ms"},
	{"platform.server.self_ms.aggregate", "ms"},
	{"runtime.allocs_per_write", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"platform.store.submit_ms", "ms"},
	{"platform.store.submit_batch_ms", "ms"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_ms", "ms"},
	{"wal.reports_per_fsync", "ratio"},
	{"wal.bytes_per_report", "B"},
	{"platform.stream.notify_ms", "ms"},
	{"platform.stream.updates_per_report", "ratio"},
	{"platform.store.dataset_ms", "ms"},
	{"platform.store.aggregate_ms", "ms"},
	{"core.grouping_ms", "ms"},
	{"core.group_aggregation_ms", "ms"},
	{"core.truth_loop_ms", "ms"},
	{"core.truth_iterations", "count"},
	{"core.degraded", "count"},
	{"grouping.agtr_ms", "ms"},
	{"grouping.agts_ms", "ms"},
	{"grouping.agfp_ms", "ms"},
	{"grouping.groups", "count"},
	{"grouping.ari", "ratio"},
	{"dtw.pair_us", "us"},
	{"dtw.pairs", "count"},
	{"fingerprint.extract_ms", "ms"},
	{"simulate.build_s", "s"},
	{"shard.self_ms", "ms"},
	{"shard.backend_call_ms", "ms"},
	{"shard.fanout", "ratio"},
	{"shard.wrong_shard_retries", "count"},
	{"platform.repl.ship_ms", "ms"},
	{"platform.repl.frames_per_ship", "ratio"},
	{"platform.repl.follower_fsync_ms", "ms"},
	{"platform.repl.semisync_settle_ms", "ms"},
}

// window is the measured part of a run: the spans that started inside it
// and the counters read at its edges.
type window struct {
	spans []span
	// reports is the number of reports acknowledged inside the window;
	// writes the number of write requests.
	reports, writes int
	// walBytes is the bytes written through the primaries' timing FS
	// inside the window, snapshots included.
	walBytes int64
	// watchUpdates is the number of watch updates the generator received.
	watchUpdates int
	// allocs and gcCPU, totalCPU are runtime/metrics deltas over the window.
	allocs          uint64
	gcCPU, totalCPU float64
	// late is the generator's lateness per op, in ms.
	late []float64
}

// spansIn returns the spans of rec that started at or after from and
// ended at or before to (recorder-relative nanoseconds).
func spansIn(rec *recorder, from, to int64) []span {
	var out []span
	for _, s := range rec.snapshot() {
		if s.Start >= from && s.End <= to {
			out = append(out, s)
		}
	}
	return out
}

// layers computes the span- and counter-based per-layer metrics. Metrics
// from offline analyses are merged in by the workloads.
func (w *window) layers() map[string]float64 {
	m := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		m[l.name] = 0
	}
	self := selfTimes(w.spans)
	byID := make(map[uint64]span, len(w.spans))
	for _, s := range w.spans {
		byID[s.ID] = s
	}
	parentName := func(s span) string { return byID[s.Parent].Name }

	var clientCalls, clientAttempts float64
	var clientSelfs []float64
	serverSelf := map[string][]float64{}
	var shardSelf, backend []float64
	var shardCalls, backendCalls, reroutes float64
	durs := map[string][]float64{}
	var shipFrames, ships float64
	for _, s := range w.spans {
		d := float64(s.dur()) / 1e6
		switch {
		case strings.HasPrefix(s.Name, "client.") && s.Name != "client.rt":
			clientCalls++
			clientSelfs = append(clientSelfs, float64(self[s.ID])/1e6)
		case s.Name == "client.rt":
			if strings.HasPrefix(parentName(s), "client.") {
				clientAttempts++
			}
		case strings.HasPrefix(s.Name, "server."):
			route := strings.TrimPrefix(s.Name, "server.")
			serverSelf[route] = append(serverSelf[route], float64(self[s.ID])/1e6)
		case strings.HasPrefix(s.Name, "shard."):
			shardCalls++
			shardSelf = append(shardSelf, float64(self[s.ID])/1e6)
		case strings.HasPrefix(s.Name, "backend."):
			backendCalls++
			backend = append(backend, d)
			if s.Reroute {
				reroutes++
			}
		case s.Name == "repl.ship.rt":
			ships++
			shipFrames += float64(s.N)
		}
		durs[s.Name] = append(durs[s.Name], d)
	}
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	if len(w.late) > 0 {
		m["loadgen.late_ms_p99"] = percentile(w.late, 99)
	}
	m["platform.client.self_ms"] = med(clientSelfs)
	m["platform.client.retries_per_call"] = ratio(clientAttempts-clientCalls, clientCalls)
	for _, route := range []string{"submissions", "reports_batch", "fingerprints", "aggregate"} {
		m["platform.server.self_ms."+route] = med(serverSelf[route])
	}
	m["runtime.allocs_per_write"] = ratio(float64(w.allocs), float64(w.writes))
	m["runtime.gc_cpu_fraction"] = ratio(w.gcCPU, w.totalCPU)
	m["platform.store.submit_ms"] = med(durs["store.submit"])
	m["platform.store.submit_batch_ms"] = med(durs["store.submit_batch"])
	fsyncs := float64(len(durs["wal.fsync"]))
	m["wal.fsyncs"] = fsyncs
	m["wal.fsync_ms"] = med(durs["wal.fsync"])
	m["wal.reports_per_fsync"] = ratio(float64(w.reports), fsyncs)
	m["wal.bytes_per_report"] = ratio(float64(w.walBytes), float64(w.reports))
	m["platform.stream.notify_ms"] = med(durs["stream.feed"])
	m["platform.stream.updates_per_report"] = ratio(float64(w.watchUpdates), float64(w.reports))
	m["platform.store.dataset_ms"] = med(append(append([]float64(nil), durs["store.dataset"]...), durs["backend.dataset"]...))
	m["platform.store.aggregate_ms"] = med(append(append([]float64(nil), durs["store.aggregate.crh"]...), durs["shard.aggregate.crh"]...))
	m["shard.self_ms"] = med(shardSelf)
	m["shard.backend_call_ms"] = med(backend)
	m["shard.fanout"] = ratio(backendCalls, shardCalls)
	m["shard.wrong_shard_retries"] = reroutes
	m["platform.repl.ship_ms"] = med(durs["repl.ship.rt"])
	m["platform.repl.frames_per_ship"] = ratio(shipFrames, ships)
	m["platform.repl.follower_fsync_ms"] = med(durs["follower.wal.fsync"])
	if len(durs["follower.wal.fsync"]) > 0 {
		// Semi-sync settle: what a primary's submit spends beyond its own
		// fsync, i.e. waiting for the follower's durable ack.
		m["platform.repl.semisync_settle_ms"] = math.Max(0, med(durs["store.submit"])-med(durs["wal.fsync"]))
	}
	return m
}

// runtimeCounters reads the allocation count and the GC and total CPU
// seconds from runtime/metrics.
func runtimeCounters() (allocs uint64, gcCPU, totalCPU float64) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		allocs = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		gcCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		totalCPU = samples[2].Value.Float64()
	}
	return allocs, gcCPU, totalCPU
}
