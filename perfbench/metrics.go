package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// perLayer lists the traced run's metrics. Every workload reports every one;
// a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	// attr and core, timed around the calls into them.
	{"attr.profile_us", "us"},
	{"core.seal_us", "us"},
	{"core.evaluate_us", "us"},
	{"core.verify_us", "us"},
	{"core.handle_noncandidate_us", "us"},
	{"core.handle_noncandidate_allocs", "count"},
	{"core.handle_candidate_us", "us"},
	{"core.handle_candidate_allocs", "count"},
	{"core.handle_match_us", "us"},
	{"core.handle_match_allocs", "count"},
	{"core.candidate_ratio", "ratio"},
	{"core.match_ratio", "ratio"},
	{"core.keys_per_candidate", "count"},
	{"core.systems_per_candidate", "count"},
	// client: courier calls seen through the timing decorator.
	{"client.submit_us", "us"},
	{"client.sweep_us", "us"},
	{"client.reply_us", "us"},
	{"client.fetch_us", "us"},
	{"client.remove_us", "us"},
	// client: ring calls and the rack calls they fan out to.
	{"client.ring_submit_batch_us", "us"},
	{"client.ring_reply_batch_us", "us"},
	{"client.ring_fetch_batch_us", "us"},
	{"client.ring_remove_us", "us"},
	{"client.rack_rpc_us", "us"},
	{"client.rpcs_per_call", "count"},
	// broker: server-side time per call, from the per-opcode histograms.
	{"broker.submit_us", "us"},
	{"broker.sweep_us", "us"},
	{"broker.fetch_us", "us"},
	{"broker.remove_us", "us"},
	{"broker.submit_batch_us", "us"},
	{"broker.reply_batch_us", "us"},
	{"broker.fetch_batch_us", "us"},
	// the sweep and its seen window.
	{"sweep.seen_ids", "count"},
	{"sweep.query_bytes", "B"},
	{"sweep.scanned", "count"},
	{"sweep.pass_ratio", "ratio"},
	// replica, wal, transport, auth, runtime.
	{"replica.hints_queued_per_op", "count"},
	{"replica.handoff_applied_per_op", "count"},
	{"wal.bytes_per_op", "B"},
	{"transport.bytes_per_op", "B"},
	{"auth.handshake_ms", "ms"},
	{"runtime.gc_cycles_per_kop", "count"},
	// self time per op by layer; with the unattributed remainder they sum to
	// trace.op_us.
	{"self.attr_us", "us"},
	{"self.core_us", "us"},
	{"self.client_us", "us"},
	{"self.transport_us", "us"},
	{"self.broker_us", "us"},
	{"self.unattributed_us", "us"},
	{"trace.op_us", "us"},
	{"trace.untraced_op_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.attributed_pct", "%"},
	// the untraced phase's tail, for information, and the steady-state
	// guards.
	{"latency_p99_ms", "ms"},
	{"latency_samples", "count"},
	{"steady.p50_drift_pct", "%"},
	{"steady.seen_start", "count"},
	{"steady.seen_end", "count"},
	{"steady.held_start", "count"},
	{"steady.held_end", "count"},
}

// replicaOps are the opcodes racks exchange among themselves; every other
// opcode is client traffic.
var replicaOps = map[string]bool{"hint": true, "handoff": true, "peers": true}

// layerMetrics derives the per-layer metrics of a traced run from the traced
// phase's spans and counter deltas, with the untraced phase as the overhead
// baseline and the allocation-counting pass's spans for allocations.
func layerMetrics(plain, traced phase, st, counted spanStats) map[string]float64 {
	items := float64(traced.items)
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / items }
	b, a := traced.before, traced.after
	m := map[string]float64{
		"attr.profile_us":                st.meanUs("attr.profile"),
		"core.seal_us":                   st.meanUs("core.seal"),
		"core.verify_us":                 st.meanUs("core.verify"),
		"client.submit_us":               st.meanUs("client.submit"),
		"client.sweep_us":                st.meanUs("client.sweep"),
		"client.reply_us":                st.meanUs("client.reply_batch"),
		"client.fetch_us":                st.meanUs("client.fetch"),
		"client.remove_us":               st.meanUs("client.remove"),
		"latency_p99_ms":                 ms(quantile(plain.lat, 0.99)),
		"latency_samples":                float64(len(plain.lat)),
		"auth.handshake_ms":              ms(a.handshake),
		"replica.hints_queued_per_op":    (a.hintsQueued - b.hintsQueued) / items,
		"replica.handoff_applied_per_op": (a.handoffApplied - b.handoffApplied) / items,
		"wal.bytes_per_op":               (a.walBytes - b.walBytes) / items,
		"runtime.gc_cycles_per_kop":      1000 * float64(traced.gcs) / items,
	}
	if c := st.calls["core.evaluate"]; c > 0 {
		m["core.evaluate_us"] = float64(st.self["core.evaluate"].Nanoseconds()) / 1e3 / float64(c)
	}
	for _, class := range []string{"noncandidate", "candidate", "match"} {
		name := "core.handle_" + class
		m[name+"_us"] = st.meanUs(name)
		m[name+"_allocs"] = counted.meanAllocs(name)
	}
	if dc := a.candidates - b.candidates; dc > 0 {
		m["core.candidate_ratio"] = dc / (a.handled - b.handled)
		m["core.match_ratio"] = (a.matches - b.matches) / dc
		m["core.keys_per_candidate"] = (a.keys - b.keys) / dc
		m["core.systems_per_candidate"] = (a.systems - b.systems) / dc
	}

	var ringCalls, rackCalls int
	var rackTime time.Duration
	for name, c := range st.calls {
		switch {
		case strings.HasPrefix(name, "client.ring_"):
			ringCalls += c
			m[name+"_us"] = st.meanUs(name)
		case strings.HasPrefix(name, "rack."):
			rackCalls += c
			rackTime += st.total[name]
		}
	}
	if rackCalls > 0 {
		m["client.rack_rpc_us"] = float64(rackTime.Nanoseconds()) / 1e3 / float64(rackCalls)
		m["client.rpcs_per_call"] = float64(rackCalls) / float64(ringCalls)
	}

	var brokerSec, wireBytes float64
	for op, after := range a.server {
		before := b.server[op]
		if before == nil {
			before = &opCount{}
		}
		calls, sec := after.calls-before.calls, after.seconds-before.seconds
		wireBytes += after.bytesIn - before.bytesIn + after.bytesOut - before.bytesOut
		if !replicaOps[op] && op != "stats" {
			brokerSec += sec
		}
		if calls > 0 {
			m["broker."+op+"_us"] = 1e6 * sec / calls
		}
		if op == "sweep" && calls > 0 {
			m["sweep.query_bytes"] = (after.bytesIn - before.bytesIn) / calls
		}
	}
	m["transport.bytes_per_op"] = wireBytes / items
	if sweeps := a.sweeps - b.sweeps; sweeps > 0 {
		m["sweep.seen_ids"] = (a.queryIDs - b.queryIDs) / sweeps
		m["sweep.scanned"] = (a.scanned - b.scanned) / sweeps
		if sc := a.scanned - b.scanned; sc > 0 {
			m["sweep.pass_ratio"] = (a.returned - b.returned) / sc
		}
	}

	// The RPC spans' share of the wall time splits into broker and transport
	// in the proportion of server-side time to RPC span time.
	var rpcTotal time.Duration
	for name, d := range st.total {
		if layerOf(name) == "rpc" {
			rpcTotal += d
		}
	}
	wall := st.layers()
	rpcWall := per(wall["rpc"])
	m["self.broker_us"] = per(wall["broker"])
	if rpcTotal > 0 {
		share := min(brokerSec/rpcTotal.Seconds(), 1)
		m["self.broker_us"] += rpcWall * share
		m["self.transport_us"] = rpcWall * (1 - share)
	}
	m["self.attr_us"] = per(wall["attr"])
	m["self.core_us"] = per(wall["core"])
	m["self.client_us"] = per(wall["client"])
	m["self.unattributed_us"] = per(wall["unattributed"])
	opUs := per(st.total["op"])
	m["trace.op_us"] = opUs
	m["trace.untraced_op_us"] = float64(sum(plain.lat).Nanoseconds()) / 1e3 / float64(plain.items)
	if u := m["trace.untraced_op_us"]; u > 0 {
		m["trace.overhead_pct"] = 100 * (opUs - u) / u
	}
	if opUs > 0 {
		m["trace.attributed_pct"] = 100 * (opUs - m["self.unattributed_us"]) / opUs
	}
	return m
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// quantile returns the q-quantile of ds by the nearest-rank method.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}
