package main

import (
	"fmt"
	"math"
	"sort"
)

// Metric kinds. The contract in BENCHMARK.json knows two: end-to-end
// metrics (bounded, emitted by every workload of an untraced run) and
// per-layer metrics (unbounded, emitted by a traced run). A third kind,
// native, holds the workload-specific end-to-end names later issues
// refer to (pairs_per_s, cold_first_query_ms, ...): an untraced run
// prints and records them, -selfcheck and -compare gate them, but they
// are not contract metrics because the contract wants every end-to-end
// metric from every workload.
const (
	kindEndToEnd = "end_to_end"
	kindNative   = "native"
	kindLayer    = "per_layer"
)

// metricDef is one row of the metric dictionary (bench/README.md).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference median by which the metric
	// may worsen before it counts as a regression. Zero on a native
	// metric means exact: produced by the deterministic pipeline, it
	// must repeat bit for bit for one seed. Per-layer metrics carry no
	// bound.
	Bound float64
	Kind  string
}

// endToEndDefs is the contract's end_to_end list: every workload emits
// every one of them, and none is ever zero.
//
// The timing bound is 0.20, not the 0.10 first planned: on the 2-vCPU VM
// the benchmark was defined on, the spread between ten runs of one
// workload is 2-5 % in a quiet period but reached 8-10 %, and the whole
// machine's throughput drifted by 25 % within an hour (bench/README.md,
// "Spread"). Effects smaller than the bound need paired, alternating
// runs of parent and change, not a wider or narrower gate.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, kindEndToEnd},
	{"ops_per_s", "1/s", "higher", 0.20, kindEndToEnd},
	{"peak_rss_mb", "MB", "lower", 0.15, kindEndToEnd},
	{"out_bytes_per_op", "B", "lower", 0.02, kindEndToEnd},
}

// nativeDefs are the per-workload end-to-end names of the issue.
var nativeDefs = []metricDef{
	{"pairs_per_s", "pairs/s", "higher", 0.20, kindNative},
	{"probes_per_pair", "probes", "lower", 0, kindNative},
	{"edge_recall", "ratio", "higher", 0, kindNative},
	{"alias_precision", "ratio", "higher", 0, kindNative},
	{"alias_recall", "ratio", "higher", 0, kindNative},
	{"out_bytes_per_pair", "B", "lower", 0, kindNative},
	{"ingest_records_per_s", "rec/s", "higher", 0.20, kindNative},
	{"compact_nodes_per_s", "nodes/s", "higher", 0.20, kindNative},
	{"cold_first_query_ms", "ms", "lower", 0.20, kindNative},
	{"queries_per_s", "q/s", "higher", 0.20, kindNative},
	{"query_p50_us", "us", "lower", 0.20, kindNative},
	{"query_p99_us", "us", "lower", 0.20, kindNative},
	{"failed_share", "ratio", "lower", 0, kindNative},
}

// layerDefs is the contract's per_layer list, grouped by the package
// (layer) the metric is measured around. Units say what the quantity is
// per (ns/probe, s/pass, ms/shard): a layer the workload does not
// exercise reads 0, and a bare "s" there would look like a timing that
// never changes.
var layerDefs = []metricDef{
	// packet: wire codecs, replayed in bulk over the captured probes.
	{"packet.encode_ns_per_probe", "ns/probe", "lower", 0, kindLayer},
	{"packet.parse_ns_per_reply", "ns/reply", "lower", 0, kindLayer},
	{"packet.allocs_per_probe", "allocs/probe", "lower", 0, kindLayer},
	// fakeroute: the simulator's share of a probe round trip.
	{"fakeroute.handle_ns_per_probe", "ns/probe", "lower", 0, kindLayer},
	{"fakeroute.reply_share", "ratio", "higher", 0, kindLayer},
	{"fakeroute.allocs_per_probe", "allocs/probe", "lower", 0, kindLayer},
	// probe: the Prober boundary, timed by a wrapping prober.
	{"probe.busy_s", "s/pass", "lower", 0, kindLayer},
	{"probe.roundtrip_ns_per_probe", "ns/probe", "lower", 0, kindLayer},
	{"probe.trace_probes", "count", "lower", 0, kindLayer},
	{"probe.echo_probes", "count", "lower", 0, kindLayer},
	{"probe.batches", "count", "lower", 0, kindLayer},
	{"probe.mean_batch", "probes/call", "higher", 0, kindLayer},
	{"probe.noreply_share", "ratio", "lower", 0, kindLayer},
	{"probe.demux_ns_per_reply", "ns/reply", "lower", 0, kindLayer},
	// mda / mdalite / prior: tracer bookkeeping (pair span minus probes).
	{"mda.self_s", "s/pass", "lower", 0, kindLayer},
	{"mda.self_ns_per_probe", "ns/probe", "lower", 0, kindLayer},
	{"mda.switched_share", "ratio", "lower", 0, kindLayer},
	{"mdalite.self_s", "s/pass", "lower", 0, kindLayer},
	{"mdalite.self_ns_per_probe", "ns/probe", "lower", 0, kindLayer},
	{"mdalite.switched_share", "ratio", "lower", 0, kindLayer},
	{"prior.index_s", "s/pass", "lower", 0, kindLayer},
	{"prior.confirmed_hop_share", "ratio", "higher", 0, kindLayer},
	{"prior.stale_share", "ratio", "lower", 0, kindLayer},
	// core / alias / obs: router-level resolution on top of the trace.
	{"alias.self_s", "s/pass", "lower", 0, kindLayer},
	{"alias.self_ms_per_pair", "ms/pair", "lower", 0, kindLayer},
	{"alias.probe_share", "ratio", "lower", 0, kindLayer},
	{"alias.rounds", "count", "lower", 0, kindLayer},
	{"alias.precision", "ratio", "higher", 0, kindLayer},
	{"alias.recall", "ratio", "higher", 0, kindLayer},
	// survey: the worker pool, the serial collector and its sinks.
	{"survey.generate_s", "s/plan", "lower", 0, kindLayer},
	{"survey.collect_busy_s", "s/pass", "lower", 0, kindLayer},
	{"survey.collect_share", "ratio", "lower", 0, kindLayer},
	{"survey.record_build_ns_per_pair", "ns/pair", "lower", 0, kindLayer},
	{"survey.worker_speedup", "ratio", "higher", 0, kindLayer},
	{"survey.allocs_per_pair", "allocs/pair", "lower", 0, kindLayer},
	{"survey.alloc_bytes_per_pair", "B/pair", "lower", 0, kindLayer},
	{"survey.probes_per_pair", "probes/pair", "lower", 0, kindLayer},
	{"survey.edge_recall", "ratio", "higher", 0, kindLayer},
	// traceio: record and snapshot codecs.
	{"traceio.record_encode_ns_per_record", "ns/record", "lower", 0, kindLayer},
	{"traceio.record_decode_ns_per_record", "ns/record", "lower", 0, kindLayer},
	{"traceio.jsonl_bytes_per_pair", "B/pair", "lower", 0, kindLayer},
	{"traceio.atlas_open_ms", "ms/open", "lower", 0, kindLayer},
	{"traceio.shard_decode_ms", "ms/shard", "lower", 0, kindLayer},
	// atlas: ingest, snapshot save, compaction.
	{"atlas.ingest_ns_per_record", "ns/record", "lower", 0, kindLayer},
	{"atlas.ingest_records_per_s", "rec/s", "higher", 0, kindLayer},
	{"atlas.save_s", "s/pass", "lower", 0, kindLayer},
	{"atlas.save_mb_per_s", "MB/s", "higher", 0, kindLayer},
	{"atlas.snapshot_bytes_per_addr", "B/addr", "lower", 0, kindLayer},
	{"atlas.compact_s", "s/pass", "lower", 0, kindLayer},
	{"atlas.compact_nodes_per_s", "nodes/s", "higher", 0, kindLayer},
	{"atlas.compact_allocs_per_node", "allocs/node", "lower", 0, kindLayer},
	{"atlas.compact_peak_heap_mb", "MB", "lower", 0, kindLayer},
	// atlas/serve: the in-process query layer.
	{"serve.open_ms", "ms/open", "lower", 0, kindLayer},
	{"serve.point_query_ns", "ns/query", "lower", 0, kindLayer},
	{"serve.cold_point_query_us", "us/query", "lower", 0, kindLayer},
	{"serve.shard_decodes", "count", "lower", 0, kindLayer},
	{"serve.cache_hit_share", "ratio", "higher", 0, kindLayer},
	{"serve.evictions", "count", "lower", 0, kindLayer},
	{"serve.bulk_scan_s", "s/scan", "lower", 0, kindLayer},
	// atlasd: the HTTP binary over loopback.
	{"atlasd.cold_first_query_ms", "ms/start", "lower", 0, kindLayer},
	{"atlasd.query_p50_us", "us/query", "lower", 0, kindLayer},
	{"atlasd.query_p99_us", "us/query", "lower", 0, kindLayer},
	{"atlasd.http_overhead_us", "us/query", "lower", 0, kindLayer},
	{"atlasd.status_404", "count", "lower", 0, kindLayer},
	{"atlasd.bytes_per_response", "B/response", "lower", 0, kindLayer},
	// dispatch: the fleet control plane.
	{"dispatch.units", "count", "lower", 0, kindLayer},
	{"dispatch.claim_rtt_us", "us/claim", "lower", 0, kindLayer},
	{"dispatch.ship_ms_per_unit", "ms/unit", "lower", 0, kindLayer},
	{"dispatch.merge_s", "s/pass", "lower", 0, kindLayer},
	{"dispatch.overhead_share", "ratio", "lower", 0, kindLayer},
	{"dispatch.lease_expiries", "count", "lower", 0, kindLayer},
	{"dispatch.wait_polls", "count", "lower", 0, kindLayer},
	// trace: validity of this table.
	{"trace.overhead_share", "ratio", "lower", 0, kindLayer},
	{"trace.coverage_share", "ratio", "higher", 0, kindLayer},
	{"trace.spans", "count", "lower", 0, kindLayer},
}

// defs indexes every known metric by name.
var defs = func() map[string]metricDef {
	m := make(map[string]metricDef)
	for _, list := range [][]metricDef{endToEndDefs, nativeDefs, layerDefs} {
		for _, d := range list {
			if _, dup := m[d.Name]; dup {
				panic("bench: duplicate metric " + d.Name)
			}
			m[d.Name] = d
		}
	}
	return m
}()

// metric is one reported value: the median of its samples with the
// spread around it. Counts and ratios computed once carry N = 1.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Better string  `json:"better"`
	Kind   string  `json:"kind"`
}

// quartiles returns the three quartile cut points of values exactly as
// Python's statistics.quantiles(values, n=4) does (the exclusive
// method), so the spread -selfcheck prints is the one the driver
// computes. Fewer than two values yield the value itself.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the p-th percentile (0..1) of sorted by the
// nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summarize folds samples into a metric: median, quartiles, extremes.
func summarize(name string, samples []float64) metric {
	d, ok := defs[name]
	if !ok {
		panic("bench: unknown metric " + name)
	}
	m := metric{Name: name, Unit: d.Unit, Better: d.Better, Kind: d.Kind, N: len(samples)}
	if len(samples) == 0 {
		return m
	}
	m.Q1, m.Value, m.Q3 = quartiles(samples)
	m.Min, m.Max = samples[0], samples[0]
	for _, s := range samples {
		m.Min = math.Min(m.Min, s)
		m.Max = math.Max(m.Max, s)
	}
	return m
}

// worseBy reports by what share of ref the value cur is worse than ref
// in the metric's direction (negative when it is better).
func (d metricDef) worseBy(ref, cur float64) float64 {
	if ref == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if d.Better == "higher" {
		return (ref - cur) / math.Abs(ref)
	}
	return (cur - ref) / math.Abs(ref)
}

func (m metric) String() string {
	if m.N <= 1 {
		return fmt.Sprintf("%-38s %14.6g %-8s", m.Name, m.Value, m.Unit)
	}
	return fmt.Sprintf("%-38s %14.6g %-8s q1 %.6g  q3 %.6g  min %.6g  max %.6g  n %d",
		m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.Min, m.Max, m.N)
}
