package main

// The benchmark's fixed vocabulary: workload names and every metric with
// its unit. BENCHMARK.json at the repository root repeats the names and
// units and adds direction and regression bound; TestSpecMatchesContract
// keeps the two in step. Later issues name their claims with these names.

type metricSpec struct {
	Name, Unit string
}

// Workload names, in the order the all-workloads mode runs them.
var workloadNames = []string{"pagerank_dense", "bfs_frontier", "serve_read", "serve_mixed"}

// End-to-end metrics. An "op" is what the workload's user waits for: one
// complete Graph.Run on the analytics workloads, one BFS query over HTTP
// on the serving workloads. Every workload reports every one of these,
// and none is ever zero.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"storage_ms_per_op", "ms"},
	{"pages_read_per_op", "count"},
	{"pages_written_per_op", "count"},
	{"alloc_mb_per_op", "MiB"},
	{"peak_rss_mb", "MiB"},
}

// Per-layer metrics, named <module>.<metric>. A layer that does no work
// on a workload reads 0 there.
var perLayer = []metricSpec{
	{"serve.batch_size_mean", "count"},
	{"serve.pages_read_per_query", "count"},
	{"serve.supersteps_mean", "count"},
	{"serve.shed_share", "ratio"},
	{"serve.query_p95_ms", "ms"},
	{"serve.mutate_p50_ms", "ms"},
	{"serve.mutate_p95_ms", "ms"},
	{"serve.mutate_late_ms_p95", "ms"},
	{"serve.mutations_acked_per_s", "1/s"},
	{"serve.engine_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},

	{"core.setup_ms", "ms"},
	{"core.load_sort_s", "s"},
	{"core.load_values_s", "s"},
	{"core.load_adjacency_s", "s"},
	{"core.process_vertices_s", "s"},
	{"core.relog_s", "s"},
	{"core.flush_s", "s"},
	{"core.compute_s", "s"},
	{"core.modeled_s", "s"},
	{"core.mmsgs_per_s", "1/s"},
	{"core.supersteps", "count"},
	{"core.msgs_delivered", "count"},
	{"core.active_vertices", "count"},
	{"core.allocs_per_run", "count"},
	{"core.stage_vertex_pages", "count"},
	{"core.stage_sortgroup_pages", "count"},
	{"core.stage_relog_pages", "count"},
	{"core.stage_spill_pages", "count"},
	{"core.stage_prefetch_pages", "count"},

	{"mlog.append_ns_per_msg", "ns"},
	{"mlog.read_ns_per_msg", "ns"},
	{"mlog.pages_written_per_kmsg", "count"},

	{"sortgroup.load_ns_per_msg", "ns"},
	{"sortgroup.group_ns_per_msg", "ns"},
	{"sortgroup.pages_read_per_kmsg", "count"},
	{"sortgroup.batches", "count"},

	{"extsort.sort_ns_per_rec", "ns"},
	{"extsort.runs", "count"},
	{"extsort.pages_written_per_krec", "count"},

	{"csr.adj_dense_ns_per_edge", "ns"},
	{"csr.adj_sparse_us_per_vertex", "us"},
	{"csr.adj_sparse_pages_per_vertex", "count"},
	{"csr.values_ns_per_vertex", "ns"},
	{"csr.apply_us_per_mutation", "us"},
	{"csr.merge_ms", "ms"},
	{"csr.build_s", "s"},
	{"csr.merges", "count"},
	{"csr.pending_max", "count"},

	{"edgelog.log_ns_per_edge", "ns"},
	{"edgelog.load_ns_per_edge", "ns"},
	{"edgelog.pages_read", "count"},
	{"edgelog.pages_written", "count"},
	{"edgelog.share_of_adj_pages", "ratio"},

	{"pagecache.hit_rate", "ratio"},
	{"pagecache.evictions", "count"},
	{"pagecache.prefetch_accuracy", "ratio"},
	{"pagecache.prefetch_dropped", "count"},
	{"pagecache.get_hit_ns", "ns"},
	{"pagecache.put_evict_ns", "ns"},

	{"ssd.pages_read", "count"},
	{"ssd.pages_written", "count"},
	{"ssd.read_batch_pages_mean", "count"},
	{"ssd.virtual_us_per_page_read", "us"},
	{"ssd.retries", "count"},
	{"ssd.read_us_per_page", "us"},
	{"ssd.write_us_per_page", "us"},

	{"wal.appends", "count"},
	{"wal.flushes", "count"},
	{"wal.mutations_per_flush", "count"},
	{"wal.bytes_per_mutation", "B"},
	{"wal.append_us_per_batch", "us"},
	{"wal.append_sync_us_per_batch", "us"},

	{"gen.generate_s", "s"},

	{"trace.overhead_share", "ratio"},
}

// Device geometry shared by every workload.
const (
	pageSize = 4096
	channels = 8
)
