package main

import "graphalign/internal/gen"

// scaleSizes are the instance sizes of the scale workload.
type scaleSizes struct{ nsd, regal, partitioned, k, topk int }

func scaleSizing(tiny bool) scaleSizes {
	if tiny {
		return scaleSizes{nsd: 200, regal: 200, partitioned: 400, k: 4, topk: 16}
	}
	return scaleSizes{nsd: 2000, regal: 2500, partitioned: 8000, k: 8, topk: 16}
}

// runScale is the large-instance paths: NSD (factored) and REGAL
// (embeddings) with monolithic top-k sparse assignment, and both again
// partitioned into K shards with top-k per shard. All instances are
// powerlaw-cluster graphs with one-way 2% noise. At these sizes the top-k
// candidate lists are unmatchable and the sparse solve falls back to dense
// JV, a known defect the run keeps visible as assign.fallback_frac. The
// fallback's cost varies from graph to graph, so each monolithic op runs on
// two independent instances.
func runScale(cfg config) (*report, error) {
	sz := scaleSizing(cfg.tiny)
	specs := []instanceSpec{
		{gen.PL, sz.nsd}, {gen.PL, sz.nsd}, {gen.PL, sz.regal}, {gen.PL, sz.regal}, {gen.PL, sz.partitioned},
	}
	ops := []op{
		{algo: "NSD", inst: 0, mode: modeTopK, topk: sz.topk},
		{algo: "NSD", inst: 1, mode: modeTopK, topk: sz.topk},
		{algo: "REGAL", inst: 2, mode: modeTopK, topk: sz.topk},
		{algo: "REGAL", inst: 3, mode: modeTopK, topk: sz.topk},
		{algo: "NSD", inst: 4, mode: modePartitioned, topk: sz.topk, parts: sz.k},
		{algo: "REGAL", inst: 4, mode: modePartitioned, topk: sz.topk, parts: sz.k},
	}
	rep := &report{sizes: map[string]any{
		"nsd_topk_n": sz.nsd, "regal_topk_n": sz.regal, "partitioned_n": sz.partitioned,
		"partitions": sz.k, "topk": sz.topk, "model": "PL", "noise": "one-way 0.02", "assign": "JV",
		"ops_per_pass": len(ops),
	}}
	return rep, runInproc(cfg, rep, specs, ops)
}
