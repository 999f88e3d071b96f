package main

import "graphalign/internal/gen"

// gridSizes are the instance sizes of the grid workload. The aligners in
// smallAligners run at the smaller size, as the paper's dense-memory
// aligners do in its size sweeps.
type gridSizes struct{ big, small int }

var smallAligners = map[string]bool{"GRAAL": true, "GWL": true, "S-GWL": true, "CONE": true}

func gridSizing(tiny bool) gridSizes {
	if tiny {
		return gridSizes{big: 60, small: 40}
	}
	return gridSizes{big: 400, small: 150}
}

// runGrid is the paper's study as alignbench runs it: all nine aligners
// over the five synthetic models with one-way 2% noise and dense JV
// assignment, one closed-loop caller.
func runGrid(cfg config) (*report, error) {
	sz := gridSizing(cfg.tiny)
	var specs []instanceSpec
	var ops []op
	for _, model := range gen.Models() {
		bigIdx := len(specs)
		specs = append(specs, instanceSpec{model, sz.big}, instanceSpec{model, sz.small})
		for _, a := range paperAligners {
			idx := bigIdx
			if smallAligners[a] {
				idx = bigIdx + 1
			}
			ops = append(ops, op{algo: a, inst: idx, mode: modeDense})
		}
	}
	rep := &report{sizes: map[string]any{
		"n": sz.big, "n_small": sz.small, "small_aligners": "GRAAL,GWL,S-GWL,CONE",
		"models": "ER,BA,WS,NW,PL", "noise": "one-way 0.02", "assign": "JV", "ops_per_pass": len(ops),
	}}
	return rep, runInproc(cfg, rep, specs, ops)
}
