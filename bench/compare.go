package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// contract is the part of BENCHMARK.json -compare needs.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := new(contract)
	return c, json.Unmarshal(data, c)
}

// values gathers a result file's untraced values of one metric on one
// workload, one per repeat.
func (r *results) values(workload, metric string) []float64 {
	var out []float64
	for _, rec := range r.Runs {
		if rec.Workload == workload && !rec.Trace {
			if m, ok := rec.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(results)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Quick {
		return nil, fmt.Errorf("%s is a -quick smoke result; its numbers are not comparable", path)
	}
	return r, nil
}

// verdict applies one metric's bound to the medians of two sets of runs.
// worse is by how much b is worse than a, as a share of a (negative =
// better). When either set's own spread exceeds the bound, the pair cannot
// resolve a change of that size.
func verdict(a, b []float64, higherIsBetter bool, bound float64) (ma, mb, worse float64, v string) {
	ma, mb = median(a), median(b)
	worse = ratio(mb-ma, ma)
	if higherIsBetter {
		worse = -worse
	}
	switch {
	case spread(a) > bound || spread(b) > bound:
		v = "unresolved"
	case worse > bound:
		v = "regressed"
	case worse < -bound:
		v = "improved"
	default:
		v = "ok"
	}
	return
}

// compareMain prints one row per (workload, end-to-end metric) and fails
// when any pair regressed.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two result files: a.json b.json")
	}
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-compare runs from the repository root: %w", err)
	}
	a, err := loadResults(args[0])
	if err != nil {
		return err
	}
	b, err := loadResults(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("%-15s %-22s %12s %12s %18s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "b worse by", "bound", "verdict")
	regressed := 0
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s/%s is missing from one of the files", w.Name, m.Name)
			}
			ma, mb, worse, v := verdict(va, vb, m.Better == "higher", m.Bound)
			if v == "regressed" {
				regressed++
			}
			fmt.Printf("%-15s %-22s %12.5g %12.5g %+8.2f%% of %-6.4g %6.0f%%  %s (n=%d,%d)\n",
				w.Name, m.Name, ma, mb, worse*100, ma, m.Bound*100, v, len(va), len(vb))
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs regressed", regressed)
	}
	return nil
}
