package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// benchConfig is BENCHMARK.json at the repository root: the command that
// runs the benchmark, its workloads, and every metric with its unit,
// direction and (end to end) regression bound.
type benchConfig struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eDef      `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// loadConfig reads and validates a BENCHMARK.json.
func loadConfig(path string) (*benchConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c benchConfig
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// validate enforces the file's limits: 2–8 workloads, 1–16 end-to-end and
// 1–128 per-layer metrics, well-formed unique names and units, directions,
// bounds in (0, 0.25], and a setup_s metric.
func (c *benchConfig) validate() error {
	switch {
	case len(c.Workloads) < 2 || len(c.Workloads) > 8:
		return fmt.Errorf("%d workloads, want 2 to 8", len(c.Workloads))
	case len(c.EndToEnd) < 1 || len(c.EndToEnd) > 16:
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", len(c.EndToEnd))
	case len(c.PerLayer) < 1 || len(c.PerLayer) > 128:
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", len(c.PerLayer))
	case c.RunSeconds < 1 || c.RunSeconds > 60:
		return fmt.Errorf("run_seconds %d, want 1 to 60", c.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	metric := func(n, unit, better string) error {
		if err := name(n); err != nil {
			return err
		}
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("metric %s: bad unit %q", n, unit)
		}
		if better != "lower" && better != "higher" {
			return fmt.Errorf("metric %s: better is %q, want lower or higher", n, better)
		}
		return nil
	}
	for _, w := range c.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1 to 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range c.EndToEnd {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			return fmt.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		return fmt.Errorf("no setup_s metric in s, lower better")
	}
	for _, m := range c.PerLayer {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	return nil
}
