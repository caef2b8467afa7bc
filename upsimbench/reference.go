package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"upsim/internal/server"
)

// mcSigmas bounds how far a Monte Carlo estimate may sit from the exact
// availability, in standard errors. A run checks a few hundred estimates,
// so 5σ keeps the chance of failing a correct program below one in a
// thousand runs (4σ would fail about one run in forty).
const mcSigmas = 5

// references computes the answer of every logical request on the uncached
// serving path (a fresh generator per request, no result cache, no pool,
// no warm lane) and checks the availability figures for plausibility.
func references(w *workload) (*checker, error) {
	ref, err := newReferencePath()
	if err != nil {
		return nil, err
	}
	chk := &checker{w: w, refs: make([][]byte, len(w.logicals))}
	ctx := context.Background()
	for i := range w.logicals {
		l := &w.logicals[i]
		status, body := ref.serve(ctx, l.method, l.target, l.body)
		if status != http.StatusOK {
			return nil, fmt.Errorf("reference for %s %s: status %d: %s", l.method, l.target, status, body)
		}
		if err := checkAvailability(l, body); err != nil {
			return nil, fmt.Errorf("reference for %s %s: %w", l.method, l.target, err)
		}
		chk.refs[i] = normalize(l.route, body)
	}
	return chk, nil
}

// checkAvailability verifies every availability figure an answer carries:
// exact within [0,1] and the Monte Carlo estimate within mcSigmas standard
// errors of it. The standard error is the larger of the reported one and
// the one implied by the exact value, so an estimate that happened to see
// no failure (reported error 0) is still judged fairly.
func checkAvailability(l *logical, body []byte) error {
	switch l.route {
	case routeAvailability:
		var req availReq
		var resp availResp
		if err := json.Unmarshal(l.body, &req); err != nil {
			return err
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return plausible(resp, req.MCSamples)
	case routeBatch:
		var req server.BatchRequest
		var resp struct {
			Results []struct {
				Op     string          `json:"op"`
				Result json.RawMessage `json:"result"`
			} `json:"results"`
		}
		if err := json.Unmarshal(l.body, &req); err != nil {
			return err
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		for i, r := range resp.Results {
			if r.Op != server.OpAvailability {
				continue
			}
			var a availResp
			if err := json.Unmarshal(r.Result, &a); err != nil {
				return err
			}
			if err := plausible(a, req.Items[i].MCSamples); err != nil {
				return fmt.Errorf("item %d: %w", i, err)
			}
		}
	}
	return nil
}

func plausible(a availResp, samples int) error {
	if samples <= 0 {
		samples = 100000
	}
	if a.Exact < 0 || a.Exact > 1 {
		return fmt.Errorf("exact availability %v outside [0,1]", a.Exact)
	}
	se := math.Max(a.MCStdErr, math.Sqrt(a.Exact*(1-a.Exact)/float64(samples)))
	if math.Abs(a.MonteCarlo-a.Exact) > mcSigmas*se {
		return fmt.Errorf("Monte Carlo %v is more than %d standard errors (%v) from exact %v",
			a.MonteCarlo, mcSigmas, se, a.Exact)
	}
	return nil
}
