package cluster

import (
	"bytes"
	"net/http"
	"strings"
	"sync"

	"graphsig/internal/obs"
	"graphsig/internal/server"
)

// Metrics federation: GET /metrics?federate=1 scrapes every node's
// Prometheus exposition (router included), relabels each sample with
// the node's cluster identity, and adds cluster-level aggregates —
// counters summed, histograms merged bucket-wise. Every node shares
// the same log-spaced bucket bounds, so the merge is exact: the
// federated histogram is bit-identical to one histogram having
// observed every node's samples (see obs.WriteFederated).
func (rt *Router) handleFederate(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := rt.registry.WritePrometheus(&buf); err != nil {
		server.WriteError(w, http.StatusInternalServerError, "rendering router metrics: %v", err)
		return
	}
	own, err := obs.ParseExposition(&buf)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, "parsing router metrics: %v", err)
		return
	}
	expositions := []obs.NodeExposition{{
		Labels:   []obs.Label{{Name: "instance", Value: "router"}},
		Families: own,
	}}

	// Scrape every node concurrently. MetricsProm fails over across a
	// node's seed addresses but not across nodes: a dead node is
	// reported, not silently folded into the aggregates.
	nodes := rt.nodeClients()
	texts := make([]string, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, nc := range nodes {
		wg.Add(1)
		go func(i int, nc nodeClient) {
			defer wg.Done()
			texts[i], errs[i] = nc.c.MetricsProm()
		}(i, nc)
	}
	wg.Wait()

	for i, nc := range nodes {
		if errs[i] != nil {
			rt.scrapeErrors.Add(1)
			rt.logf("sigrouter: federate: scraping %s: %v", nc.name, errs[i])
			continue
		}
		fams, err := obs.ParseExposition(strings.NewReader(texts[i]))
		if err != nil {
			rt.scrapeErrors.Add(1)
			rt.logf("sigrouter: federate: parsing %s exposition: %v", nc.name, err)
			continue
		}
		// Shard registries already stamp role/shard/ring_epoch const
		// labels; the injection only fills in what a sample lacks —
		// for these nodes, just the instance.
		expositions = append(expositions, obs.NodeExposition{
			Labels:   []obs.Label{{Name: "instance", Value: nc.name}},
			Families: fams,
		})
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteFederated(w, expositions)
}
