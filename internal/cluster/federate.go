package cluster

import (
	"bytes"
	"net/http"
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

	// Scrape every node concurrently. A dead node, or one whose body
	// does not parse, is reported, not silently folded into the
	// aggregates.
	nodes := rt.nodeClients()
	fams := make([][]obs.Family, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, nc := range nodes {
		wg.Add(1)
		go func(i int, nc nodeClient) {
			defer wg.Done()
			fams[i], errs[i] = nc.c.Metrics()
		}(i, nc)
	}
	wg.Wait()

	for i, nc := range nodes {
		if errs[i] != nil {
			rt.scrapeErrors.Add(1)
			rt.logf("sigrouter: federate: scraping %s: %v", nc.name, errs[i])
			continue
		}
		// Shard registries already stamp role/shard/ring_epoch const
		// labels; the injection only fills in what a sample lacks —
		// for these nodes, just the instance.
		expositions = append(expositions, obs.NodeExposition{
			Labels:   []obs.Label{{Name: "instance", Value: nc.name}},
			Families: fams[i],
		})
	}

	w.Header().Set("Content-Type", obs.ContentType)
	_ = obs.WriteFederated(w, expositions)
}
