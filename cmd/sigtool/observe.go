package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"graphsig/internal/obs"
	"graphsig/internal/server"
)

// runObserve polls a running sigserverd's /metrics exposition and renders
// ingest/request rates and latency quantiles, one line per sample — a
// minimal terminal dashboard over the server's metrics registry. The
// first sample shows absolute counters (there is nothing to rate
// against yet); each later line shows per-second rates over the
// elapsed polling interval.
func runObserve(cfg config, out io.Writer) error {
	if cfg.samples <= 0 {
		return fmt.Errorf("observe: -samples must be positive")
	}
	c := server.NewClient(cfg.addr)
	var prev []obs.Family
	var prevAt time.Time
	for i := 0; i < cfg.samples; i++ {
		if i > 0 {
			time.Sleep(cfg.interval)
		}
		fams, err := c.Metrics()
		if err != nil {
			return err
		}
		now := time.Now()
		fmt.Fprint(out, renderObserveLine(fams, prev, now.Sub(prevAt)))
		prev, prevAt = fams, now
	}
	return nil
}

// renderObserveLine formats one dashboard line from a scrape and
// (optionally) the previous one. The latency quantiles come from the
// per-route request histogram folded over routes; a node without it
// (the router) shows 0us.
func renderObserveLine(cur, prev []obs.Family, elapsed time.Duration) string {
	m := obs.Totals(cur)
	var b strings.Builder
	if prev == nil {
		fmt.Fprintf(&b, "observe: flows=%d requests=%d windows=%d errors=%d",
			m["flows_accepted"], m["http_requests_total"], m["windows_closed"], m["http_errors_total"])
	} else {
		p := obs.Totals(prev)
		secs := elapsed.Seconds()
		if secs <= 0 {
			secs = 1
		}
		rate := func(key string) float64 { return float64(m[key]-p[key]) / secs }
		fmt.Fprintf(&b, "observe: flows/s=%.0f req/s=%.1f windows=%d errors=%d",
			rate("flows_accepted"), rate("http_requests_total"),
			m["windows_closed"], m["http_errors_total"])
	}
	routes := family(cur, "http_route_seconds")
	b.WriteString(renderSearchSuffix(m, routes))
	b.WriteString(renderSegmentSuffix(m))
	b.WriteString(renderClusterSuffix(cur, m))
	h := routes.Histogram()
	fmt.Fprintf(&b, " p50=%dus p90=%dus p99=%dus\n",
		micros(h.Quantile(0.50)), micros(h.Quantile(0.90)), micros(h.Quantile(0.99)))
	return b.String()
}

// family returns the named family of a scrape (the zero Family when
// the node has none).
func family(fams []obs.Family, name string) obs.Family {
	for _, f := range fams {
		if f.Name == name {
			return f
		}
	}
	return obs.Family{}
}

func micros(seconds float64) int64 { return int64(seconds * 1e6) }

// renderSearchSuffix surfaces the search path's counters when the node
// has served any: queries (counting each batch slot), batch requests
// with the batch route's average latency. Idle nodes get an empty
// suffix, keeping the basic dashboard line unchanged.
func renderSearchSuffix(m map[string]int64, routes obs.Family) string {
	queries := m["search_queries"]
	batches := m["batch_searches"]
	if queries == 0 && batches == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, " searches=%d", queries)
	if batches > 0 {
		fmt.Fprintf(&b, " batches=%d", batches)
		var sum, count float64
		for _, s := range routes.Samples {
			if s.Label("route") != "post_v1_search_batch" {
				continue
			}
			switch s.Name {
			case routes.Name + "_sum":
				sum = s.Value
			case routes.Name + "_count":
				count = s.Value
			}
		}
		if count > 0 {
			fmt.Fprintf(&b, " batch_avg=%dus", micros(sum/count))
		}
	}
	return b.String()
}

// renderSegmentSuffix surfaces the cold tier's health on nodes running
// with a segment directory: segments written and cold windows compacted,
// reads that fell through to disk, and — loudly, since they indicate
// either I/O trouble or corrupt files — compaction errors and
// quarantines. Untiered nodes get an empty suffix.
func renderSegmentSuffix(m map[string]int64) string {
	// Files/windows are gauges of the attached tier's current state, so
	// a freshly restarted node shows its cold horizon immediately; the
	// other counters only tick on this boot's own reads and evictions.
	files := m["store_segment_files"]
	cold := m["store_segment_windows"]
	loads := m["store_segment_loads"]
	errors := m["store_segment_errors"]
	quarantines := m["store_segment_quarantines"]
	if files == 0 && cold == 0 && loads == 0 && errors == 0 && quarantines == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, " segs=%d cold=%d", files, cold)
	if loads > 0 {
		fmt.Fprintf(&b, " seg_reads=%d", loads)
	}
	if pruned := m["store_segment_pruned"]; pruned > 0 {
		fmt.Fprintf(&b, " seg_pruned=%d", pruned)
	}
	if errors > 0 || quarantines > 0 {
		fmt.Fprintf(&b, " seg_errors=%d seg_quarantined=%d", errors, quarantines)
	}
	return b.String()
}

// renderClusterSuffix surfaces the failover health of a router (or a
// replicating primary) when its metrics carry per-shard replication
// state: byte lag and wall-clock staleness of each shard's freshest
// follower, how many reads were answered by followers, and how many
// promotions the prober has issued. Nodes without cluster metrics get
// an empty suffix, so the single-node dashboard line is unchanged.
func renderClusterSuffix(fams []obs.Family, m map[string]int64) string {
	lag := byShard(family(fams, "replica_lag_bytes"))
	behind := byShard(family(fams, "replica_behind_seconds"))
	failoverReads := m["failover_reads_total"]
	promotions := m["promotions_total"]
	if len(lag) == 0 && failoverReads == 0 && promotions == 0 {
		return ""
	}
	shards := make([]string, 0, len(lag))
	for s := range lag {
		shards = append(shards, s)
	}
	sort.Strings(shards)
	var b strings.Builder
	for _, s := range shards {
		fmt.Fprintf(&b, " lag[%s]=%dB", s, lag[s])
		if secs := behind[s]; secs > 0 {
			fmt.Fprintf(&b, "/%ds", secs)
		}
	}
	if failoverReads > 0 {
		fmt.Fprintf(&b, " failover_reads=%d", failoverReads)
	}
	if promotions > 0 {
		fmt.Fprintf(&b, " promotions=%d", promotions)
	}
	return b.String()
}

// byShard maps a per-shard family's samples by their shard label.
func byShard(f obs.Family) map[string]int64 {
	out := make(map[string]int64, len(f.Samples))
	for _, s := range f.Samples {
		out[s.Label("shard")] = int64(s.Value)
	}
	return out
}
