package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// runObserve polls a running sigserverd's /metrics endpoint and renders
// ingest/request rates and latency quantiles, one line per sample — a
// minimal terminal dashboard over the server's metrics registry. The
// first sample shows absolute counters (there is nothing to rate
// against yet); each later line shows per-second rates over the
// elapsed polling interval.
func runObserve(cfg config, out io.Writer) error {
	if cfg.samples <= 0 {
		return fmt.Errorf("observe: -samples must be positive")
	}
	c := newClient(cfg.addr)
	var prev map[string]int64
	var prevAt time.Time
	for i := 0; i < cfg.samples; i++ {
		if i > 0 {
			time.Sleep(cfg.interval)
		}
		m, err := c.Metrics()
		if err != nil {
			return err
		}
		now := time.Now()
		fmt.Fprint(out, renderObserveLine(m, prev, now.Sub(prevAt)))
		prev, prevAt = m, now
	}
	return nil
}

// renderObserveLine formats one dashboard line from a metrics snapshot
// and (optionally) the previous one.
func renderObserveLine(m, prev map[string]int64, elapsed time.Duration) string {
	var b strings.Builder
	if prev == nil {
		fmt.Fprintf(&b, "observe: flows=%d requests=%d windows=%d errors=%d",
			m["flows_accepted"], m["http_requests_total"], m["windows_closed"], m["http_errors_total"])
	} else {
		secs := elapsed.Seconds()
		if secs <= 0 {
			secs = 1
		}
		rate := func(key string) float64 { return float64(m[key]-prev[key]) / secs }
		fmt.Fprintf(&b, "observe: flows/s=%.0f req/s=%.1f windows=%d errors=%d",
			rate("flows_accepted"), rate("http_requests_total"),
			m["windows_closed"], m["http_errors_total"])
	}
	b.WriteString(renderSearchSuffix(m))
	b.WriteString(renderSegmentSuffix(m))
	b.WriteString(renderClusterSuffix(m))
	fmt.Fprintf(&b, " p50=%dus p90=%dus p99=%dus\n",
		m["http_request_p50_micros"], m["http_request_p90_micros"], m["http_request_p99_micros"])
	return b.String()
}

// renderSearchSuffix surfaces the search path's counters when the node
// has served any: queries (counting each batch slot), batch requests
// with the batch route's average latency. Idle nodes get an empty
// suffix, keeping the basic dashboard line unchanged.
func renderSearchSuffix(m map[string]int64) string {
	queries := m["search_queries"]
	batches := m["batch_searches"]
	if queries == 0 && batches == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, " searches=%d", queries)
	if batches > 0 {
		fmt.Fprintf(&b, " batches=%d", batches)
		if reqs := m["route_post_v1_search_batch_requests"]; reqs > 0 {
			fmt.Fprintf(&b, " batch_avg=%dus", m["route_post_v1_search_batch_micros_sum"]/reqs)
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
	// save/compaction counters only tick on this boot's own evictions.
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
func renderClusterSuffix(m map[string]int64) string {
	const lagPrefix = "replica_lag_bytes_"
	var shards []string
	for k := range m {
		if strings.HasPrefix(k, lagPrefix) {
			shards = append(shards, strings.TrimPrefix(k, lagPrefix))
		}
	}
	var failoverReads int64
	for k, v := range m {
		if strings.HasPrefix(k, "failover_reads_total_") {
			failoverReads += v
		}
	}
	promotions := m["promotions_total"]
	if len(shards) == 0 && failoverReads == 0 && promotions == 0 {
		return ""
	}
	sort.Strings(shards)
	var b strings.Builder
	for _, s := range shards {
		fmt.Fprintf(&b, " lag[%s]=%dB", s, m[lagPrefix+s])
		if behind := m["replica_behind_seconds_"+s]; behind > 0 {
			fmt.Fprintf(&b, "/%ds", behind)
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
