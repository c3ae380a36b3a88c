package main

import (
	"fmt"
	"io"
	"strings"

	"graphsig/internal/server"
)

// newClient builds a client from -addr, which may be a comma-separated
// seed list ("http://a:8787,http://b:8787"); the client rotates to the
// next seed when one stops answering.
func newClient(addr string) *server.Client {
	seeds := strings.Split(addr, ",")
	for i := range seeds {
		seeds[i] = strings.TrimSpace(seeds[i])
	}
	return server.NewClient(seeds[0], seeds[1:]...)
}

// runClient executes one query against a running sigserverd, rendering
// the JSON responses in the same tabular style as the offline
// subcommands. It is the operator's remote counterpart to neighbors/
// screen/anomalies over a live store instead of a flow file.
func runClient(cfg config, out io.Writer) error {
	c := newClient(cfg.addr)
	switch cfg.op {
	case "search":
		if cfg.node == "" {
			return fmt.Errorf("client search needs -node")
		}
		res, err := c.Search(server.SearchRequest{
			Label: cfg.node, K: cfg.top, MaxDist: cfg.maxDist, Distance: cfg.scheme,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "nearest archived signatures to %s (%s):\n", cfg.node, res.Distance)
		for _, h := range res.Hits {
			fmt.Fprintf(out, "  %-18s window=%d dist=%.4f\n", h.Label, h.Window, h.Dist)
		}
		return nil
	case "history":
		if cfg.node == "" {
			return fmt.Errorf("client history needs -node")
		}
		res, err := c.History(cfg.node)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: %d archived windows\n", res.Label, len(res.History))
		for _, e := range res.History {
			fmt.Fprintf(out, "  window %d (%s):", e.Window, e.Scheme)
			for i, n := range e.Signature.Nodes {
				fmt.Fprintf(out, " %s=%.4f", n, e.Signature.Weights[i])
			}
			fmt.Fprintln(out)
		}
		return nil
	case "watch":
		if cfg.node == "" || cfg.individual == "" {
			return fmt.Errorf("client watch needs -node and -individual")
		}
		res, err := c.WatchlistAdd(server.WatchlistAddRequest{
			Individual: cfg.individual, Label: cfg.node,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "archived %d signature(s) of %s under %q (watchlist size %d)\n",
			res.Archived, cfg.node, cfg.individual, res.Total)
		return nil
	case "hits":
		res, err := c.WatchlistHits()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d watchlist hits:\n", len(res.Hits))
		for _, h := range res.Hits {
			fmt.Fprintf(out, "  window %d: %-18s ~ %-18s dist=%.4f (archived window %d)\n",
				h.Window, h.Label, h.Individual, h.Dist, h.ArchivedWindow)
		}
		return nil
	case "anomalies":
		res, err := c.Anomalies(cfg.z)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "anomalies over windows [%d,%d] (z < -%.1f): %d; mean persistence %.4f ± %.4f\n",
			res.FromWindow, res.ToWindow, cfg.z, len(res.Anomalies), res.Mean, res.StdDev)
		for _, a := range res.Anomalies {
			fmt.Fprintf(out, "  %-18s persistence=%.4f z=%.2f\n", a.Label, a.Persistence, a.ZScore)
		}
		return nil
	case "metrics":
		fams, err := c.Metrics()
		if err != nil {
			return err
		}
		// The exposition as served: families in order, samples verbatim.
		for _, f := range fams {
			fmt.Fprintf(out, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
			for _, s := range f.Samples {
				if s.Labels != "" {
					fmt.Fprintf(out, "%s{%s} %v\n", s.Name, s.Labels, s.Value)
				} else {
					fmt.Fprintf(out, "%s %v\n", s.Name, s.Value)
				}
			}
		}
		return nil
	case "health":
		h, err := c.Health()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: uptime %.1fs, %d archived windows, current window %d, %d flows ingested\n",
			h.Status, h.UptimeSeconds, h.Windows, h.CurrentWindow, h.Ingested)
		return nil
	default:
		return fmt.Errorf("client: unknown -op %q (want search|history|watch|hits|anomalies|metrics|health)", cfg.op)
	}
}
