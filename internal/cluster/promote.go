package cluster

import (
	"net/http"
	"time"

	"graphsig/internal/obs"
	"graphsig/internal/server"
)

// The follower's control surface. FollowerHandler wraps the replica's
// read API with two follower-specific endpoints:
//
//	GET  /v1/follower/status — replication cursor, lag and serving state
//	POST /v1/promote         — flip this replica into a serving primary
//
// Promotion is driven either by an operator (curl against a chosen
// follower) or by the router's health prober in auto-promote mode; in
// both cases the promoted node keeps its listener and address, so the
// router reaches it exactly where the follower was.

// FollowerStatusResponse is the GET /v1/follower/status body.
type FollowerStatusResponse struct {
	Gen            int   `json:"gen"`
	Offset         int64 `json:"offset"`
	AppliedRecords int   `json:"applied_records"`
	CaughtUp       bool  `json:"caught_up"`
	Serving        bool  `json:"serving"`
	Promoted       bool  `json:"promoted"`
	// Progressed is true once the replication cursor has advanced at
	// least once. It disambiguates BehindSeconds == 0: a follower that
	// has never fetched a byte reports 0 too, and must not be mistaken
	// for one that just advanced.
	Progressed bool `json:"progressed"`
	// BehindSeconds is how long ago the cursor last advanced — a coarse
	// staleness signal that works even when the primary is down and the
	// byte lag is unknowable. It is 0 when the follower has never
	// progressed; check Progressed before trusting it.
	BehindSeconds float64          `json:"behind_seconds"`
	LastErr       string           `json:"last_err,omitempty"`
	Fatal         string           `json:"fatal,omitempty"`
	Node          *server.Identity `json:"node,omitempty"`
}

// PromoteResponse is the POST /v1/promote body.
type PromoteResponse struct {
	Promoted bool             `json:"promoted"`
	WALGen   int              `json:"wal_gen"`
	Node     *server.Identity `json:"node,omitempty"`
}

// statusResponse snapshots the follower's stats in wire form.
func (f *Follower) statusResponse() FollowerStatusResponse {
	st := f.Stats()
	resp := FollowerStatusResponse{
		Gen:            st.Gen,
		Offset:         st.Offset,
		AppliedRecords: st.AppliedRecords,
		CaughtUp:       st.CaughtUp,
		Serving:        st.Serving,
		Promoted:       st.Promoted,
		LastErr:        st.LastErr,
		Fatal:          st.Fatal,
	}
	if !st.LastProgress.IsZero() {
		resp.Progressed = true
		resp.BehindSeconds = time.Since(st.LastProgress).Seconds()
	}
	if srv := f.Server(); srv != nil {
		resp.Node = srv.Identity()
	} else {
		resp.Node = f.cfg.Node
	}
	return resp
}

// FollowerHandler serves the replica's read API plus the follower
// control endpoints. Use it instead of Follower.Handler when the
// follower should be promotable over HTTP.
func (f *Follower) FollowerHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/follower/status", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, f.statusResponse())
	})
	mux.HandleFunc("POST /v1/promote", func(w http.ResponseWriter, r *http.Request) {
		srv, err := f.Promote()
		if err != nil {
			// An already-promoted follower makes a routed retry of the
			// promote call idempotent-ish: report the live state with 409
			// so the caller can tell "already done" from "cannot".
			server.WriteError(w, http.StatusConflict, "%v", err)
			return
		}
		// When the prober drove this (X-Sig-Trace present), record the
		// promotion on the new primary's own ring under the prober's
		// trace ID, so the failover stitches into one event.
		if tc := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)); tc.Valid() {
			srv.Tracer().StartRemote("promote", tc).Finish()
		}
		server.WriteJSON(w, http.StatusOK, PromoteResponse{
			Promoted: true,
			WALGen:   srv.WALGen(),
			Node:     srv.Identity(),
		})
	})
	mux.Handle("/", f.Handler())
	return mux
}
