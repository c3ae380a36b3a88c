package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/segment"
	"graphsig/internal/server"
	"graphsig/internal/store"
	"graphsig/internal/stream"
	"graphsig/internal/wal"
)

// layers calls each layer under the ingest path directly, from outside,
// on the batches of the last round's bulk slice, and reports how that
// slice's HTTP wall time divides among them.
func (s *ingestStage) layers() error {
	b := s.b
	scratch := filepath.Join(b.dir, "ingest-layers")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	root := b.rec.begin("ingest.layers", 0)
	defer b.rec.end(root)
	batches := s.lastBulk
	first := b.ds.windowOf(batches[0][0])
	// A fresh pipeline meets every label for the first time; the window
	// before the slice gets that over with, as the node's past has.
	before := b.ds.stream(first-1, 1)
	var err error

	// The request body, encoded the way the client encodes it and
	// decoded the way the handler decodes it.
	var encode, decode samples
	for _, batch := range batches {
		req := server.IngestRequest{Records: make([]server.RecordJSON, len(batch)), BatchID: "probe"}
		var body []byte
		encode.add(b.rec.timed("client.json_encode", root, func() {
			for j, r := range batch {
				req.Records[j] = server.RecordToJSON(r)
			}
			body, err = json.Marshal(req)
		}))
		if err != nil {
			return err
		}
		decode.add(b.rec.timed("server.json_decode", root, func() {
			var got server.IngestRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err = dec.Decode(&got); err != nil {
				return
			}
			for _, rj := range got.Records {
				if _, err = rj.Record(); err != nil {
					return
				}
			}
		}))
		if err != nil {
			return err
		}
	}
	b.rep.layer("client.json_encode_ms_per_batch", encode.median(), "ms", len(encode))
	b.rep.layer("server.json_decode_ms_per_batch", decode.median(), "ms", len(decode))

	// The same batches into a fresh durable node with no HTTP. Batches
	// that close a window are left out of the comparison: the fresh
	// node's ring is empty and its closes are cheaper for that reason.
	direct, err := bootNode(durableConfig(b.ds, filepath.Join(scratch, "direct")))
	if err != nil {
		return err
	}
	defer direct.crash()
	if err := ingestAll(direct.srv, before); err != nil {
		return err
	}
	directRun, err := b.ingestClosedLoop("server.ingest_direct", "direct", batches, func(id string, batch []netflow.Record) (server.IngestResult, error) {
		return direct.srv.IngestBatch(id, batch), nil
	})
	if err != nil {
		return err
	}
	b.rep.layer("server.ingest_direct_records_per_s", float64(len(directRun.acks)*batchSize)/(directRun.acks.sum()/1000), "records/s", len(directRun.acks))
	b.rep.layer("server.http_ingest_overhead_frac", 1-directRun.acks.sum()/s.lastRun.acks.sum(), "ratio", len(directRun.acks))
	b.rep.layer("server.ingest_ack_p50_ms", s.acks.median(), "ms", len(s.acks))
	b.rep.layer("server.small_batch_ms_per_batch", s.lastSmall.acks.median(), "ms", len(s.lastSmall.acks))
	smallBatches := b.sz.rounds * b.sz.smallBatches
	b.rep.layer("wal.syncs_per_batch", float64(s.syncs)/float64(smallBatches), "count", smallBatches)

	// The pipeline alone. A call that emits a set is a window close.
	p, err := stream.NewPipeline(b.ds.streamConfig(), graph.NewUniverse())
	if err != nil {
		return err
	}
	for i := range before {
		if _, err := p.Ingest(before[i]); err != nil {
			return err
		}
	}
	var closeMS samples
	records := 0
	pipeSpan := b.rec.begin("stream.ingest", root)
	t0 := time.Now()
	window := first - 1
	for _, batch := range batches {
		for i := range batch {
			if w := b.ds.windowOf(batch[i]); w != window {
				window = w
				closeMS.add(b.rec.timed("stream.window_close", pipeSpan, func() { _, err = p.Ingest(batch[i]) }))
			} else {
				_, err = p.Ingest(batch[i])
			}
			if err != nil {
				return err
			}
		}
		records += len(batch)
	}
	pipeWall := time.Since(t0)
	b.rec.end(pipeSpan)
	b.rep.layer("stream.ingest_records_per_s", float64(records)/(pipeWall.Seconds()-closeMS.sum()/1000), "records/s", records)
	b.rep.layer("stream.window_close_ms", closeMS.median(), "ms", len(closeMS))

	// The WAL alone, on a scratch file.
	w, _, err := wal.Open(filepath.Join(scratch, "probe.wal"))
	if err != nil {
		return err
	}
	var appends samples
	for _, batch := range batches {
		appends.add(b.rec.timed("wal.append", root, func() { err = w.Append(batch) }))
		if err != nil {
			w.Close()
			return err
		}
	}
	walBytes, err := w.Size()
	w.Close()
	if err != nil {
		return err
	}
	b.rep.layer("wal.append_ms_per_batch", appends.median(), "ms", len(appends))
	b.rep.layer("wal.bytes_per_record", float64(walBytes)/float64(records), "bytes", records)

	// The store alone, fed the reference's windows: commit (Add, which
	// compacts evictions into segments) and checkpoint (Save) of each.
	sets := s.env.reference.Windows()
	u := s.env.reference.Universe()
	reg := obs.NewRegistry()
	st, err := store.New(store.Config{Capacity: ringCapacity, Universe: u, Registry: reg})
	if err != nil {
		return err
	}
	if _, err := st.AttachSegments(filepath.Join(scratch, "seg")); err != nil {
		return err
	}
	var adds, saves samples
	for i, set := range sets {
		add := b.rec.timed("store.add", root, func() { err = st.Add(set) })
		if err != nil {
			return err
		}
		save := b.rec.timed("store.save", root, func() { err = st.Save(filepath.Join(scratch, "snap")) })
		if err != nil {
			return err
		}
		if i >= ringCapacity { // a full ring: every Add evicts and compacts, every Save writes the whole ring
			adds.add(add)
			saves.add(save)
		}
	}
	b.rep.layer("store.add_ms", adds.median(), "ms", len(adds))
	b.rep.layer("store.save_ms", saves.median(), "ms", len(saves))
	b.rep.layer("store.save_bytes_per_window", float64(reg.Snapshot()["store_snapshot_save_bytes_total"])/float64(len(sets)), "bytes", len(sets))

	// One window written as a segment.
	var writes samples
	var segBytes int64
	for _, set := range sets[:min(len(sets), 5)] {
		var seg *segment.Segment
		writes.add(b.rec.timed("segment.write", root, func() {
			seg, err = segment.Write(scratch, []*core.SignatureSet{set}, u)
		}))
		if err != nil {
			return err
		}
		segBytes += seg.Size()
	}
	b.rep.layer("segment.write_ms", writes.median(), "ms", len(writes))
	b.rep.layer("segment.bytes_per_window", float64(segBytes)/float64(len(writes)), "bytes", len(writes))

	// What a restart reads, layer by layer, from the node's directories
	// as its last restart found them (the WAL from a copy: opening it
	// may trim its tail).
	cfg := s.n.cfg
	walCopy := filepath.Join(scratch, "crashed.wal")
	if err := copyFile(server.WALPath(cfg.SnapshotDir), walCopy); err != nil {
		return err
	}
	segFiles, err := segment.List(cfg.SegmentDir)
	if err != nil {
		return err
	}
	var loads, replays, opens samples
	for i := 0; i < 5; i++ {
		loads.add(b.rec.timed("store.load", root, func() {
			_, err = store.Load(cfg.SnapshotDir, store.Config{Capacity: ringCapacity})
		}))
		if err != nil {
			return err
		}
		replays.add(b.rec.timed("wal.replay", root, func() {
			var cw *wal.WAL
			if cw, _, err = wal.Open(walCopy); err == nil {
				cw.Close()
			}
		}))
		if err != nil {
			return err
		}
		fresh := graph.NewUniverse()
		opens.add(b.rec.timed("segment.open", root, func() {
			for _, path := range segFiles {
				if _, err = segment.Open(path, fresh); err != nil {
					return
				}
			}
		}))
		if err != nil {
			return err
		}
	}
	b.rep.layer("store.load_ms", loads.median(), "ms", len(loads))
	b.rep.layer("wal.replay_ms", replays.median(), "ms", len(replays))
	b.rep.layer("segment.open_ms", opens.median(), "ms", len(opens))

	// How much of the slice's HTTP wall the probed layers account for.
	// What is missing is the client's encoding and the transport.
	closes := float64(len(s.lastRun.closes))
	sum := decode.sum() + pipeWall.Seconds()*1000 - closeMS.sum() + closes*closeMS.median() + appends.sum() + closes*(adds.median()+saves.median())
	b.rep.layer("ingest.layers_sum_frac", sum/1000/s.lastRun.wall.Seconds(), "ratio", len(batches))
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
