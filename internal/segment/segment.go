// Package segment implements the cold tier behind the store's hot
// in-memory window ring: immutable, checksummed, single-file archives
// of closed signature windows. When the ring evicts a window the store
// compacts it into a segment file instead of dropping it, so History,
// windowed Search and persistence queries keep reaching arbitrarily far
// back while RAM stays bounded by Capacity.
//
// A segment file is append-written once and never modified:
//
//	graphsig-segment v2
//	<window block>            (binary, one per window; layout below)
//	...
//	toc <n>
//	window <idx> <scheme> <offset> <size> <crc32>
//	...
//	label "10.0.0.1" <idx> ...
//	...
//	end <tocOffset> <crc32>
//
// The trailing TOC records each block's byte offset, size and CRC32,
// plus a label→windows index so per-label lookups seek straight to the
// blocks that matter instead of scanning the whole file. The final `end`
// line carries the TOC's offset and a CRC32 of every preceding byte, and
// must itself be spelled exactly as Write spells it, so a torn tail or a
// flipped byte anywhere — the footer included — is detected at open time.
// The store's snapshot manifest ends with the same kind of self-checksum.
//
// A window block is laid out so that reading it back is a bounds-checked
// copy, not a parse. Integers are little-endian; a string is a minimal
// uvarint byte length followed by the bytes:
//
//	string  scheme
//	int64   window index
//	uint32  L, the number of labels
//	L ×     { string label, uint8 part (0 V, 1 V1, 2 V2) }
//	uint32  N, the number of sources
//	N ×     { uint32 source, uint32 k — the signature's member count }
//	M ×     uint32 member            (M = Σ k, signature by signature)
//	M ×     uint64 weight            (IEEE-754 bits, same order)
//
// Sources and members are indices into the block's own label table,
// which lists exactly the labels the block references, once each, in
// the writer's NodeID order — so the bytes depend on the sets and the
// interning order alone (re-compaction and follower compaction
// reproduce them bit for bit). Open interns each block's label table
// once and keeps the local-id → NodeID table, and where the label table
// ends, on the handle. A read (ReadBlock) then checks the block's CRC
// and verifies the block where it lies — every count against the bytes
// that remain, only the canonical encoding, and everything
// core.NewSignatureSet would check of the decoded set — without decoding
// a signature; the Block it returns materialises one row, the rows
// sharing a node with a query, or (Set, which is what ReadWindow
// returns) the whole window as two backing arrays every signature
// slices.
//
// Files headed `graphsig-segment v1` carry core.WriteSignatureSet text
// in place of the binary block. They are no longer read: Open refuses
// one with ErrOldFormat.
//
// Durability: Write hands the finished bytes to CommitFile, the one
// stage → fsync → rename → directory-fsync sequence in the tree (the
// store's snapshot commits its window files and its manifest through it
// too). A crash mid-write leaves only a stale .tmp (cleaned up at the
// next List); a damaged file fails Open with ErrCorrupt and is
// quarantined aside like a corrupt WAL, never silently skipped.
package segment

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"graphsig/internal/core"
	"graphsig/internal/fault"
	"graphsig/internal/graph"
)

const (
	// header opens every file Write produces: binary window blocks
	// (block.go). headerV1 files — the same framing around
	// core.WriteSignatureSet text blocks — are refused as ErrOldFormat.
	header     = "graphsig-segment v2"
	headerV1   = "graphsig-segment v1"
	fileSuffix = ".seg"
	tmpSuffix  = ".tmp"
	// quarantineSuffix matches the store/WAL convention so operators
	// find all damaged artifacts with one glob.
	quarantineSuffix = ".corrupt"
	// footFormat is the last line of a file: the TOC's offset and the
	// CRC32 of every byte before the line.
	footFormat = "end %d %08x"
)

// ErrCorrupt marks a segment file that is structurally broken — bad
// checksum, torn tail, malformed TOC — as opposed to an I/O failure
// reaching it. Corrupt segments are safe to Quarantine.
var ErrCorrupt = errors.New("segment: corrupt segment")

// ErrOldFormat marks a segment file written in a format this build no
// longer reads (`graphsig-segment v1` text blocks). The file is intact,
// not corrupt: it must not be quarantined, and the build that wrote it
// still serves it.
var ErrOldFormat = errors.New("segment: old segment format")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// windowInfo is one TOC entry: where a window's block lives in the file.
type windowInfo struct {
	window int
	scheme string
	off    int64
	size   int64
	crc    uint32
}

// Segment is an opened, verified segment file. The handle caches the
// TOC, the label index and each block's label resolution in memory;
// window blocks stay on disk and are re-read (and re-verified) on
// demand. Segments are immutable, so a handle is safe for concurrent
// readers.
type Segment struct {
	path     string
	size     int64
	toc      []windowInfo // ascending by window
	byWindow map[int]int
	labels   map[string][]int // source label → window indices, ascending
	// blocks[i] resolves the block-local ids of toc[i]'s block to NodeIDs
	// of the universe the handle was written from or opened into.
	blocks []*labelTable
}

// Name returns the canonical file name for a segment covering windows
// [first, last].
func Name(first, last int) string {
	return fmt.Sprintf("seg-%09d-%09d%s", first, last, fileSuffix)
}

// Path returns the segment's file path.
func (s *Segment) Path() string { return s.path }

// Size returns the segment file's byte size.
func (s *Segment) Size() int64 { return s.size }

// First returns the oldest window index in the segment.
func (s *Segment) First() int { return s.toc[0].window }

// Last returns the newest window index in the segment.
func (s *Segment) Last() int { return s.toc[len(s.toc)-1].window }

// Len returns the number of windows in the segment.
func (s *Segment) Len() int { return len(s.toc) }

// Windows returns the window indices in the segment, ascending.
func (s *Segment) Windows() []int {
	out := make([]int, len(s.toc))
	for i, w := range s.toc {
		out[i] = w.window
	}
	return out
}

// Contains reports whether window w has a block in the segment.
func (s *Segment) Contains(w int) bool {
	_, ok := s.byWindow[w]
	return ok
}

// LabelWindows returns the windows in which label appears as a source,
// ascending — the per-segment index that lets History seek straight to
// the relevant blocks. The slice is shared; callers must not mutate it.
func (s *Segment) LabelWindows(label string) []int { return s.labels[label] }

// ReadWindow reads and verifies the block of window w (ReadBlock) and
// decodes all of it: two arrays (nodes, weights) that every signature of
// the returned set slices.
func (s *Segment) ReadWindow(w int) (*core.SignatureSet, error) {
	b, err := s.ReadBlock(w)
	if err != nil {
		return nil, err
	}
	defer b.Release()
	set, err := b.Set()
	if err != nil {
		return nil, corruptf("%s window %d: %v", filepath.Base(s.path), w, err)
	}
	return set, nil
}

// ReadBlock reads the block of window w, checks its CRC and verifies it
// in place, decoding no signature. Members resolve through the local-id
// table Open built, so a runtime read neither mutates nor looks anything
// up in the universe and is safe under the store's read lock. The bytes
// are read into memory a released Block gave back, when there is any.
func (s *Segment) ReadBlock(w int) (b *Block, err error) {
	i, ok := s.byWindow[w]
	if !ok {
		return nil, fmt.Errorf("segment: window %d not in %s", w, filepath.Base(s.path))
	}
	info := s.toc[i]
	f, err := os.Open(s.path)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	defer f.Close()
	sc := scratchPool.Get().(*blockScratch)
	defer func() {
		if err != nil {
			scratchPool.Put(sc)
		}
	}()
	sc.raw = slices.Grow(sc.raw[:0], int(info.size))[:info.size]
	if _, err := f.ReadAt(sc.raw, info.off); err != nil {
		return nil, fmt.Errorf("segment: %s window %d: %w", filepath.Base(s.path), w, err)
	}
	if got := crc32.ChecksumIEEE(sc.raw); got != info.crc {
		return nil, corruptf("%s window %d checksum mismatch: %08x != %08x",
			filepath.Base(s.path), w, got, info.crc)
	}
	if b, err = parseBlock(sc, sc.raw, nil, s.blocks[i]); err != nil {
		return nil, corruptf("%s window %d: %v", filepath.Base(s.path), w, err)
	}
	b.scratch = sc
	return b, nil
}

// Write compacts sets (ascending window order) into a new segment file
// under dir and returns the opened handle. CommitFile makes it durable,
// so a crash at any point leaves either no segment or a complete one —
// and because the block codec is deterministic, re-compacting the same
// windows after a crash-replay reproduces the file bit-identically
// (cluster followers rely on this to agree with their primary).
func Write(dir string, sets []*core.SignatureSet, u *graph.Universe) (*Segment, error) {
	seg, data, err := encode(sets, u)
	if err != nil {
		return nil, err
	}
	seg.path = filepath.Join(dir, Name(seg.First(), seg.Last()))
	if err := CommitFile(seg.path, data, "segment.write", "segment.commit"); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	return seg, nil
}

// Encode returns the bytes Write would put on disk for sets, for a
// caller that names and commits the file itself (the store's snapshot
// names each one-window file after its checksum).
func Encode(sets []*core.SignatureSet, u *graph.Universe) ([]byte, error) {
	_, data, err := encode(sets, u)
	return data, err
}

// encode renders sets as a segment file and the handle that describes
// it (everything but the path).
func encode(sets []*core.SignatureSet, u *graph.Universe) (*Segment, []byte, error) {
	if len(sets) == 0 {
		return nil, nil, fmt.Errorf("segment: write with no windows")
	}
	for i := 1; i < len(sets); i++ {
		if sets[i].Window <= sets[i-1].Window {
			return nil, nil, fmt.Errorf("segment: windows not ascending: %d after %d",
				sets[i].Window, sets[i-1].Window)
		}
	}
	seg := &Segment{
		byWindow: make(map[int]int, len(sets)),
		labels:   make(map[string][]int),
	}

	// One allocation for the file: what the blocks' fixed-width
	// sections take, 24 bytes a label they may name, and the TOC's lines.
	size := len(header) + 64
	for _, set := range sets {
		members := 0
		for _, sig := range set.Sigs {
			members += len(sig.Nodes)
		}
		size += 128 + 2*len(set.Scheme) + 12*members + 24*min(u.Size(), len(set.Sources)+members) + 48*len(set.Sources)
	}
	out := append(make([]byte, 0, size), header+"\n"...)
	local := make([]uint32, u.Size())
	for i, set := range sets {
		off := len(out)
		var labels *labelTable
		var err error
		if out, labels, err = appendBlock(out, set, u, local); err != nil {
			return nil, nil, fmt.Errorf("segment: window %d: %w", set.Window, err)
		}
		seg.toc = append(seg.toc, windowInfo{
			window: set.Window,
			scheme: set.Scheme,
			off:    int64(off),
			size:   int64(len(out) - off),
			crc:    crc32.ChecksumIEEE(out[off:]),
		})
		seg.blocks = append(seg.blocks, labels)
		seg.byWindow[set.Window] = i
		for _, v := range set.Sources {
			label := u.Label(v)
			seg.labels[label] = append(seg.labels[label], set.Window)
		}
	}
	tocOff := len(out)
	out = append(strconv.AppendInt(append(out, "toc "...), int64(len(seg.toc)), 10), '\n')
	for _, w := range seg.toc {
		out = strconv.AppendInt(append(out, "window "...), int64(w.window), 10)
		out = strconv.AppendQuote(append(out, ' '), w.scheme)
		out = strconv.AppendInt(append(out, ' '), w.off, 10)
		out = strconv.AppendInt(append(out, ' '), w.size, 10)
		out = append(appendHex8(append(out, ' '), w.crc), '\n')
	}
	labels := make([]string, 0, len(seg.labels))
	for label := range seg.labels {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		out = strconv.AppendQuote(append(out, "label "...), label)
		for _, w := range seg.labels[label] {
			out = strconv.AppendInt(append(out, ' '), int64(w), 10)
		}
		out = append(out, '\n')
	}
	// footFormat, spelt out.
	crc := crc32.ChecksumIEEE(out)
	out = strconv.AppendInt(append(out, "end "...), int64(tocOff), 10)
	out = append(appendHex8(append(out, ' '), crc), '\n')
	seg.size = int64(len(out))
	return seg, out, nil
}

// appendHex8 appends v as fmt's %08x does.
func appendHex8(dst []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, digits[v>>shift&0xf])
	}
	return dst
}

// CommitFile makes data the durable content of path: staged at
// path.tmp and fsynced, renamed over path, and the directory fsynced —
// so after a crash path holds either what it held before or all of
// data. writePoint fires before anything is written (a full disk),
// commitPoint between the fsync and the rename (a kill that leaves a
// complete but uncommitted .tmp behind); an empty name never fires.
func CommitFile(path string, data []byte, writePoint, commitPoint string) error {
	if err := writeFileSynced(path+tmpSuffix, data, writePoint); err != nil {
		return err
	}
	if err := fault.Inject(commitPoint); err != nil {
		return err
	}
	if err := os.Rename(path+tmpSuffix, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// Open reads and fully verifies a segment file: the trailing
// self-checksum, the TOC, and every window block (size, CRC, and the
// same in-place verification a read makes; no signature is decoded).
// Verifying at open time doubles as label registration — every label
// the segment references is interned into u here, once,
// single-threaded, and each block's local-id → NodeID table is kept on
// the handle — so later reads never touch the universe's string map,
// let alone mutate it. Structural damage is reported as ErrCorrupt
// (quarantine and carry on), a `graphsig-segment v1` file as
// ErrOldFormat (leave it be); plain I/O errors are neither.
func Open(path string, u *graph.Universe) (*Segment, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	return parse(path, raw, u)
}

// parse is Open over the file's bytes; every failure is ErrCorrupt or
// ErrOldFormat.
func parse(path string, raw []byte, u *graph.Universe) (*Segment, error) {
	if bytes.HasPrefix(raw, []byte(headerV1+"\n")) {
		return nil, fmt.Errorf("%w: %s is a %s file; the build that wrote it still reads it",
			ErrOldFormat, filepath.Base(path), headerV1)
	}
	if !bytes.HasPrefix(raw, []byte(header+"\n")) {
		return nil, corruptf("%s: bad header", filepath.Base(path))
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		return nil, corruptf("%s: torn tail", filepath.Base(path))
	}
	footStart := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	foot := strings.TrimSuffix(string(raw[footStart:]), "\n")
	var tocOff int64
	var wantCRC uint32
	// Sscanf is lenient (upper-case hex, signs); only Write's spelling
	// passes, so no byte of the footer can change unnoticed.
	if _, err := fmt.Sscanf(foot, footFormat, &tocOff, &wantCRC); err != nil || foot != fmt.Sprintf(footFormat, tocOff, wantCRC) {
		return nil, corruptf("%s: bad end line %q", filepath.Base(path), foot)
	}
	if got := crc32.ChecksumIEEE(raw[:footStart]); got != wantCRC {
		return nil, corruptf("%s: checksum mismatch: %08x != %08x", filepath.Base(path), got, wantCRC)
	}
	if tocOff <= 0 || tocOff >= int64(footStart) {
		return nil, corruptf("%s: toc offset %d out of range", filepath.Base(path), tocOff)
	}

	seg := &Segment{
		path:     path,
		size:     int64(len(raw)),
		byWindow: make(map[int]int),
		labels:   make(map[string][]int),
	}
	lines := strings.Split(strings.TrimSuffix(string(raw[tocOff:int64(footStart)]), "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "toc ") {
		return nil, corruptf("%s: missing toc line", filepath.Base(path))
	}
	n, err := strconv.Atoi(strings.TrimPrefix(lines[0], "toc "))
	if err != nil || n <= 0 {
		return nil, corruptf("%s: bad toc count %q", filepath.Base(path), lines[0])
	}
	for _, line := range lines[1:] {
		switch {
		case strings.HasPrefix(line, "window "):
			fields, err := core.SplitQuoted(line)
			if err != nil || len(fields) != 6 {
				return nil, corruptf("%s: bad toc window line %q", filepath.Base(path), line)
			}
			var info windowInfo
			info.scheme = fields[2]
			if info.window, err = strconv.Atoi(fields[1]); err != nil {
				return nil, corruptf("%s: bad window index in %q", filepath.Base(path), line)
			}
			if info.off, err = strconv.ParseInt(fields[3], 10, 64); err != nil {
				return nil, corruptf("%s: bad offset in %q", filepath.Base(path), line)
			}
			if info.size, err = strconv.ParseInt(fields[4], 10, 64); err != nil {
				return nil, corruptf("%s: bad size in %q", filepath.Base(path), line)
			}
			crc, err := strconv.ParseUint(fields[5], 16, 32)
			if err != nil {
				return nil, corruptf("%s: bad block checksum in %q", filepath.Base(path), line)
			}
			info.crc = uint32(crc)
			if k := len(seg.toc); k > 0 && info.window <= seg.toc[k-1].window {
				return nil, corruptf("%s: toc windows not ascending at %d", filepath.Base(path), info.window)
			}
			seg.byWindow[info.window] = len(seg.toc)
			seg.toc = append(seg.toc, info)
		case strings.HasPrefix(line, "label "):
			fields, err := core.SplitQuoted(line)
			if err != nil || len(fields) < 3 {
				return nil, corruptf("%s: bad toc label line %q", filepath.Base(path), line)
			}
			wins := make([]int, 0, len(fields)-2)
			for _, f := range fields[2:] {
				w, err := strconv.Atoi(f)
				if err != nil {
					return nil, corruptf("%s: bad label window in %q", filepath.Base(path), line)
				}
				if _, ok := seg.byWindow[w]; !ok {
					return nil, corruptf("%s: label references unknown window %d", filepath.Base(path), w)
				}
				wins = append(wins, w)
			}
			seg.labels[fields[1]] = wins
		default:
			return nil, corruptf("%s: unknown toc line %q", filepath.Base(path), line)
		}
	}
	if len(seg.toc) != n {
		return nil, corruptf("%s: toc promises %d windows, found %d", filepath.Base(path), n, len(seg.toc))
	}

	// Deep verification + label registration: every block must match its
	// TOC entry and verify cleanly. Interning here (boot, single-threaded)
	// is what makes later reads mutation-free.
	seg.blocks = make([]*labelTable, len(seg.toc))
	var sc blockScratch // of each block only the label table is kept
	for i, info := range seg.toc {
		if info.size < 0 || info.off < int64(len(header)+1) || info.off > tocOff-info.size {
			return nil, corruptf("%s: window %d block out of bounds", filepath.Base(path), info.window)
		}
		block := raw[info.off : info.off+info.size]
		if got := crc32.ChecksumIEEE(block); got != info.crc {
			return nil, corruptf("%s: window %d checksum mismatch: %08x != %08x",
				filepath.Base(path), info.window, got, info.crc)
		}
		b, err := parseBlock(&sc, block, u, nil)
		if err != nil {
			return nil, corruptf("%s: window %d: %v", filepath.Base(path), info.window, err)
		}
		if b.window != info.window {
			return nil, corruptf("%s: block claims window %d, toc says %d",
				filepath.Base(path), b.window, info.window)
		}
		seg.blocks[i] = b.labels
	}
	return seg, nil
}

// List returns the segment files under dir, sorted by name (the
// zero-padded window range makes name order equal window order), and
// removes stale .tmp leftovers from crashed compactions. A missing dir
// is an empty listing, not an error.
func List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("segment: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, fileSuffix+tmpSuffix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if strings.HasSuffix(name, fileSuffix) {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Quarantine renames a segment file that failed to Open aside
// (file.corrupt, file.corrupt.1, ...) and returns the new path, so the
// caller can keep serving while preserving the evidence.
func Quarantine(path string) (string, error) {
	dst := path + quarantineSuffix
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s%s.%d", path, quarantineSuffix, i)
	}
	if err := os.Rename(path, dst); err != nil {
		return "", fmt.Errorf("segment: quarantine: %w", err)
	}
	return dst, nil
}

// writeFileSynced writes data to path and fsyncs it; the failpoint
// fires before the write so tests can inject full-disk failures.
func writeFileSynced(path string, data []byte, failpoint string) error {
	if err := fault.Inject(failpoint); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// MkdirSynced is os.MkdirAll that makes the names it creates durable:
// after creating dir it syncs the directory above each one it made. A
// dir that exists is left alone and nothing is synced. failpoint fires
// before the first sync; when that or a sync fails, the directories
// just made are removed again, so the next call creates, and syncs,
// them anew.
func MkdirSynced(dir, failpoint string) error {
	var made []string // deepest first
	for d := filepath.Clean(dir); filepath.Dir(d) != d; d = filepath.Dir(d) {
		if _, err := os.Stat(d); err == nil {
			break
		}
		made = append(made, d)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil || len(made) == 0 {
		return err
	}
	err := fault.Inject(failpoint)
	for _, d := range made {
		if err != nil {
			break
		}
		err = syncDir(filepath.Dir(d))
	}
	if err != nil {
		for _, d := range made {
			_ = os.Remove(d) // empty, made just now; one left behind is merely not synced
		}
	}
	return err
}

// syncDir fsyncs a directory so its entries are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
