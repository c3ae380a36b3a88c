package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"graphsig/internal/graph"
)

// The codecs of the two snapshot files this package owns (format: see
// snapshot.go): the manifest — one renderer, used by Save, and one
// reader, used by Load and held to the renderer by FuzzLoadManifest —
// and the label file, likewise (FuzzLoadLabels).

const manifestHeader = "graphsig-store v4"

// windowFile is one manifest entry: a ring window and the CRC32 of its
// file's bytes, which together spell the file's name.
type windowFile struct {
	window int
	crc    uint32
}

func (w windowFile) name() string { return fmt.Sprintf("window-%09d-%08x.seg", w.window, w.crc) }

// labelFile is the other kind of manifest entry: the labels of count
// consecutive NodeIDs from first on, in a file named after first and
// the CRC32 of its bytes. The manifest does not carry count; the file
// does.
type labelFile struct {
	first int
	crc   uint32
	count int
}

func (l labelFile) name() string { return fmt.Sprintf("labels-%09d-%08x", l.first, l.crc) }

// renderManifest is the manifest naming the label files (NodeID order)
// and the window files (oldest first).
func renderManifest(labels []labelFile, windows []windowFile) []byte {
	out := []byte(manifestHeader + "\n")
	for _, l := range labels {
		out = fmt.Appendf(out, "labels %d %08x\n", l.first, l.crc)
	}
	for _, w := range windows {
		out = fmt.Appendf(out, "window %d %08x\n", w.window, w.crc)
	}
	return fmt.Appendf(out, "crc %08x\n", crc32.ChecksumIEEE(out))
}

// loadManifest checks raw and returns the files it names (label files
// without their counts). The line parser is lenient because the
// comparison after it is not: a manifest is accepted only if rendering
// what was read out of it gives back raw byte for byte — which verifies
// the trailing checksum and refuses every line, spelling and ordering
// Save does not produce.
func loadManifest(raw []byte) ([]labelFile, []windowFile, error) {
	lines := strings.Split(string(raw), "\n")
	switch lines[0] {
	case manifestHeader:
	case "graphsig-store v1", "graphsig-store v2", "graphsig-store v3":
		return nil, nil, fmt.Errorf("%w: manifest says %q, this build reads %q", ErrOldFormat, lines[0], manifestHeader)
	default:
		return nil, nil, corruptf("bad manifest header %q", lines[0])
	}
	var labels []labelFile
	var windows []windowFile
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		n, _ := strconv.Atoi(f[1])
		crc, _ := strconv.ParseUint(f[2], 16, 32)
		switch f[0] {
		case "labels":
			labels = append(labels, labelFile{first: n, crc: uint32(crc)})
		case "window":
			windows = append(windows, windowFile{n, uint32(crc)})
		}
	}
	if !bytes.Equal(renderManifest(labels, windows), raw) {
		return nil, nil, corruptf("manifest fails its checksum or is not as Save writes it")
	}
	for i := 1; i < len(windows); i++ {
		if windows[i].window <= windows[i-1].window {
			return nil, nil, corruptf("manifest windows not ascending at %d", windows[i].window)
		}
	}
	return labels, windows, nil
}

// encodeLabels is the label file of NodeIDs [first, end) of u: per
// label its length as a uvarint, its bytes, and its part as one byte.
// Nothing else — the file's checksum is in its name.
func encodeLabels(u *graph.Universe, first, end int) []byte {
	out := make([]byte, 0, 24*(end-first))
	for id := graph.NodeID(first); int(id) < end; id++ {
		label := u.Label(id)
		out = binary.AppendUvarint(out, uint64(len(label)))
		out = append(append(out, label...), byte(u.PartOf(id)))
	}
	return out
}

// loadLabels interns the labels of a label file's bytes into u, which
// must number them from first on — so a label the universe already
// holds, whether from an earlier file or twice in this one, is refused.
// It accepts only what encodeLabels writes: lengths in their shortest
// form, parts that exist, no byte left over.
func loadLabels(raw []byte, u *graph.Universe, first int) (count int, err error) {
	for len(raw) > 0 {
		n, w := binary.Uvarint(raw)
		if w <= 0 || (w > 1 && raw[w-1] == 0) || n >= uint64(len(raw)-w) {
			return 0, corruptf("label file: bad length at label %d", first+count)
		}
		label, part := string(raw[w:w+int(n)]), graph.Part(raw[w+int(n)])
		if part > graph.Part2 {
			return 0, corruptf("label file: label %q in part %d", label, part)
		}
		if id, err := u.Intern(label, part); err != nil || int(id) != first+count {
			return 0, corruptf("label file repeats label %q", label)
		}
		raw = raw[w+int(n)+1:]
		count++
	}
	return count, nil
}
