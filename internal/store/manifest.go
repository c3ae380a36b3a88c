package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// The snapshot manifest's codec (format: see snapshot.go): one renderer,
// used by Save, and one reader, used by Load and held to the renderer by
// FuzzLoadManifest.

const manifestHeader = "graphsig-store v3"

// windowFile is one manifest entry: a ring window and the CRC32 of its
// file's bytes, which together spell the file's name.
type windowFile struct {
	window int
	crc    uint32
}

func (w windowFile) name() string { return fmt.Sprintf("window-%09d-%08x.seg", w.window, w.crc) }

// renderManifest is the manifest of n labels (NodeID order) and the
// window list.
func renderManifest(n int, node func(i int) (string, graph.Part), windows []windowFile) []byte {
	out := []byte(manifestHeader + "\n")
	for i := 0; i < n; i++ {
		label, part := node(i)
		out = strconv.AppendQuote(append(out, "node "...), label)
		out = append(append(append(out, ' '), part.String()...), '\n')
	}
	for _, w := range windows {
		out = fmt.Appendf(out, "window %d %08x\n", w.window, w.crc)
	}
	return fmt.Appendf(out, "crc %08x\n", crc32.ChecksumIEEE(out))
}

var partOf = map[string]graph.Part{"V": graph.PartNone, "V1": graph.Part1, "V2": graph.Part2}

// loadManifest checks raw and interns its labels into u, which must
// come out numbered in manifest order. The line parser is lenient
// because the comparison after it is not: a manifest is accepted only
// if rendering what was read out of it gives back raw byte for byte —
// which verifies the trailing checksum and refuses every line, spelling
// and ordering Save does not produce.
func loadManifest(raw []byte, u *graph.Universe) ([]windowFile, error) {
	lines := strings.Split(string(raw), "\n")
	switch lines[0] {
	case manifestHeader:
	case "graphsig-store v1", "graphsig-store v2":
		return nil, fmt.Errorf("%w: manifest says %q, this build reads %q", ErrOldFormat, lines[0], manifestHeader)
	default:
		return nil, corruptf("bad manifest header %q", lines[0])
	}
	var labels []string
	var parts []graph.Part
	var windows []windowFile
	for _, line := range lines[1:] {
		switch f, _ := core.SplitQuoted(line); {
		case len(f) == 3 && f[0] == "node":
			labels, parts = append(labels, f[1]), append(parts, partOf[f[2]])
		case len(f) == 3 && f[0] == "window":
			w, _ := strconv.Atoi(f[1])
			crc, _ := strconv.ParseUint(f[2], 16, 32)
			windows = append(windows, windowFile{w, uint32(crc)})
		}
	}
	node := func(i int) (string, graph.Part) { return labels[i], parts[i] }
	if !bytes.Equal(renderManifest(len(labels), node, windows), raw) {
		return nil, corruptf("manifest fails its checksum or is not as Save writes it")
	}
	for i := 1; i < len(windows); i++ {
		if windows[i].window <= windows[i-1].window {
			return nil, corruptf("manifest windows not ascending at %d", windows[i].window)
		}
	}
	base := u.Size()
	for i, label := range labels {
		if id, err := u.Intern(label, parts[i]); err != nil || int(id) != base+i {
			return nil, corruptf("manifest repeats label %q", label)
		}
	}
	return windows, nil
}
