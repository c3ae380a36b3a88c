// Package durable holds the file-system steps the three on-disk
// formats (the WAL, the snapshot, the cold-tier segments) share: one
// commit of a file's content, one directory creation and one directory
// sync that make names durable, and one quarantine that moves a
// damaged artifact aside.
package durable

import (
	"fmt"
	"os"
	"path/filepath"

	"graphsig/internal/fault"
)

// TmpSuffix names the staged copy CommitFile writes before its rename;
// a crash between the two leaves one behind.
const TmpSuffix = ".tmp"

// CommitFile makes data the durable content of path: staged at
// path.tmp and fsynced, renamed over path, and the directory fsynced —
// so after a crash path holds either what it held before or all of
// data. writePoint fires before anything is written (a full disk),
// commitPoint between the fsync and the rename (a kill that leaves a
// complete but uncommitted .tmp behind); an empty name never fires.
func CommitFile(path string, data []byte, writePoint, commitPoint string) error {
	if err := writeFileSynced(path+TmpSuffix, data, writePoint); err != nil {
		return err
	}
	if err := fault.Inject(commitPoint); err != nil {
		return err
	}
	if err := os.Rename(path+TmpSuffix, path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path), "")
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
		err = SyncDir(filepath.Dir(d), "")
	}
	if err != nil {
		for _, d := range made {
			_ = os.Remove(d) // empty, made just now; one left behind is merely not synced
		}
	}
	return err
}

// SyncDir fsyncs a directory so the names in it are durable; failpoint
// fires first ("" never fires).
func SyncDir(dir, failpoint string) error {
	if err := fault.Inject(failpoint); err != nil {
		return err
	}
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

// Quarantine renames a damaged file or directory aside (path.corrupt,
// path.corrupt.1, ...) and returns the new name, so the caller can go
// on with a fresh one while keeping the evidence. Every format uses the
// same suffix, so one glob finds all damaged artifacts.
func Quarantine(path string) (string, error) {
	dst := path + ".corrupt"
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s.corrupt.%d", path, i)
	}
	if err := os.Rename(path, dst); err != nil {
		return "", fmt.Errorf("quarantine: %w", err)
	}
	return dst, nil
}
