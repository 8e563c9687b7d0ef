package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The disk artifact tier (Options.ArtifactDir): a content-addressed
// directory of artifact files behind the RAM LRU. Every artifact the
// store builds is written through to disk, so a RAM eviction is a
// demotion for free (the disk copy already exists) and a cache miss
// checks disk before recomputing; a promotion counts as a reuse, which
// is what makes a warm restart byte-identical — results and
// GridRebuildsAvoided alike — to a store that never restarted.
//
// Crash safety is the rename protocol: artifacts are written to a
// temporary file in the same directory, fsync'd, renamed into place, and
// the directory fsync'd — a crash mid-write leaves either the old state
// or the new, never a torn final file. Every file additionally carries a
// magic header, its own canonical name (so a renamed file cannot serve
// under the wrong key), and a SHA-256 trailer; a read that fails any of
// those checks deletes the file and reports a miss, so the store
// self-heals by recomputing (counted in Stats.DiskErrors). Leftover
// temporary files are removed by the startup scan.
//
// File names encode the full artifact key —
//
//	<kind>-<a>-<b|"self">-<xi>.art
//
// with a and b the hex point-content hashes — so the startup scan
// rebuilds the index without opening a single file; contents are
// verified lazily on first read. The index and byte/thruput counters
// live on the Store and are guarded by Store.mu like every other
// mutable store structure (the *Locked methods below); file I/O for
// loads and spills happens outside the lock.

const (
	artifactExt     = ".art"
	artifactTmpPref = ".tmp-"
	artifactMagic   = "TMART1\n"
)

// diskTier is the on-disk artifact index: sizes by key, maintained under
// Store.mu. Nil when Options.ArtifactDir is unset or unusable.
type diskTier struct {
	dir   string
	index map[artifactKey]int64 // file size by key
	bytes int64
}

// kindNames is the filename vocabulary; parseArtifactName inverts it.
var kindNames = map[artifactKind]string{
	kindSelfGrid:    "selfgrid",
	kindCrossGrid:   "crossgrid",
	kindSelfBounds:  "selfbounds",
	kindCrossBounds: "crossbounds",
	kindPairDists:   "pairdists",
	kindPointDists:  "pointdists",
}

// artifactFileName is the canonical key → filename mapping.
func artifactFileName(k artifactKey) string {
	b := string(k.b)
	if b == "" {
		b = "self"
	}
	return fmt.Sprintf("%s-%s-%s-%d%s", kindNames[k.kind], k.a, b, k.xi, artifactExt)
}

// parseArtifactName inverts artifactFileName. IDs are hex, so the dash
// split is unambiguous.
func parseArtifactName(name string) (artifactKey, bool) {
	base, ok := strings.CutSuffix(name, artifactExt)
	if !ok {
		return artifactKey{}, false
	}
	parts := strings.Split(base, "-")
	if len(parts) != 4 {
		return artifactKey{}, false
	}
	var k artifactKey
	found := false
	for kind, kn := range kindNames {
		if kn == parts[0] {
			k.kind, found = kind, true
			break
		}
	}
	if !found {
		return artifactKey{}, false
	}
	k.a = ID(parts[1])
	if parts[2] != "self" {
		k.b = ID(parts[2])
	}
	xi, err := strconv.ParseInt(parts[3], 10, 64)
	if err != nil || xi < 0 {
		return artifactKey{}, false
	}
	k.xi = int(xi)
	return k, true
}

// newDiskTier opens (creating if needed) an artifact directory and scans
// it: leftover temporary files and unparseable .art files are removed,
// everything else is indexed by size without being opened. healed counts
// the removals, failed the I/O errors encountered.
func newDiskTier(dir string) (d *diskTier, healed, failed int64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	d = &diskTier{dir: dir, index: make(map[artifactKey]int64)}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, artifactTmpPref):
			// A write that never reached its rename: harmless, remove.
			if os.Remove(filepath.Join(dir, name)) == nil {
				healed++
			} else {
				failed++
			}
		case strings.HasSuffix(name, artifactExt):
			key, ok := parseArtifactName(name)
			if !ok {
				if os.Remove(filepath.Join(dir, name)) == nil {
					healed++
				} else {
					failed++
				}
				continue
			}
			info, err := e.Info()
			if err != nil {
				failed++
				continue
			}
			d.index[key] = info.Size()
			d.bytes += info.Size()
		default:
			// Not ours (e.g. a registry snapshot); leave it alone.
		}
	}
	return d, healed, failed, nil
}

// writeArtifact writes one artifact file atomically: header + payload +
// SHA-256 trailer into a same-directory temp file, fsync, rename, fsync
// the directory. Returns the file size for the index.
func (d *diskTier) writeArtifact(k artifactKey, payload []byte) (int64, error) {
	name := artifactFileName(k)
	if len(name) > 1<<16-1 {
		return 0, fmt.Errorf("store: artifact name too long")
	}
	buf := make([]byte, 0, len(artifactMagic)+2+len(name)+len(payload)+sha256.Size)
	buf = append(buf, artifactMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)

	f, err := os.CreateTemp(d.dir, artifactTmpPref+"art-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(d.dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if dir, derr := os.Open(d.dir); derr == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return int64(len(buf)), nil
}

// readArtifact loads and verifies one artifact file, returning its
// payload. Any verification failure — truncation, bad magic, name
// mismatch, checksum mismatch — deletes the file (self-heal: the next
// access recomputes and rewrites it) and returns an error; the caller
// drops the index entry under the lock.
func (d *diskTier) readArtifact(k artifactKey) ([]byte, error) {
	name := artifactFileName(k)
	path := filepath.Join(d.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := verifyArtifact(data, name)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return payload, nil
}

// verifyArtifact checks the container format and returns the payload.
func verifyArtifact(data []byte, name string) ([]byte, error) {
	headerMin := len(artifactMagic) + 2
	if len(data) < headerMin+sha256.Size {
		return nil, fmt.Errorf("store: artifact %s truncated to %d bytes", name, len(data))
	}
	if string(data[:len(artifactMagic)]) != artifactMagic {
		return nil, fmt.Errorf("store: artifact %s has a foreign header", name)
	}
	nameLen := int(binary.LittleEndian.Uint16(data[len(artifactMagic):]))
	if len(data) < headerMin+nameLen+sha256.Size {
		return nil, fmt.Errorf("store: artifact %s truncated inside the name", name)
	}
	if string(data[headerMin:headerMin+nameLen]) != name {
		return nil, fmt.Errorf("store: artifact %s carries the wrong key", name)
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("store: artifact %s fails its checksum", name)
	}
	return body[headerMin+nameLen:], nil
}

// removeArtifact deletes one artifact file (trajectory purges).
func (d *diskTier) removeArtifact(k artifactKey) {
	os.Remove(filepath.Join(d.dir, artifactFileName(k)))
}

// encodeFloats / decodeFloats serialize the small fixed-arity memo
// payloads (pair endpoint distances, point-pair distances).
func encodeFloats(vals ...float64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

func decodeFloats(data []byte, n int) ([]float64, error) {
	if len(data) != 8*n {
		return nil, fmt.Errorf("store: %d bytes for a %d-float payload", len(data), n)
	}
	out := make([]float64, n)
	for k := range out {
		out[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
	}
	return out, nil
}

// --- Store-side index maintenance, under Store.mu ---

// diskHasLocked reports whether the key has an indexed disk copy.
func (s *Store) diskHasLocked(k artifactKey) bool {
	if s.disk == nil {
		return false
	}
	_, ok := s.disk.index[k]
	return ok
}

// diskRecordLocked indexes a freshly written artifact file.
func (s *Store) diskRecordLocked(k artifactKey, size int64) {
	if prev, ok := s.disk.index[k]; ok {
		// A concurrent identical spill landed first; the rename made the
		// last write win, so track the newer size.
		s.disk.bytes += size - prev
		s.disk.index[k] = size
		return
	}
	s.disk.index[k] = size
	s.disk.bytes += size
	s.diskWrites++
}

// diskDropLocked forgets a disk copy that failed verification (the file
// itself was already removed by the failed read).
func (s *Store) diskDropLocked(k artifactKey) {
	if size, ok := s.disk.index[k]; ok {
		delete(s.disk.index, k)
		s.disk.bytes -= size
	}
	s.diskErrors++
}

// diskPurgeLocked removes every disk artifact derived from the geometry
// pid, files included — the disk half of evictLocked's cache purge, so
// Remove and auto-eviction can never leave a stale artifact to be
// promoted later.
func (s *Store) diskPurgeLocked(pid ID) {
	if s.disk == nil {
		return
	}
	for key, size := range s.disk.index {
		if key.a == pid || key.b == pid {
			s.disk.removeArtifact(key)
			delete(s.disk.index, key)
			s.disk.bytes -= size
		}
	}
}

// spill writes an artifact through to disk (outside the lock; the caller
// records success under the lock via diskRecordLocked). size < 0 reports
// a failed or skipped spill.
func (s *Store) spill(k artifactKey, payload []byte) int64 {
	if s.disk == nil {
		return -1
	}
	size, err := s.disk.writeArtifact(k, payload)
	if err != nil {
		return -1
	}
	return size
}
