package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"trajmotif/internal/geo"
	"trajmotif/internal/traj"
)

// Registry snapshots: a single checksummed file holding every registered
// trajectory (points and timestamps), so a restart can re-Add the same
// content and — because IDs are content hashes and the disk artifact
// tier survives in place — come back warm: same IDs, same artifact keys,
// promotions instead of rebuilds.
//
// Layout: magic, uint64 trajectory count, then per trajectory a uint64
// point count, one hasTimes byte, the points as float64 lat/lng bits,
// and (when timestamped) int64 UnixNano per point — all little-endian —
// followed by a SHA-256 trailer over everything before it. Restore
// re-derives timestamps via time.Unix(0, nanos).UTC(), which round-trips
// hashTrajectory exactly (it hashes UnixNano).
//
// Snapshots are written with the same atomicity protocol as artifacts
// (temp file, fsync, rename, directory fsync), so a crash mid-snapshot
// leaves the previous snapshot intact.

const snapshotMagic = "TMSNAP1\n"

// encodeSnapshot serializes trajectories into the snapshot format.
func encodeSnapshot(ts []*traj.Trajectory) []byte {
	size := len(snapshotMagic) + 8 + sha256.Size
	for _, t := range ts {
		size += 8 + 1 + 16*len(t.Points)
		if t.Times != nil {
			size += 8 * len(t.Times)
		}
	}
	out := make([]byte, 0, size)
	out = append(out, snapshotMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(ts)))
	for _, t := range ts {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(t.Points)))
		if t.Times != nil {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		for _, p := range t.Points {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Lat))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Lng))
		}
		if t.Times != nil {
			for _, tm := range t.Times {
				out = binary.LittleEndian.AppendUint64(out, uint64(tm.UnixNano()))
			}
		}
	}
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// decodeSnapshot parses a snapshot produced by encodeSnapshot. Any
// truncation, trailing data, or checksum mismatch is an error — a torn
// snapshot is rejected whole rather than partially restored.
func decodeSnapshot(data []byte) ([]*traj.Trajectory, error) {
	if len(data) < len(snapshotMagic)+8+sha256.Size {
		return nil, fmt.Errorf("store: snapshot truncated to %d bytes", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("store: snapshot has a foreign header")
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("store: snapshot fails its checksum")
	}
	body = body[len(snapshotMagic):]
	takeU64 := func() (uint64, error) {
		if len(body) < 8 {
			return 0, fmt.Errorf("store: snapshot truncated inside a record")
		}
		v := binary.LittleEndian.Uint64(body)
		body = body[8:]
		return v, nil
	}
	count, err := takeU64()
	if err != nil {
		return nil, err
	}
	// Each trajectory costs at least 9 bytes of header; bound the
	// allocation by what the buffer can actually hold.
	if count > uint64(len(body)/9) {
		return nil, fmt.Errorf("store: snapshot claims %d trajectories in %d bytes", count, len(body))
	}
	ts := make([]*traj.Trajectory, 0, count)
	for range count {
		n, err := takeU64()
		if err != nil {
			return nil, err
		}
		if len(body) < 1 {
			return nil, fmt.Errorf("store: snapshot truncated inside a record")
		}
		hasTimes := body[0] != 0
		body = body[1:]
		per := uint64(16)
		if hasTimes {
			per = 24
		}
		if n > uint64(len(body))/per {
			return nil, fmt.Errorf("store: snapshot record claims %d points in %d bytes", n, len(body))
		}
		t := &traj.Trajectory{Points: make([]geo.Point, n)}
		for k := range t.Points {
			t.Points[k].Lat = math.Float64frombits(binary.LittleEndian.Uint64(body[16*k:]))
			t.Points[k].Lng = math.Float64frombits(binary.LittleEndian.Uint64(body[16*k+8:]))
		}
		body = body[16*n:]
		if hasTimes {
			t.Times = make([]time.Time, n)
			for k := range t.Times {
				t.Times[k] = time.Unix(0, int64(binary.LittleEndian.Uint64(body[8*k:]))).UTC()
			}
			body = body[8*n:]
		}
		ts = append(ts, t)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after snapshot", len(body))
	}
	return ts, nil
}

// writeSnapshotFile writes an encoded snapshot atomically: temp file in
// the destination directory, fsync, rename, directory fsync.
func writeSnapshotFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, artifactTmpPref+"snap-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Snapshot writes every registered trajectory (insertion order) to path,
// atomically, and reports how many were written.
func (s *Store) Snapshot(path string) (int, error) {
	s.mu.Lock()
	s.sweepLocked()
	ts := make([]*traj.Trajectory, 0, len(s.order))
	for _, id := range s.order {
		ts = append(ts, s.trajs[id])
	}
	s.mu.Unlock()
	if err := writeSnapshotFile(path, encodeSnapshot(ts)); err != nil {
		return 0, err
	}
	return len(ts), nil
}

// readSnapshotFile loads and decodes a snapshot file. A missing file is
// not an error — it is a first boot, reported as an empty snapshot — but
// a corrupt one is.
func readSnapshotFile(path string) ([]*traj.Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return decodeSnapshot(data)
}

// Restore re-registers every trajectory from a snapshot file, returning
// how many were added. A missing file is not an error (first boot); a
// corrupt one is. Content IDs re-derive from the data, so a restored
// registry matches the snapshotted one exactly, and artifacts already in
// the disk tier reattach to their keys without recomputation.
func (s *Store) Restore(path string) (int, error) {
	ts, err := readSnapshotFile(path)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, t := range ts {
		if _, created, err := s.Add(t); err != nil {
			return n, err
		} else if created {
			n++
		}
	}
	return n, nil
}
