package wal

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taser/internal/mathx"
	"taser/internal/models"
	"taser/internal/tgraph"
)

// testCheckpoint builds a checkpoint with events, features and a weight set.
func testCheckpoint(n, edgeDim int, weightVersion uint64) *Checkpoint {
	rng := mathx.NewRNG(31)
	ck := &Checkpoint{EdgeDim: edgeDim, HasWatermark: n > 0}
	tm := 0.0
	for i := 0; i < n; i++ {
		tm += rng.Float64()
		ck.Events = append(ck.Events, tgraph.Event{Src: int32(rng.Intn(50)), Dst: int32(rng.Intn(50)), Time: tm})
		for j := 0; j < edgeDim; j++ {
			ck.Feats = append(ck.Feats, rng.NormFloat64())
		}
	}
	ck.Watermark = tm
	if weightVersion > 0 {
		m := models.NewTGAT(models.TGATConfig{NodeDim: 4, EdgeDim: edgeDim, HiddenDim: 6, TimeDim: 4, Layers: 1, Budget: 3}, rng)
		p := models.NewEdgePredictor(6, rng)
		ck.Weights = models.CaptureWeights(weightVersion, m, p)
	}
	return ck
}

func sameCheckpoint(t *testing.T, got, want *Checkpoint) {
	t.Helper()
	if got == nil {
		t.Fatal("no checkpoint loaded")
	}
	if len(got.Events) != len(want.Events) || got.EdgeDim != want.EdgeDim ||
		got.Watermark != want.Watermark || got.HasWatermark != want.HasWatermark {
		t.Fatalf("manifest mismatch: got %d events dim %d wm %v, want %d/%d/%v",
			len(got.Events), got.EdgeDim, got.Watermark, len(want.Events), want.EdgeDim, want.Watermark)
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got.Events[i], want.Events[i])
		}
	}
	for i := range want.Feats {
		if got.Feats[i] != want.Feats[i] {
			t.Fatalf("feat %d: got %v want %v", i, got.Feats[i], want.Feats[i])
		}
	}
	switch {
	case want.Weights == nil:
		if got.Weights != nil {
			t.Fatal("decoded weights where none were stored")
		}
	case got.Weights == nil:
		t.Fatal("stored weights were dropped")
	default:
		if got.Weights.Version != want.Weights.Version || len(got.Weights.Params) != len(want.Weights.Params) {
			t.Fatalf("weights v%d/%d tensors, want v%d/%d",
				got.Weights.Version, len(got.Weights.Params), want.Weights.Version, len(want.Weights.Params))
		}
		for i, p := range want.Weights.Params {
			g := got.Weights.Params[i]
			if g.Rows != p.Rows || g.Cols != p.Cols {
				t.Fatalf("weight tensor %d shape %dx%d, want %dx%d", i, g.Rows, g.Cols, p.Rows, p.Cols)
			}
			for j := range p.Data {
				if g.Data[j] != p.Data[j] {
					t.Fatalf("weight tensor %d elem %d: %v != %v", i, j, g.Data[j], p.Data[j])
				}
			}
		}
	}
}

// TestCheckpointRoundTrip: write + load restores events, features, watermark
// and weights bitwise; a weightless checkpoint round-trips nil weights.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		n, edgeDim int
		wv         uint64
	}{{0, 0, 0}, {64, 0, 0}, {64, 3, 2}, {1, 4, 9}} {
		dir := t.TempDir()
		ck := testCheckpoint(tc.n, tc.edgeDim, tc.wv)
		if err := WriteCheckpoint(OSFS{}, dir, ck); err != nil {
			t.Fatal(err)
		}
		got, err := LatestCheckpoint(OSFS{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		sameCheckpoint(t, got, ck)
	}
}

// TestLatestCheckpointPrefersNewestAndPrunes: successive writes are ordered
// by (events, weight version); only the two newest files survive.
func TestLatestCheckpointPrefersNewestAndPrunes(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{10, 20, 30} {
		if err := WriteCheckpoint(OSFS{}, dir, testCheckpoint(n, 2, uint64(n))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LatestCheckpoint(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 30 || got.Weights.Version != 30 {
		t.Fatalf("latest has %d events v%d, want 30/v30", len(got.Events), got.Weights.Version)
	}
	names, err := listCheckpoints(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("retained %d checkpoints, want 2: %v", len(names), names)
	}
}

// TestCorruptCheckpointFallsBack: a flipped byte in the newest checkpoint
// fails its section checksum; loading falls back to the previous one, and
// with no valid file at all returns nil without error.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	old := testCheckpoint(10, 2, 1)
	if err := WriteCheckpoint(OSFS{}, dir, old); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(OSFS{}, dir, testCheckpoint(20, 2, 2)); err != nil {
		t.Fatal(err)
	}
	names, _ := listCheckpoints(OSFS{}, dir)
	newest := filepath.Join(dir, names[0])
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LatestCheckpoint(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, got, old)

	// Corrupt the fallback too: recovery degrades to nil (pure WAL replay).
	older := filepath.Join(dir, names[1])
	data, err = os.ReadFile(older)
	if err != nil {
		t.Fatal(err)
	}
	data[9] ^= 0x80
	if err := os.WriteFile(older, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LatestCheckpoint(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("corrupted checkpoints still loaded")
	}
}

// TestKilledCheckpointWriteLeavesTmpOnly: a kill during the checkpoint write
// never produces a trusted .ck file — only an ignorable .tmp.
func TestKilledCheckpointWriteLeavesTmpOnly(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(OSFS{})
	ff.KillAfter(100, "ckpt")
	if err := WriteCheckpoint(ff, dir, testCheckpoint(40, 2, 3)); err == nil {
		t.Fatal("expected the kill to fail the write")
	}
	names, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".ck") {
			t.Fatalf("torn checkpoint was renamed into place: %v", names)
		}
	}
	got, err := LatestCheckpoint(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("loaded a checkpoint from a torn write")
	}
}

// TestShortReadCheckpointLoad: loading tolerates an FS that returns short
// reads.
func TestShortReadCheckpointLoad(t *testing.T) {
	dir := t.TempDir()
	ck := testCheckpoint(25, 3, 4)
	if err := WriteCheckpoint(OSFS{}, dir, ck); err != nil {
		t.Fatal(err)
	}
	ff := NewFaultFS(OSFS{})
	ff.LimitReads(5)
	got, err := LatestCheckpoint(ff, dir)
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, got, ck)
}

// TestDecodeCheckpointHugeSectionLength: a section length within 4 of 2^64
// used to wrap the truncation check and panic slicing the payload; it must
// be reported as corruption.
func TestDecodeCheckpointHugeSectionLength(t *testing.T) {
	for _, n := range []uint64{math.MaxUint64 - 3, math.MaxUint64} {
		for _, tail := range []int{0, 4} {
			data := binary.LittleEndian.AppendUint32(nil, ckptMagic)
			data = binary.LittleEndian.AppendUint32(data, ckptVersion)
			data = binary.LittleEndian.AppendUint64(data, n)
			data = append(data, make([]byte, tail)...)
			if _, err := DecodeCheckpoint(data); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("section length %d, %d trailing bytes: err = %v, want ErrCorruptCheckpoint", n, tail, err)
			}
		}
	}
}

// TestDecodeCheckpointHugeEventCount: a checksum-valid manifest claiming 2^60
// events over empty sections used to wrap 16*n (and 8*n*EdgeDim) to 0 and
// panic allocating the events; it must be reported as corruption, and local
// recovery must skip the file for the previous checkpoint.
func TestDecodeCheckpointHugeEventCount(t *testing.T) {
	dir := t.TempDir()
	old := testCheckpoint(10, 2, 1)
	if err := WriteCheckpoint(OSFS{}, dir, old); err != nil {
		t.Fatal(err)
	}
	for _, edgeDim := range []uint32{0, 2} {
		data := binary.LittleEndian.AppendUint32(nil, ckptMagic)
		data = binary.LittleEndian.AppendUint32(data, ckptVersion)
		data, start := beginSection(data)
		data = binary.LittleEndian.AppendUint64(data, 1<<60) // events
		data = binary.LittleEndian.AppendUint64(data, 0)     // watermark
		data = append(data, 1)
		data = binary.LittleEndian.AppendUint32(data, edgeDim)
		data = binary.LittleEndian.AppendUint64(data, 0) // weight version
		data = endSection(data, start)
		for range 2 { // empty event and feature sections
			data, start = beginSection(data)
			data = endSection(data, start)
		}
		if _, err := DecodeCheckpoint(data); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("edge dim %d: err = %v, want ErrCorruptCheckpoint", edgeDim, err)
		}
		if err := os.WriteFile(filepath.Join(dir, checkpointName(99, 0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LatestCheckpoint(OSFS{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		sameCheckpoint(t, got, old)
	}
}
