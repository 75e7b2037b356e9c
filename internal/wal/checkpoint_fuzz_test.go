package wal

import (
	"bytes"
	"testing"

	"taser/internal/mathx"
	"taser/internal/models"
	"taser/internal/tensor"
)

// FuzzDecodeCheckpoint: DecodeCheckpoint never panics, and a checkpoint it
// accepts encodes to bytes that decode and re-encode to themselves. (The
// input need not be canonical: trailing bytes and a non-0/1 watermark flag
// decode fine but do not survive a re-encode.) testdata/fuzz holds the
// crafted files of TestDecodeCheckpointHugeSectionLength and
// TestDecodeCheckpointHugeEventCount plus any input a fuzzing run has found.
func FuzzDecodeCheckpoint(f *testing.F) {
	// The weighted seed carries one small tensor, not a model's worth: the
	// fuzzer minimizes every input that finds new coverage, and that costs
	// quadratic time in the input's length.
	small := testCheckpoint(3, 2, 0)
	small.Weights = &models.WeightSet{Version: 4, Params: []*tensor.Matrix{tensor.Randn(2, 3, 1, mathx.NewRNG(1))}}
	for _, ck := range []*Checkpoint{testCheckpoint(0, 0, 0), small} {
		data, err := ck.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		enc, err := ck.encode()
		if err != nil {
			t.Fatalf("accepted checkpoint does not encode: %v", err)
		}
		again, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		enc2, err := again.encode()
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode is not a fixed point (err %v)", err)
		}
	})
}
