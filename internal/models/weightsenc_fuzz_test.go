package models

import (
	"bytes"
	"testing"

	"taser/internal/mathx"
)

// FuzzDecodeWeightSet: DecodeWeightSet never panics, and every set it
// accepts re-encodes to exactly the bytes it consumed. Beyond the seeds
// below, testdata/fuzz holds crafted headers (shapes and tensor counts the
// payload cannot hold) and any input a fuzzing run has found.
func FuzzDecodeWeightSet(f *testing.F) {
	rng := mathx.NewRNG(17)
	m := NewTGAT(TGATConfig{NodeDim: 3, EdgeDim: 2, HiddenDim: 4, TimeDim: 2, Layers: 1, Budget: 2}, rng)
	f.Add(CaptureWeights(5, m, NewEdgePredictor(4, rng)).AppendBinary(nil))
	f.Add((&WeightSet{Version: 1}).AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, n, err := DecodeWeightSet(data)
		if err != nil {
			return
		}
		if enc := w.AppendBinary(nil); !bytes.Equal(enc, data[:n]) {
			t.Fatalf("decoded set re-encodes to %d bytes that differ from the %d consumed", len(enc), n)
		}
	})
}
