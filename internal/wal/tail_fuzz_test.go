package wal

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// countingReader counts the bytes its reader has handed out, so the fuzz
// target can tell which input bytes one Next call consumed.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzStreamReader: the follower's network decoder never panics, allocates
// at most maxPayload bytes per Next call whatever a length prefix claims,
// returns io.EOF only on a frame boundary, and every record it returns
// re-encodes with AppendRecord to exactly the bytes it consumed. The code
// seeds are clean streams; testdata/fuzz holds the torn and corrupt cases of
// TestStreamReaderFaults (cut mid-record, a flipped payload byte) plus
// crafted frames: a torn length prefix, the largest legal length with no
// body, an over-limit length, a payload that is not 20+8k bytes, and a
// feature count that disagrees with a checksummed payload. e136dde20058e96a
// is the fuzzer's own find: a bare length prefix for which the decoder used
// to allocate the whole claimed body before reading it.
func FuzzStreamReader(f *testing.F) {
	var clean []byte
	for _, r := range synthRecords(3, 2, 21) {
		clean = AppendRecord(clean, r.Src, r.Dst, r.T, r.Feat)
	}
	f.Add(clean)
	f.Add(AppendRecord(nil, 1, 2, -7.25, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		cr := &countingReader{r: bytes.NewReader(data)}
		sr := NewStreamReader(cr)
		var ms runtime.MemStats
		for {
			start := cr.n
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			rec, err := sr.Next()
			runtime.ReadMemStats(&ms)
			if alloc := ms.TotalAlloc - before; alloc > maxPayload {
				t.Fatalf("Next at offset %d allocated %d bytes, over maxPayload %d", start, alloc, maxPayload)
			}
			if err == io.EOF {
				if cr.n != len(data) {
					t.Fatalf("io.EOF at offset %d of %d: not a frame boundary", cr.n, len(data))
				}
				return
			}
			if err != nil {
				return // torn or corrupt: the records before it stand
			}
			enc := AppendRecord(nil, rec.Src, rec.Dst, rec.T, rec.Feat)
			if !bytes.Equal(enc, data[start:cr.n]) {
				t.Fatalf("record at offset %d re-encodes to %d bytes that differ from the %d it consumed",
					start, len(enc), cr.n-start)
			}
		}
	})
}
