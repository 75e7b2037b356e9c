package bench

import (
	"errors"
	"sync"
	"testing"
)

// fakeTarget answers every ingest with one fixed outcome. Reads wait for the
// first ingest, so the producer always runs inside the row.
type fakeTarget struct {
	ingestRes result
	once      sync.Once
	ingested  chan struct{}
}

func (f *fakeTarget) ingest(src, dst int32, t float64) result {
	f.once.Do(func() { close(f.ingested) })
	return f.ingestRes
}

func (f *fakeTarget) predict(src, dst int32, t float64) result {
	<-f.ingested
	return result{}
}

func (f *fakeTarget) embed(node int32, t float64) result {
	<-f.ingested
	return result{}
}

func (f *fakeTarget) watermark() (float64, error) { return 0, nil }

func TestClosedLoopIngestOutcomes(t *testing.T) {
	errClosed := errors.New("engine closed")
	errStale := errors.New("stale")
	for _, tc := range []struct {
		name    string
		res     result
		wantErr error
	}{
		{"ok", result{}, nil},
		{"stale is skipped", result{kind: outStale, err: errStale}, nil},
		{"shed fails the row", result{kind: outShed, err: errClosed}, errClosed},
		{"failure fails the row", result{kind: outFailed, err: errClosed}, errClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeTarget{ingestRes: tc.res, ingested: make(chan struct{})}
			run, err := newLoadGen(50, 1).closedLoop(f, 2, 5, 1e4)
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil) != (err == nil) {
				t.Fatalf("closedLoop error = %v, want %v", err, tc.wantErr)
			}
			if err == nil && len(run.lats) != 10 {
				t.Fatalf("%d latencies, want 10", len(run.lats))
			}
		})
	}
}
