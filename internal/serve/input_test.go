package serve

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"taser/internal/datasets"
)

// TestReadRejectsNonFiniteTime: a predict or embed at NaN or ±Inf is
// rejected with ErrInvalidTime by a bare Engine and by a K=2 Fleet, on the
// fleet's same-shard predict, its cross-shard scatter/gather and its embed.
// The finite control proves each probe reaches serving otherwise.
func TestReadRejectsNonFiniteTime(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 5)
	tr := newMixerTrainer(t, ds)
	eng := newRefEngine(t, tr, ds)
	fl := newTestFleet(t, tr, ds, 2, nil)
	half := len(ds.Graph.Events) / 2
	if err := eng.Bootstrap(ds.Graph.Events[:half], ds.EdgeFeat.SliceRows(half)); err != nil {
		t.Fatal(err)
	}
	if err := fl.Bootstrap(ds.Graph.Events[:half], ds.EdgeFeat.SliceRows(half)); err != nil {
		t.Fatal(err)
	}
	same, cross := int32(-1), int32(-1)
	for v := int32(1); v < int32(ds.Spec.NumNodes) && (same < 0 || cross < 0); v++ {
		if fl.Owner(v) == fl.Owner(0) {
			same = v
		} else {
			cross = v
		}
	}
	if same < 0 || cross < 0 {
		t.Fatal("no same-shard or cross-shard partner for node 0")
	}

	probes := []struct {
		name string
		read func(t float64) error
	}{
		{"engine/predict", func(t float64) error { _, err := eng.PredictLink(0, 1, t); return err }},
		{"engine/embed", func(t float64) error { _, err := eng.Embed(0, t); return err }},
		{"fleet/predict-same-shard", func(t float64) error { _, err := fl.PredictLink(0, same, t); return err }},
		{"fleet/predict-cross-shard", func(t float64) error { _, err := fl.PredictLink(0, cross, t); return err }},
		{"fleet/embed", func(t float64) error { _, err := fl.Embed(0, t); return err }},
	}
	wm, _ := eng.Watermark()
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			if err := p.read(wm + 1); err != nil {
				t.Fatalf("finite time: %v", err)
			}
			for _, qt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				if err := p.read(qt); !errors.Is(err, ErrInvalidTime) {
					t.Fatalf("t=%v: err = %v, want ErrInvalidTime", qt, err)
				}
			}
		})
	}
}

// TestHandlerBoundsBody: the HTTP decode path answers a body over
// maxBodyBytes with 413 and a field the endpoint does not declare with 400,
// while a valid body still succeeds.
func TestHandlerBoundsBody(t *testing.T) {
	e, _ := newWeightTestEngine(t, 0)
	h := NewHandler(e)
	oversized := `{"src":1,"dst":2,"t":9e9,"feat":[` + strings.Repeat("0,", maxBodyBytes/2) + `0]}`
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"oversized", "/v1/ingest", oversized, http.StatusRequestEntityTooLarge},
		{"unknown-field", "/v1/predict", `{"src":1,"dst":2,"t":9e9,"ttl":5}`, http.StatusBadRequest},
		{"valid", "/v1/predict", `{"src":1,"dst":2,"t":9e9}`, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			if rec.Code != tc.want {
				t.Fatalf("POST %s: %d %s, want %d", tc.path, rec.Code, rec.Body.String(), tc.want)
			}
		})
	}
}
