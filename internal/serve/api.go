package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"taser/internal/overload"
)

// Server is the serving surface the HTTP layer mounts: implemented by both
// the single *Engine and the sharded *Fleet, so every caller of NewHandler
// (cmd/taser-serve, the HTTP load generator, tests) serves either shape
// unchanged. The unexported stats method keeps the set closed: the payload
// schema is this package's contract, not an extension point.
type Server interface {
	Ingest(src, dst int32, t float64, feat []float64) error
	PredictLink(src, dst int32, t float64) (PredictResult, error)
	Embed(node int32, t float64) (EmbedResult, error)
	Watermark() (t float64, ok bool)
	NumEvents() int
	Writable() bool
	DurableErr() error
	statsPayload() map[string]any
}

// HandlerConfig customizes NewHandlerConfig for a replication topology. The
// zero value is a plain standalone engine (what NewHandler mounts).
type HandlerConfig struct {
	// LeaderURL, when non-nil, marks this node a replica: writes rejected
	// with ErrReadOnly are answered 421 Misdirected Request carrying the
	// leader's base URL (in the JSON body and the X-Taser-Leader header) so
	// producers re-aim their stream. The function is consulted per request —
	// the leader can change after a promotion.
	LeaderURL func() string
	// StatsExtra, when non-nil, is merged into the /v1/stats JSON (the
	// replication layer reports role, lag and applied sequence through it).
	StatsExtra func() map[string]any
	// Health, when non-nil, is an extra readiness predicate for /v1/healthz
	// (a follower reports unhealthy while its lag exceeds the threshold).
	// The WAL sticky-failure check always applies.
	Health func() error
}

// NewHandler exposes a serving backend (an Engine, or a sharded Fleet) behind
// the HTTP/JSON API cmd/taser-serve mounts (and the HTTP load generator
// drives). Endpoints:
//
//	POST /v1/ingest   {"src":1,"dst":2,"t":123.5,"feat":[...]}   → {"events":N,"watermark":T}
//	POST /v1/predict  {"src":1,"dst":2,"t":123.5}                → {"score":S,"version":V,"weights":W,"cached":B}
//	POST /v1/embed    {"node":1,"t":123.5}                       → {"embedding":[...],"version":V,"weights":W,"cached":B}
//	GET  /v1/stats                                               → counters and latency percentiles (a fleet adds per-shard blocks under "shards")
//	GET  /v1/healthz                                             → 200 when ready, 503 otherwise (a fleet aggregates every shard's readiness)
//
// Out-of-order events are rejected with HTTP 409 and the current watermark
// in the error body, so producers can resynchronize. On a read-only replica
// ingest is rejected with 421 and the leader's URL (see HandlerConfig).
func NewHandler(s Server) http.Handler { return NewHandlerConfig(s, HandlerConfig{}) }

// NewHandlerConfig is NewHandler with replication-aware knobs.
func NewHandlerConfig(s Server, hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Src, Dst int32
			T        float64
			Feat     []float64
		}
		if !decode(w, r, &req) {
			return
		}
		if err := s.Ingest(req.Src, req.Dst, req.T, req.Feat); err != nil {
			if writeShed(w, err) {
				return
			}
			code := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrStaleEvent):
				code = http.StatusConflict
			case errors.Is(err, ErrDurability):
				// The durable store failed; the event was not admitted and
				// the engine will not admit more until restarted.
				code = http.StatusServiceUnavailable
			case errors.Is(err, ErrReadOnly):
				// A replica follower: tell the producer where the leader is.
				leader := ""
				if hc.LeaderURL != nil {
					leader = hc.LeaderURL()
				}
				w.Header().Set("X-Taser-Leader", leader)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusMisdirectedRequest)
				_ = json.NewEncoder(w).Encode(map[string]string{
					"error": err.Error(), "leader": leader,
				})
				return
			}
			writeErr(w, code, err)
			return
		}
		wm, _ := s.Watermark() // the event just admitted set it
		writeJSON(w, map[string]any{"events": s.NumEvents(), "watermark": wm})
	})
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Src, Dst int32
			T        float64
		}
		if !decode(w, r, &req) {
			return
		}
		res, err := s.PredictLink(req.Src, req.Dst, req.T)
		if err != nil {
			if writeShed(w, err) {
				return
			}
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, map[string]any{
			"score": res.Score, "version": res.Version,
			"weights": res.Weights, "cached": res.Cached,
		})
	})
	mux.HandleFunc("POST /v1/embed", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Node int32
			T    float64
		}
		if !decode(w, r, &req) {
			return
		}
		res, err := s.Embed(req.Node, req.T)
		if err != nil {
			if writeShed(w, err) {
				return
			}
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, map[string]any{
			"embedding": res.Embedding, "version": res.Version,
			"weights": res.Weights, "cached": res.Cached,
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		out := s.statsPayload()
		if hc.StatsExtra != nil {
			for k, v := range hc.StatsExtra() {
				out[k] = v
			}
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness for a load balancer: the WAL must be healthy (a sticky
		// WAL failure means no write will ever be admitted again — a fleet
		// reports the first failing shard) and any topology-specific
		// predicate must pass (a follower's lag bound).
		err := s.DurableErr()
		if err == nil && hc.Health != nil {
			err = hc.Health()
		}
		if err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]any{"status": "unhealthy", "error": err.Error()})
			return
		}
		role := "leader"
		if !s.Writable() {
			role = "follower"
		}
		writeJSON(w, map[string]any{"status": "ok", "role": role, "writable": s.Writable()})
	})
	return mux
}

// enginePayload renders one engine's Stats as the /v1/stats JSON object —
// the top-level schema of a standalone engine, and the per-shard block schema
// of a fleet (checkpoint_age_ms and the WAL counters are per-shard by
// construction: every shard runs its own log and checkpoint cadence).
func enginePayload(st Stats, liveWM float64, hasLiveWM bool, numNodes int) map[string]any {
	ckptAgeMS := int64(-1) // -1 = no checkpoint yet
	if !st.LastCheckpoint.IsZero() {
		ckptAgeMS = time.Since(st.LastCheckpoint).Milliseconds()
	}
	out := map[string]any{
		"live_watermark": liveWM, "has_live_watermark": hasLiveWM,
		"requests": st.Requests, "batches": st.Batches,
		"avg_batch": st.AvgBatch(), "cache_hit_rate": st.CacheHitRate(),
		"cache_hits": st.CacheHits, "cache_stale": st.CacheStale, "cache_misses": st.CacheMisses,
		"snapshot_version": st.SnapshotVersion,
		"watermark":        st.Watermark, "has_watermark": st.HasWatermark,
		"events": st.Events, "nodes": numNodes,
		"weight_version": st.WeightVersion, "weight_swaps": st.WeightSwaps,
		"avg_swap_us":  st.AvgSwap.Microseconds(),
		"durable":      st.Durable,
		"read_only":    st.ReadOnly,
		"wal_appended": st.WALAppended, "wal_synced": st.WALSynced,
		"wal_syncs": st.WALSyncs, "wal_segments": st.WALSegments,
		"wal_failures": st.WALFailures,
		"checkpoints":  st.Checkpoints, "checkpoint_fails": st.CheckpointFails,
		"checkpoint_events": st.CheckpointEvents,
		"checkpoint_age_ms": ckptAgeMS,
		"p50_us":            st.P50.Microseconds(), "p99_us": st.P99.Microseconds(),
	}
	if st.Overload != nil {
		// Key absent when the control plane is off — part of the bitwise-
		// identical-when-disabled contract.
		out["overload"] = overloadPayload(st.Overload)
	}
	return out
}

// statsPayload implements Server.
func (e *Engine) statsPayload() map[string]any {
	liveWM, hasLiveWM := e.Watermark() // may be ahead of the snapshot's
	return enginePayload(e.Stats(), liveWM, hasLiveWM, e.cfg.NumNodes)
}

// statsPayload implements Server: the merged fleet view under the same
// top-level keys a standalone engine reports (sums for throughput and WAL
// counters, max for watermarks, min for the weight version — the version
// guaranteed applied everywhere, distinct events for the event count), plus
// one full per-shard block per engine under "shards" and the fleet's routing
// counters. Latency percentiles are fleet-level: they include the router's
// scatter/gather overhead, which no shard sees.
func (f *Fleet) statsPayload() map[string]any {
	st := f.Stats()
	var merged Stats
	minWV := uint64(0)
	var oldestCkpt time.Time
	haveCkpt := false
	snapEvents := 0
	for i, ss := range st.Shards {
		merged.Batches += ss.Batches
		merged.Roots += ss.Roots
		merged.CacheHits += ss.CacheHits
		merged.CacheStale += ss.CacheStale
		merged.CacheMisses += ss.CacheMisses
		merged.WeightSwaps += ss.WeightSwaps
		merged.WALAppended += ss.WALAppended
		merged.WALSynced += ss.WALSynced
		merged.WALSyncs += ss.WALSyncs
		merged.WALSegments += ss.WALSegments
		merged.WALFailures += ss.WALFailures
		merged.Checkpoints += ss.Checkpoints
		merged.CheckpointFails += ss.CheckpointFails
		merged.CheckpointEvents += ss.CheckpointEvents
		snapEvents += ss.Events
		if ss.SnapshotVersion > merged.SnapshotVersion {
			merged.SnapshotVersion = ss.SnapshotVersion
		}
		if ss.HasWatermark && (!merged.HasWatermark || ss.Watermark > merged.Watermark) {
			merged.Watermark, merged.HasWatermark = ss.Watermark, true
		}
		if i == 0 || ss.WeightVersion < minWV {
			minWV = ss.WeightVersion
		}
		if ss.AvgSwap > merged.AvgSwap {
			merged.AvgSwap = ss.AvgSwap
		}
		if i == 0 {
			merged.Durable = ss.Durable
		} else {
			merged.Durable = merged.Durable && ss.Durable
		}
		if ss.Durable && !ss.LastCheckpoint.IsZero() {
			if !haveCkpt || ss.LastCheckpoint.Before(oldestCkpt) {
				oldestCkpt = ss.LastCheckpoint
			}
			haveCkpt = true
		}
		merged.Overload = mergeOverload(merged.Overload, ss.Overload)
	}
	merged.Requests = st.Requests
	merged.WeightVersion = minWV
	merged.Events = int(st.Ingested)
	merged.P50, merged.P99 = st.P50, st.P99
	if haveCkpt {
		// The oldest shard checkpoint bounds the fleet's recovery replay cost.
		merged.LastCheckpoint = oldestCkpt
	}
	liveWM, hasLiveWM := f.Watermark()
	out := enginePayload(merged, liveWM, hasLiveWM, f.cfg.NumNodes)
	out["shard_count"] = len(f.shards)
	out["events_teed"] = st.Teed
	out["cross_shard_predicts"] = st.CrossShard
	out["gather_retries"] = st.GatherRetries
	out["snapshot_events_total"] = snapEvents // distinct + teed copies across shard snapshots
	blocks := make([]map[string]any, 0, len(f.shards))
	for i, s := range f.shards {
		wm, has := s.Watermark()
		b := enginePayload(st.Shards[i], wm, has, f.cfg.NumNodes)
		b["shard"] = i
		blocks = append(blocks, b)
	}
	out["shards"] = blocks
	return out
}

// writeShed answers an overload rejection with 429 Too Many Requests and a
// Retry-After header (whole seconds, rounded up, so clients honoring the
// header never retry early) — distinct from the 503 durability path, which is
// sticky and not retryable. Returns false when err is not a shed.
func writeShed(w http.ResponseWriter, err error) bool {
	var rej *overload.RejectedError
	if !errors.As(err, &rej) {
		return false
	}
	secs := int64((rej.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": err.Error(), "lane": rej.Lane.String(),
		"retry_after_ms": rej.RetryAfter.Milliseconds(),
	})
	return true
}

// overloadPayload renders the overload block of /v1/stats (present only when
// the control plane is on — the disabled payload is bitwise the seed's).
func overloadPayload(ov *OverloadStats) map[string]any {
	out := map[string]any{
		"effective_max_batch":   ov.EffectiveMaxBatch,
		"effective_max_wait_us": ov.EffectiveMaxWait.Microseconds(),
	}
	if c := ov.Controller; c != nil {
		out["controller"] = map[string]any{
			"target_p99_us": c.TargetP99.Microseconds(),
			"tightened":     c.Tightened, "relaxed": c.Relaxed, "held": c.Held,
			"decisions_per_sec": c.DecisionsPerSec,
		}
	}
	if g := ov.Gate; g != nil {
		lanes := make(map[string]any, overload.NumLanes)
		for l := overload.Lane(0); l < overload.NumLanes; l++ {
			ls := g.Lanes[l]
			lanes[l.String()] = map[string]any{
				"queued": ls.Queued, "in_service": ls.InService,
				"admitted": ls.Admitted, "shed": ls.Shed,
			}
		}
		out["gate"] = map[string]any{
			"capacity": g.Capacity, "max_queue": g.MaxQueue,
			"in_service": g.InService, "service_rate": g.ServiceRate,
			"lanes": lanes,
		}
	}
	return out
}

// mergeOverload folds one shard's overload stats into the fleet view: counters
// and capacities sum; the effective batch/wait report the minimum across
// shards (the most-tightened shard — the fleet's weakest link under pressure).
func mergeOverload(dst, src *OverloadStats) *OverloadStats {
	if src == nil {
		return dst
	}
	if dst == nil {
		cp := *src
		if src.Controller != nil {
			c := *src.Controller
			cp.Controller = &c
		}
		if src.Gate != nil {
			g := *src.Gate
			cp.Gate = &g
		}
		return &cp
	}
	if src.EffectiveMaxBatch < dst.EffectiveMaxBatch {
		dst.EffectiveMaxBatch = src.EffectiveMaxBatch
	}
	if src.EffectiveMaxWait < dst.EffectiveMaxWait {
		dst.EffectiveMaxWait = src.EffectiveMaxWait
	}
	if c := src.Controller; c != nil {
		if dst.Controller == nil {
			cp := *c
			dst.Controller = &cp
		} else {
			d := dst.Controller
			d.Tightened += c.Tightened
			d.Relaxed += c.Relaxed
			d.Held += c.Held
			d.DecisionsPerSec += c.DecisionsPerSec
			if c.MaxBatch < d.MaxBatch {
				d.MaxBatch = c.MaxBatch
			}
			if c.MaxWait < d.MaxWait {
				d.MaxWait = c.MaxWait
			}
		}
	}
	if g := src.Gate; g != nil {
		if dst.Gate == nil {
			cp := *g
			dst.Gate = &cp
		} else {
			d := dst.Gate
			d.Capacity += g.Capacity
			d.InService += g.InService
			d.ServiceRate += g.ServiceRate
			for l := range g.Lanes {
				d.Lanes[l].Queued += g.Lanes[l].Queued
				d.Lanes[l].InService += g.Lanes[l].InService
				d.Lanes[l].Admitted += g.Lanes[l].Admitted
				d.Lanes[l].Shed += g.Lanes[l].Shed
			}
		}
	}
	return dst
}

// maxBodyBytes bounds every request body. The largest legitimate body is an
// ingest carrying an edge-feature row: ~5 KB for wikipedia's 172 features.
const maxBodyBytes = 1 << 20

// decode parses the JSON body into dst. A body over maxBodyBytes is answered
// 413; malformed JSON or a field dst does not declare is answered 400.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Connection-level failure; nothing useful left to do.
		_ = err
	}
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
