// Package wire is the grid-serving protocol shared by the HTTP daemon
// (internal/server) and its Go client (internal/client): JSON request
// envelopes, and a binary cells format whose payloads are the exact
// codec frames the on-disk store persists — a cell crosses the network
// in the same bytes it lives on disk in, so remote and local results
// cannot drift.
//
// Cells format (little-endian, varint-based; the POST /v1/grid
// response — one codec frame per cell of a declarative grid, in the
// spec's canonical cell order; the coordinates never cross the wire
// because the spec expansion is deterministic on both ends):
//
//	magic "DLCELL1\n"
//	uvarint cell count
//	cells:  uvarint frameLen, frame
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dynloop/internal/codec"
	"dynloop/internal/grid"
)

const cellsMagic = "DLCELL1\n"

// maxCells bounds a single allocation when decoding untrusted responses.
const maxCells = 1 << 22

// ErrCorrupt reports a malformed cells payload; every DecodeCells error
// wraps it.
var ErrCorrupt = errors.New("wire: corrupt grid payload")

// GridRequest asks the daemon to execute one declarative grid: either a
// registered spec by name ("table1", "fig7", "ablation/cls", ...) or an
// inline ad-hoc grid.Spec. Budget, Seed, Benchmarks and BatchSize are
// the config-level defaults the spec's zero-valued axes resolve to —
// the same knobs the local CLI passes — so a remote grid reproduces
// `dynloop grid` byte for byte.
type GridRequest struct {
	Name       string     `json:"name,omitempty"`
	Spec       *grid.Spec `json:"spec,omitempty"`
	Benchmarks []string   `json:"benchmarks,omitempty"`
	Budget     uint64     `json:"budget,omitempty"`
	Seed       uint64     `json:"seed,omitempty"`
	BatchSize  int        `json:"batch_size,omitempty"`
}

// GridInfo is one registry entry in the daemon's GET /v1/grids listing.
// The full canonical Spec rides along so a client can fetch it, modify
// an axis, and POST it back as an ad-hoc grid.
type GridInfo struct {
	Name  string    `json:"name"`
	Title string    `json:"title,omitempty"`
	Kind  string    `json:"kind"`
	Cells int       `json:"cells"`
	Spec  grid.Spec `json:"spec"`
}

// AppendCells encodes grid cell values onto b in the cells format:
// magic, a count, then one codec frame per cell in the grid's canonical
// cell order. The spec itself does not cross the wire — its expansion
// is deterministic, so the receiver rebuilds the cells locally
// (grid.ResultFrom) and pairs them with these values.
func AppendCells(b []byte, values []any) ([]byte, error) {
	b = append(b, cellsMagic...)
	b = binary.AppendUvarint(b, uint64(len(values)))
	for i, v := range values {
		frame, err := codec.Encode(v)
		if err != nil {
			return nil, fmt.Errorf("wire: cell %d: %w", i, err)
		}
		b = binary.AppendUvarint(b, uint64(len(frame)))
		b = append(b, frame...)
	}
	return b, nil
}

// DecodeCells parses a cells payload occupying all of b.
func DecodeCells(b []byte) ([]any, error) {
	if len(b) < len(cellsMagic) || string(b[:len(cellsMagic)]) != cellsMagic {
		return nil, fmt.Errorf("%w: bad cells magic", ErrCorrupt)
	}
	pos := len(cellsMagic)
	count, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad cell count", ErrCorrupt)
	}
	pos += n
	if count > maxCells {
		return nil, fmt.Errorf("%w: cell count %d", ErrCorrupt, count)
	}
	values := make([]any, 0, count)
	for i := uint64(0); i < count; i++ {
		flen, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad frame length at cell %d", ErrCorrupt, i)
		}
		pos += n
		if flen > uint64(len(b)-pos) {
			return nil, fmt.Errorf("%w: frame length %d exceeds payload at cell %d", ErrCorrupt, flen, i)
		}
		v, err := codec.Decode(b[pos : pos+int(flen)])
		if err != nil {
			return nil, fmt.Errorf("%w: cell %d: %w", ErrCorrupt, i, err)
		}
		pos += int(flen)
		values = append(values, v)
	}
	if pos != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-pos)
	}
	return values, nil
}

// Event mirrors runner.Event for the SSE progress stream.
type Event struct {
	Kind      string `json:"kind"`
	Key       string `json:"key,omitempty"`
	Label     string `json:"label,omitempty"`
	Err       string `json:"err,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Completed uint64 `json:"completed"`
}

// RunnerStats mirrors runner.Stats for the stats endpoint.
type RunnerStats struct {
	Submitted  uint64 `json:"submitted"`
	Executed   uint64 `json:"executed"`
	CacheHits  uint64 `json:"cache_hits"`
	Coalesced  uint64 `json:"coalesced"`
	Failures   uint64 `json:"failures"`
	GroupRuns  uint64 `json:"group_runs"`
	DiskHits   uint64 `json:"disk_hits"`
	DiskPuts   uint64 `json:"disk_puts"`
	TierErrors uint64 `json:"tier_errors"`
	ReplayRuns uint64 `json:"replay_runs"`
	RecordRuns uint64 `json:"record_runs"`
}

// StoreStats mirrors store.Stats for the stats endpoint.
type StoreStats struct {
	Records          int    `json:"records"`
	Segments         int    `json:"segments"`
	Bytes            int64  `json:"bytes"`
	DeadBytes        int64  `json:"dead_bytes"`
	Puts             uint64 `json:"puts"`
	Gets             uint64 `json:"gets"`
	Hits             uint64 `json:"hits"`
	TruncatedTail    int64  `json:"truncated_tail"`
	SidecarHits      uint64 `json:"sidecar_hits"`
	SidecarRebuilds  uint64 `json:"sidecar_rebuilds"`
	Compactions      uint64 `json:"compactions"`
	ReclaimedBytes   uint64 `json:"reclaimed_bytes"`
	LastCompactError string `json:"last_compact_error,omitempty"`
}

// WarmerStats mirrors server.WarmerStats for the stats endpoint.
type WarmerStats struct {
	Units     int    `json:"units"`
	UnitsDone int    `json:"units_done"`
	Cells     uint64 `json:"cells"`
	Pauses    uint64 `json:"pauses"`
	Errors    uint64 `json:"errors"`
	LastError string `json:"last_error,omitempty"`
	Running   bool   `json:"running"`
}

// PlaneStats counts interpreter runs and archive replays by the event
// facet the run negotiated with its sink: control-plane-only delivery
// vs full events (see trace.PlanesOf).
type PlaneStats struct {
	InterpCtl  uint64 `json:"interp_ctl"`
	InterpFull uint64 `json:"interp_full"`
	ReplayCtl  uint64 `json:"replay_ctl"`
	ReplayFull uint64 `json:"replay_full"`
}

// TraceStats mirrors harness.TracesStats for the stats endpoint.
type TraceStats struct {
	Replays   uint64 `json:"replays"`
	Records   uint64 `json:"records"`
	Fallbacks uint64 `json:"fallbacks"`
}

// ArchiveStats mirrors tracefile.ArchiveStats for the stats endpoint.
type ArchiveStats struct {
	Recordings    int    `json:"recordings"`
	Records       uint64 `json:"records"`
	Invalidated   uint64 `json:"invalidated"`
	SchemaSkips   uint64 `json:"schema_skips"`
	TruncatedTail uint64 `json:"truncated_tail"`
}

// ServerStats reports the daemon's own HTTP-layer counters: totals
// across endpoints (the per-endpoint breakdown and latency histograms
// live on GET /metrics).
type ServerStats struct {
	Requests uint64 `json:"requests"`
	Shed     uint64 `json:"shed"`
	InFlight int64  `json:"in_flight"`
}

// Stats is the daemon's stats response.
type Stats struct {
	Workers    uint64        `json:"workers"`
	Traversals uint64        `json:"traversals"`
	Replays    uint64        `json:"replays"`
	Runner     RunnerStats   `json:"runner"`
	Planes     PlaneStats    `json:"planes"`
	Server     ServerStats   `json:"server"`
	Store      *StoreStats   `json:"store,omitempty"`
	Warmer     *WarmerStats  `json:"warmer,omitempty"`
	Traces     *TraceStats   `json:"traces,omitempty"`
	Archive    *ArchiveStats `json:"archive,omitempty"`
}
