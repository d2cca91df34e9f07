package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"mpcquery"
)

// chromeEvent is the part of a Trace.WriteChrome event the benchmark reads.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func readChrome(tr *mpcquery.Trace) ([]chromeEvent, error) {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return nil, fmt.Errorf("write chrome trace: %w", err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		return nil, fmt.Errorf("parse chrome trace: %w", err)
	}
	return f.TraceEvents, nil
}

// spanTotals sums traced requests' spans by layer. Times are in ms.
type spanTotals struct {
	requests int
	wallMs   float64 // Σ request latency

	emitMs    float64 // "round …: compute" spans: hashing and emitting
	deliverMs float64 // "round …: deliver" spans
	joinMs    float64 // "compute" spans: the local join
	coveredMs float64 // union of the three, per request
	firstMs   float64 // Σ request start → first engine span

	// Σ over rounds of the slowest and of the mean per-server emit span.
	emitMaxMs, emitMeanMs float64

	tuplesRouted int64
	chunkFlushes int64
	kernelHits   int64
	kernelMisses int64
	outputTuples int64

	wire mpcquery.TransportWireStats // from the "wire" instants, Σ ranks
}

// addEngine folds the engine spans of one rank's trace of one request.
func (s *spanTotals) addEngine(evs []chromeEvent) {
	type roundKey struct {
		pid int
		ts  float64
	}
	perRound := map[roundKey][]float64{}
	var spans [][2]float64
	first := -1.0
	for _, ev := range evs {
		if ev.Ph == "X" && (first < 0 || ev.Ts < first) {
			first = ev.Ts
		}
		switch {
		case ev.Cat == "round" && strings.HasSuffix(ev.Name, ": compute"):
			s.emitMs += ev.Dur / 1e3
			spans = append(spans, [2]float64{ev.Ts, ev.Ts + ev.Dur})
		case ev.Cat == "round" && strings.HasSuffix(ev.Name, ": deliver"):
			s.deliverMs += ev.Dur / 1e3
			s.chunkFlushes += argInt(ev.Args, "chunk_flushes")
			spans = append(spans, [2]float64{ev.Ts, ev.Ts + ev.Dur})
		case ev.Cat == "compute":
			s.joinMs += ev.Dur / 1e3
			spans = append(spans, [2]float64{ev.Ts, ev.Ts + ev.Dur})
		case ev.Cat == "server" && ev.Name == "emit":
			k := roundKey{ev.Pid, ev.Ts}
			perRound[k] = append(perRound[k], ev.Dur/1e3)
			s.tuplesRouted += argInt(ev.Args, "recv_tuples")
		case ev.Name == "kernel-cache":
			s.kernelHits += argInt(ev.Args, "hits")
			s.kernelMisses += argInt(ev.Args, "misses")
		}
	}
	for _, durs := range perRound {
		slowest, sum := 0.0, 0.0
		for _, d := range durs {
			sum += d
			slowest = max(slowest, d)
		}
		s.emitMaxMs += slowest
		s.emitMeanMs += sum / float64(len(durs))
	}
	s.coveredMs += union(spans) / 1e3
	if first >= 0 {
		s.firstMs += first / 1e3
	}
}

// addWire folds the transport instants of one rank's trace.
func (s *spanTotals) addWire(evs []chromeEvent) {
	for _, ev := range evs {
		if ev.Name != "wire" {
			continue
		}
		s.wire.DataFrames += argInt(ev.Args, "data_frames")
		s.wire.CtrlFrames += argInt(ev.Args, "ctrl_frames")
		s.wire.WireBytes += argInt(ev.Args, "wire_bytes")
		s.wire.PayloadBytes += argInt(ev.Args, "payload_bytes")
		s.wire.BilledPayloadBytes += argInt(ev.Args, "billed_payload_bytes")
		s.wire.Redials += argInt(ev.Args, "redials")
		s.wire.Resends += argInt(ev.Args, "resends")
	}
}

func (s *spanTotals) merge(o *spanTotals) {
	s.requests += o.requests
	s.wallMs += o.wallMs
	s.emitMs += o.emitMs
	s.deliverMs += o.deliverMs
	s.joinMs += o.joinMs
	s.coveredMs += o.coveredMs
	s.firstMs += o.firstMs
	s.emitMaxMs += o.emitMaxMs
	s.emitMeanMs += o.emitMeanMs
	s.tuplesRouted += o.tuplesRouted
	s.chunkFlushes += o.chunkFlushes
	s.kernelHits += o.kernelHits
	s.kernelMisses += o.kernelMisses
	s.outputTuples += o.outputTuples
	s.wire = sumWire(s.wire, o.wire)
}

func sumWire(a, b mpcquery.TransportWireStats) mpcquery.TransportWireStats {
	return mpcquery.TransportWireStats{
		DataFrames:         a.DataFrames + b.DataFrames,
		CtrlFrames:         a.CtrlFrames + b.CtrlFrames,
		WireBytes:          a.WireBytes + b.WireBytes,
		PayloadBytes:       a.PayloadBytes + b.PayloadBytes,
		BilledPayloadBytes: a.BilledPayloadBytes + b.BilledPayloadBytes,
		Redials:            a.Redials + b.Redials,
		Resends:            a.Resends + b.Resends,
	}
}

// union is the length covered by a set of [start, end) intervals.
func union(spans [][2]float64) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	total, end := 0.0, -1.0
	for _, sp := range spans {
		if sp[0] > end {
			total += sp[1] - sp[0]
			end = sp[1]
		} else if sp[1] > end {
			total += sp[1] - end
			end = sp[1]
		}
	}
	return total
}

func argInt(args map[string]any, key string) int64 {
	if v, ok := args[key].(float64); ok {
		return int64(v)
	}
	return 0
}
