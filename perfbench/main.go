// Command perfbench is the mpcquery benchmark: it sets up one workload from
// a seed, drives it in a closed loop for a fixed time, checks every answer,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a separate traced pass) as one JSON object on its last line.
// See README.md for the workloads and the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], fullSizes, filepath.Join(".bench_build", "traces"), os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	traceDir string
}

// run parses the command line and runs the chosen workloads at sizes sz;
// the traced pass writes its Chrome trace into traceDir.
func run(args []string, sz sizes, traceDir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measuring time of one run")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, sz: sz, traceDir: traceDir}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s, or all), -seconds > 0 and -trace 0 or 1\n", names())
		return 2
	}
	code := 0
	for _, w := range chosen {
		res := measure(w, cfg, stderr)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		printTable(stderr, w.name, res)
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

func printTable(w io.Writer, name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s: correct=%t attempted=%d failed=%d error_rate=%g\n",
		name, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, k := range keys {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// failedResult is printed when set-up or the oracle already failed.
func failedResult(stderr io.Writer, name string, err error) result {
	fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
	return result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
}

func measure(w workload, cfg config, stderr io.Writer) result {
	// Set up several times, and for at least setupMin, and report the
	// median: set-up time is a metric of its own, so that work moved out of
	// the measured loop shows.
	var inst *instance
	var setups []float64
	for begin := time.Now(); len(setups) < cfg.sz.setupRep ||
		(time.Since(begin) < cfg.sz.setupMin && len(setups) < 25); {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.build(cfg.seed, cfg.sz)
		if err != nil {
			return failedResult(stderr, w.name, fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	if err := inst.checkOracle(cfg.sz.oracleSample); err != nil {
		return failedResult(stderr, w.name, fmt.Errorf("oracle: %w", err))
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		return inst.measuredRun(w.name, dur, setups, stderr)
	}
	return inst.tracedRun(w.name, dur, cfg, stderr)
}

// subPasses is how many consecutive passes the measured run is split into.
// Each timing and allocation metric is the median over the passes, so a
// burst of interference from outside the process that spoils one of them
// does not move the result.
const subPasses = 5

// measuredRun is the untraced run that gives the end-to-end metrics.
func (in *instance) measuredRun(name string, dur time.Duration, setups []float64, stderr io.Writer) result {
	var qps, p50, p90, allocMB, allocs, checking []float64
	var peak int64
	all := &pass{}
	fewest := 0
	for i := 0; i < subPasses; i++ {
		p := in.runPass(dur/subPasses, false)
		all.queries += p.queries
		all.failed += p.failed
		if all.firstErr == nil {
			all.firstErr = p.firstErr
		}
		if p.queries == 0 {
			return failedResult(stderr, name, fmt.Errorf("no request completed in %v", dur/subPasses))
		}
		if i == 0 || p.queries < fewest {
			fewest = p.queries
		}
		q := float64(p.queries)
		qps = append(qps, p.rate)
		checking = append(checking, 1-sum(p.latencies)/1e3/(p.wall*float64(in.clients)))
		p50 = append(p50, quantile(p.latencies, 0.5))
		p90 = append(p90, quantile(p.latencies, 0.9))
		allocMB = append(allocMB, float64(p.allocBytes)/1e6/q)
		allocs = append(allocs, float64(p.allocs)/q)
		peak = max(peak, p.peakBuffered)
	}
	fmt.Fprintf(stderr, "%s: %d requests in %d passes; latency percentiles per pass over at least %d requests\n",
		name, all.queries, subPasses, fewest)
	fmt.Fprintf(stderr, "%s: per pass queries_per_s %.4g latency_p50_ms %.4g latency_p90_ms %.4g\n", name, qps, p50, p90)
	fmt.Fprintf(stderr, "%s: per pass share of client time outside requests (checking answers) %.3f\n", name, checking)
	return all.result(map[string]metric{
		"setup_s":            {median(setups), "s"},
		"queries_per_s":      {median(qps), "1/s"},
		"latency_p50_ms":     {median(p50), "ms"},
		"latency_p90_ms":     {median(p90), "ms"},
		"alloc_mb_per_query": {median(allocMB), "MB"},
		"allocs_per_query":   {median(allocs), "count"},
		"peak_buffered_mb":   {float64(peak) / 1e6, "MB"},
		"total_bits":         {in.cycleSum(func(r reference) float64 { return r.totalBits }), "bits"},
		"max_load_bits":      {in.cycleSum(func(r reference) float64 { return r.maxLoadBits }), "bits"},
	}, stderr)
}

// cycleSum adds f over one cycle of the mix.
func (in *instance) cycleSum(f func(reference) float64) float64 {
	s := 0.0
	for _, ki := range in.mix {
		s += f(in.kinds[ki].ref)
	}
	return s
}

// pass is what one closed-loop pass measured.
type pass struct {
	queries      int
	failed       int
	firstErr     error
	latencies    []float64 // ms
	wall         float64   // s
	rate         float64   // Σ over clients of requests ÷ time spent in requests, 1/s
	allocBytes   uint64
	allocs       uint64
	peakBuffered int64
	wireBytes    int64 // Σ ranks
	spans        spanTotals
}

func (p *pass) result(metrics map[string]metric, stderr io.Writer) result {
	if p.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: first failure: %v\n", p.firstErr)
	}
	return result{Correct: p.failed == 0, Attempted: p.queries, Failed: p.failed, Metrics: metrics}
}

// runPass drives the mix for dur from in.clients closed-loop clients:
// each sends its next request only when the previous one has returned and
// been checked, and stops at the first end of a cycle after dur, so every
// kind weighs in each pass's percentiles and allocations by its share of
// the mix. Client c walks the mix with stride 2c+1, coprime to the
// two-client mix's 56 slots, so each client still covers every slot once
// a cycle. Equal strides would let two clients that once coincide on a
// request be coalesced onto one execution, finish together, and stay in
// lockstep for the rest of the pass.
func (in *instance) runPass(dur time.Duration, traced bool) *pass {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]*pass, in.clients)
	var wg sync.WaitGroup
	for c := 0; c < in.clients; c++ {
		parts[c] = &pass{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := parts[c]
			stride := 2*c + 1
			for n := 0; n%len(in.mix) != 0 || time.Now().Before(deadline); n++ {
				k := in.kinds[in.mix[n*stride%len(in.mix)]]
				if in.writeEvery > 0 && n%in.writeEvery == in.writeEvery-1 {
					in.invalidate(k)
				}
				out := in.exec(k, traced)
				p.record(in, k, out, traced)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	total := &pass{wall: wall, allocBytes: m1.TotalAlloc - m0.TotalAlloc, allocs: m1.Mallocs - m0.Mallocs}
	for _, p := range parts {
		total.queries += p.queries
		total.failed += p.failed
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
		total.latencies = append(total.latencies, p.latencies...)
		if p.queries > 0 {
			total.rate += float64(p.queries) / (sum(p.latencies) / 1e3)
		}
		total.peakBuffered = max(total.peakBuffered, p.peakBuffered)
		total.wireBytes += p.wireBytes
		total.spans.merge(&p.spans)
	}
	return total
}

// record checks one request and adds it to the pass.
func (p *pass) record(in *instance, k *kind, out stepOut, traced bool) {
	p.queries++
	p.latencies = append(p.latencies, float64(out.latency)/float64(time.Millisecond))
	err := in.verify(k, out)
	if err == nil && traced {
		err = p.spans.addRequest(out)
	}
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = fmt.Errorf("%s: %w", k.name, err)
		}
		return
	}
	for r, rep := range out.reps {
		p.peakBuffered = max(p.peakBuffered, rep.PeakBufferedBytes)
		if out.wire != nil {
			p.wireBytes += out.wire[r].WireBytes
		}
	}
}

// addRequest folds one traced request: engine spans from rank 0 (every
// rank replicates the same compute), wire instants from every rank.
func (s *spanTotals) addRequest(out stepOut) error {
	s.requests++
	s.wallMs += float64(out.latency) / float64(time.Millisecond)
	for r, tr := range out.traces {
		evs, err := readChrome(tr)
		if err != nil {
			return err
		}
		if r == 0 {
			s.addEngine(evs)
		}
		s.addWire(evs)
	}
	if rep := out.reps[0]; rep.Output != nil {
		s.outputTuples += int64(rep.Output.NumTuples())
	} else if out.sinks[0] != nil {
		s.outputTuples += int64(out.sinks[0].Tuples())
	}
	return nil
}

// tracedRun is the separate traced pass. One cycle of the mix runs first,
// single-client and (for the service) from cold caches, so its counts
// repeat exactly; its Chrome trace is written out. Then half the time runs
// untraced and half traced; the traced half gives the per-layer times and
// the ratio of the two gives the cost of tracing.
func (in *instance) tracedRun(name string, dur time.Duration, cfg config, stderr io.Writer) result {
	if in.svc != nil {
		for _, k := range in.kinds {
			in.invalidate(k)
		}
	}
	var cycle spanTotals
	var chrome []chromeEvent
	failed := 0
	var firstErr error
	cycleStart := time.Now()
	for i, ki := range in.mix {
		k := in.kinds[ki]
		start := time.Now()
		out := in.exec(k, true)
		err := in.verify(k, out)
		if err == nil {
			err = cycle.addRequest(out)
		}
		if err == nil {
			err = appendChrome(&chrome, out, i, start.Sub(cycleStart))
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", k.name, err)
			}
		}
	}
	if err := writeChrome(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", name, cfg.seed), chrome); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		failed++
	}

	svc0 := in.serviceCounters()
	un := in.runPass(dur/2, false)
	d := in.serviceCounters().sub(svc0)
	tr := in.runPass(dur/2, true)
	plans := in.timePlans()

	attempted := len(in.mix) + un.queries + tr.queries
	failed += un.failed + tr.failed
	for _, e := range []error{firstErr, un.firstErr, tr.firstErr} {
		if e != nil {
			fmt.Fprintf(stderr, "perfbench: failure: %v\n", e)
		}
	}
	s := tr.spans
	perReq := func(v float64) float64 { return v / float64(max(s.requests, 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	cyc := float64(len(in.mix))
	perCycle := func(v int64) float64 { return float64(v) * cyc / float64(max(un.queries, 1)) }
	hitRatio := func(hits, misses int64) float64 { return ratio(float64(hits), float64(hits+misses)) }
	metrics := map[string]metric{
		"engine.emit_ms":                 {perReq(s.emitMs), "ms"},
		"engine.tuples_routed":           {float64(cycle.tuplesRouted), "count"},
		"engine.emit_straggler_ratio":    {ratio(s.emitMaxMs, s.emitMeanMs), "ratio"},
		"engine.deliver_ms":              {perReq(s.deliverMs), "ms"},
		"engine.chunk_flushes":           {float64(cycle.chunkFlushes), "count"},
		"localjoin.join_ms":              {perReq(s.joinMs), "ms"},
		"localjoin.index_hit_ratio":      {hitRatio(cycle.kernelHits, cycle.kernelMisses), "ratio"},
		"localjoin.output_tuples":        {float64(cycle.outputTuples), "count"},
		"run.unattributed_ms":            {perReq(s.wallMs - s.coveredMs), "ms"},
		"packing.plan_ms":                {plans["packing"], "ms"},
		"multiround.plan_ms":             {plans["multiround"], "ms"},
		"advisor.advise_ms":              {plans["advisor"], "ms"},
		"skew.stats_ms":                  {plans["skew"], "ms"},
		"service.plan_cache_hit_ratio":   {hitRatio(d.planHits, d.planMisses), "ratio"},
		"service.stats_cache_hit_ratio":  {hitRatio(d.statsHits, d.statsMisses), "ratio"},
		"service.cache_evictions":        {perCycle(d.evictions), "count"},
		"service.coalesced":              {perCycle(d.coalesced), "count"},
		"service.shed":                   {perCycle(d.shed), "count"},
		"service.to_first_round_ms":      {0, "ms"},
		"transport.wire_bytes":           {float64(cycle.wire.WireBytes), "B"},
		"transport.payload_bytes":        {float64(cycle.wire.PayloadBytes), "B"},
		"transport.billed_payload_bytes": {float64(cycle.wire.BilledPayloadBytes), "B"},
		"transport.billed_to_wire_ratio": {ratio(float64(cycle.wire.BilledPayloadBytes), float64(cycle.wire.WireBytes)), "ratio"},
		"transport.data_frames":          {float64(cycle.wire.DataFrames), "count"},
		"transport.ctrl_frames":          {float64(cycle.wire.CtrlFrames), "count"},
		"transport.resends":              {float64(cycle.wire.Resends), "count"},
		"transport.redials":              {float64(cycle.wire.Redials), "count"},
		"wire_bytes_per_query":           {ratio(float64(un.wireBytes), float64(un.queries)), "B"},
		"trace.overhead_ratio":           {ratio(mean(tr.latencies), mean(un.latencies)) - 1, "ratio"},
		"error_rate":                     {float64(failed) / float64(attempted), "ratio"},
	}
	if in.svc != nil {
		metrics["service.to_first_round_ms"] = metric{perReq(s.firstMs), "ms"}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

type serviceCounters struct {
	planHits, planMisses, statsHits, statsMisses int64
	evictions, coalesced, shed                   int64
}

func (in *instance) serviceCounters() serviceCounters {
	if in.svc == nil {
		return serviceCounters{}
	}
	st := in.svc.Stats()
	return serviceCounters{
		planHits: st.PlanCache.Hits, planMisses: st.PlanCache.Misses,
		statsHits: st.StatsCache.Hits, statsMisses: st.StatsCache.Misses,
		evictions: st.PlanCache.Evictions + st.StatsCache.Evictions,
		coalesced: st.Coalesced, shed: st.Shed,
	}
}

func (a serviceCounters) sub(b serviceCounters) serviceCounters {
	return serviceCounters{
		planHits: a.planHits - b.planHits, planMisses: a.planMisses - b.planMisses,
		statsHits: a.statsHits - b.statsHits, statsMisses: a.statsMisses - b.statsMisses,
		evictions: a.evictions - b.evictions, coalesced: a.coalesced - b.coalesced, shed: a.shed - b.shed,
	}
}

// timePlans times the benchmark's own calls into each planning layer's
// public entry point, on the workload's inputs: per layer, the mean over
// the kinds that reach it of the median time of one uncached call. A
// layer no kind reaches reads 0.
func (in *instance) timePlans() map[string]float64 {
	sum, n := map[string]float64{}, map[string]int{}
	for _, k := range in.kinds {
		if k.plan == nil {
			continue
		}
		var times []float64
		budget := time.Now().Add(100 * time.Millisecond)
		for len(times) < 5 || (len(times) < 50 && time.Now().Before(budget)) {
			start := time.Now()
			k.plan()
			times = append(times, float64(time.Since(start))/float64(time.Millisecond))
		}
		sum[k.layer] += median(times)
		n[k.layer]++
	}
	for l := range sum {
		sum[l] /= float64(n[l])
	}
	return sum
}

// appendChrome adds one request's events to the cycle's Chrome trace: each
// request and rank gets its own block of process ids, and timestamps are
// shifted to the request's start within the cycle.
func appendChrome(dst *[]chromeEvent, out stepOut, req int, offset time.Duration) error {
	for r, tr := range out.traces {
		evs, err := readChrome(tr)
		if err != nil {
			return err
		}
		for _, ev := range evs {
			ev.Pid += 1000 * (req*len(out.traces) + r)
			ev.Ts += float64(offset) / float64(time.Microsecond)
			*dst = append(*dst, ev)
		}
	}
	return nil
}

func writeChrome(dir, file string, evs []chromeEvent) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	data, err := json.Marshal(chromeFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
	if err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between the
// two nearest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
