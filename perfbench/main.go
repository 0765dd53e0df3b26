// Command perfbench is the PME serving benchmark. It starts the real
// cmd/pme binary as a child process, drives one named workload against
// it over loopback, checks every estimate bit for bit against an
// in-process reference, and prints a JSON result as its last line of
// standard output.
//
// Usage (from the repository root; perfbench/run.sh builds both
// binaries first):
//
//	perfbench -pme <path to cmd/pme binary> --workload estimate-small \
//	    --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run, and the spans are
// written as NDJSON under -out. See NOTES.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"yourandvalue/internal/core"
)

// setups is how many times a run boots cmd/pme to time its set-up.
const setups = 3

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same request bodies and schedules")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	pmeBin := flag.String("pme", ".bench_build/bin/pme", "cmd/pme binary")
	outDir := flag.String("out", ".bench_build/trace", "directory the traced run writes its spans to")
	flag.Parse()

	w, ok := findWorkload(*workload)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := runConfig{
		W: w, Seed: *seed, Seconds: time.Duration(*seconds) * time.Second,
		PME: *pmeBin, Out: *outDir, Workers: runtime.NumCPU(),
	}
	var res *Result
	var err error
	if *traced == 1 {
		res, err = runTraced(ctx, cfg)
	} else {
		res, err = runPlain(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type runConfig struct {
	W       Workload
	Seed    int64
	Seconds time.Duration
	PME     string
	Out     string
	Workers int // connections and request goroutines: one per CPU
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// runPlain is the untraced run: it times set-up, drives the workload
// once and reports the end-to-end metrics.
func runPlain(ctx context.Context, cfg runConfig) (*Result, error) {
	in, err := BuildInputs(cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The peak resident set is reached while pme trains, before it is
	// ready, so every boot gives one; the last also served the drive.
	var setup, peaks []float64
	var p *PME
	for i := 0; i < setups; i++ {
		var d time.Duration
		p, d, err = StartPME(ctx, cfg.PME)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
		logf("setup %d: %.3fs", i+1, d.Seconds())
		if i < setups-1 {
			peak, err := p.PeakRSSMB()
			p.Stop()
			if err != nil {
				return nil, err
			}
			peaks = append(peaks, peak)
		}
	}
	defer p.Stop()
	run, err := drive(ctx, cfg, p, in, NewClient(p.Base, cfg.Workers, nil))
	if err != nil {
		return nil, err
	}
	peaks = append(peaks, run.PeakRSSMB)
	run.Report = append(run.Report,
		Line{"setup_s", fmt.Sprintf("%s (median of %d: %v)", f4(median(setup)), len(setup), fmtList(setup)), "s"},
		Line{"server_peak_rss_mb", fmt.Sprintf("%s (median of %d boots: %v)", f4(median(peaks)), len(peaks), fmtList(peaks)), "MB"},
	)
	printReport(cfg, run)
	return &Result{
		Correct:   run.Correct,
		Attempted: run.Attempted,
		Failed:    run.Failed,
		Metrics: map[string]Metric{
			"setup_s":                {median(setup), "s"},
			"latency_p50_ms":         {run.P50, "ms"},
			"server_cpu_us_per_item": {run.CPUUsPerItem, "us"},
			"server_peak_rss_mb":     {median(peaks), "MB"},
		},
	}, nil
}

// Run is one drive of a workload against a live server, with its
// output check done.
type Run struct {
	*Outcome
	PeakRSSMB float64
	Correct   bool
	Attempted int
	Failed    int
	Check     CheckResult
	Versions  int         // model versions the output check had a reference for
	Model     *core.Model // the model served when the drive started
}

// drive loads the reference for the served model, runs the workload,
// reads the server's peak RSS and /metrics, and checks every reply. The
// run is correct when at least one reply was checked and no request
// failed: transport errors, non-2xx replies, and replies the check found
// wrong or could not verify all count as failed.
func drive(ctx context.Context, cfg runConfig, p *PME, in *Inputs, client *Client) (*Run, error) {
	defer client.Close()
	ref := NewVerifier()
	m, err := client.FetchModel(ctx)
	if err != nil {
		return nil, fmt.Errorf("fetching the served model: %w", err)
	}
	if err := ref.Add(m); err != nil {
		return nil, err
	}
	out, err := cfg.W.Drive(ctx, &Env{Client: client, Server: p, In: in, Seconds: cfg.Seconds, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &Run{Outcome: out, Model: m}
	if r.PeakRSSMB, err = p.PeakRSSMB(); err != nil {
		return nil, err
	}
	if out.Scrape, err = p.Scrape(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	items := itemsOf(in)
	for _, replies := range [][]EstReply{out.Rec.Est, out.Rec.Streams} {
		c, err := ref.Check(replies, items)
		if err != nil {
			return nil, err
		}
		r.Check.Checked += c.Checked
		r.Check.Mismatched += c.Mismatched
		r.Check.Unverifiable += c.Unverifiable
	}
	for i := range out.Rec.Attempted {
		r.Attempted += out.Rec.Attempted[i]
		r.Failed += out.Rec.Failed[i]
	}
	r.Failed += r.Check.Mismatched + r.Check.Unverifiable
	r.Versions = ref.Versions()
	r.Correct = r.Check.Checked > 0 && r.Failed == 0
	if r.Attempted == 0 {
		return nil, errors.New("no request was attempted")
	}
	return r, nil
}

func printReport(cfg runConfig, r *Run) {
	fmt.Printf("workload %s  seed %d  measured %s  up to %d connections\n", cfg.W.Name, cfg.Seed, cfg.Seconds, cfg.Workers)
	fmt.Printf("  (%s)\n", cfg.W.Why)
	lines := append([]Line(nil), r.Report...)
	lines = append(lines,
		Line{"error_rate", fmt.Sprintf("%.6f (%d failed of %d attempted)", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted), "1"},
		Line{"output check", fmt.Sprintf("%d replies checked, %d mismatched, %d unverifiable, %d model versions",
			r.Check.Checked, r.Check.Mismatched, r.Check.Unverifiable, r.Versions), ""},
		Line{"server_cpu_us_per_item", f4(r.CPUUsPerItem), "us"},
		Line{"open-loop generator lag", r.Rec.Lag.Summarize().String(), "ms"},
		Line{"closed-loop reply-to-send gap", r.Rec.Gap.Summarize().String(), "ms"},
	)
	for _, l := range lines {
		fmt.Printf("  %-36s %s %s\n", l.Name, l.Value, l.Unit)
	}
	if len(r.Rec.Errors) > 0 {
		var errs []string
		for e, n := range r.Rec.Errors {
			errs = append(errs, fmt.Sprintf("%dx %s", n, e))
		}
		sort.Strings(errs)
		for _, e := range errs {
			fmt.Printf("  error: %s\n", e)
		}
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
