// Command perfbench is the repository's benchmark: it runs one workload
// against the tempstream system, checks every output against a
// reference, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	perfbench --workload collect|ingest|query --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run times the benchmark's own calls into each layer
// and reports the per-layer ledger. See README.md for the catalog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a workload run's result: the checked operation counts,
// every metric, and one human line per metric naming its sample count.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     map[string]string
	causes    []string
}

func newOutcome() *outcome {
	return &outcome{Correct: true, Metrics: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric; note (optional) is printed beside it, e.g. the
// sample count behind a percentile.
func (o *outcome) set(name string, v float64, unit, note string) {
	o.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		o.notes[name] = note
	}
}

// fail counts one failed operation and keeps its cause (deduplicated,
// so the report names each distinct cause once).
func (o *outcome) fail(cause string) {
	o.Failed++
	o.Correct = false
	for _, c := range o.causes {
		if c == cause {
			return
		}
	}
	if len(o.causes) < 20 {
		o.causes = append(o.causes, cause)
	}
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds the run's stores; it is removed when the run ends.
	workDir string
	// spansPath receives the traced run's spans.
	spansPath string
	// corrupt perturbs the reference results, so tests can prove the
	// output checks are able to fail.
	corrupt bool
	// small shrinks the inputs for the benchmark's own tests.
	small bool
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"collect": runCollect,
	"ingest":  runIngest,
	"query":   runQuery,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: collect, ingest or query")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured phase length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer ledger")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/work", "directory for the run's stores and the traced run's span file")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload collect|ingest|query --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.spansPath = filepath.Join(cfg.workDir, "spans-"+cfg.workload+".jsonl")
	cfg.workDir = dir
	printMeta(os.Stdout, cfg)
	out, err := run(cfg)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing work dir:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := checkComplete(out, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !out.Correct {
		os.Exit(1)
	}
}

// printMeta records the run shape every number depends on.
func printMeta(w io.Writer, cfg config) {
	abs, _ := filepath.Abs(cfg.workDir)
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d go=%s os=%s/%s store_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(abs))
}

// report prints one human line per metric, then the JSON result as the
// last line.
func report(w io.Writer, o *outcome) error {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.Metrics[n]
		line := fmt.Sprintf("%-36s %14.6g %s", n, m.Value, m.Unit)
		if note := o.notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d fail_frac=%.6g correct=%v\n",
		o.Attempted, o.Failed, failFrac(o), o.Correct)
	for _, c := range o.causes {
		fmt.Fprintln(w, "# failure:", c)
	}
	b, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func failFrac(o *outcome) float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}

// memPeak samples the Go runtime's retained memory (mapped from the OS
// and not released back) while a measured phase runs. The process's own
// peak RSS is set during set-up, whose simulations dwarf the serving and
// query paths, so it cannot be used for them.
type memPeak struct {
	quit, done chan struct{}
	peak       uint64
}

// startMemPeak returns set-up's garbage to the OS and starts sampling.
func startMemPeak() *memPeak {
	debug.FreeOSMemory()
	m := &memPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			m.peak = max(m.peak, s[0].Value.Uint64()-s[1].Value.Uint64())
			select {
			case <-m.quit:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// stop ends the sampling and returns the peak in MiB.
func (m *memPeak) stop() float64 {
	close(m.quit)
	<-m.done
	return float64(m.peak) / (1 << 20)
}

// fsType names the filesystem holding dir (fsync cost depends on it).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
