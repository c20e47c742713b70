// Command perfbench is the repository benchmark. It runs one workload of
// the simulator CLI (cmd/mobisim) as child processes, one at a time, and
// prints the workload's metrics as the last line of its output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones: host wall time,
// set-up time and peak memory, plus the simulated throughput and uplink
// cost, which repeat exactly for a given -seed (a run averages them over
// the simulation seeds it derives from it). With -trace 1 they are the
// per-layer ones: exact counts from the simulator's JSON, derived
// population costs, timed probes of each layer's exported functions, and
// the CPU self time of each package from a separate profiled run.
//
// Every simulator run must pass a correctness gate (clean exit, no stale
// read, the accounting identities, and a digest that repeats across runs
// of the same seed); attempted and failed count those runs.
//
// Build and run it from the repository root with perfbench/run.sh, which
// builds both binaries from source:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

const (
	// seedsPerRun is how many simulation seeds a run derives from its
	// -seed. Pass i simulates seed index i mod seedsPerRun, so the
	// simulated figures average over seedsPerRun seeds (one seed of the
	// adversarial or sparse-feedback workloads is too few for a steady
	// figure) and later passes repeat earlier seeds for the digest check.
	// It is also the fewest measured passes a run makes.
	seedsPerRun = 4
	// Set-up passes repeat until both bounds are met, up to maxSetup.
	minSetup, maxSetup = 5, 25
	setupBudget        = 2 * time.Second
	// runDeadline bounds the whole benchmark run; a child still running
	// then is killed and counted as failed.
	runDeadline = 170 * time.Second
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	mobisim  string
	tmp      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: table1, fanout-100k or churn-hotcold")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the simulations and the probe inputs")
	flag.IntVar(&o.seconds, "seconds", 25, "seconds to spend on measured passes (at least 4 passes run)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from counts, probes and a profiled run")
	flag.StringVar(&o.mobisim, "mobisim", "", "path of the built mobisim binary")
	flag.StringVar(&o.tmp, "tmp", "", "directory for CPU profiles")
	flag.Parse()
	if err := benchmark(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchmark(o options) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	}
	if o.mobisim == "" || o.tmp == "" {
		return errors.New("-mobisim and -tmp are required")
	}
	if _, err := os.Stat(o.mobisim); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	b := &bench{ctx: ctx, w: w, seed: o.seed, mobisim: o.mobisim, digests: digests{}}
	printEnv()

	setup := b.passes(w.setupHorizon(), "", minSetup, setupBudget, maxSetup)
	measured := b.passes(w.horizon, "", seedsPerRun, time.Duration(o.seconds)*time.Second, 1<<30)
	if len(measured) < seedsPerRun || len(setup) == 0 {
		return b.finish(nil, errors.New("too few passes completed without failures"))
	}
	seeded := measured[:seedsPerRun]
	t := timingsOf(measured, setup)
	fmt.Fprintf(os.Stderr, "perfbench: %s pass seconds: set-up %s; measured %s\n",
		w.name, passWalls(setup), passWalls(measured))
	if o.trace == 0 {
		return b.finish(pick(endToEndDefs, endToEnd(t, seeded)))
	}

	values := layerCounts(seeded)
	for k, v := range derived(w, t) {
		values[k] = v
	}
	traced, shares, err := b.tracedPass(o.tmp)
	if err != nil {
		return b.finish(nil, err)
	}
	for k, v := range shares {
		values[k] = v
	}
	values["trace.overhead_ratio"] = traced.wall() / t.wall
	probes, err := runProbes(w, o.seed, int(values["sim.peak_event_queue"]))
	if err != nil {
		return b.finish(nil, err)
	}
	for k, v := range probes {
		values[k] = v
	}
	return b.finish(pick(perLayerDefs, values))
}

// bench runs the simulator children of one workload and keeps the gate's
// tally.
type bench struct {
	ctx       context.Context
	w         workload
	seed      uint64
	mobisim   string
	digests   digests
	attempted int
	failed    int
}

// finish prints the result line. A run whose metrics could not all be
// measured is reported as incorrect with what it has.
func (b *bench) finish(m map[string]metric, err error) error {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if m == nil {
		m = map[string]metric{}
	}
	fmt.Printf("failed share: %d of %d simulator runs\n", b.failed, b.attempted)
	line, jerr := json.Marshal(result{
		Correct:   err == nil && b.failed == 0 && b.attempted > 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   m,
	})
	if jerr != nil {
		return jerr
	}
	fmt.Println(string(line))
	return nil
}

// passes runs whole passes over the workload's invocations at the given
// horizon until at least minN passes are done and budget has elapsed, or
// maxN passes are done. A pass with a failed run is not kept.
func (b *bench) passes(horizon float64, profileDir string, minN int, budget time.Duration, maxN int) []pass {
	var out []pass
	start := time.Now()
	for n := 0; n < maxN && (n < minN || time.Since(start) < budget); n++ {
		if b.ctx.Err() != nil {
			break
		}
		if p, ok := b.pass(horizon, profileDir, n); ok {
			out = append(out, p)
		}
	}
	return out
}

// pass runs every invocation once; with profileDir set each run writes a
// CPU profile there.
func (b *bench) pass(horizon float64, profileDir string, index int) (pass, bool) {
	p := make(pass, 0, len(b.w.schemes))
	ok := true
	for i, scheme := range b.w.schemes {
		args := b.w.args(scheme, horizon, simSeed(b.seed, index))
		if profileDir != "" {
			args = append(args, "-cpuprofile", profilePath(profileDir, b.w, i))
		}
		r, err := b.child(args)
		if err == nil {
			key := fmt.Sprintf("%s@%g/%d", scheme, horizon, simSeed(b.seed, index))
			err = b.digests.check(key, digestOf(r.res))
		}
		b.attempted++
		if err != nil {
			b.failed++
			ok = false
			fmt.Fprintf(os.Stderr, "perfbench: %s pass %d, %s: %v\n", b.w.name, index, scheme, err)
			continue
		}
		p = append(p, r)
	}
	return p, ok
}

// simSeed is the simulation seed of pass index of a run with the given
// benchmark seed; runs with different benchmark seeds share none.
func simSeed(seed uint64, index int) uint64 {
	return seed*seedsPerRun + uint64(index%seedsPerRun)
}

func passWalls(ps []pass) string {
	s := make([]string, len(ps))
	for i, p := range ps {
		s[i] = fmt.Sprintf("%.3f", p.wall())
	}
	return strings.Join(s, " ")
}

func profilePath(dir string, w workload, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d.pprof", w.name, i))
}

// child runs one simulator process to completion and gates its output.
func (b *bench) child(args []string) (run, error) {
	cmd := exec.CommandContext(b.ctx, b.mobisim, args...)
	cmd.Stderr = os.Stderr
	// The child dies with the benchmark, so no simulator outlives it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out strings.Builder
	cmd.Stdout = &out
	start := time.Now()
	err := cmd.Run()
	r := run{wall: time.Since(start).Seconds()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.rssKB = ru.Maxrss
		}
	}
	r.res, err = gate(err, []byte(out.String()))
	return r, err
}

// tracedPass runs every invocation once more with -cpuprofile, checks the
// traced digests against the untraced ones, and folds the profiles into
// per-module shares of CPU time.
func (b *bench) tracedPass(tmp string) (pass, map[string]float64, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, nil, err
	}
	p, ok := b.pass(b.w.horizon, tmp, 0)
	if !ok {
		return nil, nil, errors.New("traced pass failed")
	}
	modules := map[string]int64{}
	var total int64
	for i := range b.w.schemes {
		path := profilePath(tmp, b.w, i)
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		if err := os.Remove(path); err != nil {
			return nil, nil, err
		}
		self, t, err := selfTimes(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		foldModules(self, modules)
		total += t
	}
	if total == 0 {
		return nil, nil, errors.New("traced pass recorded no CPU samples")
	}
	shares := map[string]float64{}
	hot := ""
	for _, m := range selfShareModules {
		shares[m+".self_share"] = float64(modules[m]) / float64(total)
		if hot == "" || modules[m] > modules[hot] {
			hot = m
		}
	}
	fmt.Printf("hot layer: %s (%.3f of CPU time in the traced run)", hot, shares[hot+".self_share"])
	if slices.Contains(b.w.seedHot, hot) {
		fmt.Println(", as in the seed profile")
	} else {
		fmt.Printf("; the seed profile's hot layer was %s\n", strings.Join(b.w.seedHot, " and "))
	}
	return p, shares, nil
}

// printEnv records the machine the figures come from.
func printEnv() {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	line, _ := json.Marshal(env) // a map of strings and ints always marshals
	fmt.Printf("env: %s\n", line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
