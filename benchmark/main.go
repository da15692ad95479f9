// Command benchmark is the repo's one wall-clock benchmark, socket to kernel.
// It drives four workloads (three serving paths and a training loop) and
// reports end-to-end metrics from an untraced window and per-layer metrics
// from a traced one; see README.md beside this file.
//
//	go run ./benchmark -seed 1 -out results.json       # every workload, each run in its own child process
//	go run ./benchmark -workload http_small -trace 0   # one run: end-to-end metrics, last line is JSON
//	go run ./benchmark -workload http_small -trace 1   # one run: per-layer metrics
//	go run ./benchmark -compare a.json b.json          # judge two result files by the bounds
//	go run ./benchmark -manifest > BENCHMARK.json      # the manifest, from the harness's own tables
//
// The harness measures from outside only: it times calls into exported
// functions and wraps exported interfaces, and every clock it reads is
// time.Now.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/parallel"
)

func main() {
	workload := flag.String("workload", "", "run this one workload in this process and print its result as the last line (default: run every workload, each in a child process)")
	seed := flag.Uint64("seed", 1, "seed of corpus generation, corpus walk order and arrival schedule")
	seconds := flag.Float64("seconds", runSeconds, "length of one run's measurement window")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics of an untraced window, 1 the per-layer metrics of a traced run")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the traced window's spans here as Chrome-trace JSON")
	out := flag.String("out", "", "without -workload: write the machine-readable results here")
	sets := flag.Int("sets", 1, "without -workload: how many complete sets of runs to make")
	compare := flag.Bool("compare", false, "compare two result files given as arguments; exit 1 if any metric is worse")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the harness's metric tables define it")
	flag.Parse()

	var err error
	switch {
	case *manifest:
		err = writeManifest(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result files")
			break
		}
		var worse bool
		worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && worse {
			os.Exit(1)
		}
	case *workload != "":
		err = runOne(runConfig{
			workload: *workload, seed: *seed, traced: *trace != 0, traceOut: *traceOut,
			window: time.Duration(*seconds * float64(time.Second)), log: os.Stdout,
		})
	default:
		err = runSets(*seed, *seconds, *sets, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process. The result is the last line of
// standard output; an incorrect run still prints it, and exits non-zero.
func runOne(cfg runConfig) error {
	if cfg.window <= 0 {
		return errors.New("-seconds must be positive")
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: outputs were not correct (%d of %d operations failed)", cfg.workload, res.Failed, res.Attempted)
	}
	return nil
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Env  environment `json:"env"`
	Sets []resultSet `json:"sets"`
}

type environment struct {
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"parallel_workers"`
	GitSHA     string  `json:"git_sha"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
	TracedHalf float64 `json:"traced_half_seconds"`
	Setups     int     `json:"setups_per_run"`
}

// resultSet is one complete set of runs: every workload, untraced and traced.
type resultSet struct {
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// gitSHA is the commit the harness was built from: the build's VCS stamp when
// it has one (go build), else what git says of the working directory (go run
// stamps nothing), else "unknown" (a checkout that is not a repository).
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return string(bytes.TrimSpace(out))
	}
	return "unknown"
}

// runSets runs every workload, untraced then traced, each run in a child
// process of its own, so tape caches, the tensor pool, GC state and VmHWM
// never leak from one run into the next.
func runSets(seed uint64, seconds float64, sets int, outPath, traceOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Env: environment{
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: parallel.Workers(), GitSHA: gitSHA(), Seed: seed,
		Seconds: seconds, TracedHalf: seconds / 2, Setups: setupRepeats,
	}}
	incorrect := 0
	for i := 0; i < sets; i++ {
		set := resultSet{Workloads: map[string]workloadResult{}}
		for _, w := range workloadDefs {
			var wr workloadResult
			for trace, dst := range []*result{&wr.EndToEnd, &wr.PerLayer} {
				args := []string{
					"-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				}
				if trace == 1 && traceOut != "" {
					args = append(args, "-trace-out", fmt.Sprintf("%s.%s.json", traceOut, w.Name))
				}
				res, err := runChild(self, args)
				if err != nil {
					return fmt.Errorf("%s (trace %d): %w", w.Name, trace, err)
				}
				if !res.Correct {
					incorrect++
				}
				*dst = res
			}
			set.Workloads[w.Name] = wr
		}
		file.Sets = append(file.Sets, set)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs reported incorrect outputs", incorrect)
	}
	return nil
}

// runChild runs this binary once more with args, passes its report through,
// and parses the result off the last line of its standard output. A child
// that ran to the end but judged its outputs incorrect exits 1 after
// printing its result; that result is returned, not an error.
func runChild(self string, args []string) (result, error) {
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(stdout.Bytes())
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || res.Metrics == nil {
		if runErr != nil {
			return result{}, runErr
		}
		return result{}, fmt.Errorf("child printed no result: %v", err)
	}
	return res, nil
}
