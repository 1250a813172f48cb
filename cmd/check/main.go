// Command check is the standalone oracle: it reads candidate-execution
// traces (text or binary, files or stdin) and decides each against the
// bundled axiomatic memory models through the oracle package, with
// verdicts byte-identical to an in-process campaign's. A trace's models
// are checked strongest first on one worker, so a trace valid under one
// model is answered for the weaker ones without another check; the memo
// and -store answer what was decided before.
//
//	check -model TSO trace.txt            # human-readable verdicts
//	check -model all -json < traces.bin   # NDJSON, one verdict per line
//	check -store /var/mcversi/verdicts …  # durable cross-run memoization
//	check -emit-corpus text               # dump the litmus known-answer corpus
//
// Exit status: 0 when every trace is valid under every requested model,
// 1 when any violation was found, 2 on usage, decode, or I/O errors and
// on an input holding no trace.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/oracle"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "all", "model(s) to check against: a name, a comma-separated list, or 'all'")
	jsonOut := fs.Bool("json", false, "emit NDJSON verdicts (one oracle.Verdict per line) instead of text")
	parallel := fs.Int("parallel", 1, "verdict workers fanning out over independent traces (0 = all cores); text streams are decoded on every core whatever this says")
	storeDir := fs.String("store", "", "durable verdict store directory (shared across runs)")
	progress := fs.Bool("progress", false, "report phase breakdown and memo/fast-path counters to stderr")
	emitCorpus := fs.String("emit-corpus", "", "write the litmus known-answer corpus to stdout (text | binary) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(stderr, "check: -parallel must not be negative, got %d\n", *parallel)
		return 2
	}

	if *emitCorpus != "" {
		// The corpus is written, not checked: any other flag or an input
		// would be silently ignored.
		var extra []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "emit-corpus" {
				extra = append(extra, "-"+f.Name)
			}
		})
		if extra = append(extra, fs.Args()...); len(extra) > 0 {
			fmt.Fprintf(stderr, "check: -emit-corpus takes no other flag or file, not %s\n", strings.Join(extra, " "))
			return 2
		}
		return runEmitCorpus(*emitCorpus, stdout, stderr)
	}

	models, err := resolveModels(*model)
	if err != nil {
		fmt.Fprintln(stderr, "check:", err)
		return 2
	}

	//mcvlint:allow nondeterm stream-reading telemetry for -progress; never feeds verdicts
	readStart := time.Now()
	traces, readBytes, err := readTraces(fs.Args(), stdin)
	if err != nil {
		fmt.Fprintln(stderr, "check:", err)
		return 2
	}
	//mcvlint:allow nondeterm stream-reading telemetry for -progress; never feeds verdicts
	readWall := time.Since(readStart)

	memo := oracle.NewMemo()
	var store *oracle.Store
	if *storeDir != "" {
		store, err = oracle.OpenStore(*storeDir)
		if err != nil {
			fmt.Fprintln(stderr, "check:", err)
			return 2
		}
		defer store.Close()
	}
	opts := oracle.Options{Memo: memo}
	if store != nil {
		opts.Store = store
	}

	// One worker = one Checker per model (Checkers are single-goroutine;
	// the memo and store are the shared tiers). A job is one trace, whose
	// models the worker checks in order, strongest first, so a weaker
	// model never races ahead of the stronger one's proof. Verdicts land
	// in input-order slots.
	workers := *parallel
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(traces) && len(traces) > 0 {
		workers = len(traces)
	}
	verdicts := make([][]oracle.Verdict, len(traces))
	errs := make([]error, len(traces))
	for i := range verdicts {
		verdicts[i] = make([]oracle.Verdict, len(models))
	}
	jobs := make(chan int)
	var (
		wg        sync.WaitGroup
		statMu    sync.Mutex
		phases    oracle.PhaseSnapshot
		fastpath  oracle.FastpathStats
		buildErrs []error
	)
	for w := 0; w < workers; w++ {
		checkers := make([]*oracle.Checker, len(models))
		var berr error
		for mi, m := range models {
			checkers[mi], berr = oracle.NewChecker(m, opts)
			if berr != nil {
				break
			}
		}
		if berr != nil {
			buildErrs = append(buildErrs, berr)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range jobs {
				for mi, c := range checkers {
					// A trace that cannot be materialized fails every
					// model with the same error.
					if verdicts[ti][mi], errs[ti] = c.CheckTrace(traces[ti], ti); errs[ti] != nil {
						break
					}
				}
			}
			statMu.Lock()
			for _, c := range checkers {
				phases = phases.Merge(c.Phases())
				fastpath.Merge(c.Fastpath())
			}
			statMu.Unlock()
		}()
	}
	if len(buildErrs) > 0 {
		close(jobs)
		wg.Wait()
		fmt.Fprintln(stderr, "check:", buildErrs[0])
		return 2
	}
	for ti := range traces {
		jobs <- ti
	}
	close(jobs)
	wg.Wait()

	status := 0
	enc := json.NewEncoder(stdout)
	for ti := range traces {
		if err := errs[ti]; err != nil {
			fmt.Fprintf(stderr, "check: trace %d: %v\n", ti, err)
			status = 2
			continue
		}
		for mi := range models {
			v := verdicts[ti][mi]
			if !v.Valid && status == 0 {
				status = 1
			}
			if *jsonOut {
				if err := enc.Encode(v); err != nil {
					fmt.Fprintln(stderr, "check:", err)
					return 2
				}
				continue
			}
			name := v.Name
			if name == "" {
				name = fmt.Sprintf("trace %d", v.Index)
			}
			if v.Valid {
				fmt.Fprintf(stdout, "%s: %s valid\n", name, v.Model)
			} else {
				fmt.Fprintf(stdout, "%s: %s INVALID (%s): %s\n", name, v.Model, v.Kind, v.Detail)
			}
		}
	}

	if *progress {
		fmt.Fprintf(stderr, "[obs] stream reading: %d traces, %d bytes in %.1f ms (%.1f MB/s)\n",
			len(traces), readBytes, readWall.Seconds()*1e3, float64(readBytes)/1e6/max(readWall, time.Nanosecond).Seconds())
		fmt.Fprintf(stderr, "[obs] %d traces × %d models; phase breakdown: %s\n",
			len(traces), len(models), phases)
		d := memo.Stats()
		if d.Checks > 0 {
			fmt.Fprintf(stderr, "[obs] collective checking: %s\n", d)
		}
		if fastpath.Checks > 0 {
			fmt.Fprintf(stderr, "[obs] checker fast path: %s\n", fastpath)
		}
	}
	if store != nil {
		if err := store.Close(); err != nil {
			fmt.Fprintln(stderr, "check:", err)
			return 2
		}
	}
	return status
}

// resolveModels expands the -model flag into validated model names, each
// once, in the bundled containment order whatever order the flag lists
// them in: output lists strongest first, and a worker checks a trace's
// models in the order that lets a valid verdict answer the weaker ones.
func resolveModels(spec string) ([]string, error) {
	if spec == "all" || spec == "" {
		return oracle.Models(), nil
	}
	asked := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		m, err := oracle.ModelByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		asked[m.Name()] = true
	}
	var out []string
	for _, m := range oracle.Models() {
		if asked[m] {
			out = append(out, m)
		}
	}
	return out, nil
}

// readTraces decodes every trace from the named files in order, or from
// stdin when no files (or "-") are given; each stream names its own
// format. It also returns how many bytes it read. Each file is closed
// once it is decoded, so any number of files can be read. An error names
// its file, if it has one. An input holding no trace is an error: an
// empty stream, as from a producer that died before writing, must not
// read as "every trace valid".
func readTraces(files []string, stdin io.Reader) ([]*oracle.Trace, int64, error) {
	if len(files) == 0 {
		files = []string{"-"}
	}
	var (
		traces []*oracle.Trace
		in     countingReader // over every input in turn
	)
	for _, name := range files {
		var f *os.File
		in.r = stdin
		if name != "-" {
			var err error
			if f, err = os.Open(name); err != nil {
				return nil, 0, err
			}
			in.r = f
		}
		got, err := oracle.DecodeTraces(&in)
		if f != nil {
			f.Close()
		}
		switch {
		case err != nil && name == "-":
			return nil, 0, err
		case err != nil:
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		case len(got) == 0 && name == "-":
			return nil, 0, errors.New("stdin: no trace in the input")
		case len(got) == 0:
			return nil, 0, fmt.Errorf("%s: no trace in the input", name)
		}
		traces = append(traces, got...)
	}
	return traces, in.n, nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// runEmitCorpus dumps the bundled litmus classics as a trace stream —
// the known-answer input CI pipes back through check.
func runEmitCorpus(format string, stdout, stderr io.Writer) int {
	corpus, err := oracle.LitmusCorpus()
	if err != nil {
		fmt.Fprintln(stderr, "check:", err)
		return 2
	}
	traces := make([]*oracle.Trace, len(corpus))
	for i, e := range corpus {
		traces[i] = e.Trace
	}
	switch format {
	case "text":
		err = oracle.WriteTraces(stdout, traces...)
	case "binary":
		err = oracle.WriteTracesBinary(stdout, traces...)
	default:
		fmt.Fprintf(stderr, "check: -emit-corpus %q (want text or binary)\n", format)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "check:", err)
		return 2
	}
	return 0
}
