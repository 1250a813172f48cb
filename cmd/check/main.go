// Command check is the standalone oracle: it reads candidate-execution
// traces (text or binary, files or stdin) and decides each against the
// bundled axiomatic memory models through the oracle package, with
// verdicts byte-identical to an in-process campaign's. It is flag
// parsing plus one oracle.CheckStream over every input in turn: traces
// are read, decided and printed as one stream, in input order and in
// bounded memory. A trace's models are checked strongest first on one
// worker, so a trace valid under one model is answered for the weaker
// ones without another check; the memo and -store answer what was
// decided before.
//
//	check -model TSO trace.txt            # human-readable verdicts
//	check -model all -json < traces.bin   # NDJSON, one verdict per line
//	check -store /var/mcversi/verdicts …  # durable cross-run memoization
//	check -emit-corpus text               # dump the litmus known-answer corpus
//
// Exit status: 0 when every trace is valid under every requested model,
// 1 when any violation was found, 2 on usage, decode, or I/O errors and
// on an input holding no trace. When reading fails at trace k, the
// verdicts of traces 0 to k−1 are printed before the error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
	progress := fs.Bool("progress", false, "report the traces and bytes read, phase breakdown and memo/fast-path counters to stderr")
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

	var (
		opts  oracle.Options
		store *oracle.Store
	)
	if *storeDir != "" {
		if store, err = oracle.OpenStore(*storeDir); err != nil {
			fmt.Fprintln(stderr, "check:", err)
			return 2
		}
		defer store.Close()
		opts.Store = store
	}

	in := &inputs{names: fs.Args(), stdin: stdin}
	if len(in.names) == 0 {
		in.names = []string{"-"}
	}
	defer in.close()
	status := 0
	enc := json.NewEncoder(stdout)
	stats, err := oracle.CheckStream(in, models, *parallel, opts, func(ti int, verdicts []oracle.Verdict, err error) error {
		if err != nil {
			fmt.Fprintf(stderr, "check: trace %d: %v\n", ti, err)
			status = 2
			return nil
		}
		for _, v := range verdicts {
			if !v.Valid && status == 0 {
				status = 1
			}
			if *jsonOut {
				if err := enc.Encode(v); err != nil {
					return err
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
		return nil
	})
	if err != nil {
		fmt.Fprintln(stderr, "check:", err)
		return 2
	}

	if *progress {
		fmt.Fprintf(stderr, "[obs] stream reading: %d traces, %d bytes\n", in.traces, in.bytes)
		fmt.Fprintf(stderr, "[obs] %d traces × %d models; phase breakdown: %s\n",
			in.traces, len(models), stats.Phases)
		if stats.Dedupe.Checks > 0 {
			fmt.Fprintf(stderr, "[obs] collective checking: %s\n", stats.Dedupe)
		}
		if stats.Fastpath.Checks > 0 {
			fmt.Fprintf(stderr, "[obs] checker fast path: %s\n", stats.Fastpath)
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

// inputs reads the traces of every input in turn as one stream,
// numbered across all of them: stdin for "-", else a file, opened once
// the input before it is done and closed at its end, so any number of
// files can be read. Each input names its own format, and an error names
// its file, if it has one. An input holding no trace is an error: an
// empty stream, as from a producer that died before writing, must not
// read as "every trace valid". It counts the bytes read and the traces
// returned.
type inputs struct {
	names  []string // the inputs not yet opened
	stdin  io.Reader
	name   string             // the open input's
	r      io.Reader          // the open input
	rd     oracle.TraceReader // its traces; nil between inputs
	got    int                // traces read from it
	traces int
	bytes  int64
}

// errNoTrace is the error of an input that holds no trace.
var errNoTrace = errors.New("no trace in the input")

func (s *inputs) Next() (*oracle.Trace, error) {
	for {
		if s.rd == nil {
			if len(s.names) == 0 {
				return nil, io.EOF
			}
			s.name, s.names, s.r, s.got = s.names[0], s.names[1:], s.stdin, 0
			if s.name != "-" {
				f, err := os.Open(s.name)
				if err != nil {
					return nil, err
				}
				s.r = f
			}
			rd, err := oracle.NewTraceReader(s, "auto")
			if err != nil {
				return nil, s.fail(err)
			}
			s.rd = rd
		}
		t, err := s.rd.Next()
		switch {
		case err == nil:
			s.got++
			s.traces++
			return t, nil
		case err != io.EOF:
			return nil, s.fail(err)
		case s.got == 0:
			return nil, s.fail(errNoTrace)
		}
		s.close()
	}
}

// Read reads the open input, counting its bytes.
func (s *inputs) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.bytes += int64(n)
	return n, err
}

// fail closes the open input and returns err naming it. A read error of
// stdin goes unnamed; its holding no trace names it.
func (s *inputs) fail(err error) error {
	s.close()
	switch {
	case s.name != "-":
		return fmt.Errorf("%s: %w", s.name, err)
	case err == errNoTrace:
		return fmt.Errorf("stdin: %w", err)
	}
	return err
}

// close closes the open input, if it is a file.
func (s *inputs) close() {
	if f, ok := s.r.(*os.File); ok && s.name != "-" {
		f.Close()
	}
	s.r, s.rd = nil, nil
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
