package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// hostInfo stamps a report with where it ran, so a 3× swing can be told
// apart from a different machine.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// Undersized flags a host with fewer than 2 cores: the two-worker
	// workloads then measure contention, not concurrency.
	Undersized bool `json:"undersized"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Undersized: runtime.NumCPU() < 2,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	// Outside a git checkout (the driver's copy is not one) the commit
	// stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func (h hostInfo) print() {
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
	if h.Undersized {
		fmt.Println("host: UNDERSIZED (fewer than 2 cores): two-worker workloads measure contention")
	}
}

// sameHost reports whether two reports may be compared: timing on
// unlike hosts says nothing about the code.
func sameHost(a, b hostInfo) bool {
	return a.CPUModel == b.CPUModel && a.NumCPU == b.NumCPU && a.GOMAXPROCS == b.GOMAXPROCS && a.GoVersion == b.GoVersion
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func compareFiles(pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	return compareReports(a, b, false)
}

// compareReports applies each end-to-end metric's bound to B against
// the baseline A, one row per workload and metric. A metric whose
// within-run spread exceeds its bound on either side is unresolved, not
// unchanged. Failed ops may not increase at all. At one seed the
// exact-repeat counts and fingerprints must be identical; requireExact
// (the self-check) makes a differing seed an error too.
func compareReports(a, b report, requireExact bool) error {
	if !sameHost(a.Host, b.Host) {
		return fmt.Errorf("refusing to compare unlike hosts:\n  A: %+v\n  B: %+v", a.Host, b.Host)
	}
	sameSeed := a.Seed == b.Seed
	if requireExact && !sameSeed {
		return fmt.Errorf("seeds differ (%d vs %d)", a.Seed, b.Seed)
	}
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	regressed, unresolved, inexact := 0, 0, 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return fmt.Errorf("workload %s missing from B", wa.Name)
		}
		fmt.Println(wa.Name)
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			// worse is the change in the metric's bad direction, as a
			// share of the baseline.
			worse := (vb.Value - va.Value) / va.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case va.Spread > d.Bound || vb.Spread > d.Bound:
				verdict = "UNRESOLVED (spread exceeds bound)"
				unresolved++
			case worse > d.Bound:
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Printf("  %-18s A %12.6g (±%.1f%%)  B %12.6g (±%.1f%%)  worse by %+.1f%% (bound %.0f%%)  %s\n",
				d.Name, va.Value, 100*va.Spread, vb.Value, 100*vb.Spread, 100*worse, 100*d.Bound, verdict)
		}
		if fa, fb := wa.FailedOpShare(), wb.FailedOpShare(); fb > fa {
			fmt.Printf("  %-18s A %g  B %g  REGRESSED (bound +0)\n", "failed_op_share", fa, fb)
			regressed++
		}
		if !sameSeed {
			continue
		}
		if wa.Fingerprint != wb.Fingerprint {
			fmt.Printf("  fingerprint differs at one seed: %s vs %s\n", short(wa.Fingerprint), short(wb.Fingerprint))
			inexact++
		}
		for _, d := range perLayer {
			if va, vb := wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value; d.Exact && va != vb {
				fmt.Printf("  exact count %s differs at one seed: %g vs %g\n", d.Name, va, vb)
				inexact++
			}
		}
	}
	if regressed+inexact > 0 {
		return fmt.Errorf("%d regressed, %d unresolved, %d exact-repeat mismatches", regressed, unresolved, inexact)
	}
	fmt.Printf("no regression (%d unresolved)\n", unresolved)
	return nil
}

// selfCheck runs the whole set twice on the same code and fails unless
// every end-to-end metric agrees within its bound in both directions
// and every exact-repeat count and fingerprint is equal. Unresolved
// metrics are reported, not failed.
func selfCheck(seed int64, sz sizes, b budget, outDir string) error {
	first, err := runSet(seed, sz, b, outDir)
	if err != nil {
		return err
	}
	second, err := runSet(seed, sz, b, outDir)
	if err != nil {
		return err
	}
	if n := first.failed() + second.failed(); n > 0 {
		return fmt.Errorf("%d failed ops", n)
	}
	if err := compareReports(first, second, true); err != nil {
		return err
	}
	return compareReports(second, first, true)
}
