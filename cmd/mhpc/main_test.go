package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mobilehpc/internal/core"
)

// parseJobs must accept positive integers and "auto", and reject —
// with an error, never a silent fallback — zero, negative, and
// garbage values, whether they come from -j or MHPC_PARALLEL.
func TestParseJobs(t *testing.T) {
	auto := runtime.GOMAXPROCS(0)
	cases := []struct {
		in      string
		want    int
		wantErr bool
	}{
		{"1", 1, false},
		{"4", 4, false},
		{"96", 96, false},
		{"auto", auto, false},
		{"0", 0, true},
		{"-1", 0, true},
		{"-8", 0, true},
		{"", 0, true},
		{"abc", 0, true},
		{"1.5", 0, true},
		{"4 ", 0, true},
		{" 4", 0, true},
		{"0x4", 0, true},
		{"AUTO", 0, true}, // case-sensitive, like every other flag value
	}
	for _, c := range cases {
		got, err := parseJobs(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseJobs(%q) = %d, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseJobs(%q) unexpected error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseJobs(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// The -j default comes from MHPC_PARALLEL verbatim (validation
// happens at parse time so a bad environment value is an error when
// the command runs, not a silent fallback to serial).
func TestDefaultJobsSpec(t *testing.T) {
	t.Setenv("MHPC_PARALLEL", "7")
	if got := defaultJobsSpec(); got != "7" {
		t.Errorf("defaultJobsSpec with MHPC_PARALLEL=7 = %q", got)
	}
	t.Setenv("MHPC_PARALLEL", "garbage")
	if got := defaultJobsSpec(); got != "garbage" {
		t.Errorf("defaultJobsSpec must pass the raw value through, got %q", got)
	}
	if _, err := parseJobs(defaultJobsSpec()); err == nil {
		t.Error("garbage MHPC_PARALLEL must fail parseJobs")
	}
}

// -intra is retired but still parsed: 1, its old default, is accepted
// so existing invocations keep working, and every other value fails
// the command before anything runs, with an error that points to -j.
func TestRetiredIntra(t *testing.T) {
	cases := []struct {
		in      string
		wantErr bool
	}{
		{"1", false},
		{"2", true},
		{"4", true},
		{"auto", true},
		{"0", true},
		{"-1", true},
		{"", true},
		{"abc", true},
		{" 1", true},
	}
	cmds := map[string]func([]string) error{"run": run, "all": all}
	for _, c := range cases {
		err := core.CheckIntra(c.in)
		if !c.wantErr {
			if err != nil {
				t.Errorf("CheckIntra(%q) unexpected error: %v", c.in, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("CheckIntra(%q) accepted a retired value", c.in)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "removed") || !strings.Contains(msg, "-j") {
			t.Errorf("CheckIntra(%q) error %q does not say the feature was removed and point to -j", c.in, msg)
		}
		for name, cmd := range cmds {
			err := cmd([]string{"-quick", "-j", "1", "-intra", c.in, "table1"})
			if err == nil || !strings.Contains(err.Error(), "-intra") {
				t.Errorf("%s -intra %q: err = %v, want the -intra rejection", name, c.in, err)
			}
		}
	}

	// -intra 1 runs exactly like no -intra at all.
	render := func(args ...string) string {
		t.Helper()
		f, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = f
		err = run(args)
		os.Stdout = stdout
		if err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	with := render("-quick", "-j", "1", "-intra", "1", "table1")
	without := render("-quick", "-j", "1", "table1")
	if with == "" || with != without {
		t.Errorf("run -intra 1 output differs from the default run:\n%s\nvs\n%s", with, without)
	}
}

// faultReport must be deterministic per (nodes, hours, seed) — the
// CLI-facing face of the fault-injection byte-identity guarantee —
// and must change when the seed does.
func TestFaultReportDeterministic(t *testing.T) {
	render := func(seed uint64) string {
		var b strings.Builder
		if err := faultReport(&b, 48, 72, seed); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := render(3), render(3)
	if a != b {
		t.Fatalf("same seed, different report:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"fault injection (§6.1/§6.3): seed 3, 72h job on 48 nodes",
		"machine MTBF", "checkpoint every", "injected:", "replay: makespan",
		"useful-work fraction",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("report missing %q:\n%s", want, a)
		}
	}
	if render(4) == a {
		t.Error("different fault seeds produced identical reports")
	}
}

// writeFileWith (the telemetry exporter sink) must be atomic: an
// exporter that fails mid-stream may not leave a truncated artifact —
// the previous file survives untouched and no temp file is left
// behind. This is the regression test for the old os.Create-then-write
// path, which left half a JSON trace on any error.
func TestWriteFileWithIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	if err := writeFileWith(path, func(w io.Writer) error {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("exporter failed")
	if err := writeFileWith(path, func(w io.Writer) error {
		io.WriteString(w, `{"traceEvents":[{"truncated`)
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the exporter's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"traceEvents":[]}` {
		t.Fatalf("previous trace corrupted by failed export: %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp residue after failed export: %d entries", len(ents))
	}
}

func TestFaultReportRejectsBadShape(t *testing.T) {
	var b strings.Builder
	if err := faultReport(&b, 0, 24, 1); err == nil {
		t.Error("0 nodes: want error")
	}
	if err := faultReport(&b, 96, 0, 1); err == nil {
		t.Error("0 hours: want error")
	}
}
