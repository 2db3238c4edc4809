package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsConsistent runs the real checker against the real tree:
// the repository must pass its own docs gate.
func TestRepoIsConsistent(t *testing.T) {
	problems, err := check("../../..")
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	for _, p := range problems {
		t.Errorf("%s", p)
	}
}

// TestCatchesUndocumentedFlag builds a minimal fake repo with one flag
// that no document mentions and one that README covers.
func TestCatchesUndocumentedFlag(t *testing.T) {
	root := fakeRepo(t, map[string]string{
		"cmd/srv/main.go": `package main
import "flag"
func main() {
	flag.String("addr", "", "listen address")
	flag.Bool("turbo-mode", false, "undocumented")
}`,
		"README.md":       "Run srv with `-addr` set.\n",
		"docs/METRICS.md": "",
	})
	problems, err := check(root)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "-turbo-mode") {
		t.Fatalf("want exactly the -turbo-mode problem, got %q", problems)
	}
}

// TestCatchesUndocumentedMetric registers a metric the docs lack.
func TestCatchesUndocumentedMetric(t *testing.T) {
	root := fakeRepo(t, map[string]string{
		"cmd/srv/main.go": "package main\nfunc main() {}",
		"internal/x/x.go": `package x
type reg struct{}
func (reg) Counter(name string) {}
func emit(r reg) {
	r.Counter("frames_total")
	r.Counter("drops_total")
}`,
		"README.md":       "",
		"docs/METRICS.md": "| `frames_total` | counter |\n",
	})
	problems, err := check(root)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "drops_total") {
		t.Fatalf("want exactly the drops_total problem, got %q", problems)
	}
}

// TestCatchesStaleMetricRow documents a metric no source emits: a
// removed metric must not linger in the tables. Metrics emitted through
// a helper count as live, and rows of non-metric tables are ignored.
func TestCatchesStaleMetricRow(t *testing.T) {
	root := fakeRepo(t, map[string]string{
		"cmd/srv/main.go": "package main\nfunc main() {}",
		"internal/x/x.go": `package x
type reg struct{}
func (reg) Counter(name string) {}
func count(r reg, name string) { r.Counter(name) }
func emit(r reg) {
	r.Counter("frames_total")
	count(r, "acks_total")
}`,
		"README.md": "",
		"docs/METRICS.md": "| name | type | labels |\n|---|---|---|\n" +
			"| `frames_total` | counter | — |\n| `acks_total` | counter | — |\n| `gone_total` | counter | — |\n\n" +
			"| scope | name |\n|---|---|\n| `request` | frame kind |\n",
	})
	problems, err := check(root)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "gone_total") {
		t.Fatalf("want exactly the gone_total problem, got %q", problems)
	}
}

// TestFlagTokenBoundaries: -o must not be satisfied by -open.
func TestFlagTokenBoundaries(t *testing.T) {
	if mentionsFlag("use -open for demo mode", "o") {
		t.Fatal("-open must not satisfy -o")
	}
	if !mentionsFlag("write the report with -o out.json", "o") {
		t.Fatal("-o should be found as a standalone token")
	}
	if !mentionsFlag("`-o` writes the report", "o") {
		t.Fatal("backticked -o should be found")
	}
}

// fakeRepo materializes files under a temp root. A cmd/dgfctl/main.go
// with no verbs is added if absent so the verb check has its input.
func fakeRepo(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	if _, ok := files["cmd/dgfctl/main.go"]; !ok {
		files["cmd/dgfctl/main.go"] = "package main\nfunc main() {}"
	}
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}
