// Command docscheck keeps the documentation honest. It fails (exit 1)
// when the code and the prose disagree:
//
//   - every flag registered in cmd/*/main.go must be mentioned, as
//     -flagname, somewhere in README.md or docs/*.md;
//   - every metric registered through the obs registry must appear as
//     a `backticked` name in docs/METRICS.md (the same contract
//     internal/obs's contract test enforces, rechecked here so the CI
//     docs job stands alone), and every metric row of docs/METRICS.md
//     must name a metric some source still emits;
//   - every dgfctl verb must appear in README.md's CLI table (the
//     table is `dgfctl help -markdown` verbatim).
//
// CI runs it from the repository root in the docs job:
//
//	go run ./internal/infra/docscheck
//	go run ./internal/infra/docscheck -root /path/to/repo
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var (
	flagRe   = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration)\(\s*"([A-Za-z][A-Za-z0-9_.-]*)"`)
	metricRe = regexp.MustCompile(`\.(?:Counter|Gauge|Histogram|HistogramBuckets)\(\s*"([a-z][a-z0-9_]*)"`)
	verbRe   = regexp.MustCompile(`(?m)^\s*name:\s*"([a-z]+)",$`)
	// metricRowRe matches a METRICS.md table row whose first cell is a
	// backticked name.
	metricRowRe = regexp.MustCompile("^\\| `([a-z][a-z0-9_]*)` \\|")
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	problems, err := check(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "docscheck: %s\n", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// check returns one message per code/documentation mismatch.
func check(root string) ([]string, error) {
	corpus, err := docCorpus(root)
	if err != nil {
		return nil, err
	}
	var problems []string

	flags, err := cmdFlags(root)
	if err != nil {
		return nil, err
	}
	for _, f := range flags {
		if !mentionsFlag(corpus, f.name) {
			problems = append(problems,
				fmt.Sprintf("%s registers -%s but neither README.md nor docs/*.md mentions it", f.binary, f.name))
		}
	}

	metricsDoc, err := os.ReadFile(filepath.Join(root, "docs", "METRICS.md"))
	if err != nil {
		return nil, err
	}
	sources, err := goSources(root)
	if err != nil {
		return nil, err
	}
	for _, m := range sourceMetrics(sources) {
		if !strings.Contains(string(metricsDoc), "`"+m+"`") {
			problems = append(problems,
				fmt.Sprintf("metric %s is registered in code but missing from docs/METRICS.md", m))
		}
	}
	for _, m := range documentedMetrics(string(metricsDoc)) {
		// Some packages emit through small helpers (s.count("name")), so
		// a row is live when its name appears as a string literal in any
		// non-test source, not only at a registry call.
		if !strings.Contains(sources, `"`+m+`"`) {
			problems = append(problems,
				fmt.Sprintf("docs/METRICS.md documents metric %s but no source emits it", m))
		}
	}

	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return nil, err
	}
	ctl, err := os.ReadFile(filepath.Join(root, "cmd", "dgfctl", "main.go"))
	if err != nil {
		return nil, err
	}
	for _, m := range verbRe.FindAllStringSubmatch(string(ctl), -1) {
		// The README table rows open with "| `<verb>" because each
		// synopsis starts with its verb name.
		if !strings.Contains(string(readme), "| `"+m[1]) {
			problems = append(problems,
				fmt.Sprintf("dgfctl verb %q is missing from README.md's CLI table (regenerate it with `dgfctl help -markdown`)", m[1]))
		}
	}

	sort.Strings(problems)
	return problems, nil
}

type cmdFlag struct {
	binary string // e.g. "cmd/matrixd"
	name   string // e.g. "store-dir"
}

// cmdFlags scans every cmd/*/main.go for flag registrations.
func cmdFlags(root string) ([]cmdFlag, error) {
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil {
		return nil, err
	}
	if len(mains) == 0 {
		return nil, fmt.Errorf("no cmd/*/main.go under %s", root)
	}
	var flags []cmdFlag
	for _, path := range mains {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		binary := filepath.ToSlash(filepath.Join("cmd", filepath.Base(filepath.Dir(path))))
		for _, m := range flagRe.FindAllStringSubmatch(string(data), -1) {
			flags = append(flags, cmdFlag{binary: binary, name: m[1]})
		}
	}
	return flags, nil
}

// goSources concatenates every non-test Go source under root.
func goSources(root string) (string, error) {
	var b strings.Builder
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "docs":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b.Write(data)
		b.WriteByte('\n')
		return nil
	})
	return b.String(), err
}

// sourceMetrics returns the metric names registered through the obs
// registry in sources, mirroring internal/obs's contract test.
func sourceMetrics(sources string) []string {
	seen := map[string]bool{}
	for _, m := range metricRe.FindAllStringSubmatch(sources, -1) {
		seen[m[1]] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// documentedMetrics returns the names in the first column of the
// metric tables of docs/METRICS.md — the tables whose header row opens
// with "| name | type |".
func documentedMetrics(doc string) []string {
	var names []string
	inTable := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "| name | type |"):
			inTable = true
		case !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable:
			if m := metricRowRe.FindStringSubmatch(line); m != nil {
				names = append(names, m[1])
			}
		}
	}
	return names
}

// docCorpus concatenates README.md and every docs/*.md.
func docCorpus(root string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return "", err
	}
	paths = append(paths, filepath.Join(root, "README.md"))
	var b strings.Builder
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// mentionsFlag reports whether the corpus contains -name as a distinct
// token: preceded by start-of-text or a non-word character, and not
// running into a longer flag name (so -o does not match -open).
func mentionsFlag(corpus, name string) bool {
	re := regexp.MustCompile(`(^|[^-\w])-` + regexp.QuoteMeta(name) + `($|[^-\w])`)
	return re.MatchString(corpus)
}
