package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// recordEnv records the run environment with the result: CPUs,
// GOMAXPROCS, Go version, the source revision, and the filesystem the
// store directories live on (all under cfg.work).
func recordEnv(out *outcome, cfg config) {
	out.info["nproc"] = runtime.NumCPU()
	out.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.info["go_version"] = runtime.Version()
	out.info["commit"] = revision(filepath.Dir(filepath.Dir(cfg.work)))
	out.info["store_fs"] = fsType(cfg.work)
	out.info["seed"] = cfg.seed
}

// revision names the source the benchmark was built from: the git
// commit when the checkout is a git work tree, otherwise a digest of
// every Go source and module file (a checkout without history).
func revision(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
				return strings.TrimSpace(string(id))
			}
			return "git:" + name
		}
		return ref
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write(data)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
