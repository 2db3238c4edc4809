package namespace

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// cleanPathRef is the split/join CleanPath that the in-place fast path
// must agree with.
func cleanPathRef(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", fmt.Errorf("%w: %q must be absolute", ErrBadPath, p)
	}
	parts := strings.Split(p, "/")
	out := make([]string, 0, len(parts))
	for _, part := range parts {
		switch part {
		case "", ".":
			continue
		case "..":
			return "", fmt.Errorf("%w: %q contains '..'", ErrBadPath, p)
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return "/", nil
	}
	return "/" + strings.Join(out, "/"), nil
}

// FuzzCleanPath checks CleanPath against the split/join reference: the
// same accept/reject decision and error, the same result, idempotence,
// and that a cleaned path is returned as is.
func FuzzCleanPath(f *testing.F) {
	for _, s := range []string{
		"", "/", "//", "a", "a/b", "/a", "/a/b/c", "/a/", "/a//b", "/./a", "/a/.",
		"/.", "/..", "/a/../b", "/a/..", "/...", "/.a/b.", "/a/..b", "/a/ /b", "/\x00",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p string) {
		got, err := CleanPath(p)
		want, werr := cleanPathRef(p)
		if (err == nil) != (werr == nil) {
			t.Fatalf("CleanPath(%q) err = %v, reference err = %v", p, err, werr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadPath) || err.Error() != werr.Error() {
				t.Fatalf("CleanPath(%q) err = %v, reference err = %v", p, err, werr)
			}
			return
		}
		if got != want {
			t.Fatalf("CleanPath(%q) = %q, reference %q", p, got, want)
		}
		if !isClean(got) {
			t.Fatalf("CleanPath(%q) = %q, which the fast path does not accept", p, got)
		}
		again, err := CleanPath(got)
		if err != nil || again != got {
			t.Fatalf("CleanPath(%q) = %q, %v; not idempotent", got, again, err)
		}
		if isClean(p) != (p == got) {
			t.Fatalf("isClean(%q) = %v but CleanPath gives %q", p, isClean(p), got)
		}
	})
}

func TestCleanPathAllocs(t *testing.T) {
	for _, p := range []string{"/", "/grid/home/ilm/f0001.dat"} {
		if n := testing.AllocsPerRun(100, func() {
			_, _ = CleanPath(p)
			_ = Parent(p)
			_ = Base(p)
		}); n != 0 {
			t.Errorf("CleanPath/Parent/Base(%q): %v allocs, want 0", p, n)
		}
	}
}
