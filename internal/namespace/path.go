// Package namespace implements the datagrid logical namespace: the
// location-independent view of collections, data objects, replicas,
// user-defined metadata and access controls that the paper calls "data
// virtualization".
//
// The namespace holds *names and records only* — logical paths, replica
// pointers into physical resources, attribute/value metadata and ACLs.
// Bytes live in vfs resources; the DGMS layer keeps the two consistent.
package namespace

import (
	"fmt"
	"strings"

	"datagridflow/internal/dgferr"
)

// Sentinel errors for namespace operations. Each wraps its dgferr class,
// so errors.Is works against both the package sentinel and the public
// taxonomy (datagridflow.ErrNotFound, ...).
var (
	// ErrNotFound reports a missing path.
	ErrNotFound = dgferr.Mark(dgferr.ErrNotFound, "namespace: not found")
	// ErrExists reports a name collision.
	ErrExists = dgferr.Mark(dgferr.ErrExists, "namespace: already exists")
	// ErrNotCollection reports an object used where a collection is needed.
	ErrNotCollection = dgferr.Mark(dgferr.ErrInvalid, "namespace: not a collection")
	// ErrNotObject reports a collection used where an object is needed.
	ErrNotObject = dgferr.Mark(dgferr.ErrInvalid, "namespace: not a data object")
	// ErrNotEmpty reports a non-recursive remove of a non-empty collection.
	ErrNotEmpty = dgferr.Mark(dgferr.ErrInvalid, "namespace: collection not empty")
	// ErrBadPath reports a malformed logical path.
	ErrBadPath = dgferr.Mark(dgferr.ErrInvalid, "namespace: bad path")
	// ErrDenied reports an access-control rejection.
	ErrDenied = dgferr.Mark(dgferr.ErrPermission, "namespace: permission denied")
)

// CleanPath normalizes a logical path: it must be absolute, components are
// separated by single slashes, "." and empty components collapse, and ".."
// is rejected (grid paths are not relative). A path that is already clean
// is returned as is, without allocating.
func CleanPath(p string) (string, error) {
	if isClean(p) {
		return p, nil
	}
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

// isClean reports whether p is already in CleanPath's output form: "/",
// or "/" followed by slash-separated components none of which is empty,
// "." or "..".
func isClean(p string) bool {
	if p == "/" {
		return true
	}
	if p == "" || p[0] != '/' {
		return false
	}
	start := 1
	for i := 1; i <= len(p); i++ {
		if i < len(p) && p[i] != '/' {
			continue
		}
		switch p[start:i] {
		case "", ".", "..":
			return false
		}
		start = i + 1
	}
	return true
}

// nextSegment splits the first component off rest, a clean path with its
// leading slash removed.
func nextSegment(rest string) (seg, tail string) {
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i], rest[i+1:]
	}
	return rest, ""
}

// SplitPath returns the cleaned components of an absolute path; "/" yields
// an empty slice.
func SplitPath(p string) ([]string, error) {
	clean, err := CleanPath(p)
	if err != nil {
		return nil, err
	}
	if clean == "/" {
		return nil, nil
	}
	return strings.Split(clean[1:], "/"), nil
}

// Parent returns the parent path of p ("/" is its own parent).
func Parent(p string) string {
	clean, err := CleanPath(p)
	if err != nil || clean == "/" {
		return "/"
	}
	i := strings.LastIndexByte(clean, '/')
	if i == 0 {
		return "/"
	}
	return clean[:i]
}

// Base returns the last component of p ("" for the root).
func Base(p string) string {
	clean, err := CleanPath(p)
	if err != nil || clean == "/" {
		return ""
	}
	return clean[strings.LastIndexByte(clean, '/')+1:]
}

// Join concatenates path components under a base path.
func Join(base string, elems ...string) string {
	return base + "/" + strings.Join(elems, "/")
}
