package roarray_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocPathsExist checks that every backticked repository path in
// README.md and DESIGN.md names a file or directory that exists. A path is
// a backticked token without spaces that contains a slash and either starts
// with a top-level directory of the repository (`internal/core/engine.go`,
// `cmd/roabench`) or names a Go file (`serve/arena.go`, which must then be
// spelled from the root). URL paths (`/v1/track`), flags and standard
// library import paths (`math/rand`) are not repository paths.
func TestDocPathsExist(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	topDirs := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			topDirs[e.Name()] = true
		}
	}
	token := regexp.MustCompile("`([^`\\s]+)`")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range token.FindAllStringSubmatch(line, -1) {
				path := m[1]
				first, _, found := strings.Cut(path, "/")
				if !found || !(topDirs[first] || strings.HasSuffix(path, ".go")) {
					continue
				}
				if _, err := os.Stat(strings.TrimSuffix(path, "/")); err != nil {
					t.Errorf("%s:%d: `%s` does not exist", doc, i+1, path)
				}
			}
		}
	}
}
