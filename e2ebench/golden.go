package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// readGolden loads one of the registry captures the harness golden
// tests pin; the benchmark checks outputs against the same bytes.
func readGolden(root, name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "internal", "harness", "testdata", name))
	if err != nil {
		return "", fmt.Errorf("reading golden capture: %w", err)
	}
	return string(b), nil
}

// goldenSections splits a registry capture into its per-experiment
// sections, keyed by experiment id, plus the ids in capture order.
// A section starts at a "## <id> — <title>" line and runs up to the
// next such line, so it is exactly what rendering that one table
// prints.
func goldenSections(capture string) (map[string]string, []string, error) {
	sections := map[string]string{}
	var ids []string
	start, id := -1, ""
	closeSection := func(end int) {
		if start >= 0 {
			sections[id] = capture[start:end]
		}
	}
	for off := 0; off < len(capture); {
		line := capture[off:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i+1]
		}
		if rest, ok := strings.CutPrefix(line, "## "); ok {
			next, _, found := strings.Cut(rest, " ")
			if !found || next == "" {
				return nil, nil, fmt.Errorf("golden capture: malformed heading %q", strings.TrimSpace(line))
			}
			if _, dup := sections[next]; dup || next == id {
				return nil, nil, fmt.Errorf("golden capture: duplicate section %q", next)
			}
			closeSection(off)
			start, id = off, next
			ids = append(ids, next)
		}
		off += len(line)
	}
	closeSection(len(capture))
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("golden capture: no sections")
	}
	return sections, ids, nil
}
