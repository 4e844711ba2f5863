//go:build published

package experiments

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md and testdata/runs.golden")

// Files TestPublished regenerates, relative to this package.
const (
	publishedDoc = "../../EXPERIMENTS.md"
	runsGolden   = "testdata/runs.golden"
)

// TestPublished runs every exhibit once and checks every published
// number against it: the generated blocks of EXPERIMENTS.md (each
// exhibit's table and the headline joined from them) and, in
// testdata/runs.golden, the cycles and result digest of every
// simulation the exhibits ran. With -update it rewrites both files.
// A full run takes about 15 minutes on two cores; run it with
// `make published` (check) or `make experiments` (rewrite).
func TestPublished(t *testing.T) {
	r := NewRunner(runtime.NumCPU())
	tables, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string][]byte{}
	for _, tb := range append([]*Table{joinHeadlines(tables)}, tables...) {
		var b bytes.Buffer
		tb.Markdown(&b)
		blocks[tb.ID] = b.Bytes()
	}
	doc, err := os.ReadFile(publishedDoc)
	if err != nil {
		t.Fatal(err)
	}
	gotDoc, err := splice(doc, blocks)
	if err != nil {
		t.Fatalf("%s: %v", publishedDoc, err)
	}
	gotRuns, err := r.runLines()
	if err != nil {
		t.Fatal(err)
	}
	wantRuns, err := os.ReadFile(runsGolden)
	if err != nil && !*update {
		t.Fatal(err)
	}
	compare(t, publishedDoc, doc, gotDoc)
	compare(t, runsGolden, wantRuns, gotRuns)
}

// compare checks got against a file's contents, or rewrites the file
// under -update.
func compare(t *testing.T, path string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	t.Errorf("%s differs from a regeneration (rewrite with `make experiments`); %s", path, firstDiff(want, got))
}
