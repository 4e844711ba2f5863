package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestKernelsSorted checks that PTA's kernels print in name order and
// that repeated runs print the same bytes (the kernel table is a map).
func TestKernelsSorted(t *testing.T) {
	var first []byte
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := run(&buf, "PTA", false); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("run %d printed different output from run 0", i)
		}
	}
	var kernels []string
	for _, line := range strings.Split(string(first), "\n") {
		if name, ok := strings.CutPrefix(line, "callgraph of "); ok {
			kernels = append(kernels, name[:strings.Index(name, ":")])
		}
	}
	if len(kernels) < 2 {
		t.Fatalf("found %d kernels in PTA's output, want several", len(kernels))
	}
	if !slices.IsSorted(kernels) {
		t.Errorf("kernels not in name order: %v", kernels)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if err := run(&bytes.Buffer{}, "NOPE", false); err == nil {
		t.Error("unknown workload accepted")
	}
}
