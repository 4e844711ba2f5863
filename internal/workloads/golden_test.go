package workloads_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/binfmt"
	"carsgo/internal/config"
	"carsgo/internal/isa"
	"carsgo/internal/sim"
	"carsgo/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the registry golden file")

const goldenPath = "testdata/registry.golden"

// programDigest hashes a linked program's binary image, or names why
// there is none.
func programDigest(t *testing.T, prog *isa.Program, err error) string {
	t.Helper()
	if errors.Is(err, abi.ErrRecursive) {
		return "recursive"
	}
	if err != nil {
		return "error"
	}
	var buf bytes.Buffer
	if err := binfmt.Write(&buf, prog); err != nil {
		t.Fatalf("%v", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// setupDigest hashes the launches Setup returns, the size of the output
// region it records, and device memory up to the allocation pointer.
func setupDigest(t *testing.T, w *workloads.Workload) string {
	t.Helper()
	prog, err := abi.Link(abi.Baseline, w.Modules()...)
	if err != nil {
		t.Fatalf("%s: link: %v", w.Name, err)
	}
	gpu, err := sim.New(config.V100(), prog)
	if err != nil {
		t.Fatalf("%s: new: %v", w.Name, err)
	}
	launches, err := w.Setup(gpu)
	if err != nil {
		t.Fatalf("%s: setup: %v", w.Name, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\nout %d\n", launches, len(w.Output(gpu)))
	if err := binary.Write(h, binary.LittleEndian, gpu.Global()[:gpu.Alloc(0)/4]); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// registryLine renders one workload's pinned facts: its Table I
// metadata, a digest of the linked program in every ABI mode and of
// the LTO build (inlined under carsgo.Compile's register budget, then
// linked Baseline), and a digest of what Setup puts on the device.
func registryLine(t *testing.T, w *workloads.Workload) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s suite=%s depth=%d cpki=%g factor=%q expect=%+v perf=%+v",
		w.Name, w.Suite, w.PaperCallDepth, w.PaperCPKI, w.SpeedupFactor, w.Expect, w.PerfExpect)
	mods := w.Modules()
	for _, mode := range abi.Modes {
		prog, err := abi.Link(mode, mods...)
		fmt.Fprintf(&b, " %s=%s", mode, programDigest(t, prog, err))
	}
	flat, err := abi.InlineAllBudget(128, mods...)
	var prog *isa.Program
	if err == nil {
		prog, err = abi.Link(abi.Baseline, flat)
	}
	fmt.Fprintf(&b, " lto=%s setup=%s\n", programDigest(t, prog, err), setupDigest(t, w))
	return b.String()
}

// TestRegistryGolden pins every registered workload — Table I, the perf
// cases and the negatives — to the exact programs it links to and the
// exact device image its Setup builds, so a change to how workloads
// are generated must show up as a reviewed golden diff. It runs no
// simulation. Regenerate with:
// go test ./internal/workloads/ -run RegistryGolden -update
func TestRegistryGolden(t *testing.T) {
	var b strings.Builder
	for _, set := range [][]*workloads.Workload{workloads.All(), workloads.PerfCases(), workloads.Negatives()} {
		for _, w := range set {
			b.WriteString(registryLine(t, w))
		}
	}
	got := b.String()

	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("golden mismatch at line %d:\n  got:  %s\n  want: %s\n(regenerate with -update)", i+1, g, w)
		}
	}
}
