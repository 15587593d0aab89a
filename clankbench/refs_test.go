package main

import (
	"testing"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/mibench"
)

func runContinuous(t *testing.T, src string) []uint32 {
	t.Helper()
	img, err := ccc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m := armsim.NewMachine()
	if err := m.Boot(img.Bytes); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(maxKernelCycles); err != nil {
		t.Fatal(err)
	}
	return m.Mem.Outputs
}

// TestKernelReferences checks each Go reference against the simulator's
// continuous run of the kernel it stands for.
func TestKernelReferences(t *testing.T) {
	for name, ref := range kernelRefs {
		b, ok := mibench.ByName(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		want := ref()
		if got := runContinuous(t, b.Source); !equalPrefix(got, want) {
			t.Errorf("%s: simulator %#x, Go reference %#x", name, got, want)
		}
	}
}

func TestMicroReference(t *testing.T) {
	for _, seed := range []uint32{0, 1, 0xdeadbeef, 0xffffffff} {
		want := refMicro(seed)
		got := runContinuous(t, microSource(seed))
		if len(got) != len(want) || !equalPrefix(got, want) {
			t.Errorf("seed %#x: simulator %#x, Go reference %#x", seed, got, want)
		}
	}
	if a, b := refMicro(1), refMicro(2); a[0] == b[0] {
		t.Error("different input seeds should give different outputs")
	}
}
