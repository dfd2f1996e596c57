package driver

import (
	"reflect"
	"testing"

	"gpushield/internal/kernel"
)

// resetScript drives a device through every allocator and one prepared
// launch per step, returning what a kernel would observe: buffer
// addresses, launch IDs, keys, tagged arguments, table and local
// locations, and mapping and memory contents.
func resetScript(t *testing.T, d *Device, k *kernel.Kernel) []any {
	t.Helper()
	var seen []any
	for i := 0; i < 3; i++ {
		buf := d.Malloc("buf", uint64(1000+900*i), false)
		svm := d.MallocManaged("svm", 3000)
		chunk, err := d.DeviceMalloc(64)
		if err != nil {
			t.Fatal(err)
		}
		l, err := d.PrepareLaunch(k, 2, 64, []Arg{BufArg(buf), BufArg(svm)}, ModeShield, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, buf.Base, svm.Base, chunk, l.KernelID, l.Key, l.Args, l.RBTBase,
			l.LocalPtrs, l.HeapPtr, d.Mapped(buf.Base+buf.Padded), d.Mem.ReadUint64(buf.Base))
		d.WriteUint64(buf, 0, 0xFEED)
	}
	return seen
}

// TestDeviceResetMatchesNew: a device used through every allocator, policy
// setter and the launch mutator reads after Reset(seed) exactly as
// NewDevice(seed): allocator cursors, heap, page map, RBT and budget state
// back at their defaults, no mutator, no live memory, and the same
// observable allocation and launch stream.
func TestDeviceResetMatchesNew(t *testing.T) {
	b := kernel.NewBuilder("reset")
	p := b.BufferParam("p", false)
	q := b.BufferParam("q", false)
	tmp := b.Local("tmp", 16)
	v := b.LoadGlobal(b.AddScaled(q, b.GlobalTID(), 4), 4)
	b.StoreLocal(tmp, kernel.Imm(4), v, 4)
	b.StoreGlobal(b.AddScaled(p, b.GlobalTID(), 4), v, 4)
	k := b.MustBuild()

	d := NewDevice(3)
	resetScript(t, d, k)
	d.SetFineGrainedHeap(true)
	d.SetIDBudget(1)
	d.SetRBTRecycle(true)
	d.SetLaunchMutator(func(l *Launch) { l.KernelID = 1 })
	resetScript(t, d, k)

	d.Reset(42)
	f := NewDevice(42)
	if live, _ := d.Mem.ChunkCounts(); live != 0 {
		t.Errorf("%d backing chunks live after Reset", live)
	}
	switch {
	case d.globalNext != f.globalNext, d.svmNext != f.svmNext, d.rbtNext != f.rbtNext, d.localNext != f.localNext:
		t.Error("allocator cursors not at their bases")
	case d.heap != nil, d.heapNext != 0, d.heapLimit != 0, len(d.heapChunks) != 0:
		t.Error("heap survives Reset")
	case len(d.mapped.spans) != 0:
		t.Error("page map survives Reset")
	case d.fineGrainHeap, d.idBudget != 0, d.rbtRecycle, d.rbtRegion != 0, len(d.rbtIDs) != 0:
		t.Error("policy or RBT state survives Reset")
	case d.launchMutator != nil:
		t.Error("launch mutator survives Reset")
	}
	if got, want := resetScript(t, d, k), resetScript(t, f, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset device observes\n%v\nfresh device\n%v", got, want)
	}
}
